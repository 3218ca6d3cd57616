"""Command-line front end.

Commands: analyze, sc-feasible, sc-generate, char-table, isotype, milnor,
icss, conservation-check.  Reports are machine-readable first (JSON), with
text and CSV renderings behind --format.  Runs are reproducible: the random
seed for chain recombination defaults to a fixed constant and all algorithms
are deterministic.

Exit codes: 0 success; 1 input or parse error; 2 resource limit exceeded;
3 germ not A-finite (a partial report is still emitted); 4 sc-generate on
infeasible dimensions; 5 internal inconsistency detected; 6 invalid or
incomplete checker data (e.g. a missing correction term).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import invariants, isotype, multipoint, symrep
from .errors import (
    GermlabError,
    IncompleteDataError,
    InconsistentDataError,
    InvalidInputError,
    NotAFiniteError,
    ResourceLimitError,
)
from .icis import DEFAULT_SEED
from .localalg import DEFAULT_STEP_BUDGET, ideal_from_text
from .multipoint import InfeasibleDimensionsError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOURCE = 2
EXIT_NOT_A_FINITE = 3
EXIT_INFEASIBLE = 4
EXIT_INCONSISTENT = 5
EXIT_BAD_CHECK_DATA = 6

# Read top to bottom by main: the first class the error is an instance of
# decides, so every subclass comes before its bases.
EXIT_CODES: tuple[tuple[type[GermlabError], int], ...] = (
    (ResourceLimitError, EXIT_RESOURCE),
    (InfeasibleDimensionsError, EXIT_INFEASIBLE),
    (NotAFiniteError, EXIT_NOT_A_FINITE),
    (InconsistentDataError, EXIT_INCONSISTENT),
    (IncompleteDataError, EXIT_BAD_CHECK_DATA),
    (GermlabError, EXIT_INPUT),
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _frac_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else str(v)


def cmd_analyze(args) -> int:
    g = multipoint.germ_from_text(_read(args.germ))
    analysis = multipoint.analyze_germ(g, budget=args.budget_steps, seed=args.seed)
    report = invariants.build_report(analysis, tau=args.tau)
    _emit(report.to_json() if args.format == "json" else report.to_text(), args.output)
    return EXIT_OK if analysis.verdict.a_finite else EXIT_NOT_A_FINITE


def cmd_sc_feasible(args) -> int:
    report = multipoint.sc_feasibility_report(args.n, args.p)
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.output)
    else:
        _emit(
            f"({args.n}, {args.p}): feasible = {report['feasible']}  "
            f"kappa = {report['kappa']}  margin = {report['margin']}\n",
            args.output,
        )
    return EXIT_OK


def cmd_sc_generate(args) -> int:
    g = multipoint.generate_sc_germ(args.n, args.p, budget=args.budget_steps, seed=args.seed)
    _emit(g.serialize(), args.output)
    return EXIT_OK


def cmd_char_table(args) -> int:
    table = symrep.character_table_symmetric(args.k)
    if args.format == "json":
        payload = {
            "group_order": table.group_order,
            "classes": [
                {"label": lbl, "size": size}
                for lbl, size in zip(table.class_labels, table.class_sizes)
            ],
            "irreducibles": [
                {"label": lbl, "degree": int(table.degree(i)), "values": [int(v) for v in row]}
                for i, (lbl, row) in enumerate(zip(table.irrep_labels, table.values))
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    elif args.format == "csv":
        lines = ["irrep," + ",".join(table.class_labels)]
        for lbl, row in zip(table.irrep_labels, table.values):
            lines.append(lbl + "," + ",".join(_frac_str(v) for v in row))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(table.to_text(), args.output)
    return EXIT_OK


def cmd_isotype(args) -> int:
    table = symrep.table_from_text(_read(args.table))
    data_file = isotype.fixed_point_data_from_text(_read(args.data))
    taus = [args.tau] if args.tau else list(table.irrep_labels)
    out: dict[str, str] = {}
    if data_file.kind == "euler":
        for tau in taus:
            out[tau] = _frac_str(isotype.tau_characteristic(table, data_file.data, tau))
    else:
        if data_file.top_dim is None:
            raise InvalidInputError("single/icis fixed-point data needs a top_dim line")
        for tau in taus:
            if data_file.kind == "single":
                value = isotype.tau_betti_single_dim(
                    table, data_file.data, tau, data_file.top_dim
                )
            else:
                value = isotype.mu_tau(table, data_file.data, tau, data_file.top_dim)
            out[tau] = _frac_str(value)
    if args.format == "json":
        _emit(json.dumps(out, indent=2) + "\n", args.output)
    else:
        _emit("".join(f"{tau}: {val}\n" for tau, val in out.items()), args.output)
    return EXIT_OK


def cmd_milnor(args) -> int:
    ideal = ideal_from_text(_read(args.ideal), budget=args.budget_steps)
    from . import icis as icis_mod

    if len(ideal.generators) == 1:
        mu = icis_mod.milnor_hypersurface(ideal.generators[0], budget=args.budget_steps)
    else:
        dim = len(ideal.ambient) - len(ideal.generators)
        if dim < 0:
            raise InvalidInputError("more generators than ambient variables")
        mu = icis_mod.milnor_icis(ideal, dim, seed=args.seed)
    if args.format == "json":
        _emit(json.dumps({"mu": mu}) + "\n", args.output)
    else:
        _emit(f"{mu}\n", args.output)
    return EXIT_OK


def cmd_icss(args) -> int:
    g = multipoint.germ_from_text(_read(args.germ))
    analysis = multipoint.analyze_germ(g, budget=args.budget_steps, seed=args.seed)
    table = invariants.icss_table(analysis)
    if args.format == "json":
        payload = {
            "cells": [c.as_dict() for c in table.cells],
            "entries": [c.as_dict() for c in table.entries],
            "image_betti": {str(i): b for i, b in sorted((table.image_betti or {}).items())},
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    elif args.format == "csv":
        _emit(table.to_csv(), args.output)
    else:
        _emit(table.to_text(), args.output)
    return EXIT_OK


def _parse_conservation_file(text: str) -> dict:
    data: dict = {"betti": {}, "local_mu": [], "local_nu": [], "local": []}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        key = fields[0]
        try:
            if key == "kind":
                data["kind"] = fields[1]
            elif key in ("d", "n", "p", "mu_i", "nu_i", "delta"):
                data[key] = int(fields[1])
            elif key in ("mu_x0", "betti_tau", "beta0_xt", "beta0_x0"):
                data[key] = Fraction(fields[1])
            elif key == "local":
                data["local"].append(Fraction(fields[1]))
            elif key == "betti":
                data["betti"][int(fields[1])] = int(fields[2])
            elif key == "local_mu":
                data["local_mu"].append(int(fields[1]))
            elif key == "local_nu":
                data["local_nu"].append(int(fields[1]))
            else:
                raise InvalidInputError(f"unknown conservation directive {key!r}")
        except (IndexError, ValueError) as exc:
            raise InvalidInputError(f"bad conservation record: {line!r}") from exc
    if "kind" not in data:
        raise InvalidInputError("conservation file must declare a kind")
    return data


def cmd_conservation_check(args) -> int:
    data = _parse_conservation_file(_read(args.data))
    if data["kind"] == "tau-milnor":
        for key in ("d", "mu_x0", "betti_tau"):
            if key not in data:
                raise InvalidInputError(f"tau-milnor conservation data needs {key!r}")
        verdict = isotype.check_conservation(
            data["mu_x0"],
            data["betti_tau"],
            data["local"],
            data["d"],
            beta0_tau_xt=data.get("beta0_xt"),
            beta0_tau_x0=data.get("beta0_x0"),
        )
        payload = {
            "status": verdict.status,
            "difference": _frac_str(verdict.difference),
            "upper_semicontinuity": verdict.semicontinuity_ok,
        }
    elif data["kind"] == "image-milnor":
        for key in ("n", "p", "mu_i", "nu_i"):
            if key not in data:
                raise InvalidInputError(f"image-milnor conservation data needs {key!r}")
        verdict = invariants.check_mu_conservation(
            data["n"],
            data["p"],
            data["mu_i"],
            data["nu_i"],
            data["betti"],
            data["local_mu"],
            data["local_nu"],
            delta=data.get("delta"),
        )
        payload = {
            "status": "holds" if verdict.holds else "violated",
            "mu_residual": verdict.mu_residual,
            "nu_residual": verdict.nu_residual,
        }
    else:
        raise InvalidInputError(f"unknown conservation kind {data['kind']!r}")
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _emit("".join(f"{k}: {v}\n" for k, v in payload.items()), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germlab",
        description="Analyze corank-one map germs through their multiple point spaces.",
    )
    parser.add_argument("--format", choices=("json", "text", "csv"), default="json")
    parser.add_argument("--output", help="write to a file instead of stdout")
    parser.add_argument(
        "--budget-steps",
        type=int,
        default=DEFAULT_STEP_BUDGET,
        help="reduction step budget per standard-basis computation",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="seed for chain recombination retries"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for a germ file")
    p.add_argument("germ")
    p.add_argument("--tau", help="also report the isotype numbers of one irreducible")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sc-feasible", help="strong-contractibility dimension test")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.set_defaults(func=cmd_sc_feasible)

    p = sub.add_parser("sc-generate", help="emit a strongly contractible germ file")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.set_defaults(func=cmd_sc_generate)

    p = sub.add_parser("char-table", help="character table of a symmetric group")
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_char_table)

    p = sub.add_parser("isotype", help="isotype values from a table and fixed-point data")
    p.add_argument("table")
    p.add_argument("data")
    p.add_argument("--tau", help="restrict to one irreducible label")
    p.set_defaults(func=cmd_isotype)

    p = sub.add_parser("milnor", help="Milnor number of an ideal file")
    p.add_argument("ideal")
    p.set_defaults(func=cmd_milnor)

    p = sub.add_parser("icss", help="E-infinity table for a germ file")
    p.add_argument("germ")
    p.set_defaults(func=cmd_icss)

    p = sub.add_parser("conservation-check", help="verify a conservation identity from data")
    p.add_argument("data")
    p.set_defaults(func=cmd_conservation_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GermlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())

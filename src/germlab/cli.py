"""Command-line front end.

Commands: analyze, sc-feasible, sc-generate, char-table, isotype, milnor,
icss, conservation-check.  Reports are machine-readable first (JSON), with
a text rendering behind --format, and CSV for char-table and icss; a format
a command has no rendering for is an input error, refused before the
command computes anything.  sc-generate writes a germ file in every format.
Runs are reproducible: every algorithm is deterministic.

Exit codes: 0 success; 1 input or parse error; 2 resource limit exceeded;
3 germ not A-finite (analyze still emits its partial report, icss emits
nothing); 4 sc-generate on infeasible dimensions; 5 internal inconsistency
detected; 6 invalid or incomplete checker data (e.g. a missing correction
term).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable

# Only what char-table and isotype run is imported here; each command that
# needs the algebra (localalg, icis, multipoint, invariants) imports it.
from . import isotype, symrep
from .errors import (
    DEFAULT_STEP_BUDGET,
    GermlabError,
    IncompleteDataError,
    InconsistentDataError,
    InfeasibleDimensionsError,
    InvalidInputError,
    NotAFiniteError,
    ResourceLimitError,
)
from .poly import check_directives, csv_text, json_text, parse_integer, parse_rational, records

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
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInputError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


# Every command renders json and text.  These also take csv: char-table and
# icss render a table, and sc-generate writes its germ file in every format.
_CSV_COMMANDS = frozenset({"char-table", "icss", "sc-generate"})


def _check_format(args):
    """Refuse a --format the command has no rendering for, naming the command."""
    if args.format == "csv" and args.command not in _CSV_COMMANDS:
        raise InvalidInputError(f"{args.command} has no {args.format} output")


def _write(args, **renderers: Callable[[], str]):
    """Emit the rendering of a command's result that --format names; a
    command passes a renderer for each format main lets through."""
    _emit(renderers[args.format](), args.output)


def _lines(payload: dict) -> str:
    return "".join(f"{key}: {value}\n" for key, value in payload.items())


def cmd_analyze(args) -> int:
    from . import invariants, multipoint

    g = multipoint.germ_from_text(_read(args.germ))
    analysis = multipoint.analyze_germ(g, budget=args.budget_steps)
    report = invariants.build_report(analysis, tau=args.tau)
    _write(args, json=report.to_json, text=report.to_text)
    return EXIT_OK if analysis.verdict.a_finite else EXIT_NOT_A_FINITE


def cmd_sc_feasible(args) -> int:
    from . import multipoint

    report = multipoint.sc_feasibility_report(args.n, args.p)
    _write(
        args,
        json=lambda: json_text(report),
        text=lambda: f"({args.n}, {args.p}): feasible = {report['feasible']}  "
        f"kappa = {report['kappa']}  margin = {report['margin']}\n",
    )
    return EXIT_OK


def cmd_sc_generate(args) -> int:
    from . import multipoint

    # A germ file in every format: it is the input of analyze.
    g = multipoint.generate_sc_germ(args.n, args.p, budget=args.budget_steps)
    _emit(g.serialize(), args.output)
    return EXIT_OK


def cmd_char_table(args) -> int:
    table = symrep.character_table_symmetric(args.k)

    def as_json():
        return json_text({
            "group_order": table.group_order,
            "classes": [
                {"label": lbl, "size": size}
                for lbl, size in zip(table.class_labels, table.class_sizes)
            ],
            "irreducibles": [
                {"label": lbl, "degree": table.degree(i), "values": row}
                for i, (lbl, row) in enumerate(zip(table.irrep_labels, table.values))
            ],
        })

    def as_csv():
        return csv_text([
            ["irrep", *table.class_labels],
            *([lbl, *row] for lbl, row in zip(table.irrep_labels, table.values)),
        ])

    _write(args, json=as_json, csv=as_csv, text=table.to_text)
    return EXIT_OK


def cmd_isotype(args) -> int:
    table = symrep.table_from_text(_read(args.table))
    data_file = isotype.fixed_point_data_from_text(_read(args.data))
    taus = [args.tau] if args.tau else table.irrep_labels
    out = {tau: str(data_file.value(table, tau)) for tau in taus}
    _write(args, json=lambda: json_text(out), text=lambda: _lines(out))
    return EXIT_OK


def cmd_milnor(args) -> int:
    from . import icis, localalg

    ideal = localalg.ideal_from_text(_read(args.ideal), budget=args.budget_steps)
    dim = len(ideal.ambient) - len(ideal.generators)
    if dim < 0:
        raise InvalidInputError("more generators than ambient variables")
    mu = icis.milnor_icis(ideal, dim)
    _write(args, json=lambda: json.dumps({"mu": mu}) + "\n", text=lambda: f"{mu}\n")
    return EXIT_OK


def cmd_icss(args) -> int:
    from . import invariants, multipoint

    g = multipoint.germ_from_text(_read(args.germ))
    analysis = multipoint.analyze_germ(g, budget=args.budget_steps)
    table = invariants.icss_table(analysis)
    _write(args, json=lambda: json_text(table.as_dict()), csv=table.to_csv, text=table.to_text)
    return EXIT_OK


_INTEGER_KEYS = ("d", "n", "p", "mu_i", "nu_i", "delta")
_RATIONAL_KEYS = ("mu_x0", "betti_tau", "beta0_xt", "beta0_x0")
_ONCE = ("kind", *_INTEGER_KEYS, *_RATIONAL_KEYS)
_CONSERVATION_FIELDS = dict.fromkeys(_ONCE + ("local", "local_mu", "local_nu"), 1) | {"betti": 2}


def _parse_conservation_file(text: str) -> dict:
    """The values of a conservation file, keyed by the directives it holds."""
    data: dict = {}
    lines = records(text, "conservation", _CONSERVATION_FIELDS, once=_ONCE, required=("kind",))
    for key, fields, _ in lines:
        value = fields[0]
        if key == "kind":
            data["kind"] = value
        elif key in _INTEGER_KEYS:
            data[key] = parse_integer(value, key)
        elif key in _RATIONAL_KEYS:
            data[key] = parse_rational(value)
        elif key == "local":
            data.setdefault(key, []).append(parse_rational(value))
        elif key == "betti":
            degree = parse_integer(value, "betti degree")
            if degree in data.setdefault("betti", {}):
                raise InvalidInputError(f"repeated conservation directive 'betti {degree}'")
            data["betti"][degree] = parse_integer(fields[1], "betti number")
        else:
            data.setdefault(key, []).append(parse_integer(value, key))
    return data


def _tau_milnor(data: dict) -> dict:
    # The d > 0 identity needs the top Betti term; at d = 0 the check refuses it.
    if data["d"] > 0:
        check_directives(data, "tau-milnor conservation", ("betti_tau",), allowed=data)
    verdict = isotype.check_conservation(
        data["mu_x0"], data.get("betti_tau"), data.get("local", []), data["d"],
        beta0_tau_xt=data.get("beta0_xt"), beta0_tau_x0=data.get("beta0_x0"),
    )
    return {"status": verdict.status, "difference": str(verdict.difference),
            "upper_semicontinuity": verdict.semicontinuity_ok}


def _image_milnor(data: dict) -> dict:
    from . import invariants

    verdict = invariants.check_mu_conservation(
        data["n"], data["p"], data["mu_i"], data["nu_i"], data.get("betti", {}),
        data.get("local_mu", []), data.get("local_nu", []), delta=data.get("delta"),
    )
    return {"status": "holds" if verdict.holds else "violated",
            "mu_residual": verdict.mu_residual, "nu_residual": verdict.nu_residual}


# Each conservation kind: the directives it needs, those it may also have,
# and the check that builds its payload.  Any other directive is refused.
_CONSERVATION_KINDS = {
    "tau-milnor": (("d", "mu_x0"), ("betti_tau", "local", "beta0_xt", "beta0_x0"), _tau_milnor),
    "image-milnor": (("n", "p", "mu_i", "nu_i"), ("betti", "local_mu", "local_nu", "delta"),
                     _image_milnor),
}


def cmd_conservation_check(args) -> int:
    data = _parse_conservation_file(_read(args.data))
    kind = data.pop("kind")
    if kind not in _CONSERVATION_KINDS:
        raise InvalidInputError(f"unknown conservation kind {kind!r}")
    needs, may, check = _CONSERVATION_KINDS[kind]
    check_directives(data, f"{kind} conservation", needs, allowed=may)
    payload = check(data)
    _write(args, json=lambda: json_text(payload), text=lambda: _lines(payload))
    return EXIT_OK


def _integer(what: str, least: int | None = None):
    """An argparse type for the integer grammar of the files, [+-]?[0-9]+
    (``poly.parse_integer``), at least ``least``.  Anything else raises
    InvalidInputError, which parse_args lets through to main (exit 1);
    ``int`` alone would take "1_0", " 3" and non-ASCII digits."""

    def read(text: str) -> int:
        value = parse_integer(text, what)
        if least is not None and value < least:
            raise InvalidInputError(f"bad {what} {text!r}: below {least}")
        return value

    return read


def _partition_label(text: str) -> str:
    """An argparse type for analyze's --tau: a label as ``Partition.label``
    writes it, or InvalidInputError (exit 1) before the analysis runs."""
    try:
        if symrep.Partition(tuple(map(int, text[1:-1].split(",")))).label() == text:
            return text
    except (ValueError, InvalidInputError):
        pass
    raise InvalidInputError(f"--tau {text!r} is not a partition label such as (2,1)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, like every other input
    error, instead of argparse's 2, which is the exhausted-budget code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise InvalidInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="germlab",
        description="Analyze corank-one map germs through their multiple point spaces.",
    )
    parser.add_argument("--format", choices=("json", "text", "csv"), default="json")
    parser.add_argument("--output", help="write to a file instead of stdout")
    parser.add_argument(
        "--budget-steps",
        type=_integer("--budget-steps", least=0),
        default=DEFAULT_STEP_BUDGET,
        help="non-negative work budget of the whole command: its standard bases, "
        "Krull-dimension searches, staircase counts, normal forms, linear eliminations "
        "and Milnor-chain minor expansions all charge it; 0 decides by exact criteria only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for a germ file")
    p.add_argument("germ")
    p.add_argument("--tau", type=_partition_label, help="also report one irreducible's isotypes")

    p = sub.add_parser("sc-feasible", help="strong-contractibility dimension test")
    p.add_argument("n", type=_integer("N"))
    p.add_argument("p", type=_integer("P"))

    p = sub.add_parser("sc-generate", help="emit a strongly contractible germ file")
    p.add_argument("n", type=_integer("N"))
    p.add_argument("p", type=_integer("P"))

    p = sub.add_parser("char-table", help="character table of a symmetric group")
    p.add_argument("k", type=_integer("K"))

    p = sub.add_parser("isotype", help="isotype values from a table and fixed-point data")
    p.add_argument("table")
    p.add_argument("data")
    p.add_argument("--tau", help="restrict to one irreducible label")

    p = sub.add_parser("milnor", help="Milnor number of an ideal file")
    p.add_argument("ideal")

    p = sub.add_parser("icss", help="E-infinity table for a germ file")
    p.add_argument("germ")

    p = sub.add_parser("conservation-check", help="verify a conservation identity from data")
    p.add_argument("data")

    return parser


# Built on the first call of main and kept: parsing leaves a parser as it was.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        _check_format(args)  # before the command computes anything
        # Command "sc-feasible" runs cmd_sc_feasible, looked up at each call.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except GermlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())

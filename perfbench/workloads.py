"""The four workloads: their items, built from the seed, and each item's check.

An item is one call into germlab's public API, timed on its own.  Its check
runs after the clock stops and returns one of
  ("ok", "")          the output agrees with the oracle,
  ("failed", reason)  the operation did not deliver its result,
  ("wrong", reason)   it delivered a result the oracle contradicts.
Every call goes through a module attribute (mp.analyze_germ, cli.main, ...),
so the tracer's patches on those attributes see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = ("sc_sweep", "kappa3_ladder", "mond_curves", "char_tables")

INPUTS = Path(__file__).resolve().parent / "inputs"
LADDER = ("sc_11_15", "sc_13_18", "sc_15_21", "sc_16_22")
CHAR_TABLE_KS = (9, 10, 11, 12)


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str]]


def _verdict(reason: str | None) -> tuple[str, str]:
    return ("ok", "") if reason is None else ("wrong", reason)


def sc_sweep(germlab, seed: int, workdir: Path) -> list[Item]:
    """Generate, analyze and report every feasible (n, p); the seed shuffles
    the order.  A generated germ that is not strongly contractible counts as
    a failed generation, which is what `sc-generate` itself reports (exit 5)."""
    mp, inv = germlab.multipoint, germlab.invariants
    pairs = oracles.sc_sweep_pairs()
    random.Random(seed).shuffle(pairs)

    def make(n: int, p: int) -> Item:
        def run():
            g = mp.generate_sc_germ(n, p, self_check=False)
            return inv.build_report(mp.analyze_germ(g))

        def check(report):
            if not report.analysis.verdict.strongly_contractible:
                return ("failed", "generated germ is not strongly contractible")
            return _verdict(oracles.strongly_contractible_invariants(report))

        return Item(f"sc({n},{p})", run, check)

    return [make(n, p) for n, p in pairs]


def kappa3_ladder(germlab, seed: int, workdir: Path) -> list[Item]:
    """Analyze and report the four frozen kappa = 3 germs, smallest first."""
    mp, inv = germlab.multipoint, germlab.invariants

    def make(name: str) -> Item:
        g = mp.germ_from_text((INPUTS / "ladder" / f"{name}.germ").read_text())

        def run():
            return inv.build_report(mp.analyze_germ(g))

        def check(report):
            if not report.analysis.verdict.strongly_contractible:
                return ("wrong", "frozen germ reported not strongly contractible")
            return _verdict(oracles.strongly_contractible_invariants(report))

        return Item(name, run, check)

    return [make(name) for name in LADDER]


def mond_germs() -> list[tuple[str, int, list[str]]]:
    out = []
    for line in (INPUTS / "mond.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, codim, rest = line.split(None, 2)
            out.append((name, int(codim), [h.strip() for h in rest.split(";")]))
    return out


def mond_curves(germlab, seed: int, workdir: Path) -> list[Item]:
    """Analyze and report Mond's S_k, C_k, B_k, H_k and F_4 with tau = (1,1);
    the seed shuffles the order."""
    mp, inv = germlab.multipoint, germlab.invariants
    germs = mond_germs()
    random.Random(seed).shuffle(germs)

    def make(name: str, codim: int, comps: list[str]) -> Item:
        g = mp.germ(2, 3, comps)

        def run():
            return inv.build_report(mp.analyze_germ(g), tau="(1,1)")

        def check(report):
            return _verdict(oracles.image_milnor_number(report, codim))

        return Item(name, run, check)

    return [make(*germ) for germ in germs]


def char_tables(germlab, seed: int, workdir: Path) -> list[Item]:
    """Through the CLI: `char-table K`, then `isotype` on the emitted table
    with seeded per-class Euler data, for K = 9..12 in that order (the
    Murnaghan-Nakayama cache is shared across K, so the order is fixed)."""
    cli = germlab.cli
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    def call(argv: list[str]) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"germlab {' '.join(argv)} exited {code}")
        return buf.getvalue()

    def make(k: int) -> list[Item]:
        table_path, data_path = workdir / f"S{k}.table", workdir / f"S{k}.euler"
        for path in (table_path, data_path):
            path.unlink(missing_ok=True)
        state: dict = {}

        def check_table(text):
            state["table"] = table = oracles.parse_table_text(text)
            reason = oracles.symmetric_character_table(table, k)
            if reason is None:
                state["euler"] = {label: rng.randint(-20, 20) for label, _ in table["classes"]}
                table_path.write_text(text)
                data_path.write_text(
                    "".join(f"class {c} euler {e}\n" for c, e in state["euler"].items())
                )
            return _verdict(reason)

        def check_isotype(text):
            values = json.loads(text)
            return _verdict(
                oracles.isotype_reproduces_euler(state["table"], state["euler"], values)
            )

        return [
            Item(f"char-table {k}",
                 lambda: call(["--format", "text", "char-table", str(k)]), check_table),
            Item(f"isotype S_{k}",
                 lambda: call(["isotype", str(table_path), str(data_path)]), check_isotype),
        ]

    return [item for k in CHAR_TABLE_KS for item in make(k)]


ITEM_LISTS = {
    "sc_sweep": sc_sweep,
    "kappa3_ladder": kappa3_ladder,
    "mond_curves": mond_curves,
    "char_tables": char_tables,
}

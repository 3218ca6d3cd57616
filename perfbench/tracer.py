"""Outside-in span tracer for germlab.

The tracer replaces germlab's public functions with wrappers, each installed
under the name its callers look up (a function imported by name into another
module is patched in that module too).  A wrapper records one span per call:
name, start, end, parent span and the item it belongs to.  Spans stay in
memory until the pass ends; then they are summarised into the per-layer
metrics and written out as JSON.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute path where callers look the function up, span name)
PATCHES = (
    ("poly", "MultiPoly.substitute", "poly.substitute"),
    ("multipoint", "divided_difference", "poly.divided_difference"),
    ("multipoint", "divided_difference_table", "multipoint.divided_difference_table"),
    ("multipoint", "generate_sc_germ", "multipoint.generate_sc_germ"),
    ("multipoint", "analyze_germ", "multipoint.analyze_germ"),
    ("localalg", "standard_basis", "localalg.standard_basis"),
    ("localalg", "mora_normal_form", "localalg.mora_normal_form"),
    ("localalg", "LocalIdeal.krull_dimension", "localalg.krull_dimension"),
    ("localalg", "LocalIdeal.quotient_dimension", "localalg.quotient_dimension"),
    ("icis", "classify", "icis.classify"),
    ("icis", "milnor_icis", "icis.milnor_icis"),
    ("icis", "jacobian_rank_at_origin", "icis.jacobian_rank_at_origin"),
    ("symrep", "character_table_symmetric", "symrep.character_table_symmetric"),
    ("invariants", "character_table_symmetric", "symrep.character_table_symmetric"),
    ("symrep", "CharacterTable.validate", "symrep.validate"),
    ("symrep", "table_from_text", "symrep.table_from_text"),
    ("isotype", "tau_characteristic", "isotype.tau_characteristic"),
    ("isotype", "mu_tau", "isotype.mu_tau"),
    ("invariants", "mu_tau", "isotype.mu_tau"),
    ("invariants", "build_report", "invariants.build_report"),
    ("cli", "main", "cli.main"),
)

# Spans of these layers are also split by their nearest icis ancestor.
SPLIT = ("localalg.mora_normal_form", "localalg.quotient_dimension")
SPLIT_BY = {"icis.classify": "in_classify", "icis.milnor_icis": "in_milnor"}

VERDICTS = ("empty", "smooth", "icis", "isolated_points", "not_icis")

# The per-layer metrics, in the order they are printed: `self_s` in seconds,
# everything else a count.
PER_LAYER_NAMES = (
    "poly.substitute.self_s",
    "poly.substitute.calls",
    "poly.divided_difference.self_s",
    "poly.divided_difference.calls",
    "multipoint.divided_difference_table.self_s",
    "multipoint.divided_difference_table.calls",
    "multipoint.generate_sc_germ.self_s",
    "multipoint.analyze_germ.self_s",
    "localalg.standard_basis.self_s",
    "localalg.standard_basis.calls",
    "localalg.standard_basis.gens_in",
    "localalg.standard_basis.basis_out",
    "localalg.krull_dimension.self_s",
    *(f"{layer}{part}.{stat}"
      for layer in SPLIT
      for part in ("", ".in_classify", ".in_milnor")
      for stat in ("self_s", "calls")),
    "icis.classify.self_s",
    "icis.classify.calls",
    *(f"icis.classify.{verdict}" for verdict in VERDICTS),
    "icis.milnor_icis.self_s",
    "icis.milnor_icis.calls",
    "icis.jacobian_rank_at_origin.calls",
    "symrep.character_table_symmetric.self_s",
    "symrep.character_table_symmetric.calls",
    "symrep.validate.self_s",
    "symrep.table_from_text.self_s",
    "isotype.tau_characteristic.self_s",
    "isotype.tau_characteristic.calls",
    "isotype.mu_tau.self_s",
    "invariants.build_report.self_s",
    "cli.main.self_s",
)
PER_LAYER = tuple((name, "s" if name.endswith(".self_s") else "count") for name in PER_LAYER_NAMES)


def _observe_standard_basis(args, result, counts: Counter):
    counts["localalg.standard_basis.gens_in"] += len(args[0])
    counts["localalg.standard_basis.basis_out"] += len(result)


def _observe_classify(args, result, counts: Counter):
    counts[f"icis.classify.{result.kind}"] += 1


OBSERVERS = {
    "localalg.standard_basis": _observe_standard_basis,
    "icis.classify": _observe_classify,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item = -1

    def _wrap(self, fn, name: str):
        spans, stack, counts = self.spans, self.stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.item)
            if observe is not None:
                observe(args, result, counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, germlab):
        for module, path, name in PATCHES:
            owner = getattr(germlab, module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))

    def metrics(self) -> dict[str, float]:
        """Self time and calls per span name, the icis split, and the counts."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        nearest: list[str | None] = []
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child_time[sid]
            inherited = nearest[parent] if parent >= 0 else None
            nearest.append(SPLIT_BY.get(name, inherited))
            keys = [name]
            if name in SPLIT and inherited is not None:
                keys.append(f"{name}.{inherited}")
            for key in keys:
                self_s[key] += own
                calls[key] += 1
        out: dict[str, float] = {}
        for metric in PER_LAYER_NAMES:
            layer, stat = metric.rsplit(".", 1)
            if stat == "self_s":
                out[metric] = float(self_s[layer])
            elif stat == "calls":
                out[metric] = calls[layer]
            else:
                out[metric] = self.counts[metric]
        return out

    def write(self, path: Path, labels: list[str]):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "item"],
            "names": names,
            "items": labels,
            "spans": [[index[n], s, e, p, i] for n, s, e, p, i in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))

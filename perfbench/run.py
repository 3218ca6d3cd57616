"""germlab benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py                  # every workload, untraced then traced
    python3 perfbench/run.py --workload sc_sweep --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; germlab is imported from its src/.  One
caller runs the items of a workload back to back (closed loop, no threads).
Each pass over the item list runs in a fresh interpreter, so caches start
cold as they do for a user of the command line; passes follow one another
until --seconds have been spent.  Latencies are corrected for the speed of
a shared host (hostspeed.py), and each item's latency is its median over
the passes.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes: the traced ones give the per-layer metrics, and the ratio of
their item-list time to the untraced one is the tracing overhead.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_s", "s"),
    ("item_p98_s", "s"),
    ("peak_rss_mb", "MB"),
)


class RunError(Exception):
    pass


def _worker(args: list[str], hash_seed: int, deadline: float) -> tuple[dict, float, float]:
    """Run worker.py to completion; return its JSON, start time and duration."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {' '.join(args)} did not finish in time") from exc
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1]), start, time.monotonic() - start


def _p98(values: list[float]) -> float:
    """Nearest-rank 98th percentile: on fewer than 50 values, the largest."""
    return sorted(values)[math.ceil(0.98 * len(values)) - 1]


def _item_latencies(passes: list[dict], key: str = "latencies") -> list[float]:
    """Each item's median latency over the passes.  (The best reading would
    drift lower the more passes fit into a run, and so with host speed.)"""
    return [statistics.median(xs) for xs in zip(*(p[key] for p in passes))]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up SETUP_SAMPLES times, then run passes until `seconds` are spent."""
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for i in range(SETUP_SAMPLES):
        out, start, _ = _worker(common + ["--setup-only"], 1 + i % 2, deadline)
        setups.append((out["ready"] - start) * out["scale"])

    passes: dict[bool, list[dict]] = {False: [], True: []}
    durations: dict[bool, float] = {}  # the slowest pass of each kind so far
    began = time.monotonic()
    while True:
        traced = trace and len(passes[True]) < len(passes[False])
        count = len(passes[traced])
        out, _, duration = _worker(
            common + ["--trace", str(int(traced))], 1 + count % 2, deadline
        )
        durations[traced] = max(duration, durations.get(traced, 0.0))
        passes[traced].append(out)
        spent = time.monotonic() - began
        if trace and not passes[True]:
            continue
        if spent + max(durations.values()) > seconds:
            break

    untraced, traced_passes = passes[False], passes[True]
    labels = untraced[0]["labels"]
    failed, wrong = set(), []
    for p in untraced + traced_passes:
        for label, (verdict, reason) in zip(p["labels"], p["status"]):
            if verdict == "failed":
                failed.add(label)
            elif verdict == "wrong":
                wrong.append(f"{label}: {reason}")
    per_item = _item_latencies(untraced)
    result = {
        "workload": workload,
        "passes": len(untraced),
        "traced_passes": len(traced_passes),
        "attempted": len(labels),
        "failed": sorted(failed),
        "wrong": wrong,
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_item),
        "item_p50_s": statistics.median(per_item),
        "item_p98_s": _p98(per_item),
        "item_max_s": max(per_item),
        "raw_wall_s": sum(_item_latencies(untraced, "raw_latencies")),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
        "slowest_item": max(zip(per_item, labels))[1],
    }
    if trace:
        layers = [p["layers"] for p in traced_passes]
        result["layers"] = {
            name: statistics.median(l[name] for l in layers) if unit == "s" else layers[0][name]
            for name, unit in PER_LAYER
        }
        result["unsteady_counts"] = [
            name for name, unit in PER_LAYER
            if unit == "count" and any(l[name] != layers[0][name] for l in layers)
        ]
        result["traced_wall_s"] = sum(_item_latencies(traced_passes))
        result["trace_overhead"] = result["traced_wall_s"] / result["wall_s"]
    return result


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    w = result["workload"]
    n, nfail = result["attempted"], len(result["failed"])
    print(f"[{w}] {result['passes']} untraced pass(es) of {n} items"
          + (f", {result['traced_passes']} traced" if trace else ""))
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in PER_LAYER}
        print(f"[{w}] traced wall_s: {result['traced_wall_s']:.4f} s")
        print(f"[{w}] trace_overhead: {result['trace_overhead']:.3f} (traced wall_s / untraced wall_s)")
        for name, unit in PER_LAYER:
            print(f"[{w}] {name}: {result['layers'][name]:.6g} {unit}")
        if result["unsteady_counts"]:
            print(f"[{w}] counts that differ between traced passes: {result['unsteady_counts']}")
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"[{w}] {name}: {result[name]:.6g} {unit}")
        print(f"[{w}] item_max_s: {result['item_max_s']:.6g} s ({result['slowest_item']})")
        print(f"[{w}] wall_s as measured, before host-speed correction: {result['raw_wall_s']:.6g} s")
    print(f"[{w}] fail_ratio: {nfail}/{n} = {nfail / n:.4f}"
          + (f" ({', '.join(result['failed'])})" if nfail else ""))
    for line in result["wrong"]:
        print(f"[{w}] WRONG {line}")
    correct = not result["wrong"] and not (trace and result["unsteady_counts"])
    return {"correct": correct, "attempted": n, "failed": nfail, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="default: an untraced and then a traced run of each workload")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "germlab" / "__init__.py").is_file():
        print(f"error: no germlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    try:
        for workload in workloads:
            for trace in modes:
                summary = report(run_workload(workload, args.seed, args.seconds, trace), trace)
                print(json.dumps(summary), flush=True)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of one workload in a fresh interpreter; run.py starts it.

The pass imports germlab from the checkout's src/, builds its items, and
prints the monotonic time at which that set-up ended with the host-speed
scale around it.  Unless asked for the set-up only, it then runs every item
back to back, times each call alone, checks each output after the clock
stops, and prints one JSON line with the latencies (as measured and
corrected for host speed, see hostspeed.py), the check results, its peak RSS
and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def import_germlab():
    """Import germlab from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    germlab = importlib.import_module("germlab")
    importlib.import_module("germlab.cli")
    if Path(germlab.__file__).resolve().parent != SRC / "germlab":
        raise SystemExit(f"germlab was imported from {germlab.__file__}, not {SRC}")
    return germlab


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    setup_speed = hostspeed.HostSpeed()
    setup_speed.probe()
    germlab = import_germlab()
    import workloads

    items = workloads.ITEM_LISTS[args.workload](germlab, args.seed, OUT / "data")
    ready = time.monotonic()
    if args.setup_only:
        setup_speed.probe()
        print(json.dumps({"ready": ready, "scale": setup_speed.scale(0.0, float("inf"))}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(germlab)
    clock = time.perf_counter
    intervals, status = [], []
    with hostspeed.HostSpeed() as speed:
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.item = index
            start = clock()
            try:
                output = item.run()
            except Exception as exc:  # an item that raises is a failed operation
                end = clock()
                verdict = ("failed", f"{type(exc).__name__}: {exc}")
            else:
                end = clock()
                verdict = item.check(output)
                del output
            intervals.append((start, end))
            status.append(verdict)
    result = {
        "labels": [item.label for item in items],
        "raw_latencies": [end - start for start, end in intervals],
        "latencies": [(end - start) * speed.scale(start, end) for start, end in intervals],
        "status": status,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(OUT / f"spans-{args.workload}.json", result["labels"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

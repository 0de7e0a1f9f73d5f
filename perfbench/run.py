"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload europe-replay --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it measures the program under ``src/``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``; the
full record (provenance, per-sweep samples, failures) and, for traced runs,
the spans as Chrome trace-event JSON go to ``perfbench/out/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("europe-replay", "global-oracle", "europe-pooled", "europe-stress")
DEFAULT_SEED = 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """Stop (and reap) the tracker process a shared-memory sweep started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads

    from perfbench.harness import Harness
    from perfbench.workloads import SMOKE_WORKLOADS, WORKLOADS

    harness = Harness(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        warmup=SMOKE_WORKLOADS[args.workload],
    )
    try:
        result = harness.traced() if args.trace else harness.untraced()
    finally:
        stop_resource_tracker()

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result.record["command"] = sys.argv
    (OUT / f"{stem}.json").write_text(json.dumps(result.record, indent=1) + "\n")
    if result.spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(result.spans) + "\n")
    print(json.dumps(result.line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

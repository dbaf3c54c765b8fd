#!/usr/bin/env python3
"""Benchmark command: run one workload and print its metrics.

  python3 perfbench/run.py --workload experiment --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run (see BENCHMARK.json). An output check that does not hold ends the run
with exit code 2 and no result line. ``--tiny`` shrinks every input, for
the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["experiment", "ask_remote"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an exception, so that every child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from perfbench import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    try:
        result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), sizes)
    except workloads.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

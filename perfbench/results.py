#!/usr/bin/env python3
"""Record benchmark results to a file, and compare two recorded files.

  python3 perfbench/results.py record --label seed --seeds 0-9 \\
      --out perfbench/results/seed.json
  python3 perfbench/results.py compare perfbench/results/seed.json new.json

``record`` runs the benchmark command once per workload and seed with
tracing off, then once per workload with tracing on (first seed). It
stores every value, the median and the spread of each end-to-end metric
(first to third quartile as a share of the median), the traced per-layer
metrics, the experiment table digest, and the machine it ran on.

``compare`` prints, for each workload and end-to-end metric, the parent's
median, the change's median, the relative delta and the metric's bound
from BENCHMARK.json, then the traced per-layer metrics of both. It exits
non-zero when a median is worse than its bound, when the experiment table
digest of a seed differs, or when a deterministic metric (see
DETERMINISTIC) differs for a seed: those repeat exactly for a given seed,
so any difference means the program's behaviour changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
DIGEST_PREFIX = "experiment tables sha256 "
# End-to-end metrics that are counts of the program's answers and queries:
# the same seed gives the same value on any machine.
DETERMINISTIC = ("accuracy", "queries_per_question", "net_value_per_question")


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = [line[len(DIGEST_PREFIX):] for line in lines if line.startswith(DIGEST_PREFIX)]
    return {
        "seed": seed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": digests[-1] if digests else None,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def record(args) -> int:
    contract = load_contract()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]
    seeds = parse_seeds(args.seeds)
    out = {"label": args.label, "machine": machine(), "seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in contract["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"runs": runs, "median": {}, "spread": {}}
        for name in bounds:
            values = [r["metrics"][name] for r in runs]
            entry["median"][name] = statistics.median(values)
            entry["spread"][name] = spread(values) if len(values) > 1 else 0.0
        entry["trace"] = run_once(workload, seeds[0], seconds, 1)
        out["workloads"][workload] = entry
        for name, value in entry["spread"].items():
            flag = "  OVER BOUND" if value > bounds[name] else ("  over a third" if value > bounds[name] / 3 else "")
            print(f"  {workload:12s} {name:24s} median {entry['median'][name]:<12.6g} "
                  f"spread {value:.4f} (bound {bounds[name]}){flag}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


def compare(args) -> int:
    contract = load_contract()
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    worse = 0
    print(f"{'workload':12s} {'metric':24s} {'parent':>12s} {'change':>12s} {'delta':>8s} {'bound':>6s}")
    for workload, base in parent["workloads"].items():
        new = change["workloads"].get(workload)
        if new is None:
            print(f"{workload:12s} (missing from {args.change})")
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a, b = base["median"][name], new["median"][name]
            delta = (b - a) / a if a else 0.0
            regressed = delta > metric["bound"] if metric["better"] == "lower" else -delta > metric["bound"]
            worse += regressed
            print(f"{workload:12s} {name:24s} {a:12.6g} {b:12.6g} {delta:+8.2%} {metric['bound']:6.3g}"
                  + ("  WORSE THAN BOUND" if regressed else ""))
        by_seed = {r["seed"]: r for r in base["runs"]}
        for run in new["runs"]:
            old = by_seed.get(run["seed"])
            if old is None:
                continue
            if old["digest"] != run["digest"]:
                worse += 1
                print(f"{workload:12s} seed {run['seed']}: experiment tables DIFFER")
            for name in DETERMINISTIC:
                if old["metrics"][name] != run["metrics"][name]:
                    worse += 1
                    print(f"{workload:12s} seed {run['seed']}: {name} DIFFERS "
                          f"({old['metrics'][name]!r} vs {run['metrics'][name]!r})")
        print(f"{workload:12s} traced run, seed {base['trace']['seed']} vs {new['trace']['seed']}:")
        for name, a in base["trace"]["metrics"].items():
            b = new["trace"]["metrics"].get(name)
            print(f"{workload:12s}   {name:38s} {a:12.6g} {'absent' if b is None else format(b, '12.6g'):>12s}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--out", required=True)
    rec.add_argument("--label", required=True)
    rec.add_argument("--seeds", default="0-9", help="'0-9' or '0,3,5'")
    rec.set_defaults(func=record)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    cmp_.set_defaults(func=compare)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end policy experiments on a synthetic benchmark.

Generates a benchmark, trains quality models and the threshold ensemble on
one half, then reproduces the three experiment shapes on the held-out half:

  1. fixed budgets: random order vs likelihood order per max-rewrite cap N
  2. policy comparison: conjunctive-only vs cost-benefit vs all rewrites
  3. answer-value sweep: cost-benefit at several settings of k

The three run in that order through ``budgetqa.evaluation.reproduce``.
Writes aligned tables to stdout and JSON lines under --out-dir.
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from budgetqa.bench import generate_benchmark, redundancy_error, size_error
from budgetqa.control import Preferences
from budgetqa.evaluation import reproduce, write_jsonl
from budgetqa.harness import train_models
from budgetqa.rewrite import AdjacencyGrammarScorer
from budgetqa.search import OfflineProvider, build_index


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be above 0 and finite, got {text}")
    return value


def _seed_list(text: str) -> list[int]:
    """Comma-separated integer seeds, at least one."""
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError("needs at least one seed")
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # Half the questions train and half evaluate, so each half needs one.
    parser.add_argument("--questions", type=_int_at_least(2), default=400, help="total questions (at least 2); half train, half eval")
    parser.add_argument("--redundancy", type=_int_at_least(1), default=3)
    parser.add_argument("--distractors", type=_int_at_least(0), default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=_positive, default=10.0)
    parser.add_argument("--seeds", type=_seed_list, default="0,1,2,3,4", help="random-order seeds for the N sweep")
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()
    if problem := size_error(args.questions, args.distractors) or redundancy_error(args.redundancy):
        parser.error(problem)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out-dir: cannot create {out_dir}: {exc.strerror or exc}")

    t0 = time.perf_counter()
    bench = generate_benchmark(
        args.questions,
        redundancy=args.redundancy,
        distractors=args.distractors,
        seed=args.seed,
    )
    half = args.questions // 2
    train_items, eval_items = bench.items[:half], bench.items[half:]
    provider = OfflineProvider(build_index(bench.corpus))
    print(f"benchmark: {len(bench.corpus)} docs, {half} train / {len(eval_items)} eval questions")

    t_train = time.perf_counter()
    models = train_models(train_items, provider, scorer=AdjacencyGrammarScorer())
    print(f"models trained in {time.perf_counter() - t_train:.1f}s")

    # No decision reads the cost per query c, so the tables run at c = 1.
    experiment = reproduce(eval_items, provider, models, Preferences(k=args.k, c=1.0), args.seeds)
    headings = ("fixed budgets: random vs likelihood order", "policy comparison", "answer-value sweep")
    for heading, table in zip(headings, experiment.tables()):
        print(f"\n== {heading} ==\n{table}")
    write_jsonl([r.to_json() for r in experiment.reports], str(out_dir / "policy_comparison.jsonl"))
    write_jsonl([r.to_json() for _, r in experiment.k_results], str(out_dir / "k_sweep.jsonl"))

    print(f"\ndone in {time.perf_counter() - t0:.1f}s; reports under {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

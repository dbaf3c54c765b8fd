"""Offline reference answers for the ask_remote workload's output check.

Reads a pickled ``(seed, corpora, questions, models, prefs)`` from stdin and
writes, as JSON on stdout, the top answer that ``OfflineProvider`` gives to
every question of the ask corpora, in order (corpus ``i`` is generated with
seed ``seed + 1 + i``). It runs in a process of its own, so that the indexes
it builds do not count in the remote client's peak RSS:

  python3 perfbench/reference.py < request.pickle
"""

from __future__ import annotations

import json
import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def reference_answers(seed: int, corpora: int, questions: int, models, prefs) -> list:
    from budgetqa import control, search
    from budgetqa.bench import generate_benchmark
    from budgetqa.control import CostBenefit

    answers = []
    for i in range(corpora):
        bench = generate_benchmark(questions, seed=seed + 1 + i)
        provider = search.OfflineProvider(search.build_index(bench.corpus))
        answers += [control.run_policy(CostBenefit(), item.question, provider, models, prefs).top_answer
                    for item in bench.items]
    return answers


def main() -> int:
    request = pickle.load(sys.stdin.buffer)
    json.dump(reference_answers(*request), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's ``experiment`` workload still runs its own copy of the
experiment sequence (``perfbench/workloads.py`` ``experiment_step``). Until
it calls ``evaluation.reproduce``, this pins the copy to it: the same
tables from the same number of ``evaluate`` calls."""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from budgetqa import evaluation  # noqa: E402
from budgetqa.bench import generate_benchmark  # noqa: E402
from budgetqa.search import OfflineProvider, build_index  # noqa: E402
from perfbench import workloads  # noqa: E402


def _inputs():
    bench = generate_benchmark(40, seed=0)
    return bench, OfflineProvider(build_index(bench.corpus))


def test_benchmark_experiment_matches_reproduce(monkeypatch):
    bench, provider = _inputs()
    outputs = {}
    for step in workloads.EXPERIMENT_STEPS:
        outputs[step] = workloads.experiment_step(step, bench, provider, outputs.get("train"))
    benchmark_digest = workloads.experiment_outcome(outputs, 0.0).digest

    # Fresh inputs, so nothing the benchmark's copy remembered carries over.
    bench, provider = _inputs()
    calls = []
    evaluate = evaluation.evaluate

    def counted(*args, **kwargs):
        calls.append(args[0])
        return evaluate(*args, **kwargs)

    # Rebound on the module, as the benchmark's run_experiment does.
    monkeypatch.setattr(evaluation, "evaluate", counted)
    experiment = evaluation.reproduce(
        bench.items[len(bench.items) // 2:], provider, outputs["train"],
        workloads.PREFS, workloads.SWEEP_SEEDS,
    )
    tables = "\n\n".join(experiment.tables())
    assert hashlib.sha256(tables.encode("utf-8")).hexdigest() == benchmark_digest
    assert len(calls) == workloads.EXPERIMENT_EVALUATIONS

"""Self-tests of the benchmark: the stub's fault pattern, the span
wrappers, and the benchmark command at a tiny size.

  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path
from threading import Thread

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from budgetqa import evaluation, harness, search  # noqa: E402
from budgetqa.bench import generate_benchmark  # noqa: E402
from budgetqa.control import CostBenefit, Preferences  # noqa: E402
from budgetqa.rewrite import AdjacencyGrammarScorer  # noqa: E402

from perfbench.spans import TARGETS, Tracer, layer_metrics, resolve_owner  # noqa: E402
from perfbench.stubserver import StubServer, is_fault  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
QUERIES = [f'"query {i} was" term{i}' for i in range(400)]


def _fault_pattern(seed):
    """Queries that got a 503 from a live stub, over two passes with a
    reset between them: only first attempts fail, the same ones each pass."""
    table = {q: json.dumps({"results": [{"summary": q}]}).encode() for q in QUERIES}
    server = StubServer([table], seed=seed, delay=0.0, fault_share=0.1)
    thread = Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    passes = []
    try:
        for _ in range(2):
            urllib.request.urlopen(urllib.request.Request(f"{base}/reset", data=b"", method="POST")).close()
            failed = []
            for q in QUERIES:
                for attempt in range(2):
                    url = f"{base}/c/0/search?" + urllib.parse.urlencode({"q": q})
                    try:
                        urllib.request.urlopen(url).close()
                    except urllib.error.HTTPError as exc:
                        assert exc.code == 503 and attempt == 0
                        failed.append(q)
                        continue
                    break
            with urllib.request.urlopen(f"{base}/counts") as response:
                counts = json.load(response)
            assert counts["faults"] == len(failed)
            assert counts["attempts"] == len(QUERIES) + len(failed)
            passes.append(failed)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert passes[0] == passes[1]
    return passes[0]


def test_stub_fault_pattern_is_fixed_for_a_seed():
    first = _fault_pattern(seed=7)
    assert first == _fault_pattern(seed=7)
    assert first == [q for q in QUERIES if is_fault(7, 0, q, 0.1)]
    assert 10 < len(first) < 80  # about a tenth of 400
    assert first != [q for q in QUERIES if is_fault(8, 0, q, 0.1)]


def _small_run():
    bench = generate_benchmark(30, seed=3)
    provider = search.OfflineProvider(search.build_index(bench.corpus))
    models = harness.train_models(bench.items[:15], provider, scorer=AdjacencyGrammarScorer())
    report = evaluation.evaluate(CostBenefit(), bench.items[15:], provider, models, Preferences(10.0, 1.0))
    return report.to_json(), [(q.top_answer, q.queries_issued) for q in report.per_question]


def test_span_wrappers_leave_results_unchanged_and_are_removed():
    originals = [(resolve_owner(o), a, resolve_owner(o).__dict__[a]) for o, a, _ in TARGETS]
    plain = _small_run()
    tracer = Tracer()
    with tracer:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
        traced = _small_run()
    assert traced == plain
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)

    metrics = layer_metrics(tracer)
    assert metrics["evaluation.evaluate.calls"] == 1
    assert metrics["control.run_policy.calls"] == 15
    assert metrics["search.execute.calls"] > 0
    assert metrics["remote.execute.calls"] == 0
    assert metrics["compose.ms"] > 0
    count = tracer.span_count()
    _small_run()  # restored: nothing more is recorded
    assert tracer.span_count() == count


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_command_runs_at_tiny_size(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if workload == "ask_remote" and trace:
        assert result["metrics"]["search.execute.ms"]["value"] == 0
        assert result["metrics"]["remote.execute.calls"]["value"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "experiment", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _record(path, digest="d", accuracy=0.9):
    metrics = {m["name"]: 1.0 for m in CONTRACT["end_to_end"]}
    metrics["accuracy"] = accuracy
    run = {"seed": 0, "attempted": 1, "failed": 0, "digest": digest, "metrics": metrics}
    entry = {"runs": [run], "median": dict(metrics), "spread": {}, "trace": {"seed": 0, "metrics": {"trace.spans": 1}}}
    path.write_text(json.dumps({"workloads": {"experiment": entry}}))
    return str(path)


@pytest.mark.parametrize("change,code", [({}, 0), ({"digest": "e"}, 1), ({"accuracy": 0.8999}, 1)])
def test_compare_fails_when_behaviour_changes(tmp_path, change, code):
    parent = _record(tmp_path / "parent.json")
    new = _record(tmp_path / "change.json", **change)
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "results.py"), "compare", parent, new],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stdout + proc.stderr

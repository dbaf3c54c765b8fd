import json

import pytest

from budgetqa.bench import generate_benchmark
from budgetqa.cli import main
from budgetqa.evaluation import dump_dataset
from budgetqa.harness import (
    generate_quality_cases,
    generate_threshold_cases,
    write_quality_runs,
    write_threshold_runs,
)
from budgetqa.rewrite import AdjacencyGrammarScorer
from budgetqa.search import OfflineProvider, build_index, load_index, query_phrase, save_corpus
from budgetqa.tree import train_tree


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A benchmark corpus plus trained model files on disk."""
    root = tmp_path_factory.mktemp("cli")
    bench = generate_benchmark(
        40, redundancy=3, distractors=10, tease_rate=0.2, sparse_rate=0.1,
        empty_rate=0.05, seed=21,
    )
    corpus_path = root / "corpus.jsonl"
    dataset_path = root / "dataset.jsonl"
    save_corpus(bench.corpus, str(corpus_path))
    dump_dataset(bench.items, str(dataset_path))

    provider = OfflineProvider(build_index(bench.corpus))
    scorer = AdjacencyGrammarScorer()
    conj, phrasal = generate_quality_cases(bench.items, provider, scorer=scorer)
    quality_runs = root / "quality_runs.jsonl"
    write_quality_runs(conj, phrasal, str(quality_runs))
    threshold_cases = generate_threshold_cases(
        bench.items, provider, train_tree(conj), train_tree(phrasal), scorer=scorer
    )
    threshold_runs = root / "threshold_runs.jsonl"
    write_threshold_runs(threshold_cases, str(threshold_runs))
    return {
        "root": root,
        "corpus": str(corpus_path),
        "dataset": str(dataset_path),
        "quality_runs": str(quality_runs),
        "threshold_runs": str(threshold_runs),
    }


@pytest.fixture(scope="module")
def models_dir(workspace):
    directory = workspace["root"] / "models"
    directory.mkdir()
    assert main([
        "train", "--runs", workspace["quality_runs"], "--kind", "quality-conj",
        "--out", str(directory / "quality_conjunctive.json"),
    ]) == 0
    assert main([
        "train", "--runs", workspace["quality_runs"], "--kind", "quality-phrasal",
        "--out", str(directory / "quality_phrasal.json"),
    ]) == 0
    assert main([
        "train", "--runs", workspace["threshold_runs"], "--kind", "thresholds",
        "--out", str(directory / "threshold_ensemble.json"),
    ]) == 0
    return str(directory)


def test_index_round_trip(workspace, capsys):
    out = str(workspace["root"] / "index.json")
    assert main(["index", "--corpus", workspace["corpus"], "--out", out]) == 0
    rebuilt = load_index(out)
    from budgetqa.search import load_corpus

    fresh = build_index(load_corpus(workspace["corpus"]))
    probe = ["are", "in"]
    assert [s.text for s in query_phrase(rebuilt, probe)] == [
        s.text for s in query_phrase(fresh, probe)
    ]


def test_index_missing_file_nonzero_exit():
    assert main(["index", "--corpus", "/nonexistent/corpus.jsonl", "--out", "/tmp/x.json"]) != 0


def test_ask_lincoln_on_bundled_corpus(tmp_path, capsys, lincoln_docs):
    corpus = tmp_path / "lincoln.jsonl"
    save_corpus(lincoln_docs, str(corpus))
    assert main(["ask", "Who killed Abraham Lincoln?", "--corpus", str(corpus), "--policy", "all"]) == 0
    output = capsys.readouterr().out
    assert "1. John Wilkes Booth" in output
    assert "queries issued: 5" in output


def test_ask_likelihood_respects_budget(workspace, models_dir, capsys):
    assert main([
        "ask", "Who painted the quartz mill?", "--corpus", workspace["corpus"],
        "--models", models_dir, "--policy", "likelihood", "--n", "3",
    ]) == 0
    assert "queries issued: 3" in capsys.readouterr().out


def test_ask_cost_benefit_prints_threshold_table(workspace, models_dir, capsys):
    item = json.loads(open(workspace["dataset"]).readline())
    assert main([
        "ask", item["question"], "--corpus", workspace["corpus"],
        "--models", models_dir, "--policy", "cost-benefit", "--k", "10", "--c", "1",
    ]) == 0
    output = capsys.readouterr().out
    assert "threshold" in output and "net" in output
    for t in (1, 12, 20):
        assert f"\n{t:>9}  " in output or output.startswith(f"{t:>9}  ")


def test_ask_abstains_politely(workspace, models_dir, capsys):
    # a question about nothing in the corpus: probe finds no evidence
    assert main([
        "ask", "Who painted the missing nothing?", "--corpus", workspace["corpus"],
        "--models", models_dir, "--policy", "cost-benefit", "--k", "2", "--c", "1",
    ]) == 0
    output = capsys.readouterr().out
    assert "ABSTAINED" in output or "ANSWERED" in output  # decision depends on models
    if "ABSTAINED" in output:
        assert "reformulat" in output


def test_train_rejects_missing_threshold(workspace, tmp_path, capsys):
    partial = tmp_path / "partial.jsonl"
    lines = [
        line
        for line in open(workspace["threshold_runs"], encoding="utf-8")
        if json.loads(line)["threshold"] != 12
    ]
    partial.write_text("".join(lines), encoding="utf-8")
    code = main([
        "train", "--runs", str(partial), "--kind", "thresholds",
        "--out", str(tmp_path / "out.json"),
    ])
    assert code == 2


def test_train_is_deterministic(workspace, tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (out1, out2):
        assert main([
            "train", "--runs", workspace["quality_runs"], "--kind", "quality-conj",
            "--out", out,
        ]) == 0
    assert open(out1).read() == open(out2).read()


def test_evaluate_policy_table(workspace, models_dir, capsys):
    assert main([
        "evaluate", "--dataset", workspace["dataset"], "--corpus", workspace["corpus"],
        "--models", models_dir, "--policy", "conjunctive", "--jobs", "1",
    ]) == 0
    output = capsys.readouterr().out
    assert "conjunctive_only" in output
    assert "40" in output  # cost equals question count


def test_evaluate_sweep_k_shape_and_jsonl(workspace, models_dir, tmp_path, capsys):
    out = str(tmp_path / "reports.jsonl")
    assert main([
        "evaluate", "--dataset", workspace["dataset"], "--corpus", workspace["corpus"],
        "--models", models_dir, "--sweep-k", "5,10,15,20", "--jobs", "1", "--out", out,
    ]) == 0
    table = capsys.readouterr().out
    assert table.count("cost_benefit") == 0  # table uses k column, not policy ids
    rows = [json.loads(line) for line in open(out)]
    assert len(rows) == 4


def test_evaluate_sweep_n_shape(workspace, models_dir, capsys):
    assert main([
        "evaluate", "--dataset", workspace["dataset"], "--corpus", workspace["corpus"],
        "--models", models_dir, "--sweep-n", "--seeds", "0,1", "--jobs", "1",
    ]) == 0
    output = capsys.readouterr().out
    body = [l for l in output.splitlines() if l and not l.startswith(("max", "-"))]
    assert len(body) == 13  # one row per threshold


def test_evaluate_empty_dataset_nonzero(workspace, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main([
        "evaluate", "--dataset", str(empty), "--corpus", workspace["corpus"],
    ]) == 2


def test_gen_bench_round_trip(tmp_path):
    corpus = str(tmp_path / "c.jsonl")
    dataset = str(tmp_path / "d.jsonl")
    assert main([
        "gen-bench", "--questions", "10", "--redundancy", "2", "--distractors", "5",
        "--seed", "4", "--out-corpus", corpus, "--out-dataset", dataset,
    ]) == 0
    from budgetqa.evaluation import load_dataset

    assert len(load_dataset(dataset)) == 10
    assert len(open(corpus).readlines()) >= 10


def test_usage_error_exit_code():
    assert main(["ask"]) == 1  # missing required argument
    assert main(["no-such-command"]) == 1


def test_conflicting_backends_is_data_error(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    for extra in [
        {"endpoint": "http://x/y"},
        # Fields that never took effect outside ``ask`` are gone; naming one
        # is a config error rather than a silent disagreement with the models.
        {"max_phrasal": 8},
        {"stopwords_path": "stopwords.txt"},
        {"stopwords": "stopwords.txt"},
        {"tree": {"min_leaf": 5}},
        {"phrasal_weight": 5.0},
        {"conjunctive_weight": 1.0},
        {"filters_path": "filters.json"},
        {"filters": "filters.json"},
    ]:
        cfg.write_text(json.dumps({"corpus": workspace["corpus"], **extra}), encoding="utf-8")
        assert main(["ask", "Who did it?", "--config", str(cfg)]) == 2, extra

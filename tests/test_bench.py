import hashlib
import json
import re

import pytest

from budgetqa.bench import generate_benchmark
from budgetqa.control import AllRewrites, LikelihoodN, RandomN
from budgetqa.evaluation import Judgment, dump_dataset, evaluate, judge
from budgetqa.harness import train_models
from budgetqa.rewrite import AdjacencyGrammarScorer, Question
from budgetqa.search import OfflineProvider, build_index


def test_generation_is_deterministic():
    a = generate_benchmark(25, seed=4)
    b = generate_benchmark(25, seed=4)
    assert [d.text for d in a.corpus] == [d.text for d in b.corpus]
    assert a.items == b.items


def test_counts_and_uniqueness():
    bench = generate_benchmark(30, distractors=12, seed=8)
    assert len(bench.items) == 30
    assert len({f.obj for f in bench.facts}) == 30
    assert len({d.id for d in bench.corpus}) == len(bench.corpus)


def test_questions_parse_and_patterns_compile():
    bench = generate_benchmark(20, seed=2)
    for item, fact in zip(bench.items, bench.facts):
        q = Question.from_text(item.question)
        assert q.qtype is fact.qtype
        assert judge(fact.answer, item.patterns) is Judgment.CORRECT


def test_generating_and_writing_a_dataset_compile_no_pattern(tmp_path, monkeypatch):
    # Patterns compile when an item is first judged, so a template whose
    # pattern is broken shows in the test above, not here.
    calls = []
    compile_ = re.compile

    def counting(*args, **kwargs):
        calls.append(args)
        return compile_(*args, **kwargs)

    monkeypatch.setattr(re, "compile", counting)
    bench = generate_benchmark(40, seed=0)
    dump_dataset(bench.items, str(tmp_path / "dataset.jsonl"))
    assert calls == []


def test_empty_facts_have_no_answer_docs():
    bench = generate_benchmark(60, empty_rate=0.2, sparse_rate=0.0, tease_rate=0.0, seed=13)
    empties = [f for f in bench.facts if f.empty]
    assert empties
    for fact in empties:
        assert not any(
            fact.obj in d.text.lower() and fact.answer.lower() in d.text.lower()
            for d in bench.corpus
        )


def test_redundancy_knob_controls_doc_count():
    lean = generate_benchmark(20, redundancy=1, tease_rate=0.0, sparse_rate=0.0, empty_rate=0.0, deep_rate=0.0, distractors=0, seed=6)
    rich = generate_benchmark(20, redundancy=4, tease_rate=0.0, sparse_rate=0.0, empty_rate=0.0, deep_rate=0.0, distractors=0, seed=6)
    assert len(lean.corpus) == 20
    assert len(rich.corpus) == 80


@pytest.mark.parametrize("redundancy", [0, 6, 50])
def test_redundancy_beyond_the_paraphrase_pools_is_refused(redundancy):
    # WHO facts have five paraphrases and every other type four.
    with pytest.raises(ValueError, match="redundancy must be between 1 and 5"):
        generate_benchmark(10, redundancy=redundancy)


@pytest.fixture(scope="module")
def trained_small():
    bench = generate_benchmark(
        60, redundancy=3, distractors=15, tease_rate=0.3, sparse_rate=0.1,
        empty_rate=0.05, seed=31,
    )
    provider = OfflineProvider(build_index(bench.corpus))
    models = train_models(bench.items[:30], provider, scorer=AdjacencyGrammarScorer())
    return provider, models, bench.items[30:]


def test_likelihood_correct_non_decreasing_in_n(trained_small):
    provider, models, items = trained_small
    corrects = [
        evaluate(LikelihoodN(n), items, provider, models).correct for n in (1, 2, 3, 5, 8)
    ]
    assert all(a <= b for a, b in zip(corrects, corrects[1:])), corrects


def test_random_mean_correct_non_decreasing_in_n(trained_small):
    provider, models, items = trained_small
    means = []
    for n in (1, 2, 3, 5, 8):
        total = sum(
            evaluate(RandomN(n, seed=s), items, provider, models).correct for s in range(6)
        )
        means.append(total / 6)
    assert all(a <= b + 1e-9 for a, b in zip(means, means[1:])), means


def test_all_rewrites_at_least_as_good_as_any_prefix(trained_small):
    provider, models, items = trained_small
    full = evaluate(AllRewrites(), items, provider, models).correct
    for n in (1, 3, 8):
        assert full >= evaluate(LikelihoodN(n), items, provider, models).correct


# --------------------------------------------------------------------------
# Golden digest: the generator's output, pinned.

# Digested before the per-type wording moved into one template table. The
# stub search server and the reference answers regenerate these corpora in
# their own processes, so any change to a document, question, pattern or
# fact changes what a remote run is checked against.
BENCH_GOLDEN_DIGEST = "b36531fb35e64c744a267e892b6c3b62741321343b579266467a38dcd0bb374d"
_GOLDEN_SIZES = [(440, 0), (440, 1), (440, 2), (440, 3), (60, 13), (20, 6)]
_GOLDEN_KNOBS = [{}, {"redundancy": 1}, {"redundancy": 5, "tease_rate": 1.0}]


def test_generated_benchmark_matches_golden_digest():
    digest = hashlib.sha256()
    seen = {"empty": 0, "sparse": 0, "deep": 0, "tease": 0}
    for num_questions, seed in _GOLDEN_SIZES:
        for knobs in _GOLDEN_KNOBS:
            bench = generate_benchmark(num_questions, seed=seed, **knobs)
            record = [
                [[d.id, d.text] for d in bench.corpus],
                [[item.question, [p.pattern for p in item.patterns]] for item in bench.items],
                [repr(fact) for fact in bench.facts],
            ]
            digest.update(json.dumps(record).encode("utf-8"))
            for kind in ("empty", "sparse", "deep"):
                seen[kind] += sum(getattr(fact, kind) for fact in bench.facts)
            seen["tease"] += sum("kept its secret" in d.text for d in bench.corpus)
    assert all(seen.values()), seen
    assert digest.hexdigest() == BENCH_GOLDEN_DIGEST

import pytest

from budgetqa.bench import generate_benchmark
from budgetqa.control import LikelihoodN, run_policy
from budgetqa.errors import IncompleteEnsemble, RetryableError
from budgetqa.evaluation import Judgment, judge
from budgetqa.harness import (
    generate_quality_cases,
    generate_threshold_cases,
    read_quality_runs,
    read_threshold_runs,
    train_models,
    write_quality_runs,
    write_threshold_runs,
)
from budgetqa.models import DEFAULT_THRESHOLDS, ModelSet
from budgetqa.rewrite import AdjacencyGrammarScorer
from budgetqa.search import MeteredProvider, OfflineProvider, build_index
from budgetqa.tree import train_tree


@pytest.fixture(scope="module")
def small_setup():
    bench = generate_benchmark(
        30, redundancy=3, distractors=10, tease_rate=0.3, sparse_rate=0.1,
        empty_rate=0.05, seed=3,
    )
    provider = OfflineProvider(build_index(bench.corpus))
    return bench, provider


def test_quality_cases_have_uniform_schemas(small_setup):
    bench, provider = small_setup
    conj, phrasal = generate_quality_cases(bench.items, provider, scorer=AdjacencyGrammarScorer())
    assert len(conj) == len(bench.items)  # one conjunctive rewrite per question
    assert len(phrasal) > len(conj)  # several phrasal rewrites per question
    assert len({frozenset(c.features) for c in conj}) == 1
    assert len({frozenset(c.features) for c in phrasal}) == 1
    assert any(c.label for c in conj) and any(not c.label for c in phrasal)


def test_threshold_cases_cover_all_thresholds_with_one_schema(small_setup):
    bench, provider = small_setup
    conj, phrasal = generate_quality_cases(bench.items, provider, scorer=AdjacencyGrammarScorer())
    cases = generate_threshold_cases(
        bench.items, provider, train_tree(conj), train_tree(phrasal),
        scorer=AdjacencyGrammarScorer(),
    )
    assert set(cases) == set(DEFAULT_THRESHOLDS)
    assert all(len(cs) == len(bench.items) for cs in cases.values())
    schemas = {frozenset(c.features) for cs in cases.values() for c in cs}
    assert len(schemas) == 1


def test_threshold_case_labels_non_decreasing_in_budget_on_average(small_setup):
    bench, provider = small_setup
    conj, phrasal = generate_quality_cases(bench.items, provider, scorer=AdjacencyGrammarScorer())
    cases = generate_threshold_cases(
        bench.items, provider, train_tree(conj), train_tree(phrasal),
        scorer=AdjacencyGrammarScorer(),
    )
    rates = [sum(c.label for c in cases[n]) / len(cases[n]) for n in sorted(cases)]
    assert rates[-1] >= rates[0]


def test_runs_files_round_trip(tmp_path, small_setup):
    bench, provider = small_setup
    conj, phrasal = generate_quality_cases(bench.items, provider, scorer=AdjacencyGrammarScorer())
    qpath = tmp_path / "quality.jsonl"
    write_quality_runs(conj, phrasal, str(qpath))
    assert read_quality_runs(str(qpath), "conjunctive") == conj
    assert read_quality_runs(str(qpath), "phrasal") == phrasal

    cases = generate_threshold_cases(
        bench.items, provider, train_tree(conj), train_tree(phrasal),
        scorer=AdjacencyGrammarScorer(),
    )
    tpath = tmp_path / "thresholds.jsonl"
    write_threshold_runs(cases, str(tpath))
    assert read_threshold_runs(str(tpath)) == cases


class _FailingProvider:
    """Raises RetryableError for one query and passes the rest through."""

    def __init__(self, inner, failing_query):
        self.inner = inner
        self.failing_query = failing_query

    def execute(self, rewrite, limit, rewrite_index=0):
        if rewrite.as_query() == self.failing_query:
            raise RetryableError("backend failed after 3 attempts: HTTP 503")
        return self.inner.execute(rewrite, limit, rewrite_index)


def test_threshold_cases_label_a_failed_rewrite_like_serving(small_setup):
    bench, provider = small_setup
    scorer = AdjacencyGrammarScorer()
    conj, phrasal = generate_quality_cases(bench.items, provider, scorer=scorer)
    conj_tree, phrasal_tree = train_tree(conj), train_tree(phrasal)
    models = ModelSet(conj_tree, phrasal_tree, scorer=scorer)
    item = bench.items[0]
    # The best-ranked rewrite is in every prefix, so its failure touches
    # every threshold's label.
    top = run_policy(LikelihoodN(1), item.question, provider, models).rewrites_used[0]
    failing = _FailingProvider(provider, top.as_query())

    cases = generate_threshold_cases(
        [item], failing, conj_tree, phrasal_tree, scorer=scorer
    )
    for n in DEFAULT_THRESHOLDS:
        served = run_policy(LikelihoodN(n), item.question, failing, models)
        assert served.backend_errors
        assert cases[n][0].label == (judge(served.top_answer, item.patterns) is Judgment.CORRECT)


def test_train_models_produces_complete_set(small_setup):
    bench, provider = small_setup
    meter = MeteredProvider(provider)
    models = train_models(bench.items, meter, scorer=AdjacencyGrammarScorer())
    assert models.ensemble is not None
    assert models.ensemble.thresholds == DEFAULT_THRESHOLDS
    # training executed each rewrite once per phase (quality + threshold)
    assert meter.calls > 0


def test_incomplete_threshold_runs_rejected(small_setup, tmp_path):
    from budgetqa.models import train_threshold_ensemble

    with pytest.raises(IncompleteEnsemble):
        train_threshold_ensemble({1: []})

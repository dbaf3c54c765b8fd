import hashlib
import json

import pytest

from budgetqa.bench import generate_benchmark
from budgetqa.control import CostBenefit, LikelihoodN, Preferences, Run, run_policy
from budgetqa.errors import IncompleteEnsemble, RetryableError
from budgetqa.evaluation import Judgment, QAItem, judge
from budgetqa.cli import main
from budgetqa.evaluation import dump_dataset
from budgetqa.harness import generate_quality_cases, generate_threshold_cases, train_models
from budgetqa.models import DEFAULT_THRESHOLDS, PROBE_SIZE, ModelSet
from budgetqa.rewrite import AdjacencyGrammarScorer
from budgetqa.search import DEFAULT_LIMIT, MeteredProvider, OfflineProvider, build_index, save_corpus
from budgetqa.tree import train_tree, tree_to_dict


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
        bench.items, provider, ModelSet(train_tree(conj), train_tree(phrasal)),
    )
    assert set(cases) == set(DEFAULT_THRESHOLDS)
    assert all(len(cs) == len(bench.items) for cs in cases.values())
    schemas = {frozenset(c.features) for cs in cases.values() for c in cs}
    assert len(schemas) == 1


def test_threshold_case_labels_non_decreasing_in_budget_on_average(small_setup):
    bench, provider = small_setup
    conj, phrasal = generate_quality_cases(bench.items, provider, scorer=AdjacencyGrammarScorer())
    cases = generate_threshold_cases(
        bench.items, provider, ModelSet(train_tree(conj), train_tree(phrasal)),
    )
    rates = [sum(c.label for c in cases[n]) / len(cases[n]) for n in sorted(cases)]
    assert rates[-1] >= rates[0]


class _FailingProvider:
    """Raises RetryableError for one query and passes the rest through."""

    def __init__(self, inner, failing_query):
        self.inner = inner
        self.failing_query = failing_query

    def execute(self, rewrite, limit):
        if rewrite.as_query() == self.failing_query:
            raise RetryableError("backend failed after 3 attempts: HTTP 503")
        return self.inner.execute(rewrite, limit)


class _SerialLimits:
    """Passes each query through and records the limit it asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.limits = []

    def execute(self, rewrite, limit):
        self.limits.append(limit)
        return self.inner.execute(rewrite, limit)


class _BatchLimits(_SerialLimits):
    """Records the limit of each batch; a run sends it batches only."""

    def execute(self, rewrite, limit):
        raise AssertionError("a run sends a batch provider batches only")

    def execute_many(self, rewrites, limit, started=None):
        self.limits.append(limit)
        return [self.inner.execute(rewrite, limit) for rewrite in rewrites]


@pytest.mark.parametrize("recorder", [_SerialLimits, _BatchLimits], ids=["execute", "execute_many"])
def test_training_and_serving_ask_the_provider_for_the_default_limit(small_setup, recorder):
    # The search depth is fixed, so the models serve at the depth they learnt.
    bench, provider = small_setup
    recording = recorder(provider)
    models = train_models(bench.items, recording, scorer=AdjacencyGrammarScorer())
    trained = len(recording.limits)
    run_policy(CostBenefit(), bench.items[0].question, recording, models, Preferences(k=10.0, c=1.0))
    assert 0 < trained < len(recording.limits)
    assert set(recording.limits) == {DEFAULT_LIMIT}


def test_threshold_cases_label_a_failed_rewrite_like_serving(small_setup):
    bench, provider = small_setup
    scorer = AdjacencyGrammarScorer()
    conj, phrasal = generate_quality_cases(bench.items, provider, scorer=scorer)
    models = ModelSet(train_tree(conj), train_tree(phrasal), scorer=scorer)
    item = bench.items[0]
    # The best-ranked rewrite is in every prefix, so its failure touches
    # every threshold's label.
    top = run_policy(LikelihoodN(1), item.question, provider, models).rewrites_used[0]
    failing = _FailingProvider(provider, top.as_query())

    cases = generate_threshold_cases(
        [item], failing, models
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


def test_train_models_accepts_a_one_word_question(small_setup):
    # "Velt?" has only the conjunctive rewrite; its run features must share
    # the schema of every other question's, or tree training refuses them.
    bench, provider = small_setup
    items = list(bench.items) + [QAItem.make("Velt?", ["Maren"])]
    models = train_models(items, provider, scorer=AdjacencyGrammarScorer())
    assert models.ensemble.thresholds == DEFAULT_THRESHOLDS


def test_incomplete_threshold_runs_rejected(small_setup, tmp_path):
    from budgetqa.models import train_threshold_ensemble

    with pytest.raises(IncompleteEnsemble):
        train_threshold_ensemble({1: []})


# SHA-256 of every trained tree (quality models, then the ensemble by
# threshold) on generate_benchmark(80, seed=0). Run features that read the
# wrong evidence change the ensemble even when no report table moves.
MODELS_GOLDEN_DIGEST = "14af2ec48707b8f091bced01268d19f6b24da2b59aacc69f017381bffc95deb2"


def _models_digest(models: ModelSet) -> str:
    trees = [models.conjunctive, models.phrasal]
    trees += [models.ensemble.trees[n] for n in sorted(models.ensemble.trees)]
    digest = hashlib.sha256()
    for tree in trees:
        digest.update(json.dumps(tree_to_dict(tree), sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def test_loaded_models_share_trees_as_trained_ones_do(tmp_path):
    bench = generate_benchmark(40, seed=0)
    provider = OfflineProvider(build_index(bench.corpus))
    models = train_models(bench.items[:20], provider, scorer=AdjacencyGrammarScorer())
    trained = len({id(tree) for tree in models.ensemble.trees.values()})
    assert trained < len(DEFAULT_THRESHOLDS)  # equal case lists share a tree
    models.save(str(tmp_path))
    loaded = ModelSet.load(str(tmp_path))
    assert len({id(tree) for tree in loaded.ensemble.trees.values()}) == trained
    for item in bench.items[20:]:
        run = Run(item.parsed, models.order(item.parsed.rewrites), provider)
        features = run.features(PROBE_SIZE)
        assert loaded.ensemble.predict_all(features) == models.ensemble.predict_all(features)


def test_trained_models_match_golden_digest(tmp_path):
    bench = generate_benchmark(80, seed=0)
    provider = OfflineProvider(build_index(bench.corpus))
    models = train_models(bench.items, provider, scorer=AdjacencyGrammarScorer())
    assert _models_digest(models) == MODELS_GOLDEN_DIGEST

    # The command line trains the same trees and records the scorer, so
    # serving needs no scorer flag to match training.
    save_corpus(bench.corpus, str(tmp_path / "corpus.jsonl"))
    dump_dataset(bench.items, str(tmp_path / "dataset.jsonl"))
    assert main([
        "train", "--dataset", str(tmp_path / "dataset.jsonl"),
        "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(tmp_path / "models"),
    ]) == 0
    loaded = ModelSet.load(str(tmp_path / "models"))
    assert _models_digest(loaded) == MODELS_GOLDEN_DIGEST
    assert isinstance(loaded.scorer, AdjacencyGrammarScorer)

import dataclasses
import math
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetqa.bench import generate_benchmark
from budgetqa.control import (
    AllRewrites,
    ConjunctiveOnly,
    CostBenefit,
    LikelihoodN,
    Preferences,
    RandomN,
    Run,
    choose_n,
    decide,
    run_policy,
)
from budgetqa.errors import ProviderError, RetryableError
from budgetqa.harness import train_models
from budgetqa.models import DEFAULT_THRESHOLDS, PROBE_SIZE, ModelSet
from budgetqa.rewrite import (
    CONJUNCTIVE_WEIGHT,
    PHRASAL_WEIGHT,
    AdjacencyGrammarScorer,
    Question,
    Rewrite,
    RewriteKind,
    generate_rewrites,
)
from budgetqa.search import DEFAULT_LIMIT, MeteredProvider, OfflineProvider, Snippet, build_index
from budgetqa.text import default_stopwords
from budgetqa.tree import DecisionTree, Leaf, Split

from oracles import best_budget, remined_counts
from stubs import model_set


def _leaf_tree(p):
    return DecisionTree(root=Leaf(probability=p, support=10, positives=5))


def _stub_ensemble(probs: dict[int, float]) -> ModelSet:
    return ModelSet({("budget", n): _leaf_tree(p) for n, p in probs.items()})


def _stub_models(conj_p=0.5, phrasal_p=0.5, probs=None, budgets=None):
    """Leaf quality trees, and budget trees: leaves at ``probs`` or the
    trees ``budgets`` maps each n to."""
    budgets = budgets or {n: _leaf_tree(p) for n, p in (probs or {}).items()}
    return model_set(_leaf_tree(conj_p), _leaf_tree(phrasal_p), budgets)


# --------------------------------------------------------------------------
# the net expected value (decide's per-threshold nets) / choose_n


def test_net_expected_value_arithmetic():
    # (p * k - n) * c per threshold n
    assert decide({5: 0.8}, Preferences(k=10, c=1)).per_threshold_net[5] == pytest.approx(3.0)
    assert decide({4: 0.0}, Preferences(k=10, c=1)).per_threshold_net[4] == pytest.approx(-4.0)


def test_net_expected_value_scales_linearly_in_c():
    base = decide({3: 0.7}, Preferences(k=10, c=1.0)).per_threshold_net[3]
    assert decide({3: 0.7}, Preferences(k=10, c=2.5)).per_threshold_net[3] == pytest.approx(2.5 * base)


def test_preferences_must_be_positive():
    with pytest.raises(ValueError):
        Preferences(k=0, c=1)
    with pytest.raises(ValueError):
        Preferences(k=10, c=-1)


@pytest.mark.parametrize(
    "k, c",
    [(math.inf, 1), (math.nan, 1), (10, math.inf), (10, math.nan), (True, 1), ("10", 1)],
    ids=["k-inf", "k-nan", "c-inf", "c-nan", "k-bool", "k-string"],
)
def test_preferences_must_be_finite_real_numbers(k, c):
    with pytest.raises(ValueError, match="must be a positive finite number"):
        Preferences(k=k, c=c)


def test_two_point_argmax():
    probs = {n: 0.0 for n in DEFAULT_THRESHOLDS}
    probs[1], probs[2] = 0.5, 0.8
    decision = choose_n(_stub_ensemble(probs), {}, Preferences(k=10, c=1))
    assert decision.n == 2
    assert decision.expected_net == pytest.approx(6.0)
    assert decision.per_threshold_net[1] == pytest.approx(4.0)


def test_abstains_when_every_net_is_negative():
    probs = {n: 0.05 for n in DEFAULT_THRESHOLDS}
    decision = choose_n(_stub_ensemble(probs), {}, Preferences(k=10, c=1))
    assert decision.abstained
    assert decision.expected_net == 0.0
    assert all(v < 0 for v in decision.per_threshold_net.values())


def test_ties_go_to_smallest_n():
    # equal p everywhere means n=1 has the best net
    probs = {n: 0.9 for n in DEFAULT_THRESHOLDS}
    decision = choose_n(_stub_ensemble(probs), {}, Preferences(k=10, c=1))
    assert decision.n == 1


def test_an_exact_net_tie_goes_to_the_smaller_n():
    # p1 = 0.5 and p2 = 0.6 at k=10, c=1 both net exactly 4.0.
    decision = choose_n(_stub_ensemble({1: 0.5, 2: 0.6}), {}, Preferences(k=10, c=1))
    assert decision.per_threshold_net == {1: 4.0, 2: 4.0}
    assert decision.n == 1


def test_a_best_net_of_exactly_zero_answers_rather_than_abstains():
    # p = 0.1 at k=10, c=1 nets exactly 0.0 at n = 1: doing nothing is no
    # better, so the controller answers.
    decision = choose_n(_stub_ensemble({1: 0.1, 2: 0.1}), {}, Preferences(k=10, c=1))
    assert not decision.abstained
    assert decision.n == 1
    assert decision.expected_net == 0.0


@pytest.mark.parametrize("c", [0.1, 1, 3, 7])
def test_the_budget_choice_reads_k_alone(c):
    # p1 = 0.5 and p2 = 0.6 at k=10 both net exactly 4 queries, so n = 1
    # wins the tie at any c. Ranked on nets scaled by c = 0.1, the two read
    # 0.4 and 0.4000000000000001 and the larger budget won.
    decision = decide({1: 0.5, 2: 0.6}, Preferences(k=10, c=c))
    assert decision.n == 1
    assert decision.expected_net == 4.0 * c
    assert decision.per_threshold_net == {1: 4.0 * c, 2: 4.0 * c}
    assert decision.probabilities == {1: 0.5, 2: 0.6}


@given(
    probs=st.lists(st.floats(min_value=0.001, max_value=0.999), min_size=13, max_size=13),
    k=st.floats(min_value=0.5, max_value=50),
    c=st.floats(min_value=0.1, max_value=5),
)
@settings(deadline=None, max_examples=200)
def test_choose_n_matches_exhaustive_oracle(probs, k, c):
    table = dict(zip(DEFAULT_THRESHOLDS, probs))
    decision = choose_n(_stub_ensemble(table), {}, Preferences(k=k, c=c))
    expect_n, expect_nets = best_budget(table, k, c)
    assert decision.n == expect_n
    for n in DEFAULT_THRESHOLDS:
        assert decision.per_threshold_net[n] == pytest.approx(expect_nets[n])


@given(
    probs=st.lists(st.floats(min_value=0.001, max_value=0.999), min_size=13, max_size=13),
    k=st.floats(min_value=0.5, max_value=50),
)
@settings(deadline=None, max_examples=100)
def test_argmax_invariant_under_c_scaling(probs, k):
    table = dict(zip(DEFAULT_THRESHOLDS, probs))
    ensemble = _stub_ensemble(table)
    actions = [
        choose_n(ensemble, {}, Preferences(k=k, c=alpha)).n for alpha in (0.1, 1.0, 10.0)
    ]
    assert actions[0] == actions[1] == actions[2]


@given(
    probs=st.one_of(
        st.lists(st.floats(min_value=0.001, max_value=0.999), min_size=13, max_size=13),
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=1000), min_size=13, max_size=13),
    ),
    ks=st.lists(st.integers(min_value=1, max_value=200), max_size=8),
)
@settings(deadline=None, max_examples=120)
def test_chosen_n_is_monotone_in_k(probs, ks):
    # p(n) * k - n are lines in k, and the decision follows their upper
    # envelope: as k rises the chosen n never falls and an answer never turns
    # into an abstention (counted as 0). Fractions keep the nets exact, so
    # ties are real.
    table = dict(zip(DEFAULT_THRESHOLDS, probs))
    ensemble = _stub_ensemble(table)
    previous = 0
    for k in sorted({1, 2, 5, 10, 20, 50, 100, *ks}):
        decision = choose_n(ensemble, {}, Preferences(k=k, c=1))
        n = decision.n if decision.n is not None else 0
        assert n >= previous
        previous = n


def test_decision_internal_consistency():
    probs = {n: random.Random(3).random() for n in DEFAULT_THRESHOLDS}
    decision = choose_n(_stub_ensemble(probs), {}, Preferences(k=8, c=1))
    if not decision.abstained:
        assert decision.expected_net == max(decision.per_threshold_net.values())
        assert decision.per_threshold_net[decision.n] == decision.expected_net


def test_choose_n_asks_each_distinct_tree_once(monkeypatch):
    bench = generate_benchmark(40, seed=0)
    provider = OfflineProvider(build_index(bench.corpus))
    models = train_models(bench.items[:20], provider, scorer=AdjacencyGrammarScorer())
    trees = {n: models.trees["budget", n] for n in models.budgets}
    distinct = len({id(tree) for tree in trees.values()})
    assert distinct < len(trees)  # equal case lists share a tree
    prefs = Preferences(k=10, c=1)
    predict = DecisionTree.predict
    asked = []

    def counted(tree, features):
        asked.append(tree)
        return predict(tree, features)

    monkeypatch.setattr(DecisionTree, "predict", counted)
    for item in bench.items[20:]:
        order = CostBenefit().select(item.parsed, models, 0)
        features = Run(item.parsed, order, provider).features(PROBE_SIZE)
        asked.clear()
        decision = choose_n(models, features, prefs)
        assert len(asked) == distinct
        assert list(decision.per_threshold_net) == list(DEFAULT_THRESHOLDS)
        assert decision.per_threshold_net == {
            n: (predict(trees[n], features) * prefs.k - n) * prefs.c for n in DEFAULT_THRESHOLDS
        }


# --------------------------------------------------------------------------
# run_policy


QUESTION = "Who killed Abraham Lincoln?"


def test_conjunctive_only_issues_one_query(lincoln_provider):
    meter = MeteredProvider(lincoln_provider)
    result = run_policy(ConjunctiveOnly(), QUESTION, meter)
    assert result.queries_issued == 1 == meter.calls
    assert result.rewrites_used[0].kind is RewriteKind.CONJUNCTIVE


def test_all_rewrites_issues_every_rewrite(lincoln_provider):
    meter = MeteredProvider(lincoln_provider)
    result = run_policy(AllRewrites(), QUESTION, meter)
    assert result.queries_issued == 5 == meter.calls


def test_likelihood_top_n_selection(lincoln_provider):
    meter = MeteredProvider(lincoln_provider)
    models = _stub_models()
    result = run_policy(LikelihoodN(3), QUESTION, meter, models)
    assert result.queries_issued == 3 == meter.calls
    # equal stub scores: ties resolve to generation order
    assert result.rewrites_used[0].parts == ("killed Abraham Lincoln",)


def test_likelihood_caps_at_available(lincoln_provider):
    result = run_policy(LikelihoodN(50), QUESTION, lincoln_provider, _stub_models())
    assert result.queries_issued == 5


def test_random_n_is_reproducible_and_nested(lincoln_provider):
    first = run_policy(RandomN(3, seed=9), QUESTION, lincoln_provider)
    again = run_policy(RandomN(3, seed=9), QUESTION, lincoln_provider)
    assert [r.parts for r in first.rewrites_used] == [r.parts for r in again.rewrites_used]
    wider = run_policy(RandomN(4, seed=9), QUESTION, lincoln_provider)
    assert [r.parts for r in wider.rewrites_used[:3]] == [
        r.parts for r in first.rewrites_used
    ]


def test_cost_benefit_submits_argmax(lincoln_provider):
    probs = {n: 0.0 for n in DEFAULT_THRESHOLDS}
    probs[1], probs[3] = 0.5, 0.9
    meter = MeteredProvider(lincoln_provider)
    models = _stub_models(probs=probs)
    result = run_policy(CostBenefit(), QUESTION, meter, models, Preferences(k=10, c=1))
    assert not result.abstained
    assert result.decision.n == 3
    assert result.queries_issued == 3 == meter.calls
    assert result.answers[0].text == "John Wilkes Booth"


def test_cost_benefit_abstains_after_probe(lincoln_provider):
    probs = {n: 0.01 for n in DEFAULT_THRESHOLDS}
    meter = MeteredProvider(lincoln_provider)
    models = _stub_models(probs=probs)
    result = run_policy(CostBenefit(), QUESTION, meter, models, Preferences(k=10, c=1))
    assert result.abstained
    assert result.top_answer is None
    assert result.queries_issued == 2 == meter.calls  # probe charged, nothing more


def test_cost_benefit_budget_below_probe_still_charges_probe(lincoln_provider):
    probs = {n: 0.0 for n in DEFAULT_THRESHOLDS}
    probs[1] = 0.99
    meter = MeteredProvider(lincoln_provider)
    models = _stub_models(probs=probs)
    result = run_policy(CostBenefit(), QUESTION, meter, models, Preferences(k=10, c=1))
    assert result.decision.n == 1
    assert result.queries_issued == 2 == meter.calls
    # The answer uses both probe rewrites the run paid for, not just n.
    assert len(result.rewrites_used) == 2
    probe = Run(Question.from_text(QUESTION), result.rewrites_used, lincoln_provider)
    assert result.answers == probe.compose(2)


def test_a_result_charges_every_rewrite_the_run_executed(lincoln_provider):
    # A result answers from its first n rewrites, but every query the run
    # issued, even past n, is charged.
    meter = MeteredProvider(lincoln_provider)
    question = Question.from_text(QUESTION)
    run = Run(question, question.rewrites, meter)
    run.compose(3)
    result = run.result(1)
    assert result.queries_issued == 3 == meter.calls
    assert result.rewrites_used == question.rewrites[:1]
    assert result.answers == run.compose(1)


def test_cost_benefit_requires_models_and_prefs(lincoln_provider):
    with pytest.raises(ValueError):
        run_policy(CostBenefit(), QUESTION, lincoln_provider, None, Preferences(k=1, c=1))
    with pytest.raises(ValueError):
        run_policy(CostBenefit(), QUESTION, lincoln_provider, _stub_models(probs={1: 0.5}), None)


# --------------------------------------------------------------------------
# Run


class _ScriptedProvider:
    """Serves fixed snippet texts per rewrite position; rewrite ``p<i>`` is
    at position i."""

    def __init__(self, texts):
        self.texts = texts

    def execute(self, rewrite, limit):
        return [Snippet(t, "d") for t in self.texts[int(rewrite.parts[0][1:])][:limit]]


_VOCAB = ["Booth", "bullet", "actor", "Wilkes", "the", "of", "President", "Ford's", "John", "killed"]
_words = st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=9).map(" ".join)
_rewrite_evidence = st.tuples(
    st.sampled_from([1.0, 2.0, 5.0]),
    st.sampled_from([RewriteKind.PHRASAL, RewriteKind.CONJUNCTIVE]),
    st.lists(_words, max_size=4),
)


@given(
    evidence=st.lists(_rewrite_evidence, min_size=1, max_size=5),
    prefix=st.integers(min_value=1, max_value=6),
)
@settings(deadline=None, max_examples=150)
def test_run_features_match_remining_oracle(evidence, prefix):
    question = Question.from_text("Who killed the actor?")
    rewrites = [
        Rewrite(kind, (f"p{i}",), weight)
        for i, (weight, kind, _) in enumerate(evidence)
    ]
    texts = [found for _, _, found in evidence]
    run = Run(question, rewrites, _ScriptedProvider(texts))
    feats = run.features(prefix)

    used = rewrites[:prefix]
    snippets = [[Snippet(t, "d") for t in found] for found in texts[:prefix]]
    numngrams, per_weight = remined_counts(
        used, snippets, question.token_keys, default_stopwords()
    )
    # Only the package's two weights are features; weight 2.0 is counted in
    # numngrams alone.
    expected_rulescore = {
        f"rulescore_{weight:g}": float(per_weight.get(weight, 0))
        for weight in (CONJUNCTIVE_WEIGHT, PHRASAL_WEIGHT)
    }
    assert feats["numngrams"] == numngrams
    assert {k: v for k, v in feats.items() if k.startswith("rulescore_")} == expected_rulescore
    assert feats["totalqueries"] == len(used)
    assert feats["totsnips"] == sum(len(found) for found in snippets)
    assert feats["totnonbagsnips"] == sum(
        len(found) for r, found in zip(used, snippets) if r.kind is RewriteKind.PHRASAL
    )
    assert len(run.snippets) == len(used)


def test_one_word_question_has_the_run_feature_schema(lincoln_provider):
    # A one-word question has only the conjunctive rewrite, yet its probe
    # features must carry every key a threshold tree can split on.
    def keys(text):
        question = Question.from_text(text)
        run = Run(question, generate_rewrites(question), lincoln_provider)
        return set(run.features(PROBE_SIZE))

    assert keys("Velt?") == keys("Who killed Abraham Lincoln?")
    assert {"rulescore_1", "rulescore_5"} <= keys("Velt?")


class _BatchRecorder:
    """A batch provider that records each batch's size and start time."""

    def __init__(self):
        self.batches = []

    def execute(self, rewrite, limit):
        raise AssertionError("a run sends a batch provider batches only")

    def execute_many(self, rewrites, limit, started=None):
        self.batches.append((len(rewrites), started))
        return [() for _ in rewrites]


def test_every_batch_of_a_run_shares_the_start_of_its_first():
    recorder = _BatchRecorder()
    meter = MeteredProvider(recorder)
    before = time.monotonic()
    run = Run(Question.from_text(QUESTION), Question.from_text(QUESTION).rewrites[:3], meter)
    run.compose(2)  # a probe
    run.compose(2)  # nothing left to execute
    run.compose(3)  # a lone extension rewrite is a batch too
    after = time.monotonic()
    assert [size for size, _ in recorder.batches] == [2, 1]
    (_, first), (_, second) = recorder.batches
    assert first == second
    assert before <= first <= after
    assert meter.calls == len(run.snippets) == 3


class _FailingProvider:
    """A serial provider whose first three rewrites fail, each its own way."""

    failures = {
        "p0": RetryableError("gave up after 3 attempts"),
        "p1": ProviderError("malformed response"),
        "p2": RuntimeError("a bug, not a backend failure"),
    }

    def __init__(self):
        self.executed = []

    def execute(self, rewrite, limit):
        self.executed.append(rewrite.parts[0])
        raise self.failures.get(rewrite.parts[0], AssertionError("executed past a bug"))


class _FailingBatchProvider(_FailingProvider):
    """A batch provider with the same outcomes: the three failures as the
    batch's exceptions, then snippets."""

    def execute(self, rewrite, limit):
        raise AssertionError("a run sends a batch provider batches only")

    def execute_many(self, rewrites, limit, started=None):
        self.executed.extend(rewrite.parts[0] for rewrite in rewrites)
        return [self.failures.get(r.parts[0], (Snippet("found", "d"),)) for r in rewrites]


@pytest.mark.parametrize(
    "provider, sent, batched",
    [
        (_FailingProvider, ["p0", "p1", "p2"], False),
        (_FailingBatchProvider, ["p0", "p1", "p2", "p3"], True),
    ],
    ids=["execute", "execute_many"],
)
def test_a_serial_run_records_backend_failures_and_raises_anything_else(provider, sent, batched):
    # Serial or batched, a run records outcomes through one loop: only what
    # was sent differs (a batch sends every rewrite), and only a batch
    # starts the question's clock.
    rewrites = [Rewrite(RewriteKind.CONJUNCTIVE, (f"p{i}",), 1.0) for i in range(4)]
    provider = provider()
    run = Run(Question.from_text(QUESTION), rewrites, provider)
    with pytest.raises(RuntimeError, match="a bug"):
        run.compose(4)
    assert provider.executed == sent
    assert len(run.snippets) == 2
    assert run.snippets == [(), ()]
    assert run.errors == [
        f"{rewrites[0].as_query()}: gave up after 3 attempts",
        f"{rewrites[1].as_query()}: malformed response",
    ]
    assert (run.started is not None) == batched


# --------------------------------------------------------------------------
# What a question remembers from its runs


class _FixedProvider:
    """Serves the same snippet texts for every rewrite."""

    def __init__(self, *texts):
        self.snippets = [Snippet(t, "d") for t in texts]

    def execute(self, rewrite, limit):
        return self.snippets[:limit]


def _key(rewrites):
    """The key a question keeps the composition of ``rewrites`` under: their
    parts, in submission order."""
    return tuple(r.parts for r in rewrites)


def _outcome(result):
    return (
        [(c.tokens, c.score, c.support) for c in result.answers],
        result.answers.mined,
        dict(result.answers.mined_by_weight),
        list(result.rewrites_used),
        result.queries_issued,
    )


def _composes_each_providers_evidence(policy, models=None, prefs=None):
    # Both runs submit the same rewrites, so only the evidence tells the
    # second run that the first one's composition does not apply.
    booth = _FixedProvider("John Wilkes Booth shot the President", "Booth fled")
    oswald = _FixedProvider("Lee Harvey Oswald shot the President", "Oswald fled")
    question = Question.from_text(QUESTION)
    outcomes = []
    for provider in (booth, oswald, booth):
        result = run_policy(policy, question, provider, models, prefs)
        fresh = run_policy(policy, Question.from_text(QUESTION), provider, models, prefs)
        outcomes.append(_outcome(result))
        assert outcomes[-1] == _outcome(fresh)
    assert outcomes[0] != outcomes[1]


def test_a_question_composes_each_providers_evidence():
    _composes_each_providers_evidence(AllRewrites())


def test_a_cost_benefit_question_composes_each_providers_evidence():
    # The probe and the chosen budget of five each have their own entry.
    probs = {n: 0.0 for n in DEFAULT_THRESHOLDS}
    probs[5] = 0.99
    models = _stub_models(conj_p=0.9, phrasal_p=0.4, probs=probs)
    _composes_each_providers_evidence(CostBenefit(), models, Preferences(k=10, c=1))
    question = Question.from_text(QUESTION)
    run_policy(CostBenefit(), question, _FixedProvider("Booth fled"), models, Preferences(k=10, c=1))
    order = CostBenefit().select(question, models, 0)
    probe, chosen = _key(order[:PROBE_SIZE]), _key(order[:5])
    assert set(question.compositions) == {probe, chosen}


_TWO_PROVIDERS = (
    _FixedProvider("John Wilkes Booth shot the President", "Booth fled"),
    _FixedProvider("Lee Harvey Oswald shot the President", "Oswald fled"),
)


def _hammer(question, settings, play, providers=_TWO_PROVIDERS):
    """Four threads run ``play(question, setting, provider)`` over every
    setting against both providers, so they keep replacing what each other
    left on the question. Returns the (setting, provider) pairs whose
    result differed from a fresh question's."""
    expected = {
        (s, p): play(Question.from_text(QUESTION), settings[s], providers[p])
        for s in range(len(settings))
        for p in (0, 1)
    }
    threads, rounds = 4, 300
    start = threading.Barrier(threads)
    mismatches = []

    def hammer(worker):
        start.wait()
        for i in range(rounds):
            s, p = (i + worker) % len(settings), (i // 2 + worker) % 2
            if play(question, settings[s], providers[p]) != expected[s, p]:
                mismatches.append((s, p))

    workers = [threading.Thread(target=hammer, args=(w,)) for w in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    return mismatches


def test_threads_sharing_a_question_get_their_own_evidences_answers():
    # Every budget against two providers keeps replacing compositions.
    question = Question.from_text(QUESTION)
    budgets = range(1, 6)

    def play(question, n, provider):
        return _outcome(run_policy(RandomN(n, seed=2), question, provider))

    assert _hammer(question, budgets, play) == []
    order = RandomN(max(budgets), seed=2).select(question, None, 0)
    assert set(question.compositions) == {_key(order[:n]) for n in budgets}


def test_threads_sharing_a_question_get_their_own_probes_decisions():
    # Three answer values against two providers share the question's order
    # and compositions. The probe finds 4 snippets with the first provider
    # and 2 with the second, which the trees split on.
    providers = (_FixedProvider("Booth shot the President", "Booth fled"), _FixedProvider("Oswald"))
    split = Split("totsnips", "numeric", 3.0, _leaf_tree(0.1).root, _leaf_tree(0.9).root)
    models = _stub_models(conj_p=0.9, phrasal_p=0.4, budgets={n: DecisionTree(split) for n in DEFAULT_THRESHOLDS})
    question = Question.from_text(QUESTION)

    def play(question, k, provider):
        return run_policy(CostBenefit(), question, provider, models, Preferences(k=k, c=1))

    assert _hammer(question, (5, 10, 20), play, providers) == []


@pytest.mark.parametrize(
    "policy",
    [LikelihoodN(5), LikelihoodN(20), RandomN(5, seed=1), RandomN(20, seed=1), CostBenefit()],
    ids=lambda p: p.name,
)
def test_changing_a_result_leaves_the_remembered_run_alone(policy, lincoln_provider):
    # At N >= the question's five rewrites each run has the previous run's
    # order and evidence, so it is built from what that run left.
    probs = {n: 0.0 for n in DEFAULT_THRESHOLDS}
    probs[5] = 0.99
    models = _stub_models(conj_p=0.9, phrasal_p=0.4, probs=probs)
    prefs = Preferences(k=10, c=1)
    question = Question.from_text(QUESTION)
    result = run_policy(policy, question, lincoln_provider, models, prefs, question_index=3)
    expected = _outcome(result)
    assert expected[0] and len(expected[3]) == 5
    for _ in range(2):
        with pytest.raises(AttributeError):
            result.answers.clear()
        with pytest.raises(AttributeError):
            result.answers.mined_by_weight.clear()
        with pytest.raises(TypeError):
            result.answers.mined_by_weight[5.0] = 0
        with pytest.raises(AttributeError):
            result.rewrites_used.reverse()
        with pytest.raises(AttributeError):
            policy.select(question, models, 3).clear()
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.answers = ()
        result = run_policy(policy, question, lincoln_provider, models, prefs, question_index=3)
        assert _outcome(result) == expected


@pytest.mark.parametrize(
    "policy",
    [LikelihoodN(2), LikelihoodN(5), RandomN(3, seed=1), AllRewrites(), CostBenefit()],
    ids=lambda p: p.name,
)
def test_a_repeated_run_returns_the_remembered_composition(policy, lincoln_provider):
    probs = {n: 0.0 for n in DEFAULT_THRESHOLDS}
    probs[4] = 0.99
    models = _stub_models(conj_p=0.9, phrasal_p=0.4, probs=probs)
    prefs = Preferences(k=10, c=1)
    question = Question.from_text(QUESTION)
    first = run_policy(policy, question, lincoln_provider, models, prefs)
    again = run_policy(policy, question, lincoln_provider, models, prefs)
    # A question's compositions are keyed by the rewrites that returned snippets.
    found = [r for r in first.rewrites_used if lincoln_provider.execute(r, DEFAULT_LIMIT)]
    kept = question.compositions[_key(found)]
    assert first.answers and again.answers is first.answers is kept[1]


class _EmptyFor(_FixedProvider):
    """Serves nothing for the given rewrites and the fixed texts for the rest."""

    def __init__(self, empty, *texts):
        super().__init__(*texts)
        self.empty = frozenset(empty)

    def execute(self, rewrite, limit):
        return () if rewrite in self.empty else super().execute(rewrite, limit)


def _counting_compositions(monkeypatch) -> list:
    """Patches ``control.compose_answers`` to record each call's evidence."""
    from budgetqa import control

    calls = []
    compose = control.compose_answers

    def counted(evidence, *args, **kwargs):
        calls.append(evidence)
        return compose(evidence, *args, **kwargs)

    monkeypatch.setattr(control, "compose_answers", counted)
    return calls


@pytest.mark.parametrize("k", [2, 3, 5])
def test_a_prefix_whose_new_rewrite_found_nothing_reuses_the_last_composition(k, monkeypatch):
    models = _stub_models(conj_p=0.9, phrasal_p=0.4)
    question = Question.from_text(QUESTION)
    order = LikelihoodN(len(question.rewrites)).select(question, models, 0)
    provider = _EmptyFor([order[k - 1]], "John Wilkes Booth shot the President", "Booth fled")
    calls = _counting_compositions(monkeypatch)
    results = {
        n: run_policy(LikelihoodN(n), question, provider, models)
        for n in range(1, len(order) + 1)
    }
    # One composition per distinct non-empty prefix: N = k adds nothing to N = k - 1.
    assert len(calls) == len(order) - 1
    assert results[k].answers is results[k - 1].answers
    assert results[k].queries_issued == k
    for n, result in results.items():
        fresh = run_policy(LikelihoodN(n), Question.from_text(QUESTION), provider, models)
        assert _outcome(result) == _outcome(fresh)


def test_a_cost_benefit_extension_that_found_nothing_answers_with_the_probe(monkeypatch):
    probs = {n: 0.0 for n in DEFAULT_THRESHOLDS}
    probs[5] = 0.99
    models = _stub_models(conj_p=0.9, phrasal_p=0.4, probs=probs)
    question = Question.from_text(QUESTION)
    order = CostBenefit().select(question, models, 0)
    provider = _EmptyFor(order[PROBE_SIZE:], "John Wilkes Booth shot the President", "Booth fled")
    calls = _counting_compositions(monkeypatch)
    result = run_policy(CostBenefit(), question, provider, models, Preferences(k=10, c=1))
    assert result.decision.n == 5 and result.queries_issued == 5
    assert len(calls) == 1
    assert result.answers is Run(question, order, provider).compose(PROBE_SIZE)
    assert result.answers is question.compositions[_key(order[:PROBE_SIZE])][1]


def test_two_orders_of_the_same_evidence_are_each_composed_once(lincoln_provider, monkeypatch):
    # Rewrites 1 and 2 find nothing, so the first order's N = 2 and 3 add
    # nothing to N = 1, and the second order's N = 3 and 4 nothing to N = 2.
    # Both orders end with the same three rewrites' evidence in opposite
    # order, which mining ranks differently (equal scores keep their
    # first-seen order).
    question = Question.from_text(QUESTION)
    forward = question.rewrites
    backward = forward[::-1]
    assert [bool(lincoln_provider.execute(r, DEFAULT_LIMIT)) for r in forward] == [
        True, False, False, True, True
    ]
    calls = _counting_compositions(monkeypatch)
    walks = {}
    for _ in range(2):
        for order in (forward, backward):
            walks[order] = [
                Run(question, order, lincoln_provider).compose(n)
                for n in range(1, len(order) + 1)
            ]
        assert len(calls) == 6  # each distinct ordered evidence, once
    assert walks[forward][0] is walks[forward][1] is walks[forward][2]
    assert walks[backward][1] is walks[backward][2] is walks[backward][3]
    assert walks[forward][4] is not walks[backward][4]
    assert list(walks[forward][4]) != list(walks[backward][4])
    for order, step in ((forward, 1), (backward, -1)):
        fresh = Question.from_text(QUESTION)
        again = Run(fresh, fresh.rewrites[::step], lincoln_provider).compose(5)
        assert list(walks[order][4]) == list(again)
    ordered_evidence = [(0,), (0, 3), (0, 3, 4), (4,), (4, 3), (4, 3, 0)]
    assert set(question.compositions) == {_key([forward[i] for i in found]) for found in ordered_evidence}


def test_hand_built_rewrites_each_find_their_own_composition(monkeypatch):
    # Two rewrites built by hand, each returning snippets, key apart: running
    # A after B finds A's composition, not B's in its place.
    provider = _ScriptedProvider([["John Wilkes Booth shot the President"], ["Lee Harvey Oswald fled"]])
    a = Rewrite(RewriteKind.PHRASAL, ("p0",), 5.0)
    b = Rewrite(RewriteKind.PHRASAL, ("p1",), 5.0)
    question = Question.from_text(QUESTION)
    calls = _counting_compositions(monkeypatch)
    first, second, third = (Run(question, (r,), provider).compose(1) for r in (a, b, a))
    assert len(calls) == 2
    assert third is first and second is not first
    assert set(question.compositions) == {_key([a]), _key([b])}


class _FreshSnippets:
    """Serves the wrapped provider's snippets as new, equal ``Snippet``
    objects on every call, as a remote backend does."""

    def __init__(self, inner):
        self.inner = inner

    def execute(self, rewrite, limit):
        return [Snippet(s.text, s.source_doc) for s in self.inner.execute(rewrite, limit)]


def test_equal_snippets_from_a_new_call_find_the_remembered_composition(lincoln_provider, monkeypatch):
    # The question's rewrites 0, 3 and 4 return snippets, so its five
    # prefixes hold three distinct ordered evidences.
    provider = _FreshSnippets(lincoln_provider)
    question = Question.from_text(QUESTION)
    once, twice = (provider.execute(question.rewrites[0], DEFAULT_LIMIT) for _ in range(2))
    assert once == twice and once[0] is not twice[0]
    calls = _counting_compositions(monkeypatch)
    walks = [
        [Run(question, question.rewrites, provider).compose(n) for n in range(1, len(question.rewrites) + 1)]
        for _ in range(2)
    ]
    assert len(calls) == 3
    assert all(repeated is first for first, repeated in zip(*walks))
    assert len(question.compositions) == 3


def test_runs_over_fresh_rewrite_objects_keep_the_memo_bounded(lincoln_provider, monkeypatch):
    # Every run gets its own equal copies of the question's rewrites, all
    # kept alive. A copy has its original's parts, so the copies key like
    # the question's own rewrites and add no entries.
    question = Question.from_text(QUESTION)
    calls = _counting_compositions(monkeypatch)
    copies = [tuple(generate_rewrites(question)) for _ in range(20)]
    for rewrites in copies:
        run = Run(question, rewrites, lincoln_provider)
        for n in range(1, len(rewrites) + 1):
            run.compose(n)
    assert len(question.compositions) == 3  # 1 to 3 rewrites that returned snippets
    assert len(calls) == 3


def test_alternating_orders_of_one_question_order_it_once(monkeypatch):
    # A random order between two quality-ordered runs does not make the
    # second one order the question again.
    models = _stub_models(conj_p=0.9, phrasal_p=0.4)
    policies = (LikelihoodN(3), RandomN(3, seed=0), LikelihoodN(3))
    expected = [p.select(Question.from_text(QUESTION), models, 0) for p in policies]
    question = Question.from_text(QUESTION)
    ordered = []
    order = ModelSet.order

    def counted(self, rewrites):
        ordered.append(self)
        return order(self, rewrites)

    monkeypatch.setattr(ModelSet, "order", counted)
    assert [p.select(question, models, 0) for p in policies] == expected
    assert ordered == [models]


def test_another_model_set_reorders_the_question():
    question = Question.from_text(QUESTION)
    conjunctive_first = _stub_models(conj_p=0.9, phrasal_p=0.1)
    phrasal_first = _stub_models(conj_p=0.1, phrasal_p=0.9)
    for models in (conjunctive_first, phrasal_first, conjunctive_first):
        for policy in (LikelihoodN(3), CostBenefit()):
            assert policy.select(question, models, 0) == policy.select(
                Question.from_text(QUESTION), models, 0
            )
    assert LikelihoodN(1).select(question, conjunctive_first, 0)[0].kind is RewriteKind.CONJUNCTIVE
    assert LikelihoodN(1).select(question, phrasal_first, 0)[0].kind is RewriteKind.PHRASAL


def test_another_seed_or_question_index_reshuffles_the_question():
    question = Question.from_text(QUESTION)
    keys = [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]
    selections = []
    for seed, index in keys:
        selection = RandomN(5, seed=seed).select(question, None, index)
        assert selection == RandomN(5, seed=seed).select(Question.from_text(QUESTION), None, index)
        selections.append(selection)
    # Each change of seed or index alone gives another order here.
    assert all(a != b for a, b in zip(selections, selections[1:]))


# Abstains at k = 5, submits 4 at k = 10 and 6 at k = 20 (c = 1).
_PROBE_PROBS = {1: 0.15, 2: 0.3, 3: 0.5, 4: 0.75, 5: 0.8}


def _probe_models(conj_p=0.9, phrasal_p=0.4, probs=_PROBE_PROBS):
    return _stub_models(conj_p, phrasal_p, {n: probs.get(n, 0.95) for n in DEFAULT_THRESHOLDS})


def _fresh_cost_benefit(provider, models, prefs):
    return run_policy(CostBenefit(), Question.from_text(QUESTION), provider, models, prefs)


def test_cost_benefit_at_several_k_decides_like_fresh_runs(lincoln_provider):
    models = _probe_models()
    question = Question.from_text(QUESTION)
    results = {
        k: run_policy(CostBenefit(), question, lincoln_provider, models, Preferences(k=k, c=1))
        for k in (5, 10, 20)
    }
    assert [r.decision.n for r in results.values()] == [None, 4, 6]
    for k, result in results.items():
        assert result == _fresh_cost_benefit(lincoln_provider, models, Preferences(k=k, c=1))


def test_a_probe_with_other_snippets_predicts_again(lincoln_provider):
    models = _probe_models()
    prefs = Preferences(k=10, c=1)
    question = Question.from_text(QUESTION)
    run_policy(CostBenefit(), question, lincoln_provider, models, prefs)
    other = _FixedProvider("John Wilkes Booth shot the President", "Booth fled")
    result = run_policy(CostBenefit(), question, other, models, prefs)
    assert result == _fresh_cost_benefit(other, models, prefs)


def test_a_replaced_ensemble_predicts_again(lincoln_provider):
    models = _probe_models()
    prefs = Preferences(k=10, c=1)
    question = Question.from_text(QUESTION)
    assert not run_policy(CostBenefit(), question, lincoln_provider, models, prefs).abstained
    models = _probe_models(probs={})  # every threshold at 0.95
    result = run_policy(CostBenefit(), question, lincoln_provider, models, prefs)
    assert result == _fresh_cost_benefit(lincoln_provider, models, prefs)
    assert result.decision.n == 1


def test_a_probe_in_another_model_sets_order_predicts_again():
    # Every rewrite finds the same snippets, so only the probe's rewrites differ.
    provider = _FixedProvider("John Wilkes Booth shot the President", "Booth fled")
    conjunctive_first = _probe_models(conj_p=0.9, phrasal_p=0.1)
    phrasal_first = _probe_models(conj_p=0.1, phrasal_p=0.9)
    prefs = Preferences(k=10, c=1)
    question = Question.from_text(QUESTION)
    run_policy(CostBenefit(), question, provider, conjunctive_first, prefs)
    result = run_policy(CostBenefit(), question, provider, phrasal_first, prefs)
    # The other model set's order, played under the first model set.
    order = CostBenefit().select(question, phrasal_first, 0)
    assert order[:PROBE_SIZE] != CostBenefit().select(question, conjunctive_first, 0)[:PROBE_SIZE]
    played = CostBenefit().play(Run(question, order, provider), conjunctive_first, prefs)
    assert result == _fresh_cost_benefit(provider, phrasal_first, prefs)
    fresh = Question.from_text(QUESTION)
    assert played == CostBenefit().play(Run(fresh, order, provider), conjunctive_first, prefs)


class _RecordingTree:
    """Predicts 0.5 and records the features it is asked on."""

    def __init__(self):
        self.seen = []

    def predict(self, features):
        self.seen.append(features)
        return 0.5


@pytest.mark.parametrize("text", ["Lincoln?", QUESTION], ids=["one-rewrite", "many-rewrites"])
def test_the_probe_predicts_on_the_run_features_training_reads(lincoln_provider, text):
    # Training's threshold cases carry run.features(PROBE_SIZE); serving
    # must predict on exactly those.
    recording = _RecordingTree()
    models = _stub_models(conj_p=0.9, phrasal_p=0.4, budgets=dict.fromkeys(DEFAULT_THRESHOLDS, recording))
    question = Question.from_text(text)
    order = CostBenefit().select(question, models, 0)
    assert (len(order) == 1) is (text == "Lincoln?")
    run = Run(question, order, lincoln_provider)
    decision = CostBenefit().play(run, models, Preferences(k=10, c=1)).decision
    assert decision.probabilities == {n: 0.5 for n in DEFAULT_THRESHOLDS}
    fresh = Run(Question.from_text(text), order, lincoln_provider)
    assert recording.seen == [run.features(PROBE_SIZE)] == [fresh.features(PROBE_SIZE)]
    assert len(run.snippets) == min(PROBE_SIZE, len(order))

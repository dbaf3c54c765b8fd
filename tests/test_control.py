import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetqa.control import (
    AllRewrites,
    ConjunctiveOnly,
    CostBenefit,
    LikelihoodN,
    Preferences,
    RandomN,
    Run,
    choose_n,
    net_expected_value,
    run_policy,
)
from budgetqa.models import DEFAULT_THRESHOLDS, ModelSet, ThresholdEnsemble, weight_class
from budgetqa.rewrite import AnswerSlot, Question, Rewrite, RewriteKind
from budgetqa.search import MeteredProvider, Snippet
from budgetqa.text import default_stopwords
from budgetqa.tree import DecisionTree, Leaf

from oracles import best_budget, remined_counts


def _leaf_tree(p):
    return DecisionTree(root=Leaf(probability=p, support=10, positives=5))


def _stub_ensemble(probs: dict[int, float]) -> ThresholdEnsemble:
    return ThresholdEnsemble(trees={n: _leaf_tree(p) for n, p in probs.items()})


def _stub_models(conj_p=0.5, phrasal_p=0.5, probs=None):
    return ModelSet(
        conjunctive=_leaf_tree(conj_p),
        phrasal=_leaf_tree(phrasal_p),
        ensemble=_stub_ensemble(probs) if probs else None,
    )


# --------------------------------------------------------------------------
# net_expected_value / choose_n


def test_net_expected_value_arithmetic():
    assert net_expected_value(0.8, 5, Preferences(k=10, c=1)) == pytest.approx(3.0)
    assert net_expected_value(0.0, 4, Preferences(k=10, c=1)) == pytest.approx(-4.0)


def test_net_expected_value_scales_linearly_in_c():
    base = net_expected_value(0.7, 3, Preferences(k=10, c=1.0))
    assert net_expected_value(0.7, 3, Preferences(k=10, c=2.5)) == pytest.approx(2.5 * base)


def test_preferences_must_be_positive():
    with pytest.raises(ValueError):
        Preferences(k=0, c=1)
    with pytest.raises(ValueError):
        Preferences(k=10, c=-1)


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


@given(probs=st.lists(st.floats(min_value=0.001, max_value=0.999), min_size=13, max_size=13))
@settings(deadline=None, max_examples=60)
def test_chosen_n_is_monotone_in_k(probs):
    table = dict(zip(DEFAULT_THRESHOLDS, probs))
    ensemble = _stub_ensemble(table)
    previous = 0
    for k in (1, 2, 5, 10, 20, 50, 100):
        decision = choose_n(ensemble, {}, Preferences(k=k, c=1.0))
        n = decision.n if decision.n is not None else 0
        assert n >= previous
        previous = n


def test_decision_internal_consistency():
    probs = {n: random.Random(3).random() for n in DEFAULT_THRESHOLDS}
    decision = choose_n(_stub_ensemble(probs), {}, Preferences(k=8, c=1))
    if not decision.abstained:
        assert decision.expected_net == max(decision.per_threshold_net.values())
        assert decision.per_threshold_net[decision.n] == decision.expected_net


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
    assert len(result.rewrites_used) == 1
    assert result.queries_issued == 2 == meter.calls


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
        Rewrite(kind, (f"p{i}",), AnswerSlot.NONE, weight)
        for i, (weight, kind, _) in enumerate(evidence)
    ]
    texts = [found for _, _, found in evidence]
    run = Run(question, rewrites, _ScriptedProvider(texts), limit=100)
    feats = run.features(prefix).as_features()

    used = rewrites[:prefix]
    snippets = [[Snippet(t, "d") for t in found] for found in texts[:prefix]]
    numngrams, per_weight = remined_counts(
        used, snippets, question.token_keys(), default_stopwords()
    )
    expected_rulescore = {f"rulescore_{weight_class(r.weight)}": 0.0 for r in rewrites}
    for weight, count in per_weight.items():
        expected_rulescore[f"rulescore_{weight_class(weight)}"] = float(count)
    assert feats["numngrams"] == numngrams
    assert {k: v for k, v in feats.items() if k.startswith("rulescore_")} == expected_rulescore
    assert feats["totalqueries"] == len(used)
    assert feats["totsnips"] == sum(len(found) for found in snippets)
    assert feats["totnonbagsnips"] == sum(
        len(found) for r, found in zip(used, snippets) if r.kind is RewriteKind.PHRASAL
    )
    assert run.issued == len(used)

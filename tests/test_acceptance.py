"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 5-7 share a session fixture that generates a synthetic benchmark
(one corpus; disjoint train and evaluation question splits) and trains the
full model set on the training split.
"""

import random
import time

import pytest

from budgetqa.bench import generate_benchmark
from budgetqa.compose import NGramCandidate, mine_ngrams, tile_ngrams
from budgetqa.control import (
    AllRewrites,
    CostBenefit,
    LikelihoodN,
    Preferences,
    RandomN,
    choose_n,
)
from budgetqa.evaluation import evaluate, sweep_k
from budgetqa.harness import train_models
from budgetqa.models import DEFAULT_THRESHOLDS, ThresholdEnsemble
from budgetqa.rewrite import (
    AdjacencyGrammarScorer,
    Question,
    RewriteKind,
    generate_rewrites,
)
from budgetqa.search import MeteredProvider, OfflineProvider, Snippet, build_index
from budgetqa.text import default_stopwords, token_key
from budgetqa.tree import DecisionTree, Leaf, TrainingCase, train_tree

from oracles import (
    all_fixpoints,
    best_budget,
    candidate_key,
    count_ngrams,
    route_cases,
    stepwise_best_fixpoint,
)

TRAIN_QUESTIONS = 220
EVAL_QUESTIONS = 200


def _report(n: int, name: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {n} ({name}): PASS{suffix}")


@pytest.fixture(scope="session")
def trained_benchmark():
    """One corpus, disjoint train/eval question splits, trained models."""
    bench = generate_benchmark(
        TRAIN_QUESTIONS + EVAL_QUESTIONS,
        redundancy=3,
        distractors=40,
        tease_rate=0.3,
        sparse_rate=0.10,
        empty_rate=0.05,
        deep_rate=0.25,
        seed=2024,
    )
    provider = OfflineProvider(build_index(bench.corpus))
    scorer = AdjacencyGrammarScorer()
    models = train_models(bench.items[:TRAIN_QUESTIONS], provider, scorer=scorer)
    eval_items = bench.items[TRAIN_QUESTIONS:]
    return provider, models, eval_items


# --------------------------------------------------------------------------
# 1. Rewrite fidelity


def test_criterion_1_rewrite_fidelity():
    start = time.monotonic()
    rewrites = generate_rewrites(Question.from_text("Who killed Abraham Lincoln?"))
    phrasal = {r.parts[0] for r in rewrites if r.kind is RewriteKind.PHRASAL}
    assert "killed Abraham Lincoln" in phrasal
    assert "Abraham Lincoln was killed by" in phrasal
    conjunctive = [r for r in rewrites if r.kind is RewriteKind.CONJUNCTIVE]
    assert len(conjunctive) == 1
    assert conjunctive[0].parts == ("who", "killed", "Abraham", "Lincoln")
    phrasal_weights = [r.weight for r in rewrites if r.kind is RewriteKind.PHRASAL]
    assert min(phrasal_weights) > conjunctive[0].weight
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, "rewrite fidelity", f"{elapsed:.3f}s")


# --------------------------------------------------------------------------
# 2. Composition oracle


def _random_evidence(rng: random.Random, weights):
    """One single-snippet (weight, snippets) group per random snippet."""
    vocab = ["Booth", "bullet", "actor", "Wilkes", "the", "of", "President", "Ford's", "John"]
    evidence = []
    for _ in range(rng.randint(1, 12)):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 9))]
        evidence.append((weights[rng.randint(0, 2)], [Snippet(" ".join(words), "d")]))
    return evidence


def test_criterion_2_composition_oracles():
    start = time.monotonic()
    stop = default_stopwords()
    weights = {0: 5.0, 1: 2.0, 2: 1.0}
    rng = random.Random(17)
    for _ in range(120):
        evidence = _random_evidence(rng, weights)
        exclude = ["bullet"] if rng.random() < 0.3 else []
        excluded = frozenset(map(token_key, exclude))
        mined = {candidate_key(c): (c.score, c.support) for c in mine_ngrams(evidence, exclude=excluded)}
        assert mined == count_ngrams(evidence, exclude=exclude, stop=stop)

    keys = ["a", "b", "c", "d"]
    for _ in range(150):
        count = rng.randint(1, 6)
        cands: dict[tuple, float] = {}
        while len(cands) < count:
            key = tuple(rng.choice(keys) for _ in range(rng.randint(1, 3)))
            cands.setdefault(key, float(rng.randint(1, 20)))
        items = list(cands.items())
        produced = tile_ngrams([NGramCandidate(k, s, 1) for k, s in items], list(cands))
        got = sorted((candidate_key(c), c.score) for c in produced)
        assert got == sorted(stepwise_best_fixpoint(items))
        assert tuple(sorted(got)) in all_fixpoints(items)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(2, "composition oracle", f"{elapsed:.1f}s, 120 mining + 150 tiling sets")


# --------------------------------------------------------------------------
# 3. End-to-end Lincoln trace


def test_criterion_3_lincoln_trace(lincoln_provider):
    start = time.monotonic()
    from budgetqa.control import run_policy

    result = run_policy(AllRewrites(), "Who killed Abraham Lincoln?", lincoln_provider)
    assert result.answers[0].text == "John Wilkes Booth"
    position = {c.text.lower(): i for i, c in enumerate(result.answers)}
    for competitor in ("bullet", "actor", "president"):
        assert competitor in position, f"{competitor} missing from candidates"
        assert position[competitor] > 0
        assert result.answers[position[competitor]].score < result.answers[0].score
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(3, "Lincoln trace", f"top={result.answers[0].text!r}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 4. Controller oracle


def _stub_ensemble(probs):
    return ThresholdEnsemble(
        trees={n: DecisionTree(root=Leaf(p, 10, 5)) for n, p in probs.items()}
    )


def test_criterion_4_controller_oracle():
    start = time.monotonic()
    rng = random.Random(99)
    abstentions = 0
    for _ in range(1000):
        probs = {n: rng.random() * rng.choice([0.05, 0.3, 1.0]) for n in DEFAULT_THRESHOLDS}
        k = rng.uniform(0.5, 40.0)
        c = rng.uniform(0.1, 4.0)
        ensemble = _stub_ensemble(probs)
        decision = choose_n(ensemble, {}, Preferences(k=k, c=c))
        expected_n, expected_nets = best_budget(probs, k, c)
        assert decision.n == expected_n
        for n in DEFAULT_THRESHOLDS:
            assert decision.per_threshold_net[n] == pytest.approx(expected_nets[n])
        if decision.abstained:
            abstentions += 1
            assert all(v < 0 for v in decision.per_threshold_net.values())
        actions = {
            choose_n(ensemble, {}, Preferences(k=k, c=c * alpha)).n
            for alpha in (0.1, 1.0, 10.0)
        }
        assert len(actions) == 1
    assert abstentions > 0
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(4, "controller oracle", f"{abstentions} abstentions in 1000, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 5. Ordering dominance


def test_criterion_5_ordering_dominance(trained_benchmark):
    start = time.monotonic()
    provider, models, eval_items = trained_benchmark
    assert len(eval_items) >= 200
    seeds = range(5)
    strict_low_n = False
    summary = []
    for n in (1, 2, 3, 5, 8):
        likelihood = evaluate(LikelihoodN(n), eval_items, provider, models).correct
        random_mean = sum(
            evaluate(RandomN(n, seed=s), eval_items, provider, models).correct
            for s in seeds
        ) / len(list(seeds))
        summary.append(f"N={n}: {likelihood} vs {random_mean:.1f}")
        assert likelihood >= random_mean, f"dominance fails at N={n}"
        if n <= 3 and likelihood > random_mean:
            strict_low_n = True
    assert strict_low_n, "no strict improvement at any N <= 3"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(5, "ordering dominance", "; ".join(summary) + f", {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 6. Cost-benefit efficiency


def test_criterion_6_cost_benefit_efficiency(trained_benchmark):
    start = time.monotonic()
    provider, models, eval_items = trained_benchmark
    meter_all = MeteredProvider(provider)
    full = evaluate(AllRewrites(), eval_items, meter_all, models)
    meter_cb = MeteredProvider(provider)
    cb = evaluate(
        CostBenefit(), eval_items, meter_cb, models, Preferences(k=10.0, c=1.0)
    )
    # criterion 9 companion checks: the meter agrees with the reports
    assert full.total_cost == meter_all.calls
    assert cb.total_cost == meter_cb.calls

    assert cb.correct >= 0.9 * full.correct, f"{cb.correct} < 0.9 * {full.correct}"
    assert cb.total_cost <= 0.6 * full.total_cost, f"{cb.total_cost} > 0.6 * {full.total_cost}"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(
        6,
        "cost-benefit efficiency",
        f"accuracy {cb.correct}/{full.correct}, cost {cb.total_cost}/{full.total_cost}, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 7. k-sweep shape


def test_criterion_7_k_sweep_monotonicity(trained_benchmark):
    start = time.monotonic()
    provider, models, eval_items = trained_benchmark
    results = sweep_k(eval_items, provider, models, [5.0, 10.0, 15.0, 20.0], 1.0)
    costs = [report.total_cost for _, report in results]
    corrects = [report.correct for _, report in results]
    assert all(a <= b for a, b in zip(costs, costs[1:])), f"cost not monotone: {costs}"
    assert all(a <= b for a, b in zip(corrects, corrects[1:])), f"correct not monotone: {corrects}"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(7, "k-sweep shape", f"costs {costs}, correct {corrects}, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 8. Model correctness


def test_criterion_8_model_correctness(trained_benchmark):
    start = time.monotonic()
    rng = random.Random(5)

    def collect(node, leaves):
        if isinstance(node, Leaf):
            leaves[id(node)] = node
        else:
            collect(node.left, leaves)
            collect(node.right, leaves)
        return leaves

    for trial in range(5):
        cases = []
        for _ in range(200):
            feats = {
                "x": float(rng.randint(0, 4)),
                "y": rng.random(),
                "cat": rng.choice(["a", "b", "c"]),
            }
            cases.append(TrainingCase(feats, rng.random() < 0.3 + 0.1 * feats["x"]))
        tree = train_tree(cases)
        leaves = collect(tree.root, {})
        for leaf in leaves.values():
            assert 0.0 < leaf.probability < 1.0
        routed = route_cases(tree, cases)
        assert set(routed) == set(leaves)
        for leaf_id, subset in routed.items():
            leaf = leaves[leaf_id]
            positives = sum(1 for case in subset if case.label)
            assert leaf.probability == pytest.approx((positives + 1) / (len(subset) + 2))

    _, models, _ = trained_benchmark
    assert models.ensemble.thresholds == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20)
    for tree in models.ensemble.trees.values():
        for leaf in collect(tree.root, {}).values():
            assert 0.0 < leaf.probability < 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(8, "model correctness", f"5x200-case routing oracle, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 9. Accounting


def test_criterion_9_accounting(trained_benchmark):
    start = time.monotonic()
    provider, models, eval_items = trained_benchmark
    subset = eval_items[:60]
    policies = [
        AllRewrites(),
        LikelihoodN(3),
        RandomN(2, seed=1),
        CostBenefit(),
    ]
    for policy in policies:
        meter = MeteredProvider(provider)
        report = evaluate(
            policy, subset, meter, models, Preferences(k=10.0, c=1.0)
        )
        assert report.total_cost == meter.calls, f"meter mismatch for {report.policy}"
        assert (
            report.correct + report.incorrect + report.abstained == report.total_questions
        ), f"accounting identity fails for {report.policy}"
        assert report.total_cost == sum(r.queries_issued for r in report.per_question)
    elapsed = time.monotonic() - start
    _report(9, "accounting", f"4 policies metered, {elapsed:.0f}s")

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from budgetqa.errors import IncompleteEnsemble
from budgetqa.models import (
    DEFAULT_THRESHOLDS,
    ModelSet,
    ThresholdEnsemble,
    extract_run_features,
    train_threshold_ensemble,
)
from budgetqa.rewrite import (
    AdjacencyGrammarScorer,
    Question,
    Rewrite,
    RewriteKind,
    generate_rewrites,
)
from budgetqa.compose import Candidates, NGramCandidate, compose_answers
from budgetqa.search import Snippet
from budgetqa.tree import Leaf, DecisionTree, TrainingCase, train_tree, tree_from_dict, tree_to_dict

from oracles import best_subset_score
from stubs import StubGrammarScorer


def _leaf_tree(p, support=10):
    pos = round(p * (support + 2)) - 1
    return DecisionTree(root=Leaf(probability=p, support=support, positives=max(pos, 0)))


def _phrasal(phrase):
    return Rewrite(RewriteKind.PHRASAL, (phrase,), 5.0)


def _conj(*parts):
    return Rewrite(RewriteKind.CONJUNCTIVE, tuple(parts), 1.0)


# --------------------------------------------------------------------------
# quality_score / order


def test_score_dispatches_by_kind():
    models = ModelSet(_leaf_tree(0.25), _leaf_tree(0.75))
    assert models.quality_score(_conj("who", "did")) == 0.25
    assert models.quality_score(_phrasal("did the thing")) == 0.75


def test_scores_stay_inside_unit_interval_on_generated_rewrites():
    models = ModelSet(_leaf_tree(0.4), _leaf_tree(0.6), scorer=StubGrammarScorer())
    for text in ["Who painted the old mill?", "Where was the amber tower restored?"]:
        for r in generate_rewrites(Question.from_text(text)):
            score = models.quality_score(r)
            assert 0.0 < score < 1.0


def _scored(rewrites, scores):
    """A model set whose quality score for each of ``rewrites`` is given."""
    models = ModelSet(_leaf_tree(0.5), _leaf_tree(0.5))
    models.quality_score = dict(zip(rewrites, scores)).__getitem__
    return models


def test_order_sorts_descending_with_stable_ties():
    rewrites = [_phrasal("a"), _phrasal("b"), _phrasal("c")]
    ordered = _scored(rewrites, [0.2, 0.9, 0.5]).order(rewrites)
    assert [r.parts[0] for r in ordered] == ["b", "c", "a"]
    same = _scored(rewrites, [0.5, 0.5, 0.5]).order(rewrites)
    assert [r.parts[0] for r in same] == ["a", "b", "c"]


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
def test_order_is_permutation_and_topn_maximizes_score(scores):
    rewrites = [_phrasal(f"p{i}") for i in range(len(scores))]
    ordered = _scored(rewrites, scores).order(rewrites)
    assert sorted(r.parts[0] for r in ordered) == sorted(r.parts[0] for r in rewrites)
    by_name = dict(zip([f"p{i}" for i in range(len(scores))], scores))
    for n in range(1, len(scores) + 1):
        top = sum(by_name[r.parts[0]] for r in ordered[:n])
        assert top == pytest.approx(best_subset_score(scores, n))


# --------------------------------------------------------------------------
# extract_run_features


def _answers(*scores):
    """Ranked answers as composition returns them, from a mining that found nothing."""
    return Candidates([NGramCandidate((f"a{i}",), s, 1) for i, s in enumerate(scores)], 0, {})


def test_average_snippets_per_rewrite():
    q = Question.from_text("Who painted the old mill?")
    rewrites = [_phrasal("painted the old mill"), _phrasal("the old mill painted"), _conj("who")]
    evidence = [(r, [Snippet("Maren Velt painted things", "d")] * 10) for r in rewrites]
    feats = extract_run_features(q, evidence, _answers(10.0, 4.0))
    assert feats["average_snippets_per_rewrite"] == 10.0
    assert feats["totalqueries"] == 3
    assert feats["totsnips"] == 30


def test_diff_scores_and_std():
    q = Question.from_text("Who painted the old mill?")
    evidence = [(_conj("who", "painted"), [])]
    feats = extract_run_features(q, evidence, _answers(10.0, 4.0))
    assert feats["diff_scores_1_2"] == 6.0
    assert feats["numngrams"] == 0
    single = extract_run_features(q, evidence, _answers(10.0))
    assert single["diff_scores_1_2"] == 0.0
    assert single["std_deviation_answer_scores"] == 0.0


def test_totnonbagsnips_counts_only_phrasal_sources():
    q = Question.from_text("Who painted the old mill?")
    evidence = [
        (_phrasal("painted the old mill"), [Snippet("x", "d"), Snippet("y", "d")]),
        (_conj("who", "painted", "mill"), [Snippet("z", "d")]),
    ]
    feats = extract_run_features(q, evidence, _answers())
    recount = sum(len(found) for r, found in evidence if r.kind is RewriteKind.PHRASAL)
    assert feats["totnonbagsnips"] == recount == 2
    assert feats["maxrule"] == 5.0


def test_rulescore_classes_and_filter_names():
    q = Question.from_text("Who painted the old mill?")
    snippets = [Snippet("Maren Velt stood alone", "d")]
    answers = compose_answers([(5.0, snippets)], q.qtype, exclude=q.token_keys)
    feats = extract_run_features(q, [(_phrasal("painted the old mill"), snippets)], answers)
    assert feats["filter"] == "who_filter"
    # The conjunctive weight is a feature even though this run never used it.
    assert feats["rulescore_1"] == 0.0
    assert feats["rulescore_5"] > 0


# --------------------------------------------------------------------------
# threshold ensemble


def _constant_cases(label, n=6):
    return [TrainingCase({"x": float(i % 3)}, label) for i in range(n)]


def test_ensemble_requires_all_thresholds():
    runs = {n: _constant_cases(True) for n in DEFAULT_THRESHOLDS if n != 12}
    with pytest.raises(IncompleteEnsemble):
        train_threshold_ensemble(runs)


def test_ensemble_keys_are_the_thirteen_thresholds():
    runs = {n: _constant_cases(n % 2 == 0) for n in DEFAULT_THRESHOLDS}
    ensemble = train_threshold_ensemble(runs)
    assert ensemble.thresholds == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20)
    assert len(ensemble.trees) == 13


def _mixed_cases(seed, n=24):
    return [
        TrainingCase({"x": float((i * 7 + seed) % 5), "kind": "ab"[(i + seed) % 2]}, (i * seed) % 3 == 0)
        for i in range(n)
    ]


def test_ensemble_trees_equal_each_thresholds_own_tree():
    # Equal lists next to each other (1..4), lists that differ, and a list
    # equal to an earlier one that is not adjacent to it (9 and 20).
    seeds = {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 3, 7: 2, 8: 4, 9: 5, 10: 6, 12: 6, 15: 2, 20: 5}
    runs = {n: _mixed_cases(seeds[n]) for n in DEFAULT_THRESHOLDS}
    assert runs[1] == runs[2] and runs[4] != runs[5] and runs[9] == runs[20]
    ensemble = train_threshold_ensemble(runs)
    assert len({repr(tree_to_dict(t)) for t in ensemble.trees.values()}) > 1
    for n in DEFAULT_THRESHOLDS:
        assert tree_to_dict(ensemble.trees[n]) == tree_to_dict(train_tree(runs[n]))


def test_predict_all_asks_each_distinct_tree_once_in_ascending_order():
    # Two trees shared by thresholds that are neither adjacent nor listed
    # in order.
    calls = []

    class Counting:
        def __init__(self, p):
            self.p = p

        def predict(self, features):
            calls.append(self)
            return self.p

    low, high = Counting(0.2), Counting(0.7)
    ensemble = ThresholdEnsemble(trees={5: low, 1: high, 3: low, 2: high, 4: Counting(0.4)})
    probs = ensemble.predict_all({})
    assert list(probs.items()) == [(1, 0.7), (2, 0.7), (3, 0.2), (4, 0.4), (5, 0.2)]
    assert len(calls) == 3 and {id(low), id(high)} < set(map(id, calls))


def test_loaded_ensemble_shares_equal_trees_that_are_not_adjacent(tmp_path, monkeypatch):
    # Budget 1's tree copied to budget 20, with other trees between them:
    # the two still share one tree object and so one prediction.
    seeds = {n: 1 if n == 1 else 2 if n < 10 else 3 for n in DEFAULT_THRESHOLDS}
    tree = train_tree(_constant_cases(True))
    ensemble = train_threshold_ensemble({n: _mixed_cases(seeds[n]) for n in DEFAULT_THRESHOLDS})
    ModelSet(tree, tree, ensemble).save(str(tmp_path))
    data = json.loads((tmp_path / "models.json").read_text(encoding="utf-8"))
    shapes = data["ensemble"]
    shapes["20"] = shapes["1"]
    assert len({json.dumps(shape) for shape in shapes.values()}) == 3
    (tmp_path / "models.json").write_text(json.dumps(data), encoding="utf-8")
    loaded = ModelSet.load(str(tmp_path)).ensemble
    assert loaded.trees[20] is loaded.trees[1] is not loaded.trees[15]

    calls = []
    predict = DecisionTree.predict
    monkeypatch.setattr(DecisionTree, "predict", lambda self, features: calls.append(self) or predict(self, features))
    for features in ({"x": x, "kind": kind} for x in (0.0, 2.0, 4.0) for kind in "ab"):
        calls.clear()
        probs = loaded.predict_all(features)
        assert len(calls) == 3
        assert list(probs) == list(DEFAULT_THRESHOLDS)
        assert probs == {n: predict(tree_from_dict(shapes[str(n)]), features) for n in DEFAULT_THRESHOLDS}


def test_constant_labels_give_single_leaf_trees():
    runs = {n: _constant_cases(True) for n in DEFAULT_THRESHOLDS}
    ensemble = train_threshold_ensemble(runs)
    for tree in ensemble.trees.values():
        assert isinstance(tree.root, Leaf)
        assert tree.root.probability == pytest.approx(7 / 8)


def test_model_set_save_load_round_trip(tmp_path):
    conj = train_tree(_constant_cases(True))
    phrasal = train_tree(_constant_cases(False))
    runs = {n: _constant_cases(n > 5) for n in DEFAULT_THRESHOLDS}
    models = ModelSet(conj, phrasal, train_threshold_ensemble(runs), AdjacencyGrammarScorer())
    models.save(str(tmp_path / "models"))
    loaded = ModelSet.load(str(tmp_path / "models"))
    assert tree_to_dict(loaded.conjunctive) == tree_to_dict(conj)
    assert tree_to_dict(loaded.phrasal) == tree_to_dict(phrasal)
    assert loaded.ensemble.thresholds == models.ensemble.thresholds
    for n, tree in models.ensemble.trees.items():
        assert tree_to_dict(loaded.ensemble.trees[n]) == tree_to_dict(tree)
    assert isinstance(loaded.scorer, AdjacencyGrammarScorer)
    # No scorer means the default one, and the file says so.
    ModelSet(conj, phrasal, models.ensemble).save(str(tmp_path / "default"))
    assert isinstance(ModelSet.load(str(tmp_path / "default")).scorer, AdjacencyGrammarScorer)


@pytest.mark.parametrize(
    "ensemble, scorer, error",
    [
        (None, AdjacencyGrammarScorer(), IncompleteEnsemble),
        ("trained", StubGrammarScorer(), ValueError),
        ("other-budgets", AdjacencyGrammarScorer(), ValueError),
    ],
    ids=["no-ensemble", "unnamed-scorer", "other-budgets"],
)
def test_model_set_save_refuses_what_load_cannot_rebuild(tmp_path, ensemble, scorer, error):
    tree = train_tree(_constant_cases(True))
    if ensemble == "trained":
        ensemble = train_threshold_ensemble({n: _constant_cases(True) for n in DEFAULT_THRESHOLDS})
    elif ensemble == "other-budgets":
        ensemble = ThresholdEnsemble(trees={25: tree})
    with pytest.raises(error):
        ModelSet(tree, tree, ensemble, scorer).save(str(tmp_path))
    assert not (tmp_path / "models.json").exists()

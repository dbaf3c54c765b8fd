import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from budgetqa.errors import MissingFeature, NoTrainingData, SchemaMismatch
from budgetqa.models import DEFAULT_THRESHOLDS, TREE_NAMES, ModelSet
from budgetqa.tree import (
    MIN_LEAF,
    DecisionTree,
    Leaf,
    Split,
    TrainingCase,
    train_tree,
    tree_to_dict,
)

from oracles import grow_by_masks, route_cases


def _case(label, **features):
    return TrainingCase(features, label)


def test_uninformative_data_gives_single_laplace_leaf():
    cases = [_case(True, x=1.0)] * 3 + [_case(False, x=1.0)]
    tree = train_tree(cases)
    assert isinstance(tree.root, Leaf)
    assert tree.root.probability == pytest.approx(4 / 6)


def test_perfectly_separable_binary_feature():
    cases = [_case(True, flag=1.0) for _ in range(6)] + [_case(False, flag=0.0) for _ in range(4)]
    tree = train_tree(cases)
    assert isinstance(tree.root, Split) and tree.root.feature == "flag"
    assert isinstance(tree.root.left, Leaf) and isinstance(tree.root.right, Leaf)
    pos_leaf = tree.predict({"flag": 1.0})
    neg_leaf = tree.predict({"flag": 0.0})
    assert pos_leaf == pytest.approx(7 / 8)  # (6+1)/(6+2)
    assert neg_leaf == pytest.approx(1 / 6)  # (0+1)/(4+2)


def test_categorical_one_vs_rest_split():
    cases = [_case(True, color="red") for _ in range(5)] + [
        _case(False, color=c) for c in ["blue"] * 3 + ["green"] * 2
    ]
    tree = train_tree(cases)
    assert tree.predict({"color": "red"}) > 0.5
    assert tree.predict({"color": "blue"}) < 0.5


def test_empty_cases_raise():
    with pytest.raises(NoTrainingData):
        train_tree([])


def test_schema_mismatch_on_differing_names():
    with pytest.raises(SchemaMismatch):
        train_tree([_case(True, a=1.0), _case(False, b=1.0)])


def test_schema_mismatch_on_mixed_kinds():
    with pytest.raises(SchemaMismatch):
        train_tree([_case(True, a=1.0), _case(False, a="one")])


def test_missing_feature_on_predict():
    cases = [_case(True, x=1.0) for _ in range(5)] + [_case(False, x=0.0) for _ in range(5)]
    tree = train_tree(cases)
    with pytest.raises(MissingFeature):
        tree.predict({"y": 1.0})


def _random_cases(rng, n, n_features=3):
    cases = []
    for _ in range(n):
        feats = {f"f{i}": rng.choice([0.0, 1.0, 2.0]) for i in range(n_features)}
        feats["cat"] = rng.choice(["a", "b"])
        # label correlates with f0 so the tree has something to learn
        label = rng.random() < (0.2 + 0.3 * feats["f0"])
        cases.append(TrainingCase(feats, label))
    return cases


@pytest.mark.parametrize("seed", range(5))
def test_leaves_match_laplace_rate_of_routed_cases(seed):
    rng = random.Random(seed)
    cases = _random_cases(rng, 200)
    tree = train_tree(cases)
    buckets = route_cases(tree, cases)
    leaves = {id(l): l for l in _leaf_nodes(tree)}
    assert set(buckets) == set(leaves)
    for leaf_id, routed in buckets.items():
        leaf = leaves[leaf_id]
        pos = sum(1 for c in routed if c.label)
        assert leaf.support == len(routed)
        assert leaf.positives == pos
        assert leaf.probability == pytest.approx((pos + 1) / (len(routed) + 2))


def _leaf_nodes(tree: DecisionTree):
    out, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node)
        else:
            stack.extend([node.left, node.right])
    return out


@pytest.mark.parametrize("seed", range(4))
def test_leaf_probabilities_strictly_inside_unit_interval(seed):
    rng = random.Random(100 + seed)
    cases = _random_cases(rng, 80)
    for leaf in _leaf_nodes(train_tree(cases)):
        assert 0.0 < leaf.probability < 1.0


def test_training_is_deterministic():
    rng = random.Random(7)
    cases = _random_cases(rng, 150)
    assert tree_to_dict(train_tree(cases)) == tree_to_dict(train_tree(cases))


def test_round_trip_is_bit_exact(tmp_path):
    # Every tree of a saved model set, quality models and each threshold's
    # tree alike, loads with the same nodes and predicts the same floats.
    rng = random.Random(11)
    trees = [train_tree(_random_cases(rng, 90)) for _ in range(2 + len(DEFAULT_THRESHOLDS))]
    models = ModelSet(dict(zip(TREE_NAMES, trees)))
    models.save(str(tmp_path))
    loaded = ModelSet.load(str(tmp_path))
    for got, tree in ((loaded.trees[name], tree) for name, tree in zip(TREE_NAMES, trees)):
        assert tree_to_dict(got) == tree_to_dict(tree)
        for _ in range(20):
            feats = {f"f{i}": rng.choice([0.0, 1.0, 2.0]) for i in range(3)}
            feats["cat"] = rng.choice(["a", "b"])
            assert got.predict(feats) == tree.predict(feats)


@given(st.lists(st.booleans(), min_size=1, max_size=30))
def test_single_leaf_probability_formula(labels):
    cases = [TrainingCase({"x": 0.0}, lab) for lab in labels]
    tree = train_tree(cases)
    pos = sum(labels)
    assert isinstance(tree.root, Leaf)
    assert tree.root.probability == (pos + 1) / (len(labels) + 2)
    assert tree.predict({"x": 0.0}) == tree.root.probability


@st.composite
def _split_cases(draw):
    """Cases over two numeric features and one categorical one. The numeric
    pools repeat values, mix ints with floats, and hold a float next to its
    successor, whose midpoint rounds onto one of the two; the categorical
    value may hold every case. Sizes straddle ``MIN_LEAF``."""
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    i = draw(st.integers(-3, 3))
    pool = [x, math.nextafter(x, math.inf), i, float(i) + 0.5, draw(st.floats(-10, 10))]
    one_category = draw(st.booleans())
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(pool),
                st.sampled_from([0, 1, 1.0, 2.5]),
                st.sampled_from(["p", "q", "r"]),
                st.booleans(),
            ),
            min_size=1,
            max_size=4 * MIN_LEAF,
        )
    )
    return [
        TrainingCase({"a": a, "b": b, "c": "p" if one_category else c}, label)
        for a, b, c, label in rows
    ]


@given(_split_cases())
def test_sorted_scan_grows_the_mask_search_tree(cases):
    tree = train_tree(cases)
    oracle = DecisionTree(root=grow_by_masks(list(cases), tree.schema), schema=tree.schema)
    assert tree_to_dict(tree) == tree_to_dict(oracle)


def test_midpoint_rounding_onto_the_higher_value_splits_like_the_mask():
    # Two adjacent floats whose midpoint rounds (to even) onto the higher
    # one: the split's left side then holds the higher value's cases too.
    lo = math.nextafter(1.0, math.inf)
    hi = math.nextafter(lo, math.inf)
    assert (lo + hi) / 2 == hi
    cases = [_case(True, x=lo)] * 4 + [_case(False, x=hi)] * 4 + [_case(False, x=3)] * 2
    tree = train_tree(cases)
    oracle = DecisionTree(root=grow_by_masks(cases, tree.schema), schema=tree.schema)
    assert tree_to_dict(tree) == tree_to_dict(oracle)

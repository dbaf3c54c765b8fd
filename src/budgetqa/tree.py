"""Decision tree learner for success probabilities.

Greedy top-down induction on a boolean label: each node takes the split with
the highest information gain, numeric features split at midpoints between
sorted distinct values, categorical features split one-vs-rest. Leaves hold
Laplace-smoothed probabilities (pos + 1) / (total + 2), so every prediction
is strictly inside (0, 1). Induction is deterministic: features are visited
in name order and the first best split wins ties.

Splits are found as C4.5 finds them, by one sorted scan per node and
numeric feature: the node's (value, label) pairs are sorted once, a prefix
count gives the positives below each position, and a threshold's left side
is the ``bisect_right`` count of values at or below it, which stays exact
when a midpoint rounds onto the higher of two adjacent floats. A
categorical feature's (cases, positives) per category come from one pass.
Only the winning split's cases are partitioned.

Training is a pure function of the cases, so ``models.train_trees`` gives
a named tree whose cases equal the previous name's that tree instead of
growing the same one again.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping, Sequence, Union

from .errors import MissingFeature, NoTrainingData, SchemaMismatch

FeatureValue = Union[float, int, str]

MIN_GAIN = 1e-3  # a split must gain at least this many bits
MIN_LEAF = 5  # nodes with fewer cases are not split


@dataclass(frozen=True)
class TrainingCase:
    features: Mapping[str, FeatureValue]
    label: bool


@dataclass(frozen=True)
class Leaf:
    probability: float
    support: int
    positives: int


@dataclass(frozen=True)
class Split:
    feature: str
    kind: str  # "numeric" or "categorical"
    value: FeatureValue
    left: "Node"
    right: "Node"


Node = Union[Leaf, Split]


@dataclass
class DecisionTree:
    root: Node
    schema: dict[str, str] = field(default_factory=dict)

    def predict(self, features: Mapping[str, FeatureValue]) -> float:
        node = self.root
        while isinstance(node, Split):
            if node.feature not in features:
                raise MissingFeature(f"feature {node.feature!r} not supplied")
            value = features[node.feature]
            if node.kind == "numeric":
                if isinstance(value, str):
                    raise SchemaMismatch(f"feature {node.feature!r} expects a number, got {value!r}")
                node = node.left if float(value) <= node.value else node.right
            else:
                node = node.left if value == node.value else node.right
        return node.probability


def _entropy(pos: int, total: int) -> float:
    if total == 0 or pos == 0 or pos == total:
        return 0.0
    p = pos / total
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def _leaf(cases: Sequence[TrainingCase]) -> Leaf:
    pos = sum(1 for c in cases if c.label)
    return Leaf(probability=(pos + 1) / (len(cases) + 2), support=len(cases), positives=pos)


def _check_schema(cases: Sequence[TrainingCase]) -> dict[str, str]:
    names = sorted(cases[0].features)
    keys = set(names)
    schema: dict[str, str] = {}
    for case in cases:
        if case.features.keys() != keys:
            raise SchemaMismatch("training cases disagree on feature names")
        for name in names:
            kind = "categorical" if isinstance(case.features[name], str) else "numeric"
            if schema.setdefault(name, kind) != kind:
                raise SchemaMismatch(f"feature {name!r} mixes numeric and categorical values")
    return schema


def _candidate_splits(cases: Sequence[TrainingCase], name: str, kind: str):
    """(value, cases going left, positives going left) per candidate split of
    feature ``name``, in visiting order: thresholds ascending, categories
    sorted."""
    if kind == "numeric":
        pairs = sorted((float(c.features[name]), c.label) for c in cases)
        values = [v for v, _ in pairs]
        # below[i]: positives among the i smallest values
        below = list(accumulate((label for _, label in pairs), initial=0))
        for lo, hi in zip(values, values[1:]):
            if lo != hi:
                threshold = (lo + hi) / 2
                # The midpoint may round onto hi; bisect counts what <= keeps.
                n_left = bisect_right(values, threshold)
                yield threshold, n_left, below[n_left]
    else:
        counts: dict[FeatureValue, list[int]] = {}
        for c in cases:
            entry = counts.setdefault(c.features[name], [0, 0])
            entry[0] += 1
            entry[1] += c.label
        for category in sorted(counts):
            n_left, pos_left = counts[category]
            if n_left < len(cases):  # one-vs-rest needs a nonempty rest
                yield category, n_left, pos_left


def _grow(cases: Sequence[TrainingCase], schema: dict[str, str]) -> Node:
    pos = sum(1 for c in cases if c.label)
    if len(cases) < MIN_LEAF or pos in (0, len(cases)):
        return _leaf(cases)

    parent = _entropy(pos, len(cases))
    best_gain = 0.0
    best = None
    for name in sorted(schema):
        for value, n_left, pos_left in _candidate_splits(cases, name, schema[name]):
            n_right = len(cases) - n_left
            pos_right = pos - pos_left
            child = (n_left / len(cases)) * _entropy(pos_left, n_left) + (
                n_right / len(cases)
            ) * _entropy(pos_right, n_right)
            gain = parent - child
            if gain > best_gain + 1e-12:
                best_gain = gain
                best = (name, value)
    if best is None or best_gain < MIN_GAIN:
        return _leaf(cases)

    name, value = best
    if schema[name] == "numeric":
        mask = [float(c.features[name]) <= value for c in cases]
    else:
        mask = [c.features[name] == value for c in cases]
    left_cases = [c for c, m in zip(cases, mask) if m]
    right_cases = [c for c, m in zip(cases, mask) if not m]
    return Split(
        feature=name,
        kind=schema[name],
        value=value,
        left=_grow(left_cases, schema),
        right=_grow(right_cases, schema),
    )


def train_tree(cases: Sequence[TrainingCase]) -> DecisionTree:
    """Fit a tree on labelled cases sharing one feature schema."""
    if not cases:
        raise NoTrainingData("cannot train a tree on zero cases")
    schema = _check_schema(cases)
    return DecisionTree(root=_grow(list(cases), schema), schema=schema)


# --------------------------------------------------------------------------
# Serialization: self-describing JSON, bit-exact on probabilities.


def _node_to_dict(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {
            "kind": "leaf",
            "probability": node.probability,
            "support": node.support,
            "positives": node.positives,
        }
    return {
        "kind": "split",
        "feature": node.feature,
        "split_kind": node.kind,
        "value": node.value,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(data: dict) -> Node:
    if data["kind"] == "leaf":
        return Leaf(
            probability=data["probability"],
            support=data["support"],
            positives=data["positives"],
        )
    return Split(
        feature=data["feature"],
        kind=data["split_kind"],
        value=data["value"],
        left=_node_from_dict(data["left"]),
        right=_node_from_dict(data["right"]),
    )


def tree_to_dict(tree: DecisionTree) -> dict:
    return {"schema": tree.schema, "root": _node_to_dict(tree.root)}


def tree_from_dict(data: dict) -> DecisionTree:
    return DecisionTree(root=_node_from_dict(data["root"]), schema=dict(data["schema"]))


def describe_tree(tree: DecisionTree) -> str:
    """Human-readable rendering for CLI summaries."""
    lines: list[str] = []

    def walk(node: Node, indent: int, label: str) -> None:
        pad = "  " * indent
        if isinstance(node, Leaf):
            lines.append(
                f"{pad}{label}p={node.probability:.4f} ({node.positives}/{node.support})"
            )
        else:
            op = "<=" if node.kind == "numeric" else "=="
            lines.append(f"{pad}{label}[{node.feature} {op} {node.value!r}]")
            walk(node.left, indent + 1, "yes: ")
            walk(node.right, indent + 1, "no:  ")

    walk(tree.root, 0, "")
    return "\n".join(lines)

"""Decision tree learner for success probabilities.

Greedy top-down induction on a boolean label: each node takes the split with
the highest information gain, numeric features split at midpoints between
sorted distinct values, categorical features split one-vs-rest. Leaves hold
Laplace-smoothed probabilities (pos + 1) / (total + 2), so every prediction
is strictly inside (0, 1). Induction is deterministic: features are visited
in name order and the first best split wins ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from .errors import MissingFeature, NoTrainingData, SchemaMismatch

FeatureValue = Union[float, int, str]


@dataclass(frozen=True)
class TrainingCase:
    features: Mapping[str, FeatureValue]
    label: bool


@dataclass(frozen=True)
class TreeConfig:
    min_gain: float = 1e-3
    min_leaf: int = 5


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

    def goes_left(self, features: Mapping[str, FeatureValue]) -> bool:
        if self.feature not in features:
            raise MissingFeature(f"feature {self.feature!r} not supplied")
        value = features[self.feature]
        if self.kind == "numeric":
            if isinstance(value, str):
                raise SchemaMismatch(f"feature {self.feature!r} expects a number, got {value!r}")
            return float(value) <= self.value
        return value == self.value


Node = Union[Leaf, Split]


@dataclass
class DecisionTree:
    root: Node
    schema: dict[str, str] = field(default_factory=dict)

    def predict(self, features: Mapping[str, FeatureValue]) -> float:
        node = self.root
        while isinstance(node, Split):
            node = node.left if node.goes_left(features) else node.right
        return node.probability

    def leaves(self) -> list[Leaf]:
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                out.append(node)
            else:
                stack.extend([node.left, node.right])
        return out

    def depth(self) -> int:
        def walk(node: Node) -> int:
            if isinstance(node, Leaf):
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)


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
    schema: dict[str, str] = {}
    for case in cases:
        if sorted(case.features) != names:
            raise SchemaMismatch("training cases disagree on feature names")
        for name in names:
            kind = "categorical" if isinstance(case.features[name], str) else "numeric"
            if schema.setdefault(name, kind) != kind:
                raise SchemaMismatch(f"feature {name!r} mixes numeric and categorical values")
    return schema


def _candidate_splits(cases: Sequence[TrainingCase], name: str, kind: str):
    values = [c.features[name] for c in cases]
    if kind == "numeric":
        distinct = sorted({float(v) for v in values})
        for lo, hi in zip(distinct, distinct[1:]):
            threshold = (lo + hi) / 2
            yield threshold, [float(c.features[name]) <= threshold for c in cases]
    else:
        for category in sorted(set(values)):
            mask = [c.features[name] == category for c in cases]
            if not all(mask):  # one-vs-rest needs a nonempty rest
                yield category, mask


def _grow(cases: Sequence[TrainingCase], schema: dict[str, str], cfg: TreeConfig) -> Node:
    pos = sum(1 for c in cases if c.label)
    if len(cases) < cfg.min_leaf or pos in (0, len(cases)):
        return _leaf(cases)

    parent = _entropy(pos, len(cases))
    best_gain = 0.0
    best = None
    for name in sorted(schema):
        for value, mask in _candidate_splits(cases, name, schema[name]):
            n_left = sum(mask)
            pos_left = sum(1 for c, m in zip(cases, mask) if m and c.label)
            n_right = len(cases) - n_left
            pos_right = pos - pos_left
            child = (n_left / len(cases)) * _entropy(pos_left, n_left) + (
                n_right / len(cases)
            ) * _entropy(pos_right, n_right)
            gain = parent - child
            if gain > best_gain + 1e-12:
                best_gain = gain
                best = (name, value, mask)
    if best is None or best_gain < cfg.min_gain:
        return _leaf(cases)

    name, value, mask = best
    left_cases = [c for c, m in zip(cases, mask) if m]
    right_cases = [c for c, m in zip(cases, mask) if not m]
    return Split(
        feature=name,
        kind=schema[name],
        value=value,
        left=_grow(left_cases, schema, cfg),
        right=_grow(right_cases, schema, cfg),
    )


def train_tree(cases: Sequence[TrainingCase], cfg: TreeConfig | None = None) -> DecisionTree:
    """Fit a tree on labelled cases sharing one feature schema."""
    if not cases:
        raise NoTrainingData("cannot train a tree on zero cases")
    cfg = cfg or TreeConfig()
    schema = _check_schema(cases)
    return DecisionTree(root=_grow(list(cases), schema, cfg), schema=schema)


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

"""Learned probability models over the question-answering pipeline.

Two per-rewrite quality models (conjunctive and phrasal) turn rewrite
features into the probability that a single query leads to a correct
answer; that score orders rewrite submission. A 13-member ensemble of
trees, one per rewrite budget in {1..10, 12, 15, 20}, predicts end-to-end
answer accuracy for a run from its run features.

Every feature set is the plain dict the trees read. Run features have one
fixed schema: the mined-candidate count of each of the two rewrite weights
(``rulescore_1``, ``rulescore_5``) is a feature whether or not the run used
that weight, so a one-word question's lone conjunctive rewrite yields the
same keys as any other run.

The trees hold only for what they were trained with, so a models file
records it once, as ``MODELS_HEADER`` (format, scorer and probe size):
``ModelSet.save`` writes that mapping and ``ModelSet.load`` requires it.
Thresholds whose trees are equal share one tree object, and so one
prediction: ``ThresholdEnsemble`` makes them share when it is built, from
trained or loaded trees alike, while ``train_threshold_ensemble`` trains a
case list equal to the previous threshold's only once.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from .compose import Candidates
from .errors import ConfigError, IncompleteEnsemble
from .rewrite import (
    CONJUNCTIVE_WEIGHT,
    PHRASAL_WEIGHT,
    AdjacencyGrammarScorer,
    GrammarScorer,
    Question,
    QuestionType,
    Rewrite,
    RewriteKind,
    conjunctive_features,
    phrasal_features,
)
from .search import Snippet
from .tree import (
    DecisionTree,
    FeatureValue,
    TrainingCase,
    train_tree,
    tree_from_dict,
    tree_to_dict,
)

DEFAULT_THRESHOLDS: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20)

#: Rewrites the cost-benefit policy runs before choosing a budget. The
#: threshold ensemble is trained on run features of this probe, so no other
#: size can feed it.
PROBE_SIZE = 2


# --------------------------------------------------------------------------
# Run features


def _pstdev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


_FILTER_NAMES = {qtype: f"{qtype.value}_filter" for qtype in QuestionType}
_RULESCORE_1, _RULESCORE_5 = (f"rulescore_{w:g}" for w in (CONJUNCTIVE_WEIGHT, PHRASAL_WEIGHT))


def extract_run_features(
    question: Question,
    evidence: Sequence[tuple[Rewrite, Sequence[Snippet]]],
    ranked_answers: Candidates,
) -> dict[str, FeatureValue]:
    """Compute run features after composition.

    ``evidence`` pairs each executed rewrite with its snippets, in
    submission order, and ``ranked_answers`` must be what ``compose_answers``
    returned for them: the mined-candidate counts are read from it, not
    mined again. Those counts are features for both rewrite weights
    (``rulescore_1`` and ``rulescore_5``), zero for a weight the run did not
    use, so every run has one schema. One loop over the evidence sums what
    the snippet features count.
    """
    totsnips = totnonbagsnips = 0
    maxrule = -math.inf
    for rewrite, found in evidence:
        totsnips += len(found)
        if rewrite.kind is RewriteKind.PHRASAL:
            totnonbagsnips += len(found)
        if rewrite.weight > maxrule:
            maxrule = rewrite.weight
    top_scores = [c.score for c in ranked_answers[:5]]
    by_weight = ranked_answers.mined_by_weight
    return {
        "average_snippets_per_rewrite": totsnips / len(evidence),
        "diff_scores_1_2": top_scores[0] - top_scores[1] if len(top_scores) >= 2 else 0.0,
        "filter": _FILTER_NAMES[question.qtype],
        "maxrule": maxrule,
        "numngrams": float(ranked_answers.mined),
        "std_deviation_answer_scores": _pstdev(top_scores),
        "totalqueries": float(len(evidence)),
        "totnonbagsnips": float(totnonbagsnips),
        "totsnips": float(totsnips),
        _RULESCORE_1: float(by_weight.get(CONJUNCTIVE_WEIGHT, 0)),
        _RULESCORE_5: float(by_weight.get(PHRASAL_WEIGHT, 0)),
    }


# --------------------------------------------------------------------------
# Threshold ensemble


@dataclass
class ThresholdEnsemble:
    """One accuracy model per rewrite-budget threshold. Thresholds whose
    trees are equal share one tree object from when the ensemble is built,
    however the trees were made; ``trees`` is not changed after that."""

    trees: dict[int, DecisionTree]

    def __post_init__(self):
        # A threshold takes the first tree equal to its own (``index``
        # compares with ``==``), then each distinct tree is kept with the
        # thresholds that share it, by its smallest threshold.
        trees = list(self.trees.values())
        self.trees = {n: trees[trees.index(tree)] for n, tree in self.trees.items()}
        groups: dict[int, tuple[DecisionTree, list[int]]] = {}
        for n in self.thresholds:
            groups.setdefault(id(self.trees[n]), (self.trees[n], []))[1].append(n)
        self._groups = tuple(groups.values())

    @cached_property
    def thresholds(self) -> tuple[int, ...]:
        return tuple(sorted(self.trees))

    def predict_all(self, features: Mapping[str, FeatureValue]) -> dict[int, float]:
        """p for every threshold, ascending. Thresholds that share a tree
        share its one prediction."""
        probs = dict.fromkeys(self.thresholds)
        for tree, budgets in self._groups:
            p = tree.predict(features)
            for n in budgets:
                probs[n] = p
        return probs


def train_threshold_ensemble(runs: Mapping[int, Sequence[TrainingCase]]) -> ThresholdEnsemble:
    """Train one tree per threshold of ``DEFAULT_THRESHOLDS``; every
    threshold must have data. A threshold whose cases equal the previous
    threshold's is not trained again but takes that threshold's tree:
    training is deterministic, so it would grow the same one."""
    missing = [n for n in DEFAULT_THRESHOLDS if not runs.get(n)]
    if missing:
        raise IncompleteEnsemble(f"no training runs for thresholds {missing}")
    trees: dict[int, DecisionTree] = {}
    cases: list[TrainingCase] | None = None
    for n in DEFAULT_THRESHOLDS:
        if (own := list(runs[n])) != cases:
            cases, tree = own, train_tree(own)
        trees[n] = tree
    return ThresholdEnsemble(trees=trees)


# --------------------------------------------------------------------------
# Bundled model set

MODELS_FILE = "models.json"
# Raised whenever a tree's feature schema changes, since a tree from another
# format may split on features that are no longer computed.
MODELS_FORMAT = 3
# The name a models file records for ``AdjacencyGrammarScorer``, the only
# scorer it can be trained or served with.
SCORER_NAME = "adjacency"
# What a models file records besides its trees, as ``save`` writes it and
# ``load`` requires it: the trees hold only for this format, scorer and probe.
MODELS_HEADER = {"format": MODELS_FORMAT, "scorer": SCORER_NAME, "probe_size": PROBE_SIZE}


@dataclass(eq=False)
class ModelSet:
    """Everything the controller needs: quality models, ensemble, scorer.
    The scorer is an ``AdjacencyGrammarScorer`` unless a test substitutes
    another, which then cannot be saved. A model set hashes by identity, so
    a question can remember its order under it."""

    conjunctive: DecisionTree
    phrasal: DecisionTree
    ensemble: ThresholdEnsemble | None = None
    scorer: GrammarScorer = field(default_factory=AdjacencyGrammarScorer)

    def quality_score(self, rewrite: Rewrite) -> float:
        """Query-quality score: probability that this single rewrite succeeds."""
        if rewrite.kind is RewriteKind.CONJUNCTIVE:
            return self.conjunctive.predict(conjunctive_features(rewrite))
        return self.phrasal.predict(phrasal_features(rewrite, self.scorer))

    def order(self, rewrites: Sequence[Rewrite]) -> tuple[Rewrite, ...]:
        """Rewrites by descending quality score; ties keep generation order."""
        return tuple(sorted(rewrites, key=self.quality_score, reverse=True))

    def save(self, directory: str) -> str:
        """Write ``models.json`` under ``directory`` and return its path. The
        file records the scorer and probe size the trees were trained with;
        a scorer other than ``AdjacencyGrammarScorer`` or budgets other than
        ``DEFAULT_THRESHOLDS`` raise ``ValueError``, since loading could not
        rebuild them."""
        if self.ensemble is None:
            raise IncompleteEnsemble("a model set is saved with its threshold ensemble")
        if type(self.scorer) is not AdjacencyGrammarScorer:
            raise ValueError(f"{self.scorer!r} is not the scorer a models file records")
        if self.ensemble.thresholds != DEFAULT_THRESHOLDS:
            raise ValueError(f"ensemble budgets {list(self.ensemble.thresholds)} are not {list(DEFAULT_THRESHOLDS)}")
        data = {
            **MODELS_HEADER,
            "conjunctive": tree_to_dict(self.conjunctive),
            "phrasal": tree_to_dict(self.phrasal),
            "ensemble": {str(n): tree_to_dict(t) for n, t in self.ensemble.trees.items()},
        }
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, MODELS_FILE)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
        return path

    @classmethod
    def load(cls, directory: str) -> "ModelSet":
        """Read ``models.json`` under ``directory``; it serves with an
        ``AdjacencyGrammarScorer``. Thresholds whose trees are equal share
        one, as ``ThresholdEnsemble`` makes them. A file whose header is not
        ``MODELS_HEADER`` (another format, scorer or probe size) or whose
        ensemble budgets are not ``DEFAULT_THRESHOLDS`` raises
        ``ConfigError``."""
        path = os.path.join(directory, MODELS_FILE)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            for name, value in MODELS_HEADER.items():
                if data[name] != value:
                    raise ValueError(f"{name} {data[name]!r} is not {value!r}")
            if (budgets := sorted(map(int, data["ensemble"] or ()))) != list(DEFAULT_THRESHOLDS):
                raise ValueError(f"ensemble budgets {budgets} are not {list(DEFAULT_THRESHOLDS)}")
            return cls(
                conjunctive=tree_from_dict(data["conjunctive"]),
                phrasal=tree_from_dict(data["phrasal"]),
                ensemble=ThresholdEnsemble({int(n): tree_from_dict(shape) for n, shape in data["ensemble"].items()}),
            )
        except KeyError as exc:
            raise ConfigError(f"bad models file {path}: no field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad models file {path}: {exc}") from exc

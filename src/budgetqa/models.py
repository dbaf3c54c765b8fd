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
    use, so every run has one schema.
    """
    totsnips = sum(len(found) for _, found in evidence)
    top_scores = [c.score for c in ranked_answers[:5]]
    features: dict[str, FeatureValue] = {
        "average_snippets_per_rewrite": totsnips / len(evidence),
        "diff_scores_1_2": top_scores[0] - top_scores[1] if len(top_scores) >= 2 else 0.0,
        "filter": f"{question.qtype.value}_filter",
        "maxrule": max(r.weight for r, _ in evidence),
        "numngrams": float(ranked_answers.mined),
        "std_deviation_answer_scores": _pstdev(top_scores),
        "totalqueries": float(len(evidence)),
        "totnonbagsnips": float(
            sum(len(found) for r, found in evidence if r.kind is RewriteKind.PHRASAL)
        ),
        "totsnips": float(totsnips),
    }
    for weight in (CONJUNCTIVE_WEIGHT, PHRASAL_WEIGHT):
        features[f"rulescore_{weight:g}"] = float(ranked_answers.mined_by_weight.get(weight, 0))
    return features


# --------------------------------------------------------------------------
# Threshold ensemble


@dataclass
class ThresholdEnsemble:
    """One accuracy model per rewrite-budget threshold. ``trees`` is not
    changed after the ensemble is built."""

    trees: dict[int, DecisionTree]

    @cached_property
    def thresholds(self) -> tuple[int, ...]:
        return tuple(sorted(self.trees))

    def predict_all(self, features: Mapping[str, FeatureValue]) -> dict[int, float]:
        """p for every threshold, ascending. Thresholds that share a tree
        (see ``train_threshold_ensemble``) share its one prediction."""
        by_tree: dict[int, float] = {}
        probs = {}
        for n in self.thresholds:
            tree = self.trees[n]
            p = by_tree.get(id(tree))
            if p is None:
                p = by_tree[id(tree)] = tree.predict(features)
            probs[n] = p
        return probs


def train_threshold_ensemble(runs: Mapping[int, Sequence[TrainingCase]]) -> ThresholdEnsemble:
    """Train one tree per threshold of ``DEFAULT_THRESHOLDS``; every
    threshold must have data. A threshold whose cases equal the previous
    threshold's shares that threshold's tree: training is deterministic, so
    it would grow the same one."""
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
            "format": MODELS_FORMAT,
            "scorer": SCORER_NAME,
            "probe_size": PROBE_SIZE,
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
        ``AdjacencyGrammarScorer``. A threshold whose tree equals the
        previous threshold's shares it, as in ``train_threshold_ensemble``.
        A file of another format, another scorer, another probe size or an
        ensemble whose budgets are not ``DEFAULT_THRESHOLDS`` raises
        ``ConfigError``."""
        path = os.path.join(directory, MODELS_FILE)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if data["format"] != MODELS_FORMAT:
                raise ValueError(f"format {data['format']!r} is not {MODELS_FORMAT}")
            if data["scorer"] != SCORER_NAME:
                raise ValueError(f"scorer {data['scorer']!r} is not {SCORER_NAME!r}")
            if data["probe_size"] != PROBE_SIZE:
                raise ValueError(f"probe size {data['probe_size']!r} is not {PROBE_SIZE}")
            if (budgets := sorted(map(int, data["ensemble"] or ()))) != list(DEFAULT_THRESHOLDS):
                raise ValueError(f"ensemble budgets {budgets} are not {list(DEFAULT_THRESHOLDS)}")
            trees: dict[int, DecisionTree] = {}
            previous = None
            for n, shape in data["ensemble"].items():
                if shape != previous:
                    previous, tree = shape, tree_from_dict(shape)
                trees[int(n)] = tree
            return cls(
                conjunctive=tree_from_dict(data["conjunctive"]),
                phrasal=tree_from_dict(data["phrasal"]),
                ensemble=ThresholdEnsemble(trees=trees),
            )
        except KeyError as exc:
            raise ConfigError(f"bad models file {path}: no field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad models file {path}: {exc}") from exc

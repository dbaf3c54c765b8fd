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
from typing import Mapping, Sequence

from .compose import Candidates
from .errors import ConfigError, IncompleteEnsemble
from .rewrite import (
    CONJUNCTIVE_WEIGHT,
    PHRASAL_WEIGHT,
    SCORERS,
    GrammarScorer,
    HeuristicGrammarScorer,
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
    """One accuracy model per rewrite-budget threshold."""

    trees: dict[int, DecisionTree]

    @property
    def thresholds(self) -> tuple[int, ...]:
        return tuple(sorted(self.trees))

    def predict(self, n: int, features: Mapping[str, FeatureValue]) -> float:
        return self.trees[n].predict(features)


def train_threshold_ensemble(runs: Mapping[int, Sequence[TrainingCase]]) -> ThresholdEnsemble:
    """Train one tree per threshold of ``DEFAULT_THRESHOLDS``; every
    threshold must have data."""
    missing = [n for n in DEFAULT_THRESHOLDS if not runs.get(n)]
    if missing:
        raise IncompleteEnsemble(f"no training runs for thresholds {missing}")
    return ThresholdEnsemble(
        trees={n: train_tree(list(runs[n])) for n in DEFAULT_THRESHOLDS}
    )


# --------------------------------------------------------------------------
# Bundled model set

MODELS_FILE = "models.json"
# Raised whenever a tree's feature schema changes, since a tree from another
# format may split on features that are no longer computed.
MODELS_FORMAT = 3


def _scorer_name(scorer: GrammarScorer) -> str:
    """The ``SCORERS`` name of ``scorer``'s class."""
    for name, cls in SCORERS.items():
        if type(scorer) is cls:
            return name
    raise ValueError(f"{scorer!r} is not a named scorer; a models file cannot record it")


@dataclass
class ModelSet:
    """Everything the controller needs: quality models, ensemble, scorer."""

    conjunctive: DecisionTree
    phrasal: DecisionTree
    ensemble: ThresholdEnsemble | None = None
    scorer: GrammarScorer = field(default_factory=HeuristicGrammarScorer)

    def quality_score(self, rewrite: Rewrite) -> float:
        """Query-quality score: probability that this single rewrite succeeds."""
        if rewrite.kind is RewriteKind.CONJUNCTIVE:
            return self.conjunctive.predict(conjunctive_features(rewrite))
        return self.phrasal.predict(phrasal_features(rewrite, self.scorer))

    def order(self, rewrites: Sequence[Rewrite]) -> list[Rewrite]:
        """Rewrites by descending quality score; ties keep generation order."""
        return sorted(rewrites, key=self.quality_score, reverse=True)

    def save(self, directory: str) -> str:
        """Write ``models.json`` under ``directory`` and return its path. The
        file records the scorer and probe size the trees were trained with."""
        if self.ensemble is None:
            raise IncompleteEnsemble("a model set is saved with its threshold ensemble")
        data = {
            "format": MODELS_FORMAT,
            "scorer": _scorer_name(self.scorer),
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
        """Read ``models.json`` under ``directory`` with the scorer it names.
        A file of another format, an unknown scorer, another probe size or
        no ensemble raises ``ConfigError``."""
        path = os.path.join(directory, MODELS_FILE)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if data["format"] != MODELS_FORMAT:
                raise ValueError(f"format {data['format']!r} is not {MODELS_FORMAT}")
            if data["scorer"] not in SCORERS:
                raise ValueError(f"unknown scorer {data['scorer']!r}; known: {sorted(SCORERS)}")
            if data["probe_size"] != PROBE_SIZE:
                raise ValueError(f"probe size {data['probe_size']!r} is not {PROBE_SIZE}")
            if not data["ensemble"]:
                raise ValueError("no threshold ensemble")
            return cls(
                conjunctive=tree_from_dict(data["conjunctive"]),
                phrasal=tree_from_dict(data["phrasal"]),
                ensemble=ThresholdEnsemble(
                    trees={int(n): tree_from_dict(t) for n, t in data["ensemble"].items()}
                ),
                scorer=SCORERS[data["scorer"]](),
            )
        except KeyError as exc:
            raise ConfigError(f"bad models file {path}: no field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad models file {path}: {exc}") from exc

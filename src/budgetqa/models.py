"""Learned probability models over the question-answering pipeline.

Two per-rewrite quality models (conjunctive and phrasal) turn rewrite
features into the probability that a single query leads to a correct
answer; that score orders rewrite submission. A 13-member ensemble of
trees, one per rewrite budget in {1..10, 12, 15, 20}, predicts end-to-end
answer accuracy for a run from its run features.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

from .compose import Candidates
from .errors import ConfigError, IncompleteEnsemble, LengthMismatch
from .rewrite import (
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


def score_rewrite(
    conj_tree: DecisionTree,
    phrasal_tree: DecisionTree,
    r: Rewrite,
    scorer: GrammarScorer | None = None,
) -> float:
    """Query-quality score: probability that this single rewrite succeeds."""
    if r.kind is RewriteKind.CONJUNCTIVE:
        return conj_tree.predict(conjunctive_features(r).as_features())
    scorer = scorer if scorer is not None else HeuristicGrammarScorer()
    return phrasal_tree.predict(phrasal_features(r, scorer).as_features())


def order_rewrites(rewrites: Sequence[Rewrite], scores: Sequence[float]) -> list[Rewrite]:
    """Stable descending sort by score; ties keep generation order."""
    if len(rewrites) != len(scores):
        raise LengthMismatch(f"{len(rewrites)} rewrites but {len(scores)} scores")
    ranked = sorted(range(len(rewrites)), key=lambda i: (-scores[i], i))
    return [rewrites[i] for i in ranked]


# --------------------------------------------------------------------------
# Run features


@dataclass(frozen=True)
class RunFeatures:
    """Features of one completed question-answering run."""

    average_snippets_per_rewrite: float
    diff_scores_1_2: float
    filter: str
    maxrule: float
    numngrams: int
    rulescore: dict[str, int]  # weight class label -> mined candidate count
    std_deviation_answer_scores: float
    totalqueries: int
    totnonbagsnips: int
    totsnips: int

    def as_features(self) -> dict[str, FeatureValue]:
        flat: dict[str, FeatureValue] = {
            "average_snippets_per_rewrite": self.average_snippets_per_rewrite,
            "diff_scores_1_2": self.diff_scores_1_2,
            "filter": self.filter,
            "maxrule": self.maxrule,
            "numngrams": float(self.numngrams),
            "std_deviation_answer_scores": self.std_deviation_answer_scores,
            "totalqueries": float(self.totalqueries),
            "totnonbagsnips": float(self.totnonbagsnips),
            "totsnips": float(self.totsnips),
        }
        for cls, count in self.rulescore.items():
            flat[f"rulescore_{cls}"] = float(count)
        return flat


def weight_class(weight: float) -> str:
    return f"{weight:g}"


def _pstdev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def extract_run_features(
    question: Question,
    rewrites_used: Sequence[Rewrite],
    snippets: Sequence[Sequence[Snippet]],
    ranked_answers: Candidates,
    *,
    weight_classes: Sequence[float] | None = None,
) -> RunFeatures:
    """Compute run features after composition.

    ``snippets`` holds one list per rewrite of ``rewrites_used``, in the
    same order, and ``ranked_answers`` must be what ``compose_answers``
    returned for them: the mined-candidate counts are read from it, not
    mined again. ``weight_classes`` fixes the set of per-weight count
    features so that every run in a training set shares one schema.
    """
    if not rewrites_used:
        raise ValueError("a run uses at least one rewrite")
    if len(snippets) != len(rewrites_used):
        raise LengthMismatch(f"{len(rewrites_used)} rewrites but {len(snippets)} snippet lists")
    totsnips = sum(len(found) for found in snippets)

    by_class: dict[str, int] = {}
    classes = set(weight_classes or ()) | {r.weight for r in rewrites_used}
    for cls_weight in classes:
        by_class.setdefault(weight_class(cls_weight), 0)
    for weight in {r.weight for r in rewrites_used}:
        by_class[weight_class(weight)] = ranked_answers.mined_by_weight.get(weight, 0)

    top_scores = [c.score for c in ranked_answers[:5]]
    diff = top_scores[0] - top_scores[1] if len(top_scores) >= 2 else 0.0

    return RunFeatures(
        average_snippets_per_rewrite=totsnips / len(rewrites_used),
        diff_scores_1_2=diff,
        filter=f"{question.qtype.value}_filter",
        maxrule=max(r.weight for r in rewrites_used),
        numngrams=ranked_answers.mined,
        rulescore=by_class,
        std_deviation_answer_scores=_pstdev(top_scores),
        totalqueries=len(rewrites_used),
        totnonbagsnips=sum(
            len(found) for r, found in zip(rewrites_used, snippets) if r.kind is RewriteKind.PHRASAL
        ),
        totsnips=totsnips,
    )


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
MODELS_FORMAT = 1


def _scorer_name(scorer: GrammarScorer | None) -> str:
    """The ``SCORERS`` name that rebuilds ``scorer`` exactly (None is the
    default scorer, as in ``score_rewrite``)."""
    scorer = scorer if scorer is not None else HeuristicGrammarScorer()
    for name, cls in SCORERS.items():
        if type(scorer) is cls and vars(scorer) == vars(cls()):
            return name
    raise ValueError(f"{scorer!r} is not a named scorer; a models file cannot record it")


@dataclass
class ModelSet:
    """Everything the controller needs: quality models, ensemble, scorer."""

    conjunctive: DecisionTree
    phrasal: DecisionTree
    ensemble: ThresholdEnsemble | None = None
    scorer: GrammarScorer | None = None

    def quality_score(self, rewrite: Rewrite) -> float:
        return score_rewrite(self.conjunctive, self.phrasal, rewrite, self.scorer)

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

"""Learned probability models over the question-answering pipeline.

Every learned probability is a decision tree named by ``(stage, n)``; the
names are ``TREE_NAMES``. Two quality trees, ``("conjunctive", 1)`` and
``("phrasal", 1)``, turn rewrite features into the probability that a single
query leads to a correct answer; that score orders rewrite submission.
``quality_case`` says which of them scores a rewrite, and on what features.
A budget tree ``("budget", n)`` for each n in {1..10, 12, 15, 20} predicts
end-to-end answer accuracy for a run of n rewrites from its probe's run
features. ``train_trees`` trains every name's cases, and ``ModelSet`` holds
the named trees with the grammar scorer.

Every feature set is the plain dict the trees read. Run features have one
fixed schema: the mined-candidate count of each of the two rewrite weights
(``rulescore_1``, ``rulescore_5``) is a feature whether or not the run used
that weight, so a one-word question's lone conjunctive rewrite yields the
same keys as any other run.

The trees hold only for what they were trained with, so a models file
records it once, as ``MODELS_HEADER`` (format, scorer and probe size),
followed by one list of named trees: ``ModelSet.save`` writes both and
``ModelSet.load`` requires both. Names whose trees are equal share one tree
object, and so one prediction: ``ModelSet`` makes them share when it is
built, from trained or loaded trees alike, while ``train_trees`` trains a
case list equal to the previous name's only once.
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
#: budget trees are trained on run features of this probe, so no other size
#: can feed them.
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
# Named trees

#: A tree's name: the stage whose probability it prices, and the budget n
#: it prices it at (1 for a quality tree, which prices one query).
TreeName = tuple[str, int]

#: Every tree a models file holds, in the order it holds them: the two
#: quality trees, then one budget tree per threshold.
TREE_NAMES: tuple[TreeName, ...] = (
    ("conjunctive", 1),
    ("phrasal", 1),
    *(("budget", n) for n in DEFAULT_THRESHOLDS),
)


def quality_case(rewrite: Rewrite, scorer: GrammarScorer) -> tuple[TreeName, dict[str, FeatureValue]]:
    """The quality tree that scores ``rewrite``, and the features it reads."""
    if rewrite.kind is RewriteKind.CONJUNCTIVE:
        return ("conjunctive", 1), conjunctive_features(rewrite)
    return ("phrasal", 1), phrasal_features(rewrite, scorer)


def train_trees(cases_by_name: Mapping[TreeName, Sequence[TrainingCase]]) -> dict[TreeName, DecisionTree]:
    """One tree per name, trained on that name's cases; every name must
    have some. A name whose cases equal the previous name's is not trained
    again but takes that name's tree: training is deterministic, so it would
    grow the same one."""
    if empty := [name for name, own in cases_by_name.items() if not own]:
        raise IncompleteEnsemble(f"no training cases for trees {empty}")
    trees: dict[TreeName, DecisionTree] = {}
    cases: list[TrainingCase] | None = None
    for name, own in cases_by_name.items():
        if (own := list(own)) != cases:
            cases, tree = own, train_tree(own)
        trees[name] = tree
    return trees


# --------------------------------------------------------------------------
# Bundled model set

MODELS_FILE = "models.json"
# Raised whenever a tree's feature schema or the file's layout changes, since
# a tree from another format may split on features that are no longer
# computed.
MODELS_FORMAT = 4
# The name a models file records for ``AdjacencyGrammarScorer``, the only
# scorer it can be trained or served with.
SCORER_NAME = "adjacency"
# What a models file records besides its trees, as ``save`` writes it and
# ``load`` requires it: the trees hold only for this format, scorer and probe.
MODELS_HEADER = {"format": MODELS_FORMAT, "scorer": SCORER_NAME, "probe_size": PROBE_SIZE}


@dataclass(eq=False)
class ModelSet:
    """Everything the controller needs: the named trees and the scorer.
    Names whose trees are equal share one tree object from when the set is
    built, however the trees were made; ``trees`` is not changed after that.
    ``budgets`` holds the n of every budget tree, ascending.
    The scorer is an ``AdjacencyGrammarScorer`` unless a test substitutes
    another, which then cannot be saved. A model set hashes by identity, so
    a question can remember its order under it."""

    trees: dict[TreeName, DecisionTree]
    scorer: GrammarScorer = field(default_factory=AdjacencyGrammarScorer)

    def __post_init__(self):
        # A name takes the first tree equal to its own (``index`` compares
        # with ``==``), then each distinct budget tree is kept with the
        # budgets that share it, ascending.
        trees = list(self.trees.values())
        self.trees = {name: trees[trees.index(tree)] for name, tree in self.trees.items()}
        self.budgets = tuple(sorted(n for stage, n in self.trees if stage == "budget"))
        groups: dict[int, tuple[DecisionTree, list[int]]] = {}
        for n in self.budgets:
            tree = self.trees["budget", n]
            groups.setdefault(id(tree), (tree, []))[1].append(n)
        self._groups = tuple(groups.values())

    def quality_score(self, rewrite: Rewrite) -> float:
        """Query-quality score: probability that this single rewrite succeeds."""
        name, features = quality_case(rewrite, self.scorer)
        return self.trees[name].predict(features)

    def order(self, rewrites: Sequence[Rewrite]) -> tuple[Rewrite, ...]:
        """Rewrites by descending quality score; ties keep generation order."""
        return tuple(sorted(rewrites, key=self.quality_score, reverse=True))

    def predict_all(self, features: Mapping[str, FeatureValue]) -> dict[int, float]:
        """p for every budget, ascending. Budgets that share a tree share its
        one prediction."""
        probs = dict.fromkeys(self.budgets)
        for tree, budgets in self._groups:
            p = tree.predict(features)
            for n in budgets:
                probs[n] = p
        return probs

    def save(self, directory: str) -> str:
        """Write ``models.json`` under ``directory`` and return its path. The
        file records the scorer and probe size the trees were trained with,
        then one entry per name of ``TREE_NAMES``. A set that lacks one of
        those names raises ``IncompleteEnsemble``; a scorer other than
        ``AdjacencyGrammarScorer`` or a name outside ``TREE_NAMES`` raises
        ``ValueError``, since loading could not rebuild them."""
        if missing := [name for name in TREE_NAMES if name not in self.trees]:
            raise IncompleteEnsemble(f"a models file holds every tree; there is none named {missing}")
        if type(self.scorer) is not AdjacencyGrammarScorer:
            raise ValueError(f"{self.scorer!r} is not the scorer a models file records")
        if len(self.trees) != len(TREE_NAMES):
            raise ValueError(f"trees {sorted(self.trees.keys() - set(TREE_NAMES))} are not in {list(TREE_NAMES)}")
        data = {
            **MODELS_HEADER,
            "trees": [{"stage": stage, "n": n, "tree": tree_to_dict(self.trees[stage, n])} for stage, n in TREE_NAMES],
        }
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, MODELS_FILE)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
        return path

    @classmethod
    def load(cls, directory: str) -> "ModelSet":
        """Read ``models.json`` under ``directory``; it serves with an
        ``AdjacencyGrammarScorer``, and names whose trees are equal share one.
        A file whose header is not ``MODELS_HEADER`` (another format, scorer
        or probe size) or whose trees are not named ``TREE_NAMES``, in that
        order, raises ``ConfigError``."""
        path = os.path.join(directory, MODELS_FILE)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            for name, value in MODELS_HEADER.items():
                if data[name] != value:
                    raise ValueError(f"{name} {data[name]!r} is not {value!r}")
            names = [(entry["stage"], entry["n"]) for entry in data["trees"]]
            # 1.0 and true compare equal to 1, so each n must be an int too.
            if names != list(TREE_NAMES) or any(type(n) is not int for _, n in names):
                raise ValueError(f"trees {names} are not {list(TREE_NAMES)}")
            return cls({name: tree_from_dict(entry["tree"]) for name, entry in zip(names, data["trees"])})
        except KeyError as exc:
            raise ConfigError(f"bad models file {path}: no field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad models file {path}: {exc}") from exc

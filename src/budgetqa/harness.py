"""Generate training cases by running the pipeline against a labelled
dataset, and train the full model set from them.

Every case comes from the controller's own ``Run`` (``control.py``), so
training sees the evidence, answer filters and per-rewrite error handling
that serving sees, at the same fixed search depth (``search.DEFAULT_LIMIT``
snippets per query). Cases are keyed by the name of the tree they train
(``models.TREE_NAMES``). Quality cases come from single-query runs: each
rewrite is run alone, filed under the quality tree ``quality_case`` names
for it, and labelled by whether the composed top answer matches the
question's patterns. Budget cases come from one run per question over the
rewrites in the quality order of a ``ModelSet``, the cost-benefit policy's
order: every budget's case carries the probe prefix's run features (the
evidence the controller has when it must pick a budget), while its label
reflects the run's prefix at that budget. ``train_models`` trains the
quality trees, orders the budget runs by a model set of them, and returns
a model set of every tree.
"""

from __future__ import annotations

from typing import Sequence

# compose_answers, extract_run_features, generate_rewrites and train_tree
# are no longer called here (the Run calls the first two, a Question
# generates its own rewrites, and models.train_trees trains); perfbench/
# spans.py still binds all four names in this module.
from .compose import compose_answers  # noqa: F401
from .control import Run
from .evaluation import Judgment, QAItem
from .models import (
    DEFAULT_THRESHOLDS,
    PROBE_SIZE,
    TREE_NAMES,
    ModelSet,
    TreeName,
    extract_run_features,  # noqa: F401
    quality_case,
    train_trees,
)
from .rewrite import GrammarScorer, generate_rewrites  # noqa: F401
from .search import SearchProvider
from .tree import TrainingCase, train_tree  # noqa: F401


def _correct(answers, item: QAItem) -> bool:
    top = answers[0].text if answers else None
    return item.verdict(top) is Judgment.CORRECT


def generate_quality_cases(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    *,
    scorer: GrammarScorer,
) -> dict[TreeName, list[TrainingCase]]:
    """Each quality tree's cases, from single-query runs."""
    cases: dict[TreeName, list[TrainingCase]] = {name: [] for name in TREE_NAMES if name[0] != "budget"}
    for item in dataset:
        question = item.parsed
        for rewrite in question.rewrites:
            name, features = quality_case(rewrite, scorer)
            label = _correct(Run(question, (rewrite,), provider).compose(1), item)
            cases[name].append(TrainingCase(features, label))
    return cases


def generate_threshold_cases(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    models: ModelSet,
) -> dict[TreeName, list[TrainingCase]]:
    """Each budget tree's cases: budget-capped runs at every training
    threshold over the rewrites in ``models``' quality order, each case
    carrying the run features of the controller's probe. Only the quality
    trees and scorer of ``models`` are read; its budget trees, if any, are
    not.

    Each question gets one run, so every ordered rewrite is executed once
    and each distinct prefix composed once, no matter how many thresholds
    are trained.
    """
    cases: dict[TreeName, list[TrainingCase]] = {("budget", n): [] for n in DEFAULT_THRESHOLDS}
    for item in dataset:
        question = item.parsed
        run = Run(question, models.order(question.rewrites), provider)
        probe_features = run.features(PROBE_SIZE)
        for n in DEFAULT_THRESHOLDS:
            cases["budget", n].append(TrainingCase(probe_features, _correct(run.compose(n), item)))
    return cases


def train_models(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    *,
    scorer: GrammarScorer,
) -> ModelSet:
    """Both learning phases end to end: the quality trees, then the budget
    trees trained on runs in their order."""
    quality = train_trees(generate_quality_cases(dataset, provider, scorer=scorer))
    budget = train_trees(generate_threshold_cases(dataset, provider, ModelSet(quality, scorer)))
    return ModelSet({**quality, **budget}, scorer)

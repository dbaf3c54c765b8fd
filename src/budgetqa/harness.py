"""Generate training cases by running the pipeline against a labelled
dataset, and train the full model set from them.

Every case comes from the controller's own ``Run`` (``control.py``), so
training sees the evidence, answer filters and per-rewrite error handling
that serving sees, at the same fixed search depth (``search.DEFAULT_LIMIT``
snippets per query). Per-rewrite quality cases come from single-query runs:
each rewrite is run alone and labelled by whether the composed top answer
matches the question's patterns. Threshold cases come from one run per
question over the rewrites in the quality order of a ``ModelSet``, the
cost-benefit policy's order: every threshold's case carries the probe
prefix's run features (the evidence the controller has when it must pick a
budget), while its label reflects the run's prefix at that threshold.
``train_models`` builds that model set once from the quality trees, orders
the threshold runs by it and returns it with the trained ensemble set.
"""

from __future__ import annotations

from typing import Sequence

# compose_answers, extract_run_features and generate_rewrites are no longer
# called here (the Run calls the first two, and a Question generates its own
# rewrites); perfbench/spans.py still binds all three names in this module.
from .compose import compose_answers  # noqa: F401
from .control import Run
from .evaluation import Judgment, QAItem
from .models import (
    DEFAULT_THRESHOLDS,
    PROBE_SIZE,
    ModelSet,
    extract_run_features,  # noqa: F401
    train_threshold_ensemble,
)
from .rewrite import (
    GrammarScorer,
    RewriteKind,
    conjunctive_features,
    generate_rewrites,  # noqa: F401
    phrasal_features,
)
from .search import SearchProvider
from .tree import TrainingCase, train_tree


def _correct(answers, item: QAItem) -> bool:
    top = answers[0].text if answers else None
    return item.verdict(top) is Judgment.CORRECT


def generate_quality_cases(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    *,
    scorer: GrammarScorer,
) -> tuple[list[TrainingCase], list[TrainingCase]]:
    """(conjunctive cases, phrasal cases) from single-query runs."""
    conj_cases, phrasal_cases = [], []
    for item in dataset:
        question = item.parsed
        for rewrite in question.rewrites:
            label = _correct(Run(question, (rewrite,), provider).compose(1), item)
            if rewrite.kind is RewriteKind.CONJUNCTIVE:
                conj_cases.append(TrainingCase(conjunctive_features(rewrite), label))
            else:
                phrasal_cases.append(TrainingCase(phrasal_features(rewrite, scorer), label))
    return conj_cases, phrasal_cases


def generate_threshold_cases(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    models: ModelSet,
) -> dict[int, list[TrainingCase]]:
    """Budget-capped runs at every training threshold over the rewrites in
    ``models``' quality order, each case carrying the run features of the
    controller's probe. Only the quality trees and scorer of ``models`` are
    read; its ensemble, if any, is not.

    Each question gets one run, so every ordered rewrite is executed once
    and each distinct prefix composed once, no matter how many thresholds
    are trained.
    """
    cases: dict[int, list[TrainingCase]] = {n: [] for n in DEFAULT_THRESHOLDS}
    for item in dataset:
        question = item.parsed
        run = Run(question, models.order(question.rewrites), provider)
        probe_features = run.features(PROBE_SIZE)
        for n in DEFAULT_THRESHOLDS:
            cases[n].append(TrainingCase(probe_features, _correct(run.compose(n), item)))
    return cases


def train_models(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    *,
    scorer: GrammarScorer,
) -> ModelSet:
    """Both learning phases end to end: the quality models, then the
    ensemble trained on runs in their order and set on the same model set."""
    conj_cases, phrasal_cases = generate_quality_cases(
        dataset, provider, scorer=scorer
    )
    models = ModelSet(
        conjunctive=train_tree(conj_cases), phrasal=train_tree(phrasal_cases), scorer=scorer
    )
    threshold_cases = generate_threshold_cases(
        dataset,
        provider,
        models,
    )
    models.ensemble = train_threshold_ensemble(threshold_cases)
    return models

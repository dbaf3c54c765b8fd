"""Generate training cases by running the pipeline against a labelled
dataset, and train the full model set from them.

Every case comes from the controller's own ``Run`` (``control.py``), so
training sees the evidence, answer filters and per-rewrite error handling
that serving sees. Per-rewrite quality cases come from single-query runs:
each rewrite is run alone and labelled by whether the composed top answer
matches the question's patterns. Threshold cases come from one run per
question over the quality-ordered rewrites, the cost-benefit policy's
order: every threshold's case carries the probe prefix's run features (the
evidence the controller has when it must pick a budget), while its label
reflects the run's prefix at that threshold.
"""

from __future__ import annotations

from typing import Sequence

# compose_answers, extract_run_features and generate_rewrites are no longer
# called here (the Run calls the first two, and a Question generates its own
# rewrites); perfbench/spans.py still binds all three names in this module.
from .compose import compose_answers  # noqa: F401
from .control import CostBenefit, Run
from .evaluation import Judgment, QAItem, judge
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
from .search import DEFAULT_LIMIT, SearchProvider
from .tree import DecisionTree, TrainingCase, train_tree


def _correct(answers, item: QAItem) -> bool:
    top = answers[0].text if answers else None
    return judge(top, item.patterns) is Judgment.CORRECT


def generate_quality_cases(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    *,
    scorer: GrammarScorer,
    limit: int = DEFAULT_LIMIT,
) -> tuple[list[TrainingCase], list[TrainingCase]]:
    """(conjunctive cases, phrasal cases) from single-query runs."""
    conj_cases, phrasal_cases = [], []
    for item in dataset:
        question = item.parsed
        for rewrite in question.rewrites:
            label = _correct(Run(question, [rewrite], provider, limit).compose(1), item)
            if rewrite.kind is RewriteKind.CONJUNCTIVE:
                conj_cases.append(TrainingCase(conjunctive_features(rewrite), label))
            else:
                phrasal_cases.append(TrainingCase(phrasal_features(rewrite, scorer), label))
    return conj_cases, phrasal_cases


def generate_threshold_cases(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    conj_tree: DecisionTree,
    phrasal_tree: DecisionTree,
    *,
    scorer: GrammarScorer,
    limit: int = DEFAULT_LIMIT,
) -> dict[int, list[TrainingCase]]:
    """Budget-capped runs at every training threshold over quality-ordered
    rewrites, each case carrying the run features of the controller's probe.

    Each question gets one run, so every ordered rewrite is executed once
    and each distinct prefix composed once, no matter how many thresholds
    are trained.
    """
    policy = CostBenefit()
    models = ModelSet(conjunctive=conj_tree, phrasal=phrasal_tree, scorer=scorer)
    cases: dict[int, list[TrainingCase]] = {n: [] for n in DEFAULT_THRESHOLDS}
    for item in dataset:
        question = item.parsed
        run = Run(question, policy.select(question, models, 0), provider, limit)
        probe_features = run.features(PROBE_SIZE)
        for n in DEFAULT_THRESHOLDS:
            cases[n].append(TrainingCase(probe_features, _correct(run.compose(n), item)))
    return cases


def train_models(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    *,
    scorer: GrammarScorer,
    limit: int = DEFAULT_LIMIT,
) -> ModelSet:
    """Both learning phases end to end: quality models, then the ensemble."""
    conj_cases, phrasal_cases = generate_quality_cases(
        dataset, provider, scorer=scorer, limit=limit
    )
    conj_tree = train_tree(conj_cases)
    phrasal_tree = train_tree(phrasal_cases)
    threshold_cases = generate_threshold_cases(
        dataset,
        provider,
        conj_tree,
        phrasal_tree,
        scorer=scorer,
        limit=limit,
    )
    ensemble = train_threshold_ensemble(threshold_cases)
    return ModelSet(
        conjunctive=conj_tree, phrasal=phrasal_tree, ensemble=ensemble, scorer=scorer
    )

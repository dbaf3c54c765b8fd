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

import json
from typing import Sequence

# compose_answers and extract_run_features are no longer called here (the
# Run calls them); perfbench/spans.py still binds both names in this module.
from .compose import compose_answers  # noqa: F401
from .control import DEFAULT_PROBE_SIZE, CostBenefit, Run
from .errors import DatasetParseError
from .evaluation import Judgment, QAItem, judge
from .models import (
    DEFAULT_THRESHOLDS,
    ModelSet,
    extract_run_features,  # noqa: F401
    train_threshold_ensemble,
)
from .rewrite import (
    GrammarScorer,
    Question,
    RewriteKind,
    conjunctive_features,
    generate_rewrites,
    phrasal_features,
)
from .search import DEFAULT_LIMIT, SearchProvider
from .tree import DecisionTree, TrainingCase, TreeConfig, train_tree


def _correct(answers, item: QAItem) -> bool:
    top = answers[0].text if answers else None
    return judge(top, item.patterns) is Judgment.CORRECT


def generate_quality_cases(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    *,
    scorer: GrammarScorer | None = None,
    limit: int = DEFAULT_LIMIT,
) -> tuple[list[TrainingCase], list[TrainingCase]]:
    """(conjunctive cases, phrasal cases) from single-query runs."""
    conj_cases, phrasal_cases = [], []
    for item in dataset:
        question = Question.from_text(item.question)
        for rewrite in generate_rewrites(question):
            label = _correct(Run(question, [rewrite], provider, limit).compose(1), item)
            if rewrite.kind is RewriteKind.CONJUNCTIVE:
                conj_cases.append(
                    TrainingCase(conjunctive_features(rewrite).as_features(), label)
                )
            else:
                phrasal_cases.append(
                    TrainingCase(phrasal_features(rewrite, scorer).as_features(), label)
                )
    return conj_cases, phrasal_cases


def generate_threshold_cases(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    conj_tree: DecisionTree,
    phrasal_tree: DecisionTree,
    *,
    scorer: GrammarScorer | None = None,
    thresholds: Sequence[int] = DEFAULT_THRESHOLDS,
    probe_size: int = DEFAULT_PROBE_SIZE,
    limit: int = DEFAULT_LIMIT,
) -> dict[int, list[TrainingCase]]:
    """Budget-capped runs per threshold over quality-ordered rewrites.

    Each question gets one run, so every ordered rewrite is executed once
    and each distinct prefix composed once, no matter how many thresholds
    are trained.
    """
    policy = CostBenefit(probe_size=probe_size)
    models = ModelSet(conjunctive=conj_tree, phrasal=phrasal_tree, scorer=scorer)
    cases: dict[int, list[TrainingCase]] = {n: [] for n in thresholds}
    for item in dataset:
        question = Question.from_text(item.question)
        run = Run(question, policy.select(generate_rewrites(question), models, 0), provider, limit)
        probe_features = run.features(probe_size).as_features()
        for n in thresholds:
            cases[n].append(TrainingCase(probe_features, _correct(run.compose(n), item)))
    return cases


def train_models(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    *,
    scorer: GrammarScorer | None = None,
    tree_cfg: TreeConfig | None = None,
    thresholds: Sequence[int] = DEFAULT_THRESHOLDS,
    probe_size: int = DEFAULT_PROBE_SIZE,
    limit: int = DEFAULT_LIMIT,
) -> ModelSet:
    """Both learning phases end to end: quality models, then the ensemble."""
    conj_cases, phrasal_cases = generate_quality_cases(
        dataset, provider, scorer=scorer, limit=limit
    )
    conj_tree = train_tree(conj_cases, tree_cfg)
    phrasal_tree = train_tree(phrasal_cases, tree_cfg)
    threshold_cases = generate_threshold_cases(
        dataset,
        provider,
        conj_tree,
        phrasal_tree,
        scorer=scorer,
        thresholds=thresholds,
        probe_size=probe_size,
        limit=limit,
    )
    ensemble = train_threshold_ensemble(threshold_cases, tree_cfg, thresholds)
    return ModelSet(
        conjunctive=conj_tree, phrasal=phrasal_tree, ensemble=ensemble, scorer=scorer
    )


# --------------------------------------------------------------------------
# Runs files: the on-disk form consumed by the train CLI command.


def write_quality_runs(
    conj_cases: Sequence[TrainingCase], phrasal_cases: Sequence[TrainingCase], path: str
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for kind, cases in (("conjunctive", conj_cases), ("phrasal", phrasal_cases)):
            for case in cases:
                fh.write(
                    json.dumps(
                        {"kind": kind, "features": dict(case.features), "label": case.label}
                    )
                    + "\n"
                )


def write_threshold_runs(cases: dict[int, Sequence[TrainingCase]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for n in sorted(cases):
            for case in cases[n]:
                fh.write(
                    json.dumps(
                        {
                            "threshold": n,
                            "features": dict(case.features),
                            "label": case.label,
                        }
                    )
                    + "\n"
                )


def read_quality_runs(path: str, kind: str) -> list[TrainingCase]:
    cases = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetParseError(f"bad runs record: {exc}", line_no) from exc
            if row.get("kind") == kind:
                cases.append(TrainingCase(row["features"], bool(row["label"])))
    return cases


def read_threshold_runs(path: str) -> dict[int, list[TrainingCase]]:
    cases: dict[int, list[TrainingCase]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                n = int(row["threshold"])
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise DatasetParseError(f"bad runs record: {exc}", line_no) from exc
            cases.setdefault(n, []).append(TrainingCase(row["features"], bool(row["label"])))
    return cases

"""Dataset loading, answer judging, policy evaluation and sweep reports.

Datasets follow the TREC style: a question plus answer patterns (regular
expressions). An answer is correct when the top-ranked candidate matches
any pattern, case-insensitively and in full after trimming; abstentions are
counted separately and never as correct.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from typing import Sequence

from .control import (
    CostBenefit,
    Policy,
    Preferences,
    RandomN,
    LikelihoodN,
    run_policy,
)
from .errors import DatasetParseError
from .models import DEFAULT_THRESHOLDS, ModelSet
from .rewrite import Question
from .search import DEFAULT_LIMIT, SearchProvider


@dataclass(frozen=True)
class QAItem:
    """A question and its answer patterns.

    ``parsed``, the question's ``Question``, is parsed on first use and kept
    for the item's lifetime; with the rewrites that ``Question`` keeps, every
    evaluation of the item reuses one parse and one set of rewrites. It is
    not a field, so equality, hashing and ``dataclasses.replace`` ignore it.
    """

    question: str
    patterns: tuple[re.Pattern, ...]

    @cached_property
    def parsed(self) -> Question:
        return Question.from_text(self.question)

    @classmethod
    def make(cls, question: str, patterns: Sequence[str]) -> "QAItem":
        if not patterns:
            raise DatasetParseError("item needs at least one answer pattern")
        return cls(
            question=question,
            patterns=tuple(re.compile(p, re.IGNORECASE) for p in patterns),
        )


class Judgment(Enum):
    CORRECT = "correct"
    INCORRECT = "incorrect"
    ABSTAINED = "abstained"


def judge(top_answer: str | None, patterns: Sequence[re.Pattern]) -> Judgment:
    """CORRECT iff the answer full-matches any pattern after trimming."""
    if top_answer is None:
        return Judgment.ABSTAINED
    trimmed = top_answer.strip()
    for pattern in patterns:
        if pattern.fullmatch(trimmed):
            return Judgment.CORRECT
    return Judgment.INCORRECT


def load_dataset(path: str) -> list[QAItem]:
    """One JSON object per line: {"question": ..., "patterns": [...]}, where
    ``patterns`` is a list of strings. Any other ``patterns`` (a bare
    string would become one regex per character) raises
    ``DatasetParseError`` with the line number."""
    items = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                patterns = row["patterns"]
                if not isinstance(patterns, list) or not all(isinstance(p, str) for p in patterns):
                    raise DatasetParseError("patterns must be a JSON list of strings")
                items.append(QAItem.make(str(row["question"]), patterns))
            except DatasetParseError as exc:
                raise DatasetParseError(str(exc), line_no) from exc
            except (json.JSONDecodeError, KeyError, TypeError, re.error) as exc:
                raise DatasetParseError(f"bad dataset record: {exc}", line_no) from exc
    return items


def dump_dataset(items: Sequence[QAItem], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(
                json.dumps(
                    {"question": item.question, "patterns": [p.pattern for p in item.patterns]}
                )
                + "\n"
            )


@dataclass
class QuestionRecord:
    question: str
    judgment: Judgment
    queries_issued: int
    top_answer: str | None
    error: str | None = None


@dataclass
class Report:
    policy: str
    total_questions: int
    correct: int
    incorrect: int
    abstained: int
    total_cost: int
    per_question: list[QuestionRecord] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total_questions if self.total_questions else 0.0

    def check_accounting(self) -> None:
        if self.correct + self.incorrect + self.abstained != self.total_questions:
            raise RuntimeError("report accounting identity violated")
        if self.total_cost != sum(r.queries_issued for r in self.per_question):
            raise RuntimeError("report cost does not match per-question queries")

    def to_json(self) -> dict:
        return {
            "policy": self.policy,
            "total_questions": self.total_questions,
            "correct": self.correct,
            "incorrect": self.incorrect,
            "abstained": self.abstained,
            "total_cost": self.total_cost,
            "accuracy": self.accuracy,
        }


def evaluate(
    policy: Policy,
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    models: ModelSet | None = None,
    prefs: Preferences | None = None,
    *,
    limit: int = DEFAULT_LIMIT,
    jobs: int = 1,
    label: str | None = None,
) -> Report:
    """Run the policy over every question, judge and aggregate.

    Failed rewrites are recorded per question (the pipeline continues on the
    remaining rewrites) and the evaluation run always continues. Records
    keep dataset order, so parallel execution does not change the report.
    """

    def one(idx: int, item: QAItem) -> QuestionRecord:
        result = run_policy(
            policy,
            item.parsed,
            provider,
            models,
            prefs,
            limit=limit,
            question_index=idx,
        )
        return QuestionRecord(
            question=item.question,
            judgment=judge(result.top_answer, item.patterns),
            queries_issued=result.queries_issued,
            top_answer=result.top_answer,
            error="; ".join(result.backend_errors) or None,
        )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(one, range(len(dataset)), dataset))
    else:
        records = [one(idx, item) for idx, item in enumerate(dataset)]

    report = Report(
        policy=label or policy.name,
        total_questions=len(records),
        correct=sum(1 for r in records if r.judgment is Judgment.CORRECT),
        incorrect=sum(1 for r in records if r.judgment is Judgment.INCORRECT),
        abstained=sum(1 for r in records if r.judgment is Judgment.ABSTAINED),
        total_cost=sum(r.queries_issued for r in records),
        per_question=records,
    )
    report.check_accounting()
    return report


# --------------------------------------------------------------------------
# Sweeps


def sweep_k(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    models: ModelSet,
    ks: Sequence[float],
    c: float = 1.0,
    *,
    limit: int = DEFAULT_LIMIT,
    jobs: int = 1,
) -> list[tuple[float, Report]]:
    """Cost-benefit evaluation at several answer values k."""
    out = []
    for k in ks:
        report = evaluate(
            CostBenefit(),
            dataset,
            provider,
            models,
            Preferences(k=k, c=c),
            limit=limit,
            jobs=jobs,
            label=f"cost_benefit_k{k:g}",
        )
        out.append((k, report))
    return out


def sweep_n(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    models: ModelSet,
    seeds: Sequence[int] = (0,),
    *,
    limit: int = DEFAULT_LIMIT,
    jobs: int = 1,
) -> list[dict]:
    """Fixed-budget comparison: random order vs likelihood order at every
    training threshold N.

    Random-order correctness is averaged over the given seeds; cost is the
    same for both orders at a given N (same number of submissions), and a
    report whose cost is not the sum of min(N, rewrites) over the questions
    raises ``RuntimeError``. Each order walks every N in ascending order
    before the next order starts (each seed's random order, then the
    likelihood order), so a question's consecutive runs share its
    remembered order and, once N covers all its rewrites, its composition.
    """
    if not seeds:
        raise ValueError("sweep_n needs at least one random-order seed")

    def walk(policy_at) -> list[tuple[int, int]]:
        """(correct, total_cost) at each threshold, in ascending order."""
        out = []
        for n in DEFAULT_THRESHOLDS:
            report = evaluate(policy_at(n), dataset, provider, models, limit=limit, jobs=jobs)
            out.append((report.correct, report.total_cost))
        return out

    random_walks = [walk(partial(RandomN, seed=seed)) for seed in seeds]
    likelihood_walk = walk(LikelihoodN)
    rows = []
    for i, n in enumerate(DEFAULT_THRESHOLDS):
        correct, cost = likelihood_walk[i]
        expected = sum(min(n, len(item.parsed.rewrites)) for item in dataset)
        if any(w[i][1] != cost for w in random_walks) or cost != expected:
            raise RuntimeError(f"N sweep cost at N={n} is not {expected} for every order")
        rows.append(
            {
                "n": n,
                "total_cost": cost,
                "random_correct": sum(w[i][0] for w in random_walks) / len(random_walks),
                "likelihood_correct": correct,
            }
        )
    return rows


def render_reports(reports: Sequence[Report]) -> str:
    """Aligned text table over whole-policy reports."""
    headers = ["policy", "cost", "correct", "incorrect", "abstained", "total", "accuracy"]
    rows = [
        [
            r.policy,
            str(r.total_cost),
            str(r.correct),
            str(r.incorrect),
            str(r.abstained),
            str(r.total_questions),
            f"{r.accuracy:.3f}",
        ]
        for r in reports
    ]
    return _render_table(headers, rows)


def render_n_sweep(rows: Sequence[dict]) -> str:
    headers = ["max rewrites (N)", "total cost", "correct (random)", "correct (likelihood)"]
    body = [
        [
            str(row["n"]),
            str(row["total_cost"]),
            f"{row['random_correct']:.1f}",
            str(row["likelihood_correct"]),
        ]
        for row in rows
    ]
    return _render_table(headers, body)


def render_k_sweep(results: Sequence[tuple[float, Report]]) -> str:
    headers = ["answer value (k)", "cost", "correct", "abstained"]
    body = [
        [f"{k:g}", str(r.total_cost), str(r.correct), str(r.abstained)]
        for k, r in results
    ]
    return _render_table(headers, body)


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def write_reports_jsonl(reports: Sequence[Report], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for report in reports:
            fh.write(json.dumps(report.to_json()) + "\n")

"""Dataset loading, answer judging, policy evaluation and sweep reports.

Datasets follow the TREC style: a question plus answer patterns (regular
expressions). An answer is correct when the top-ranked candidate matches
any pattern, case-insensitively and in full after trimming; abstentions are
counted separately and never as correct.

A ``QAItem`` keeps its patterns as strings and compiles them the first time
``patterns`` is read, so generating or writing a dataset compiles nothing
and an item that is never judged is never compiled. ``QAItem.make`` does not
validate the patterns; ``load_dataset`` compiles each item's as it reads
them, so a bad regex in a file fails at load with its line number.

Replays judge the same answers again and again (the experiment script
evaluates each held-out question 85 times), so a ``QAItem`` remembers its
verdict per top answer and ``evaluate`` and training judge through it:
each distinct answer of an item is matched against its patterns once.

``reproduce`` runs the paper's experiments in one fixed sequence (the N
sweep, the policy comparison, the k sweep); the experiment script and the
golden tests call it. Dataset files are read and written through
``search.read_jsonl`` and ``search.write_jsonl``, the one JSON-lines reader
and writer, which this module re-exports for the script's reports and
``evaluate --out``.
"""

from __future__ import annotations

import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Sequence

from .control import (
    AllRewrites,
    ConjunctiveOnly,
    CostBenefit,
    Policy,
    Preferences,
    RandomN,
    LikelihoodN,
    run_policy,
)
from .errors import DatasetParseError, EmptyQuestion
from .models import DEFAULT_THRESHOLDS, ModelSet
from .rewrite import Question
from .search import SearchProvider, read_jsonl, write_jsonl


@dataclass(frozen=True)
class QAItem:
    """A question and its answer patterns.

    ``pattern_texts`` holds the patterns as written; ``patterns``, their
    case-insensitive regexes, is compiled on first use and kept, so an item
    that is never judged is never compiled. ``make`` does not check that the
    strings compile; ``load_dataset`` does, per line.
    ``parsed``, the question's ``Question``, is parsed on first use and kept
    for the item's lifetime; with the rewrites that ``Question`` keeps, every
    evaluation of the item reuses one parse and one set of rewrites.
    Neither ``patterns`` nor ``parsed`` is a field, so equality, hashing
    and ``dataclasses.replace`` ignore them. ``verdicts`` maps each top answer
    ``verdict`` was asked about to its ``judge`` judgment; it is a declared
    field that equality, hashing and ``repr`` ignore, and
    ``dataclasses.replace`` starts it empty.
    """

    question: str
    pattern_texts: tuple[str, ...]
    verdicts: dict[str | None, Judgment] = field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def patterns(self) -> tuple[re.Pattern, ...]:
        return tuple(re.compile(p, re.IGNORECASE) for p in self.pattern_texts)

    @cached_property
    def parsed(self) -> Question:
        return Question.from_text(self.question)

    def verdict(self, top_answer: str | None) -> Judgment:
        """``judge(top_answer, self.patterns)``, judged once per answer.
        Threads may share an item: two that miss at once store equal
        judgments."""
        judgment = self.verdicts.get(top_answer)
        if judgment is None:
            judgment = self.verdicts[top_answer] = judge(top_answer, self.patterns)
        return judgment

    @classmethod
    def make(cls, question: str, patterns: Sequence[str]) -> "QAItem":
        if not patterns:
            raise DatasetParseError("item needs at least one answer pattern")
        return cls(question=question, pattern_texts=tuple(patterns))


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


def _item(row) -> QAItem:
    if not isinstance(question := row["question"], str):
        raise DatasetParseError(f"question is not a JSON string: {question!r}")
    patterns = row["patterns"]
    if not isinstance(patterns, list) or not all(isinstance(p, str) for p in patterns):
        raise DatasetParseError("patterns must be a JSON list of strings")
    item = QAItem.make(question, patterns)
    item.parsed  # parsed now, so a question with no word tokens fails here
    item.patterns  # compiled now, so a bad regex fails here
    return item


def load_dataset(path: str) -> list[QAItem]:
    """One JSON object per line: {"question": ..., "patterns": [...]}, where
    ``question`` is a string and ``patterns`` a list of strings. Any other
    ``question`` or ``patterns`` (a bare string would become one regex per
    character), a pattern that does not compile, or a question with no word
    tokens, raises ``DatasetParseError`` with the line number, before any
    query is issued; so does a file with no items ("dataset is empty"),
    which no command can train on or evaluate."""
    if not (items := read_jsonl(path, "dataset", _item, (re.error, EmptyQuestion))):
        raise DatasetParseError("dataset is empty")
    return items


def dump_dataset(items: Sequence[QAItem], path: str) -> None:
    rows = ({"question": item.question, "patterns": list(item.pattern_texts)} for item in items)
    write_jsonl(rows, path)


@dataclass(slots=True)
class QuestionRecord:
    question: str
    judgment: Judgment
    queries_issued: int
    top_answer: str | None
    error: str | None = None  # the failed queries' messages, joined
    failed: int = 0  # failed queries, each also counted as issued


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
    jobs: int = 1,
    label: str | None = None,
) -> Report:
    """Run the policy over every question, judge and aggregate.

    Failed rewrites are recorded per question (the pipeline continues on the
    remaining rewrites) and the evaluation run always continues. Records
    keep dataset order, so parallel execution does not change the report.
    """

    def one(idx: int, item: QAItem) -> QuestionRecord:
        result = run_policy(policy, item.parsed, provider, models, prefs, question_index=idx)
        top = result.top_answer
        return QuestionRecord(
            item.question, item.verdict(top), result.queries_issued, top,
            "; ".join(result.backend_errors) or None, len(result.backend_errors),
        )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(one, range(len(dataset)), dataset))
    else:
        records = [one(idx, item) for idx, item in enumerate(dataset)]

    judged = Counter(r.judgment for r in records)
    report = Report(
        policy=label or policy.name,
        total_questions=len(records),
        correct=judged[Judgment.CORRECT],
        incorrect=judged[Judgment.INCORRECT],
        abstained=judged[Judgment.ABSTAINED],
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
    jobs: int = 1,
    reports: list[Report] | None = None,
) -> list[dict]:
    """Fixed-budget comparison: random order vs likelihood order at every
    training threshold N.

    Random-order correctness is averaged over the given seeds; cost is the
    same for both orders at a given N (same number of submissions), and a
    report whose cost is not the sum of min(N, rewrites) over the questions
    raises ``RuntimeError``. Runs reuse the orders and compositions their
    questions remember (see ``control.py``). Each report the sweep makes is
    appended to ``reports`` when one is given.
    """
    if not seeds:
        raise ValueError("sweep_n needs at least one random-order seed")

    rows = []
    for n in DEFAULT_THRESHOLDS:
        randoms = [
            evaluate(RandomN(n, seed=seed), dataset, provider, models, jobs=jobs)
            for seed in seeds
        ]
        likelihood = evaluate(LikelihoodN(n), dataset, provider, models, jobs=jobs)
        if reports is not None:
            reports += randoms + [likelihood]
        cost = likelihood.total_cost
        expected = sum(min(n, len(item.parsed.rewrites)) for item in dataset)
        if any(r.total_cost != cost for r in randoms) or cost != expected:
            raise RuntimeError(f"N sweep cost at N={n} is not {expected} for every order")
        rows.append(
            {
                "n": n,
                "total_cost": cost,
                "random_correct": sum(r.correct for r in randoms) / len(randoms),
                "likelihood_correct": likelihood.correct,
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


# --------------------------------------------------------------------------
# The paper's experiments

K_SWEEP = (5.0, 10.0, 15.0, 20.0)


class Experiment(NamedTuple):
    """The rows and reports behind the experiments' three tables."""

    n_rows: list[dict]
    reports: list[Report]
    k_results: list[tuple[float, Report]]

    def tables(self) -> tuple[str, str, str]:
        return render_n_sweep(self.n_rows), render_reports(self.reports), render_k_sweep(self.k_results)


def reproduce(
    dataset: Sequence[QAItem],
    provider: SearchProvider,
    models: ModelSet,
    prefs: Preferences,
    seeds: Sequence[int],
) -> Experiment:
    """The experiments on held-out questions: the fixed-budget N sweep over
    ``seeds``, the policy comparison (conjunctive-only, cost-benefit at
    ``prefs``, all rewrites) and the cost-benefit sweep over ``K_SWEEP``.

    The steps run in this order, and a question's remembered orders and
    compositions carry from one step into the next.
    """
    n_rows = sweep_n(dataset, provider, models, seeds=seeds)
    reports = [
        evaluate(ConjunctiveOnly(), dataset, provider, models),
        evaluate(CostBenefit(), dataset, provider, models, prefs,
                 label=f"cost_benefit_k{prefs.k:g}_c{prefs.c:g}"),
        evaluate(AllRewrites(), dataset, provider, models),
    ]
    return Experiment(n_rows, reports, sweep_k(dataset, provider, models, K_SWEEP, prefs.c))

"""Query-budget control: the budgeted run, expected-value computation, the
submit/abstain decision, and the runnable querying policies.

A ``Run`` is the one code path that executes queries. It holds a question's
rewrites in submission order, executes each at most once, records a backend
failure on its rewrite without aborting the question, and composes any
prefix from a single mining that also yields the prefix's run features.
The rewrites a prefix still lacks (the probe, the extension after the
budget choice, or a fixed policy's whole selection) are independent
queries, so a provider with an ``execute_many`` method, such as the remote
one, receives them as one concurrent batch; the per-query cost and every
decision stay the same, only the wall time shrinks. Every batch of a run
tells the provider when the run's first batch started, so a provider's
deadline bounds the whole question.
Serving (``run_policy``) and training (``harness``) both go through it, so
the threshold models learn from exactly the evidence, filters and error
handling the controller sees.

A question replayed under one order at growing budgets (the N sweep) repeats
work from one run to the next, so each ``Question`` remembers what its runs
produced (``Question.last``): its latest selection order, keyed by what
fixes it (the ``ModelSet`` object for quality order, the seed and question
index for a random shuffle), and per prefix length the latest composition,
keyed by its evidence, the prefix's (weight, snippets) pairs. Orders,
snippets and compositions are tuples, so runs share them. Keying by the
evidence, not the rewrites, keeps a question run against two providers
from mixing their results; one slot per length lets a cost-benefit run's
probe and its chosen budget, and the policy comparison and the k sweep,
reuse the likelihood walk's compositions.

The controller values a correct answer at v = k * c (k times the cost of a
single query) and the value of no valid answer at zero, so submitting n
queries with predicted success probability p has net expected value
p * k * c - n * c. The best budget is the threshold with the highest net;
when every threshold nets below zero the controller abstains and asks for a
reformulation instead of querying.

Every policy is a selection of rewrites in submission order plus a budget.
The fixed policies submit their whole selection. Because run features only
exist after some querying, the cost-benefit policy first runs a bounded
probe (the top quality-ordered rewrites), computes run features from the
probe's prefix, and only then picks the total budget. Probe queries are
charged and count toward n, even when the chosen n is below the probe size.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .compose import Candidates, NGramCandidate, compose_answers
from .errors import ProviderError, RetryableError
from .models import PROBE_SIZE, ModelSet, extract_run_features
# generate_rewrites is no longer called here (a Question generates its own
# rewrites once); perfbench/spans.py still binds the name in this module.
from .rewrite import Question, Rewrite, RewriteKind, generate_rewrites  # noqa: F401
from .search import DEFAULT_LIMIT, SearchProvider, Snippet
from .tree import FeatureValue


@dataclass(frozen=True)
class Preferences:
    """k: answer value as a multiple of per-query cost c."""

    k: float
    c: float

    def __post_init__(self):
        if self.k <= 0 or self.c <= 0:
            raise ValueError("preferences require k > 0 and c > 0")


def net_expected_value(p: float, n: int, prefs: Preferences) -> float:
    """p * k * c - n * c for submitting n queries with success probability p."""
    return p * prefs.k * prefs.c - n * prefs.c


@dataclass(frozen=True)
class BudgetDecision:
    """Outcome of the budget choice: submit ``n`` rewrites, or abstain.

    ``n`` is None on abstention, in which case every per-threshold net is
    negative and ``expected_net`` is 0.0 (the value of doing nothing).
    """

    n: int | None
    expected_net: float
    per_threshold_net: dict[int, float]

    @property
    def abstained(self) -> bool:
        return self.n is None


def choose_n(
    ensemble,
    features: Mapping[str, FeatureValue],
    prefs: Preferences,
) -> BudgetDecision:
    """Evaluate the net expected value at every threshold the ensemble was
    trained for and pick the best.

    Ties go to the smallest (cheapest) n. If all nets are negative the
    decision is to abstain.
    """
    nets = {
        n: net_expected_value(ensemble.predict(n, features), n, prefs) for n in ensemble.thresholds
    }
    best_n = min(nets, key=lambda n: (-nets[n], n))
    if nets[best_n] < 0:
        return BudgetDecision(n=None, expected_net=0.0, per_threshold_net=nets)
    return BudgetDecision(n=best_n, expected_net=nets[best_n], per_threshold_net=nets)


# --------------------------------------------------------------------------
# The budgeted run


@dataclass(frozen=True)
class QuestionResult:
    """A run's outcome. An abstention has no answers."""

    answers: tuple[NGramCandidate, ...]
    queries_issued: int
    decision: BudgetDecision | None = None
    rewrites_used: tuple[Rewrite, ...] = ()
    backend_errors: tuple[str, ...] = ()

    @property
    def abstained(self) -> bool:
        return self.decision is not None and self.decision.abstained

    @property
    def top_answer(self) -> str | None:
        return self.answers[0].text if self.answers else None


class Run:
    """One question's rewrites in submission order, each executed at most once.

    Rewrites execute on demand when a prefix is composed: one at a time
    through ``execute``, or, when the provider has ``execute_many``, as one
    batch, even of one rewrite. The first batch's start time goes with every
    batch of the run as ``started``, so the provider's deadline bounds the
    whole question. Outcomes are recorded in submission order either way.
    Each executed rewrite's snippets stay apart, which is how composition
    and run features know the rewrite behind every snippet. A backend
    failure (``RetryableError`` or ``ProviderError``) is recorded on its
    rewrite, which then contributes no snippets; it never aborts the
    question, and the failed query still counts as issued. Any other exception propagates after the outcomes
    before it are recorded, as it would from serial calls.
    """

    def __init__(
        self, question: Question, rewrites: tuple[Rewrite, ...], provider: SearchProvider, limit: int
    ):
        self.question = question
        self.rewrites = rewrites
        self.provider = provider
        self.limit = limit
        self.snippets: list[Sequence[Snippet]] = []  # per executed rewrite
        self.errors: list[str] = []
        self.started: float | None = None  # time.monotonic() instant of the first batch

    @property
    def issued(self) -> int:
        return len(self.snippets)

    def _execute(self, n: int) -> None:
        pending = self.rewrites[len(self.snippets) : n]
        if not pending:
            return
        batch = getattr(self.provider, "execute_many", None)
        if batch is None:
            outcomes = map(self._attempt, pending)
        else:
            if self.started is None:
                self.started = time.monotonic()
            outcomes = batch(pending, self.limit, started=self.started)
        for rewrite, found in zip(pending, outcomes):
            if isinstance(found, (RetryableError, ProviderError)):
                self.errors.append(f"{rewrite.as_query()}: {found}")
                found = ()
            elif isinstance(found, BaseException):
                raise found
            self.snippets.append(found)

    def _attempt(self, rewrite: Rewrite) -> Sequence[Snippet] | BaseException:
        try:
            return self.provider.execute(rewrite, self.limit)
        except (RetryableError, ProviderError) as exc:
            return exc

    def compose(self, n: int) -> Candidates:
        """Ranked answers from the first n rewrites (capped at the run's
        length), executing any not yet run. When the prefix has the evidence
        of the question's latest composition of that length, that
        composition itself is returned; otherwise the prefix is composed
        and becomes the latest."""
        n = min(n, len(self.rewrites))
        self._execute(n)
        evidence = [(r.weight, found) for r, found in zip(self.rewrites, self.snippets[:n])]
        slots = self.question.last.composition
        last = slots.get(n)  # read once: threads may replace it
        if last is not None and last[0] == evidence:
            return last[1]
        composed = compose_answers(evidence, self.question.qtype, exclude=self.question.token_keys)
        slots[n] = (evidence, composed)
        return composed

    def features(self, n: int) -> dict[str, FeatureValue]:
        """Run features of the first n rewrites, from that prefix's mining.
        The schema is fixed, so every run, even a one-rewrite one, has the
        keys the threshold trees were trained on."""
        n = min(n, len(self.rewrites))
        answers = self.compose(n)
        return extract_run_features(
            self.question, list(zip(self.rewrites, self.snippets[:n])), answers
        )

    def result(self, n: int, decision: BudgetDecision | None = None) -> QuestionResult:
        """Answer from the first n rewrites, or, when the decision is to
        abstain, report the n rewrites it was taken on. Rewrites already
        executed past n (a probe larger than the budget) stay charged."""
        abstained = decision is not None and decision.abstained
        return QuestionResult(
            answers=() if abstained else self.compose(n),
            queries_issued=self.issued,
            decision=decision,
            rewrites_used=self.rewrites[:n],
            backend_errors=tuple(self.errors),
        )


# --------------------------------------------------------------------------
# Policies: each selects the rewrites to submit, in order, and plays a Run
# over them.


def _quality_order(question: Question, models: ModelSet | None) -> tuple[Rewrite, ...]:
    """The question's rewrites in ``models``' quality order, remembered in
    its order slot under the model set itself."""
    if models is None:
        raise ValueError("this policy orders rewrites by quality and requires quality models")
    last = question.last.order
    if last is None or last[0] is not models:
        last = question.last.order = (models, models.order(question.rewrites))
    return last[1]


class _SubmitAll:
    """Fixed budget: the selection itself is the budget."""

    def play(self, run: Run, models, prefs) -> QuestionResult:
        return run.result(len(run.rewrites))


@dataclass(frozen=True)
class RandomN(_SubmitAll):
    """Uniform sample of n rewrites: the first n of a seeded shuffle, so the
    selection for a fixed seed is nested as n grows."""

    n: int
    seed: int = 0

    @property
    def name(self) -> str:
        return f"random_{self.n}"

    def select(self, question: Question, models, question_index: int) -> tuple[Rewrite, ...]:
        key = (self.seed, question_index)
        last = question.last.order
        if last is None or last[0] != key:
            order = list(question.rewrites)
            random.Random(self.seed * 1_000_003 + question_index).shuffle(order)
            last = question.last.order = (key, tuple(order))
        return last[1][: self.n]


@dataclass(frozen=True)
class LikelihoodN(_SubmitAll):
    """Top n rewrites by query-quality score."""

    n: int

    @property
    def name(self) -> str:
        return f"likelihood_{self.n}"

    def select(self, question: Question, models, question_index: int) -> tuple[Rewrite, ...]:
        return _quality_order(question, models)[: self.n]


@dataclass(frozen=True)
class ConjunctiveOnly(_SubmitAll):
    """Submit only the conjunctive back-off rewrite."""

    name = "conjunctive_only"

    def select(self, question: Question, models, question_index: int) -> tuple[Rewrite, ...]:
        return tuple(r for r in question.rewrites if r.kind is RewriteKind.CONJUNCTIVE)


@dataclass(frozen=True)
class AllRewrites(_SubmitAll):
    """Submit every rewrite (the uncontrolled legacy behavior)."""

    name = "all_rewrites"

    def select(self, question: Question, models, question_index: int) -> tuple[Rewrite, ...]:
        return question.rewrites


@dataclass(frozen=True)
class CostBenefit:
    """Probe, predict accuracy per budget, submit the argmax or abstain."""

    name = "cost_benefit"

    def select(self, question: Question, models, question_index: int) -> tuple[Rewrite, ...]:
        return _quality_order(question, models)

    def play(self, run: Run, models: ModelSet | None, prefs: Preferences | None) -> QuestionResult:
        if models is None or models.ensemble is None:
            raise ValueError("CostBenefit requires quality models and a threshold ensemble")
        if prefs is None:
            raise ValueError("CostBenefit requires preferences")
        decision = choose_n(models.ensemble, run.features(PROBE_SIZE), prefs)
        return run.result(PROBE_SIZE if decision.abstained else decision.n, decision)


Policy = Union[RandomN, LikelihoodN, ConjunctiveOnly, AllRewrites, CostBenefit]


def run_policy(
    policy: Policy,
    question: Question | str,
    provider: SearchProvider,
    models: ModelSet | None = None,
    prefs: Preferences | None = None,
    *,
    limit: int = DEFAULT_LIMIT,
    question_index: int = 0,
) -> QuestionResult:
    """Select rewrites per the policy, execute them, compose answers.

    ``queries_issued`` equals the number of provider execute calls made for
    this question. ``question_index`` only seeds RandomN selection so that a
    parallel evaluation stays reproducible. A ``Question`` keeps its
    rewrites and what its latest run produced, so pass one ``Question`` to
    run a question repeatedly.
    """
    if isinstance(question, str):
        question = Question.from_text(question)
    selection = policy.select(question, models, question_index)
    return policy.play(Run(question, selection, provider, limit), models, prefs)

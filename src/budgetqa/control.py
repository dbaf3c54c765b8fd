"""Query-budget control: the budgeted run, expected-value computation, the
submit/abstain decision, and the runnable querying policies.

A ``Run`` is the one code path that executes queries. It holds a question's
rewrites in submission order, executes each at most once, records every
outcome through one loop (a backend failure on its rewrite, without
aborting the question), and composes any prefix from a single mining that
also yields the prefix's run features.
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

A question replayed under several orders and budgets (the N sweep) repeats
work, so each ``Question`` remembers what its runs produced in two maps,
declared as its fields ``orders`` and ``compositions`` (equality, hashing
and ``repr`` ignore both, and ``dataclasses.replace`` starts them empty).
``orders`` maps what fixes a selection order (the ``ModelSet`` itself,
which hashes by identity, or a shuffle's seed and question index) to that
order. ``compositions`` maps the positions of a prefix's rewrites that
returned snippets, in submission order, to the (evidence, candidates) pair
composed from them; the evidence is those rewrites' (weight, snippets)
pairs, and a run records both as it executes, the positions as one key
per prefix length (``Run.keys``) that ``compose`` looks up directly. So a
prefix whose new rewrites all came back empty reuses the composition
before them, and two orders of the same rewrites are two keys, since
mining's ties follow the order. A ``Rewrite`` carries its ``position``
from ``generate_rewrites`` (None when built by hand), so copies key like
the question's own. A composition is reused only when its stored evidence
equals the run's, so two providers or two rewrites that share a key never
mix results, and a pair is replaced whole for threads sharing a question.
Orders and compositions are tuples, so runs share them. With one provider,
a question thus orders once per model set or shuffle and composes each
distinct ordered evidence once. No prediction is remembered: every
cost-benefit run predicts on its own probe.

The controller values a correct answer at k queries and no valid answer at
zero, so submitting n queries with predicted success probability p nets
p * k - n queries. The best budget is the threshold with the highest net,
the smallest on a tie; when every threshold nets below zero the controller
abstains and asks for a reformulation instead of querying. The cost c of one
query only converts those nets for reporting ((p * k - n) * c): scaling
every net by the same c changes no ranking, so no decision reads c.

Every policy is a selection of rewrites in submission order plus a budget.
The fixed policies submit their whole selection. Because run features only
exist after some querying, the cost-benefit policy first runs a bounded
probe (the top quality-ordered rewrites), reads the probe's run features
through ``Run.features(PROBE_SIZE)``, the one call that training's
threshold cases also make, and only then picks the total budget. Probe
queries are charged, and a run that does not abstain answers from
max(n, PROBE_SIZE) rewrites: a chosen n below the probe size has paid for
the whole probe, so the answer uses all of it. ``BudgetDecision.n`` stays
what the decision chose.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence, Union

from .compose import Candidates, NGramCandidate, compose_answers, frozen_setattr
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
        if problem := self.error("k", self.k) or self.error("c", self.c):
            raise ValueError(problem)

    @staticmethod
    def error(name: str, value: object) -> str | None:
        """Why ``value`` cannot be k or c (named ``name``): it must be a
        finite real number above 0. None if it can."""
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
            return f"{name} must be a positive finite number, not {value!r}"
        return None


@dataclass(frozen=True)
class BudgetDecision:
    """Outcome of the budget choice: submit ``n`` rewrites, or abstain.

    ``n`` is None on abstention, in which case every per-threshold net is
    negative and ``expected_net`` is 0.0 (the value of doing nothing).
    ``probabilities`` are the per-threshold success probabilities the
    decision ranked.
    """

    n: int | None
    expected_net: float
    per_threshold_net: dict[int, float]
    probabilities: Mapping[int, float]

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
    return decide(ensemble.predict_all(features), prefs)


def decide(probs: Mapping[int, float], prefs: Preferences) -> BudgetDecision:
    """``choose_n``'s decision from the per-threshold probabilities the
    ensemble predicted, in one pass: budgets rank on their nets in query
    units, and only the reported nets are scaled by c."""
    k, c = prefs.k, prefs.c
    nets, best_n, best = {}, None, -math.inf
    for n, p in sorted(probs.items()):  # ascending, so a tie keeps the smaller n
        nets[n] = (units := p * k - n) * c
        if units > best:
            best_n, best = n, units
    if best < 0:
        return BudgetDecision(n=None, expected_net=0.0, per_threshold_net=nets, probabilities=probs)
    return BudgetDecision(n=best_n, expected_net=nets[best_n], per_threshold_net=nets, probabilities=probs)


# --------------------------------------------------------------------------
# The budgeted run


class QuestionResult(NamedTuple):
    """A run's outcome. An abstention has no answers. Immutable: assigning
    an attribute raises ``dataclasses.FrozenInstanceError``."""

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

    __setattr__ = frozen_setattr


class Run:
    """One question's rewrites in submission order, each executed at most once.

    Rewrites execute on demand when a prefix is composed, each asking for
    ``search.DEFAULT_LIMIT`` snippets, the fixed depth the models were
    trained on. One loop records every executed rewrite's outcome, in
    submission order. Without ``execute_many`` it calls the provider's
    ``execute`` for each pending rewrite as it goes. A provider with
    ``execute_many`` gets the pending rewrites as one batch, even of one
    rewrite, and the loop reads the batch's outcomes in order; the first
    batch's start time goes with every batch of the run as ``started``, so
    the provider's deadline bounds the whole question.
    Each executed rewrite's snippets stay apart, which is how run features
    know the rewrite behind every snippet; those that returned snippets are
    also recorded as the evidence composition reads, and ``keys[i]`` holds
    their positions among the first i executed, the memo key ``compose``
    looks that prefix up under. A backend failure (``RetryableError`` or
    ``ProviderError``) is recorded on its rewrite, which then contributes
    no snippets; it never aborts the question, and the failed query still
    counts as issued. Any other exception propagates after the outcomes
    before it are recorded.
    """

    __slots__ = (
        "question", "rewrites", "provider", "snippets", "evidence", "keys", "errors", "started",
    )

    def __init__(
        self, question: Question, rewrites: tuple[Rewrite, ...], provider: SearchProvider
    ):
        self.question = question
        self.rewrites = rewrites
        self.provider = provider
        self.snippets: list[Sequence[Snippet]] = []  # per executed rewrite
        # The executed rewrites that returned snippets, in submission order:
        # their (weight, snippets) pairs, and per prefix length i the
        # positions of those among the first i executed.
        self.evidence: list[tuple[float, Sequence[Snippet]]] = []
        self.keys: list[tuple[int | None, ...]] = [()]
        self.errors: list[str] = []
        self.started: float | None = None  # time.monotonic() instant of the first batch

    def _execute(self, n: int) -> None:
        pending = self.rewrites[len(self.snippets) : n]
        if not pending:
            return
        snippets, evidence, keys = self.snippets, self.evidence, self.keys
        key = keys[-1]
        execute, batch = self.provider.execute, getattr(self.provider, "execute_many", None)
        if batch is not None:
            if self.started is None:
                self.started = time.monotonic()
            outcomes = iter(batch(pending, DEFAULT_LIMIT, started=self.started))
        for rewrite in pending:
            try:
                if batch is None:
                    found = execute(rewrite, DEFAULT_LIMIT)
                elif isinstance(found := next(outcomes), BaseException):
                    raise found
            except (RetryableError, ProviderError) as exc:
                self.errors.append(f"{rewrite.as_query()}: {exc}")
                found = ()
            snippets.append(found)
            if found:
                evidence.append((rewrite.weight, found))
                key += (rewrite.position,)
            keys.append(key)

    def compose(self, n: int) -> Candidates:
        """Ranked answers from the first n rewrites (capped at the run's
        length), executing any not yet run. Only the rewrites that returned
        snippets are evidence: mining skips an empty group before it touches
        anything, so leaving those out composes the same answers. A
        composition the question remembers for this evidence is returned
        itself (see the module docstring)."""
        n = min(n, len(self.rewrites))
        self._execute(n)
        key = self.keys[n]
        evidence = self.evidence[: len(key)]
        memo = self.question.compositions
        kept = memo.get(key)  # read once: threads may replace it
        if kept is not None and kept[0] == evidence:
            return kept[1]
        composed = compose_answers(evidence, self.question.qtype, exclude=self.question.token_keys)
        memo[key] = (evidence, composed)
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
        abstain, report the n rewrites it was taken on. Every rewrite
        executed stays charged; the cost-benefit policy never asks for
        fewer than it probed, so it answers from all it paid for."""
        abstained = decision is not None and decision.abstained
        answers = () if abstained else self.compose(n)
        return QuestionResult(
            answers, len(self.snippets), decision, self.rewrites[:n], tuple(self.errors)
        )


# --------------------------------------------------------------------------
# Policies: each selects the rewrites to submit, in order, and plays a Run
# over them.


def _quality_order(question: Question, models: ModelSet | None) -> tuple[Rewrite, ...]:
    """The question's rewrites in ``models``' quality order, remembered
    under the model set itself."""
    if models is None:
        raise ValueError("this policy orders rewrites by quality and requires quality models")
    order = question.orders.get(models)
    if order is None:
        order = question.orders[models] = models.order(question.rewrites)
    return order


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
        order = question.orders.get(key)
        if order is None:
            shuffled = list(question.rewrites)
            random.Random(self.seed * 1_000_003 + question_index).shuffle(shuffled)
            order = question.orders[key] = tuple(shuffled)
        return order[: self.n]


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
        decision = decide(models.ensemble.predict_all(run.features(PROBE_SIZE)), prefs)
        return run.result(PROBE_SIZE if decision.abstained else max(decision.n, PROBE_SIZE), decision)


Policy = Union[RandomN, LikelihoodN, ConjunctiveOnly, AllRewrites, CostBenefit]


def run_policy(
    policy: Policy,
    question: Question | str,
    provider: SearchProvider,
    models: ModelSet | None = None,
    prefs: Preferences | None = None,
    *,
    question_index: int = 0,
) -> QuestionResult:
    """Select rewrites per the policy, execute them, compose answers.

    ``queries_issued`` equals the number of provider execute calls made for
    this question. ``question_index`` only seeds RandomN selection so that a
    parallel evaluation stays reproducible. A ``Question`` keeps its
    rewrites and what its runs produced, so pass one ``Question`` to run a
    question repeatedly.
    """
    if isinstance(question, str):
        question = Question.from_text(question)
    selection = policy.select(question, models, question_index)
    return policy.play(Run(question, selection, provider), models, prefs)

"""Question analysis and query rewrite generation.

A question is turned into a weighted set of search-engine queries: several
exact-phrase rewrites built by moving the (auxiliary) verb through the
remaining tokens, one passive construction when the main verb looks like a
past participle, and a single conjunctive back-off that ANDs every question
word. Phrasal rewrites carry an answer slot marking the side on which the
answer text is expected to appear in matching documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Protocol

from .errors import WrongRewriteKind
from .text import AUXILIARIES, default_stopwords, token_key, tokenize

# A phrasal match is stronger evidence than a bag-of-words match, so
# phrasal rewrites must weigh more than the conjunctive back-off.
PHRASAL_WEIGHT = 5.0
CONJUNCTIVE_WEIGHT = 1.0
MAX_PHRASAL = 8


class QuestionType(Enum):
    WHO = "who"
    WHAT = "what"
    WHEN = "when"
    WHERE = "where"
    HOW_MANY = "how_many"
    HOW_LONG = "how_long"
    OTHER = "other"


class RewriteKind(Enum):
    PHRASAL = "phrasal"
    CONJUNCTIVE = "conjunctive"


class AnswerSlot(Enum):
    LEFT = "left"
    RIGHT = "right"
    NONE = "none"


class LastRun:
    """What a question's latest runs produced, kept for its next run (see
    ``control.py``): one selection ``order``, a (key, value) pair or None,
    and ``composition``, which maps a prefix length to the (evidence,
    candidates) pair of that length's latest composition, so it holds at
    most one per rewrite. A pair is replaced whole, so threads sharing a
    question always read a value with the key it was made from."""

    __slots__ = ("order", "composition")

    def __init__(self):
        self.order: tuple | None = None
        self.composition: dict[int, tuple] = {}


@dataclass(frozen=True)
class Question:
    """A parsed question.

    ``rewrites`` and ``token_keys`` are derived on first use and kept for the
    question's lifetime, so running one question again does not rewrite it
    again. ``last`` holds the selection order of its latest run, keyed by
    what fixed it, and one composition per prefix length, keyed by the
    evidence composed. A question holds one order and at most one
    composition per rewrite, and they go with it. None of the three is a
    field, so equality, hashing and ``dataclasses.replace`` ignore them.
    """

    raw_text: str
    tokens: tuple[str, ...]
    qtype: QuestionType

    @classmethod
    def from_text(cls, text: str) -> "Question":
        tokens = tuple(tokenize(text))
        return cls(raw_text=text, tokens=tokens, qtype=classify_tokens(tokens))

    @cached_property
    def token_keys(self) -> frozenset[str]:
        return frozenset(token_key(t) for t in self.tokens)

    @cached_property
    def rewrites(self) -> tuple[Rewrite, ...]:
        """``generate_rewrites(self)``, generated once."""
        return tuple(generate_rewrites(self))

    @cached_property
    def last(self) -> LastRun:
        return LastRun()


@dataclass(frozen=True)
class Rewrite:
    """One search-engine query derived from a question.

    ``parts`` is an ordered tuple of phrase strings. A phrasal rewrite has a
    single multi-word part; a conjunctive rewrite has one single-word part
    per term.
    """

    kind: RewriteKind
    parts: tuple[str, ...]
    answer_slot: AnswerSlot
    weight: float

    def as_query(self) -> str:
        """Serialize into engine query syntax: quoted phrases, bare terms."""
        rendered = []
        for part in self.parts:
            rendered.append(f'"{part}"' if " " in part else part)
        return " ".join(rendered)

    def all_words(self) -> list[str]:
        words: list[str] = []
        for part in self.parts:
            words.extend(part.split())
        return words


def classify_tokens(tokens: tuple[str, ...]) -> QuestionType:
    """Question type from the leading token(s)."""
    if not tokens:
        return QuestionType.OTHER
    head = token_key(tokens[0])
    if head == "who":
        return QuestionType.WHO
    if head == "when":
        return QuestionType.WHEN
    if head == "where":
        return QuestionType.WHERE
    if head == "what":
        return QuestionType.WHAT
    if head == "how" and len(tokens) > 1:
        second = token_key(tokens[1])
        if second == "many":
            return QuestionType.HOW_MANY
        if second == "long":
            return QuestionType.HOW_LONG
    return QuestionType.OTHER


_WH_STRIP = {
    QuestionType.WHO: 1,
    QuestionType.WHAT: 1,
    QuestionType.WHEN: 1,
    QuestionType.WHERE: 1,
    QuestionType.HOW_MANY: 2,
    QuestionType.HOW_LONG: 2,
    QuestionType.OTHER: 0,
}


def generate_rewrites(q: Question) -> list[Rewrite]:
    """All phrasal rewrites for a question plus the conjunctive back-off.

    The verb-placement scheme: drop the wh prefix, take the next token as the
    verb (an auxiliary when present), and emit one quoted phrase per insertion
    position of that verb among the remaining tokens. The phrase starting with
    the verb gets a LEFT answer slot, the others RIGHT. When the verb is a
    plain past form (ends in "ed") a passive construction
    "<rest> was <verb> by" is added as well. Phrasal output is capped at
    MAX_PHRASAL; the conjunctive rewrite is always emitted, last.

    Sentence-initial capitalization carries no signal, so the first question
    token is lowercased before it enters any rewrite.
    """
    tokens = list(q.tokens)
    tokens[0] = tokens[0].lower()

    conjunctive = Rewrite(
        kind=RewriteKind.CONJUNCTIVE,
        parts=tuple(tokens),
        answer_slot=AnswerSlot.NONE,
        weight=CONJUNCTIVE_WEIGHT,
    )
    if len(tokens) < 2:
        return [conjunctive]

    remaining = tokens[_WH_STRIP[q.qtype] :]
    phrases: list[tuple[str, AnswerSlot]] = []
    if remaining:
        verb, rest = remaining[0], remaining[1:]
        for i in range(len(rest) + 1):
            phrase_tokens = rest[:i] + [verb] + rest[i:]
            slot = AnswerSlot.LEFT if i == 0 else AnswerSlot.RIGHT
            phrases.append((" ".join(phrase_tokens), slot))
        if rest and verb.lower().endswith("ed") and verb.lower() not in AUXILIARIES:
            phrases.append((" ".join(rest + ["was", verb, "by"]), AnswerSlot.RIGHT))

    rewrites = [
        Rewrite(RewriteKind.PHRASAL, (phrase,), slot, PHRASAL_WEIGHT)
        for phrase, slot in phrases[:MAX_PHRASAL]
    ]
    rewrites.append(conjunctive)
    return rewrites


# --------------------------------------------------------------------------
# Rewrite features


def _count_stats(words: list[str]) -> dict[str, float]:
    """The count features every rewrite kind shares."""
    stop = default_stopwords()
    numstop = sum(1 for w in words if token_key(w) in stop)
    return {
        "numcap": float(sum(1 for w in words if w[:1].isupper())),
        "numstop": float(numstop),
        "pctstop": numstop / len(words) if words else 0.0,
    }


def conjunctive_features(r: Rewrite) -> dict[str, float]:
    """The five count features, computable for any rewrite kind."""
    words = r.all_words()
    return {
        "longwd": float(max((len(w) for w in words), default=0)),
        "numwords": float(len(words)),
        **_count_stats(words),
    }


class GrammarScorer(Protocol):
    """Pluggable stand-in for a statistical parser.

    Implementations must be safe for concurrent read-only use and return
    ``(secondary_parses, sgm)`` for a phrase, with sgm the grammaticality
    score.
    """

    def score(self, phrase: str) -> tuple[int, float]: ...


def _looks_verbal(key: str) -> bool:
    return key in AUXILIARIES or key.endswith("ed") or key.endswith("ing")


# Score lost per unit of stop-word share, and by a phrase without a verb.
PCTSTOP_PENALTY = 0.5
FRAG_PENALTY = 0.25


class HeuristicGrammarScorer:
    """Default scorer: penalize stop-word density and verbless fragments."""

    def score(self, phrase: str) -> tuple[int, float]:
        words = phrase.split()
        sgm = 1.0 - PCTSTOP_PENALTY * _count_stats(words)["pctstop"]
        if not any(_looks_verbal(token_key(w)) for w in words):
            sgm -= FRAG_PENALTY
        return 0, min(1.0, max(0.0, sgm))


_DETERMINERS = frozenset({"the", "a", "an", "this", "that", "these", "those"})
_AUX_LIKE = AUXILIARIES | frozenset({"has", "have", "had", "will", "would", "can", "could"})
VIOLATION_PENALTY = 0.35  # score lost per implausible adjacency


class AdjacencyGrammarScorer:
    """Word-order-sensitive scorer.

    Counts implausible adjacencies so that the verb-insertion variants of one
    question, which share every count feature, still receive distinct
    grammaticality scores. Violations: a leading auxiliary, a determiner
    followed directly by an auxiliary or past form, two adjacent auxiliaries,
    and a past form not introduced by an auxiliary (unless phrase-initial).
    The violation count is exposed as secondary_parses.
    """

    def score(self, phrase: str) -> tuple[int, float]:
        keys = [token_key(w) for w in phrase.split()]
        violations = 0
        if keys and keys[0] in _AUX_LIKE:
            violations += 1
        for prev, cur in zip(keys, keys[1:]):
            if prev in _DETERMINERS and (cur in _AUX_LIKE or cur.endswith("ed")):
                violations += 1
            elif prev in _AUX_LIKE and cur in _AUX_LIKE:
                violations += 1
            elif cur.endswith("ed") and cur not in _AUX_LIKE and prev not in _AUX_LIKE:
                if prev not in _DETERMINERS:  # determiner case already counted
                    violations += 1
        sgm = max(0.0, 1.0 - VIOLATION_PENALTY * violations)
        return violations, sgm


SCORERS = {
    "default": HeuristicGrammarScorer,
    "adjacency": AdjacencyGrammarScorer,
}


def phrasal_features(r: Rewrite, scorer: GrammarScorer) -> dict[str, float]:
    """Count features plus parse-derived features for a phrasal rewrite."""
    if r.kind is not RewriteKind.PHRASAL:
        raise WrongRewriteKind("phrasal features require a PHRASAL rewrite")
    secondary, sgm = scorer.score(r.parts[0])
    return {
        **_count_stats(r.all_words()),
        "secondary_parses": float(secondary),
        "sgm": sgm,
    }

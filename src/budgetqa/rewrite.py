"""Question analysis and query rewrite generation.

A question is turned into a weighted set of search-engine queries: several
exact-phrase rewrites built by moving the (auxiliary) verb through the
remaining tokens, one passive construction when the main verb looks like a
past participle, and a single conjunctive back-off that ANDs every question
word. A ``Question`` keeps its rewrites as a tuple, so every run's
selection can share it.

A rewrite's features are read off its words in few passes: ``all_words``
splits the joined parts once, the count features key and count the words
in ``map``/``sum`` chains, and the adjacency scorer gives each key one
class (auxiliary, past form, determiner or other) and judges it against
the previous key's class in a single loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Question:
    """A parsed question.

    ``rewrites`` and ``token_keys`` are derived on first use and kept for the
    question's lifetime, so running one question again does not rewrite it
    again; neither is a field. ``orders`` and ``compositions`` remember what
    its runs produced (see ``control.py``); they are declared fields that
    equality, hashing and ``repr`` ignore, and ``dataclasses.replace``
    starts them empty.
    """

    tokens: tuple[str, ...]
    qtype: QuestionType
    orders: dict[object, tuple[Rewrite, ...]] = field(default_factory=dict, init=False, compare=False, repr=False)
    compositions: dict[tuple[tuple[str, ...], ...], tuple] = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def from_text(cls, text: str) -> "Question":
        tokens = tuple(tokenize(text))
        return cls(tokens=tokens, qtype=classify_tokens(tokens))

    @cached_property
    def token_keys(self) -> frozenset[str]:
        return frozenset(token_key(t) for t in self.tokens)

    @cached_property
    def rewrites(self) -> tuple[Rewrite, ...]:
        """``generate_rewrites(self)``, generated once."""
        return tuple(generate_rewrites(self))


@dataclass(frozen=True, slots=True)
class Rewrite:
    """One search-engine query derived from a question.

    ``parts`` is an ordered tuple of phrase strings. A phrasal rewrite has a
    single multi-word part; a conjunctive rewrite has one single-word part
    per term.
    """

    kind: RewriteKind
    parts: tuple[str, ...]
    weight: float

    def as_query(self) -> str:
        """Serialize into engine query syntax: quoted phrases, bare terms."""
        rendered = []
        for part in self.parts:
            rendered.append(f'"{part}"' if " " in part else part)
        return " ".join(rendered)

    def all_words(self) -> list[str]:
        return " ".join(self.parts).split()


# A question's leading keys and the type they mark; ``generate_rewrites``
# drops those tokens before it places the verb.
_HEADS = {
    ("who",): QuestionType.WHO,
    ("when",): QuestionType.WHEN,
    ("where",): QuestionType.WHERE,
    ("what",): QuestionType.WHAT,
    ("how", "many"): QuestionType.HOW_MANY,
    ("how", "long"): QuestionType.HOW_LONG,
}
_HEAD_SIZE = {qtype: len(head) for head, qtype in _HEADS.items()}


def classify_tokens(tokens: tuple[str, ...]) -> QuestionType:
    """Question type from the leading token(s)."""
    keys = tuple(map(token_key, tokens[:2]))
    return _HEADS.get(keys[:1]) or _HEADS.get(keys, QuestionType.OTHER)


def generate_rewrites(q: Question) -> list[Rewrite]:
    """All phrasal rewrites for a question plus the conjunctive back-off.

    The verb-placement scheme: drop the wh prefix, take the next token as the
    verb (an auxiliary when present), and emit one quoted phrase per insertion
    position of that verb among the remaining tokens. When the verb is a
    plain past form (ends in "ed") a passive construction
    "<rest> was <verb> by" is added as well. Phrasal output is capped at
    MAX_PHRASAL; the conjunctive rewrite is always emitted, last.

    Sentence-initial capitalization carries no signal, so the first question
    token is lowercased before it enters any rewrite.
    """
    tokens = list(q.tokens)
    tokens[0] = tokens[0].lower()

    remaining = tokens[_HEAD_SIZE.get(q.qtype, 0) :]
    phrases: list[str] = []
    if len(tokens) >= 2 and remaining:
        verb, rest = remaining[0], remaining[1:]
        phrases = [" ".join(rest[:i] + [verb] + rest[i:]) for i in range(len(rest) + 1)]
        if rest and verb.lower().endswith("ed") and verb.lower() not in AUXILIARIES:
            phrases.append(" ".join(rest + ["was", verb, "by"]))

    rewrites = [
        Rewrite(RewriteKind.PHRASAL, (phrase,), PHRASAL_WEIGHT) for phrase in phrases[:MAX_PHRASAL]
    ]
    rewrites.append(Rewrite(RewriteKind.CONJUNCTIVE, tuple(tokens), CONJUNCTIVE_WEIGHT))
    return rewrites


# --------------------------------------------------------------------------
# Rewrite features


def _count_stats(words: list[str]) -> dict[str, float]:
    """The count features every rewrite kind shares."""
    numstop = sum(map(default_stopwords().__contains__, map(token_key, words)))
    return {
        "numcap": float(len([w for w in words if w[:1].isupper()])),
        "numstop": float(numstop),
        "pctstop": numstop / len(words) if words else 0.0,
    }


def conjunctive_features(r: Rewrite) -> dict[str, float]:
    """The five count features, computable for any rewrite kind."""
    words = r.all_words()
    return {
        "longwd": float(max(map(len, words), default=0)),
        "numwords": float(len(words)),
        **_count_stats(words),
    }


class GrammarScorer(Protocol):
    """What ``phrasal_features`` asks of a stand-in for a statistical parser.

    Implementations must be safe for concurrent read-only use and return
    ``(secondary_parses, sgm)`` for a phrase, with sgm the grammaticality
    score. ``AdjacencyGrammarScorer`` is the one the package trains and
    serves with; tests may pass any other.
    """

    def score(self, phrase: str) -> tuple[int, float]: ...


_DETERMINERS = frozenset({"the", "a", "an", "this", "that", "these", "those"})
_AUX_LIKE = AUXILIARIES | frozenset({"has", "have", "had", "will", "would", "can", "could"})
VIOLATION_PENALTY = 0.35  # score lost per implausible adjacency


class AdjacencyGrammarScorer:
    """The grammar scorer: word-order sensitive.

    Counts implausible adjacencies so that the verb-insertion variants of one
    question, which share every count feature, still receive distinct
    grammaticality scores. Violations: a leading auxiliary, a determiner
    followed directly by an auxiliary or past form, two adjacent auxiliaries,
    and a past form not introduced by an auxiliary (unless phrase-initial).
    The violation count is exposed as secondary_parses.
    """

    def score(self, phrase: str) -> tuple[int, float]:
        # No auxiliary or determiner ends in "ed" and the two lists share no
        # word, so each key has one class.
        violations = 0
        prev = None  # the previous key's class; None before the first key
        for key in map(token_key, phrase.split()):
            if key in _AUX_LIKE:
                violations += prev in (None, "aux", "det")
                prev = "aux"
            elif key.endswith("ed"):
                violations += prev not in (None, "aux")
                prev = "past"
            else:
                prev = "det" if key in _DETERMINERS else "other"
        sgm = max(0.0, 1.0 - VIOLATION_PENALTY * violations)
        return violations, sgm


def phrasal_features(r: Rewrite, scorer: GrammarScorer) -> dict[str, float]:
    """Count features plus parse-derived features for a phrasal rewrite."""
    if r.kind is not RewriteKind.PHRASAL:
        raise WrongRewriteKind("phrasal features require a PHRASAL rewrite")
    secondary, sgm = scorer.score(r.parts[0])
    features = _count_stats(r.all_words())
    features["secondary_parses"] = float(secondary)
    features["sgm"] = sgm
    return features

"""Answer composition: mine n-grams from snippets, filter by question type,
tile overlapping candidates into longer answers.

Scoring is additive: every occurrence of an n-gram adds the weight of the
rewrite that retrieved the snippet. Candidates echoing the question are
useless as answers, so mining drops any n-gram containing a question token
and any n-gram that starts or ends with a stop word (which also removes
all-stopword n-grams).

Mining also counts, per rewrite weight, the distinct candidates that
weight's snippets produced. Composition hands those counts on with its
ranked answers, so the run features need no second mining.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .rewrite import QuestionType
from .search import Snippet
from .text import default_stopwords, token_key, word_tokens

MAX_NGRAM = 3


@dataclass(frozen=True)
class NGramCandidate:
    """A scored answer candidate; ``tokens`` is the majority surface form."""

    tokens: tuple[str, ...]
    score: float
    support: int

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def key(self) -> tuple[str, ...]:
        return tuple(token_key(t) for t in self.tokens)


class Candidates(list):
    """A candidate list that also reports the mining it came from.

    ``mined`` is the number of distinct n-grams mined; ``mined_by_weight``
    maps each rewrite weight to how many of them that weight's snippets
    produced (a weight whose snippets produced none may be absent).
    """

    def __init__(self, items: Iterable[NGramCandidate], mined: int, mined_by_weight: dict[float, int]):
        super().__init__(items)
        self.mined = mined
        self.mined_by_weight = mined_by_weight


def mine_ngrams(
    snippets: Sequence[Snippet],
    weights: Mapping[int, float],
    *,
    exclude: Iterable[str] = (),
    stop: frozenset[str] | None = None,
) -> Candidates:
    """Every surviving 1/2/3-gram across the snippets, scored additively.

    ``weights`` maps a snippet's rewrite_index to the weight of the rewrite
    that produced it and must cover every index present. ``exclude`` holds
    normalized question tokens; candidates containing one are dropped.
    Candidates are returned in first-occurrence order. The surface form
    reported for each candidate is the most frequent one seen (first seen
    wins ties), matched case-insensitively.
    """
    stop = stop if stop is not None else default_stopwords()
    excluded = frozenset(token_key(t) for t in exclude)

    order: list[tuple[str, ...]] = []
    scores: dict[tuple[str, ...], float] = {}
    supports: dict[tuple[str, ...], int] = {}
    surfaces: dict[tuple[str, ...], Counter] = {}
    by_weight: dict[float, set[tuple[str, ...]]] = {}

    for snippet in snippets:
        weight = weights[snippet.rewrite_index]
        touched = by_weight.setdefault(weight, set())
        words = word_tokens(snippet.text)
        keys = [token_key(w) for w in words]
        n_tokens = len(words)
        for n in range(1, MAX_NGRAM + 1):
            for i in range(n_tokens - n + 1):
                gram_keys = tuple(keys[i : i + n])
                if any(not k for k in gram_keys):
                    continue
                if any(k in excluded for k in gram_keys):
                    continue
                if gram_keys[0] in stop or gram_keys[-1] in stop:
                    continue
                if gram_keys not in scores:
                    order.append(gram_keys)
                    scores[gram_keys] = 0.0
                    supports[gram_keys] = 0
                    surfaces[gram_keys] = Counter()
                scores[gram_keys] += weight
                supports[gram_keys] += 1
                touched.add(gram_keys)
                surfaces[gram_keys][tuple(words[i : i + n])] += 1

    out = []
    for gram_keys in order:
        counter = surfaces[gram_keys]
        best = max(counter, key=lambda form: counter[form])  # ties: first seen
        out.append(NGramCandidate(tokens=best, score=scores[gram_keys], support=supports[gram_keys]))
    return Candidates(out, len(out), {w: len(keys) for w, keys in by_weight.items()})


# --------------------------------------------------------------------------
# Answer-type filters


@dataclass(frozen=True)
class AnswerFilter:
    """Surface-pattern rule: matching candidates get score * factor."""

    name: str
    applicable_types: frozenset[QuestionType]
    pattern: re.Pattern
    factor: float

    def applies(self, qtype: QuestionType, text: str) -> bool:
        return qtype in self.applicable_types and bool(self.pattern.search(text))


def _f(name: str, types: Iterable[QuestionType], pattern: str, factor: float, flags: int = 0) -> AnswerFilter:
    return AnswerFilter(name, frozenset(types), re.compile(pattern, flags), factor)


_MONTHS = r"january|february|march|april|may|june|july|august|september|october|november|december"
_SCALE = r"hundred|thousand|million|billion|trillion|dozen|percent"
_UNITS = (
    r"seconds?|minutes?|hours?|days?|weeks?|months?|years?|decades?|centuries|"
    r"miles?|feet|foot|met(?:er|re)s?|kilomet(?:er|re)s?|inch(?:es)?|yards?"
)

#: The fifteen hand-written answer-type filters. Boosts are 2.0, demotions
#: 0.5; a candidate's score is multiplied by every matching filter's factor.
DEFAULT_FILTERS: tuple[AnswerFilter, ...] = (
    _f("who_capital_boost", [QuestionType.WHO], r"(?:^|\s)[A-Z]", 2.0),
    _f("who_lowercase_demote", [QuestionType.WHO], r"^[^A-Z]+$", 0.5),
    _f("who_date_demote", [QuestionType.WHO], rf"\b(?:{_MONTHS})\b|\b1[0-9]{{3}}\b|\b20[0-9]{{2}}\b", 0.5, re.IGNORECASE),
    _f("who_digit_demote", [QuestionType.WHO], r"\d", 0.5),
    _f("when_digit_boost", [QuestionType.WHEN], r"\d", 2.0),
    _f("when_month_boost", [QuestionType.WHEN], rf"\b(?:{_MONTHS})\b", 2.0, re.IGNORECASE),
    _f("when_year_boost", [QuestionType.WHEN], r"\b(?:1[0-9]{3}|20[0-9]{2})\b", 2.0),
    _f("when_nondate_demote", [QuestionType.WHEN], rf"^(?!.*\d)(?!.*\b(?:{_MONTHS})\b).*$", 0.5, re.IGNORECASE),
    _f("where_capital_boost", [QuestionType.WHERE], r"(?:^|\s)[A-Z]", 2.0),
    _f("where_lowercase_demote", [QuestionType.WHERE], r"^[^A-Z]+$", 0.5),
    _f("how_many_digit_boost", [QuestionType.HOW_MANY], r"\d", 2.0),
    _f("how_many_scale_boost", [QuestionType.HOW_MANY], rf"\b(?:{_SCALE})\b", 2.0, re.IGNORECASE),
    _f("how_many_nonnumeric_demote", [QuestionType.HOW_MANY], rf"^(?!.*\d)(?!.*\b(?:{_SCALE})\b).*$", 0.5, re.IGNORECASE),
    _f("how_long_digit_boost", [QuestionType.HOW_LONG], r"\d", 2.0),
    _f("how_long_unit_boost", [QuestionType.HOW_LONG], rf"\b(?:{_UNITS})\b", 2.0, re.IGNORECASE),
)


def filter_ngrams(
    cands: Sequence[NGramCandidate],
    qtype: QuestionType,
    filters: Sequence[AnswerFilter] | None = None,
) -> list[NGramCandidate]:
    """Re-weight candidates by every applicable matching filter.

    Input order is preserved; support is never changed.
    """
    filters = DEFAULT_FILTERS if filters is None else filters
    out = []
    for cand in cands:
        factor = 1.0
        for flt in filters:
            if flt.applies(qtype, cand.text):
                factor *= flt.factor
        out.append(cand if factor == 1.0 else replace(cand, score=cand.score * factor))
    return out


def applied_filter_names(
    cands: Sequence[NGramCandidate],
    qtype: QuestionType,
    filters: Sequence[AnswerFilter] | None = None,
) -> list[str]:
    """Names of the filters that matched at least one candidate."""
    filters = DEFAULT_FILTERS if filters is None else filters
    names = []
    for flt in filters:
        if any(flt.applies(qtype, c.text) for c in cands):
            names.append(flt.name)
    return names


# --------------------------------------------------------------------------
# Tiling


def _best_overlap(a: NGramCandidate, b: NGramCandidate) -> int:
    """Longest L >= 1 such that the last L words of a equal the first L of b."""
    ka, kb = a.key(), b.key()
    for length in range(min(len(ka), len(kb)), 0, -1):
        if ka[-length:] == kb[:length]:
            return length
    return 0


def tile_ngrams(cands: Sequence[NGramCandidate]) -> list[NGramCandidate]:
    """Greedy tiling: repeatedly merge the overlapping pair with the highest
    combined score (ties: longest overlap, then lexicographically smallest
    key pair) until no pair overlaps, then sort by score descending.

    Merging (A, B) with overlap L yields A's tokens followed by B's tokens
    after the first L, with score and support both summed. Sorting is stable,
    so equal-score candidates keep their working order.
    """
    pool: list[NGramCandidate] = list(cands)
    while True:
        best = None  # (score, overlap, neg-key-pair, i, j)
        for i, a in enumerate(pool):
            for j, b in enumerate(pool):
                if i == j:
                    continue
                overlap = _best_overlap(a, b)
                if not overlap:
                    continue
                rank = (a.score + b.score, overlap)
                if best is None or rank > best[0] or (rank == best[0] and (a.key(), b.key()) < best[1]):
                    best = (rank, (a.key(), b.key()), i, j)
        if best is None:
            break
        _, _, i, j = best
        a, b = pool[i], pool[j]
        overlap = _best_overlap(a, b)
        merged = NGramCandidate(
            tokens=a.tokens + b.tokens[overlap:],
            score=a.score + b.score,
            support=a.support + b.support,
        )
        pool[i] = merged
        del pool[j]
    return sorted(pool, key=lambda c: -c.score)


def compose_answers(
    snippets: Sequence[Snippet],
    weights: Mapping[int, float],
    qtype: QuestionType,
    *,
    exclude: Iterable[str] = (),
    filters: Sequence[AnswerFilter] | None = None,
    stop: frozenset[str] | None = None,
) -> Candidates:
    """Full composition pipeline: mine, filter, tile. Head of the result is
    the answer; an empty snippet list yields an empty list. The result
    carries the counts of the one mining it was composed from."""
    if not snippets:
        return Candidates([], 0, {})
    mined = mine_ngrams(snippets, weights, exclude=exclude, stop=stop)
    filtered = filter_ngrams(mined, qtype, filters)
    return Candidates(tile_ngrams(filtered), mined.mined, mined.mined_by_weight)

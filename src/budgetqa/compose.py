"""Answer composition: mine n-grams from snippets, filter by question type,
tile overlapping candidates into longer answers.

Scoring is additive: every occurrence of an n-gram adds the weight of the
rewrite that retrieved the snippet. Candidates echoing the question are
useless as answers, so mining drops any n-gram containing a question token
and any n-gram that starts or ends with a stop word (which also removes
all-stopword n-grams).

A snippet's candidate n-grams do not depend on the question, so each
``Snippet`` derives them once (``Snippet.grams``) and keeps them for its
lifetime; mining drops those that share a key with the question.

Mining also counts, per rewrite weight, the distinct candidates that
weight's snippets produced. Composition hands those counts on with its
ranked answers, so the run features need no second mining.

A filter's factor depends only on the question type and the candidate's
text, so each type's active filters are fixed at import and its factor per
text is memoised in a fixed-size ``lru_cache``.

Tiling starts from the key tuples mining found (``Candidates.keys``) and
extends a candidate's keys on a merge. B can only overlap A if B's first
key occurs somewhere in A's key, so each merge step scans the pool in
row-major order and tests that membership before looking for an overlap.
A pair replaces the best only when strictly better, so among pairs equal
in score, overlap and key pair the first in row-major order wins, exactly
as a scan of all pairs would pick.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .rewrite import QuestionType
from .search import Snippet
from .text import token_key


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
    produced (a weight whose snippets produced none may be absent). Mining
    also sets ``keys``, each candidate's key tuple in list order; otherwise
    it is None.
    """

    def __init__(
        self,
        items: Iterable[NGramCandidate],
        mined: int,
        mined_by_weight: dict[float, int],
        keys: list[tuple[str, ...]] | None = None,
    ):
        super().__init__(items)
        self.mined = mined
        self.mined_by_weight = mined_by_weight
        self.keys = keys


def mine_ngrams(
    evidence: Iterable[tuple[float, Sequence[Snippet]]],
    *,
    exclude: Iterable[str] = (),
) -> Candidates:
    """Every surviving 1/2/3-gram across the snippets, scored additively.

    ``evidence`` holds one (weight, snippets) pair per rewrite in submission
    order: the snippets the rewrite retrieved and its weight. ``exclude``
    holds question tokens; candidates containing one's key are dropped. A
    frozenset is taken as keys already (``Question.token_keys``) and used as
    it is; the tokens of any other iterable are normalized with
    ``token_key``. Candidates are returned in first-occurrence order, with
    their keys. The surface form reported for each candidate is the most
    frequent one seen (first seen wins ties), matched case-insensitively.
    """
    excluded = exclude if isinstance(exclude, frozenset) else frozenset(map(token_key, exclude))

    found: dict[tuple[str, ...], list] = {}  # key -> [score, support, {surface form: count}]
    by_weight: dict[float, set[tuple[str, ...]]] = {}

    for weight, snippet in ((weight, s) for weight, group in evidence for s in group):
        touched = by_weight.setdefault(weight, set())
        for gram_keys, form in snippet.grams:
            if not excluded.isdisjoint(gram_keys):
                continue
            entry = found.get(gram_keys)
            if entry is None:
                entry = found[gram_keys] = [0.0, 0, {}]
            entry[0] += weight
            entry[1] += 1
            touched.add(gram_keys)
            entry[2][form] = entry[2].get(form, 0) + 1

    out = []
    for score, support, forms in found.values():
        best = max(forms, key=forms.__getitem__)  # ties: first seen
        out.append(NGramCandidate(tokens=best, score=score, support=support))
    return Candidates(out, len(out), {w: len(keys) for w, keys in by_weight.items()}, list(found))


# --------------------------------------------------------------------------
# Answer-type filters


@dataclass(frozen=True)
class AnswerFilter:
    """Surface-pattern rule: matching candidates get score * factor."""

    name: str
    applicable_types: frozenset[QuestionType]
    pattern: re.Pattern
    factor: float


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


def _factor_of(qtype: QuestionType) -> Callable[[tuple[str, ...]], float]:
    """The product of the factors of ``qtype``'s filters that match a
    candidate's text, memoised per candidate tokens."""
    active = tuple(flt for flt in DEFAULT_FILTERS if qtype in flt.applicable_types)

    @lru_cache(maxsize=1 << 16)  # a pure function over a small vocabulary of answers
    def factor_of(tokens: tuple[str, ...]) -> float:
        text = " ".join(tokens)
        factor = 1.0
        for flt in active:
            if flt.pattern.search(text):
                factor *= flt.factor
        return factor

    return factor_of


_FACTORS = {qtype: _factor_of(qtype) for qtype in QuestionType}


def filter_ngrams(cands: Sequence[NGramCandidate], qtype: QuestionType) -> list[NGramCandidate]:
    """Re-weight candidates by every applicable matching filter.

    Input order is preserved; support is never changed.
    """
    factor_of = _FACTORS[qtype]
    out = []
    for cand in cands:
        factor = factor_of(cand.tokens)
        out.append(cand if factor == 1.0 else NGramCandidate(cand.tokens, cand.score * factor, cand.support))
    return out


# --------------------------------------------------------------------------
# Tiling


def _overlap(ka: tuple[str, ...], kb: tuple[str, ...]) -> int:
    """Longest L >= 1 such that the last L keys of ka equal the first L of kb."""
    for length in range(min(len(ka), len(kb)), 0, -1):
        if ka[-length:] == kb[:length]:
            return length
    return 0


def tile_ngrams(
    cands: Sequence[NGramCandidate], keys: Sequence[tuple[str, ...]] | None = None
) -> list[NGramCandidate]:
    """Greedy tiling: repeatedly merge the overlapping pair with the highest
    combined score (ties: longest overlap, then lexicographically smallest
    key pair, then the first pair in row-major order) until no pair
    overlaps, then sort by score descending.

    ``keys``, when given, holds each candidate's ``key()`` in order, as
    mining found them; otherwise they are computed here. Merging (A, B)
    with overlap L yields A's tokens followed by B's tokens after the first
    L, with score and support both summed. Sorting is stable, so
    equal-score candidates keep their working order.
    """
    pool: list[NGramCandidate] = list(cands)
    # Kept in step with pool. A candidate without tokens has no first key
    # and overlaps nothing.
    keys = list(keys) if keys is not None else [c.key() for c in pool]
    firsts = [kb[0] if kb else None for kb in keys]
    while True:
        best = None  # (rank, key pair, i, j)
        for i, ka in enumerate(keys):
            score = pool[i].score
            for j, first in enumerate(firsts):
                if first not in ka or j == i:
                    continue
                kb = keys[j]
                overlap = _overlap(ka, kb)
                if not overlap:
                    continue
                rank = (score + pool[j].score, overlap)
                if best is None or rank > best[0] or (rank == best[0] and (ka, kb) < best[1]):
                    best = (rank, (ka, kb), i, j)
        if best is None:
            break
        (_, overlap), _, i, j = best
        a, b = pool[i], pool[j]
        pool[i] = NGramCandidate(
            tokens=a.tokens + b.tokens[overlap:],
            score=a.score + b.score,
            support=a.support + b.support,
        )
        keys[i] = keys[i] + keys[j][overlap:]
        del pool[j], keys[j], firsts[j]
    return sorted(pool, key=lambda c: -c.score)


def compose_answers(
    evidence: Sequence[tuple[float, Sequence[Snippet]]],
    qtype: QuestionType,
    *,
    exclude: Iterable[str] = (),
) -> Candidates:
    """Full composition pipeline over (weight, snippets) pairs as
    ``mine_ngrams`` takes them: mine, filter, tile. Head of the result is
    the answer; evidence without snippets yields an empty list. The result
    carries the counts of the one mining it was composed from."""
    if not any(snippets for _, snippets in evidence):
        return Candidates([], 0, {})
    mined = mine_ngrams(evidence, exclude=exclude)
    filtered = filter_ngrams(mined, qtype)
    return Candidates(tile_ngrams(filtered, mined.keys), mined.mined, mined.mined_by_weight)

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

Tiling keeps each candidate's key tuple and extends it on a merge. B can
only overlap A if B's first key occurs somewhere in A's key, so each merge
step indexes the pool by first key and tests A only against those partners
(the first-key lookup of a positional index; Manning, Raghavan & Schütze,
*Introduction to Information Retrieval*, §2.4). Partners are visited in
ascending pool order and a pair replaces the best only when strictly
better, so among pairs equal in score, overlap and key pair the first in
row-major order still wins, exactly as a scan of all pairs would pick.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    evidence: Iterable[tuple[float, Sequence[Snippet]]],
    *,
    exclude: Iterable[str] = (),
    stop: frozenset[str] | None = None,
) -> Candidates:
    """Every surviving 1/2/3-gram across the snippets, scored additively.

    ``evidence`` holds one (weight, snippets) pair per rewrite in submission
    order: the snippets the rewrite retrieved and its weight. ``exclude``
    holds normalized question tokens; candidates containing one are dropped.
    Candidates are returned in first-occurrence order. The surface form
    reported for each candidate is the most frequent one seen (first seen
    wins ties), matched case-insensitively.
    """
    stop = stop if stop is not None else default_stopwords()
    excluded = frozenset(token_key(t) for t in exclude)

    found: dict[tuple[str, ...], list] = {}  # key -> [score, support, {surface form: count}]
    by_weight: dict[float, set[tuple[str, ...]]] = {}

    for weight, snippet in ((weight, s) for weight, group in evidence for s in group):
        touched = by_weight.setdefault(weight, set())
        words = word_tokens(snippet.text)
        keys = [token_key(w) for w in words]
        # A gram survives when every token is usable and both edges are
        # usable non-stop words, so each token is tested once, not per gram.
        usable = [bool(k) and k not in excluded for k in keys]
        edge = [u and k not in stop for u, k in zip(usable, keys)]
        n_tokens = len(words)
        for n in range(1, MAX_NGRAM + 1):
            for i in range(n_tokens - n + 1):
                last = i + n - 1
                if not (edge[i] and edge[last] and (n < 3 or all(usable[i + 1 : last]))):
                    continue
                gram_keys = tuple(keys[i : i + n])
                entry = found.get(gram_keys)
                if entry is None:
                    entry = found[gram_keys] = [0.0, 0, {}]
                entry[0] += weight
                entry[1] += 1
                touched.add(gram_keys)
                form = tuple(words[i : i + n])
                entry[2][form] = entry[2].get(form, 0) + 1

    out = []
    for score, support, forms in found.values():
        best = max(forms, key=forms.__getitem__)  # ties: first seen
        out.append(NGramCandidate(tokens=best, score=score, support=support))
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
    active = [flt for flt in filters if qtype in flt.applicable_types]
    out = []
    for cand in cands:
        text = cand.text
        factor = 1.0
        for flt in active:
            if flt.pattern.search(text):
                factor *= flt.factor
        out.append(cand if factor == 1.0 else NGramCandidate(cand.tokens, cand.score * factor, cand.support))
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


def _overlap(ka: tuple[str, ...], kb: tuple[str, ...]) -> int:
    """Longest L >= 1 such that the last L keys of ka equal the first L of kb."""
    for length in range(min(len(ka), len(kb)), 0, -1):
        if ka[-length:] == kb[:length]:
            return length
    return 0


def tile_ngrams(cands: Sequence[NGramCandidate]) -> list[NGramCandidate]:
    """Greedy tiling: repeatedly merge the overlapping pair with the highest
    combined score (ties: longest overlap, then lexicographically smallest
    key pair, then the first pair in row-major order) until no pair
    overlaps, then sort by score descending.

    Merging (A, B) with overlap L yields A's tokens followed by B's tokens
    after the first L, with score and support both summed. Sorting is stable,
    so equal-score candidates keep their working order.
    """
    pool: list[NGramCandidate] = list(cands)
    keys = [c.key() for c in pool]  # kept in step with pool
    while True:
        by_first: dict[str, list[int]] = {}  # first key -> pool indices, ascending
        for j, kb in enumerate(keys):
            if kb:
                by_first.setdefault(kb[0], []).append(j)
        best = None  # (rank, key pair, i, j)
        for i, ka in enumerate(keys):
            score = pool[i].score
            for j in sorted(j for k in dict.fromkeys(ka) for j in by_first.get(k, ())):
                overlap = _overlap(ka, keys[j]) if j != i else 0
                if not overlap:
                    continue
                rank = (score + pool[j].score, overlap)
                if best is None or rank > best[0] or (rank == best[0] and (ka, keys[j]) < best[1]):
                    best = (rank, (ka, keys[j]), i, j)
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
        del pool[j], keys[j]
    return sorted(pool, key=lambda c: -c.score)


def compose_answers(
    evidence: Sequence[tuple[float, Sequence[Snippet]]],
    qtype: QuestionType,
    *,
    exclude: Iterable[str] = (),
    filters: Sequence[AnswerFilter] | None = None,
    stop: frozenset[str] | None = None,
) -> Candidates:
    """Full composition pipeline over (weight, snippets) pairs as
    ``mine_ngrams`` takes them: mine, filter, tile. Head of the result is
    the answer; evidence without snippets yields an empty list. The result
    carries the counts of the one mining it was composed from."""
    if not any(snippets for _, snippets in evidence):
        return Candidates([], 0, {})
    mined = mine_ngrams(evidence, exclude=exclude, stop=stop)
    filtered = filter_ngrams(mined, qtype, filters)
    return Candidates(tile_ngrams(filtered), mined.mined, mined.mined_by_weight)

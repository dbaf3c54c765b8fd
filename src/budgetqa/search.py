"""Offline search backend: a positional inverted index over a document corpus.

The index supports exact-phrase and conjunctive lookup and returns page
summaries in the form of word windows around the match. It is the
reproducible stand-in for a remote search engine: matching is
case-insensitive, results are deterministic, and the index is immutable
after construction so concurrent queries are safe.

A phrase is matched by scanning the postings of its rarest key and checking
the document's keys around each posting (Manning, Raghavan & Schütze,
*Introduction to Information Retrieval*, §2.4). A conjunctive query ANDs
single words: it reads each word's first position per document from the
index's first-position map, and checks the documents of the word with the
fewest against the rest.

Each ``OfflineProvider`` memoises its results, keyed by the rewrite's kind,
its parts and the limit. That is correct because those are all a result
depends on and the index never changes. It pays because the paper's
experiments replay the same rewrites: the N sweep, the policy table and the
k sweep evaluate the same questions over and over. The memo keeps the
``MEMO_SIZE`` most recently used queries and lives as long as its provider.
It sits below everything that counts queries, so every ``execute`` call is
still one query issued and charged.

A ``Snippet`` derives its candidate n-grams (``grams``) on first mining and
keeps them as long as it lives. The memo returns the same snippets on every
repeat, so a replayed query's snippets are never tokenized twice; a remote
provider's snippets, n-grams included, are freed with the run that fetched
them.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Iterable, Protocol, Sequence

from .errors import DatasetParseError, DuplicateDocument, EmptyCorpus
from .rewrite import Rewrite, RewriteKind
from .text import Gram, ngrams, token_key

DEFAULT_WINDOW = 10
DEFAULT_LIMIT = 100
# Queries one provider remembers; the experiment script makes 2,560 distinct
# ones at its default of 400 questions.
MEMO_SIZE = 1 << 16


@dataclass(frozen=True)
class Document:
    id: str
    text: str


@dataclass(frozen=True)
class Snippet:
    """A word window around one match. ``grams`` is not a field, so
    equality, hashing and ``dataclasses.replace`` ignore it."""

    text: str
    source_doc: str

    @cached_property
    def grams(self) -> tuple[Gram, ...]:
        return ngrams(self.text)


class SearchProvider(Protocol):
    """Anything that can execute a rewrite and return snippets.

    A provider whose queries wait on a backend may also offer
    ``execute_many(rewrites, limit)``: it executes a batch concurrently and
    returns, per rewrite in submission order, its snippets or the exception
    its ``execute`` raised. A ``Run`` uses it when present.
    """

    def execute(self, rewrite: Rewrite, limit: int) -> list[Snippet]: ...


class Index:
    """Positional inverted index over a corpus.

    ``postings`` maps a token key to every (doc ordinal, position) it occurs
    at, in that order; ``first_positions`` maps it to doc ordinal -> first
    position, which answers "does this doc contain the key, and where first"
    in one lookup. Snippet text is cut from the document's raw whitespace
    words, so source case and punctuation are preserved even though matching
    is normalized.
    """

    def __init__(self, docs: list[Document], window: int = DEFAULT_WINDOW):
        self.docs = docs
        self.window = window
        self.raw_words: list[list[str]] = []
        self.keys: list[list[str]] = []
        self.postings: dict[str, list[tuple[int, int]]] = {}
        for ordinal, doc in enumerate(docs):
            words = doc.text.split()
            keys = [token_key(w) for w in words]
            self.raw_words.append(words)
            self.keys.append(keys)
            for pos, key in enumerate(keys):
                if key:
                    self.postings.setdefault(key, []).append((ordinal, pos))
        # Reversed so that each doc's first position is the one kept.
        self.first_positions: dict[str, dict[int, int]] = {
            key: dict(reversed(plist)) for key, plist in self.postings.items()
        }

    def __len__(self) -> int:
        return len(self.docs)

    def _snippet(self, ordinal: int, start: int, end: int) -> Snippet:
        words = self.raw_words[ordinal]
        lo = max(0, start - self.window)
        hi = min(len(words), end + self.window)
        return Snippet(text=" ".join(words[lo:hi]), source_doc=self.docs[ordinal].id)

    def phrase_positions(self, phrase_keys: list[str]) -> list[tuple[int, int]]:
        """(ordinal, position) of every contiguous occurrence of the phrase,
        in (ordinal, position) order. Scans the postings of the rarest key."""
        if not phrase_keys:
            return []
        plists = [self.postings.get(k) for k in phrase_keys]
        if not all(plists):
            return []  # a key that occurs nowhere (or is empty) matches nothing
        offset = min(range(len(plists)), key=lambda j: len(plists[j]))
        size = len(phrase_keys)
        doc_keys = self.keys
        return [
            (ordinal, pos - offset)
            for ordinal, pos in plists[offset]
            if pos >= offset
            and doc_keys[ordinal][pos - offset : pos - offset + size] == phrase_keys
        ]


def build_index(corpus: list[Document], window: int = DEFAULT_WINDOW) -> Index:
    """Build the inverted index; ids must be unique and the corpus nonempty."""
    if not corpus:
        raise EmptyCorpus("cannot index an empty corpus")
    seen: set[str] = set()
    for doc in corpus:
        if doc.id in seen:
            raise DuplicateDocument(f"duplicate document id: {doc.id}")
        seen.add(doc.id)
    return Index(corpus, window=window)


def _phrase_keys(tokens: Iterable[str]) -> list[str]:
    return [k for k in (token_key(t) for t in tokens) if k]


def query_phrase(index: Index, phrase: list[str], limit: int = DEFAULT_LIMIT) -> list[Snippet]:
    """Snippets for every contiguous, case-insensitive occurrence of ``phrase``.

    Results are ordered by (document id, position) and truncated to ``limit``.
    """
    keys = _phrase_keys(phrase)
    if not keys:
        return []
    hits = index.phrase_positions(keys)
    hits.sort(key=lambda hit: (index.docs[hit[0]].id, hit[1]))
    return [index._snippet(o, p, p + len(keys)) for o, p in hits[:limit]]


def query_conjunctive(index: Index, parts: list[str], limit: int = DEFAULT_LIMIT) -> list[Snippet]:
    """Documents containing every single-word part anywhere; one snippet per
    document, centered on the first part's first occurrence in it.
    """
    keys = _phrase_keys(parts)
    if not keys:
        return []

    starts = [index.first_positions.get(k, {}) for k in keys]
    fewest = min(starts, key=len)
    matched = [o for o in fewest if all(o in found for found in starts)]
    matched.sort(key=lambda o: index.docs[o].id)
    return [index._snippet(o, starts[0][o], starts[0][o] + 1) for o in matched[:limit]]


def _search(index: Index, kind: RewriteKind, parts: tuple[str, ...], limit: int) -> tuple[Snippet, ...]:
    # Looks the query functions up by module name on every miss, so that
    # rebinding them (as a tracer does) takes effect.
    if kind is RewriteKind.PHRASAL:
        return tuple(query_phrase(index, parts[0].split(), limit))
    return tuple(query_conjunctive(index, list(parts), limit))


class OfflineProvider:
    """SearchProvider over an in-memory index. Deterministic.

    Results are memoised per provider, keyed by ``(rewrite.kind,
    rewrite.parts, limit)``, up to ``MEMO_SIZE`` queries. Each is stored as
    a tuple and every call returns a new list, so no caller can change what
    a later call gets. Threads may share a provider: two that miss on one
    query at once both search it and store equal results. A call answered
    from the memo is still a query to whatever counts them
    (``MeteredProvider``, ``Run.issued``); only the search is skipped.
    """

    def __init__(self, index: Index):
        self.index = index
        self._memo = lru_cache(maxsize=MEMO_SIZE)(partial(_search, index))

    def execute(self, rewrite: Rewrite, limit: int = DEFAULT_LIMIT) -> list[Snippet]:
        return list(self._memo(rewrite.kind, rewrite.parts, limit))


class MeteredProvider:
    """Wraps a provider and counts the rewrites it executes (used to audit
    query costs), one per ``execute`` call and one per rewrite of a batch.

    It has ``execute_many`` exactly when the wrapped provider does, so a run
    batches through a meter as it would without one. The count is kept under
    a lock, so threads may share one meter.
    """

    def __init__(self, inner: SearchProvider):
        self.inner = inner
        self.calls = 0
        self._lock = threading.Lock()
        if hasattr(inner, "execute_many"):
            self.execute_many = self._execute_many

    def _count(self, calls: int) -> None:
        with self._lock:
            self.calls += calls

    def execute(self, rewrite: Rewrite, limit: int = DEFAULT_LIMIT) -> list[Snippet]:
        self._count(1)
        return self.inner.execute(rewrite, limit)

    def _execute_many(self, rewrites: Sequence[Rewrite], limit: int = DEFAULT_LIMIT) -> list:
        self._count(len(rewrites))
        return self.inner.execute_many(rewrites, limit)


# --------------------------------------------------------------------------
# Corpus files


def load_corpus(path: str) -> list[Document]:
    """Read a corpus file: one JSON object per line with ``id`` and ``text``."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                docs.append(Document(id=str(row["id"]), text=str(row["text"])))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DatasetParseError(f"bad corpus record: {exc}", line_no) from exc
    return docs


def save_corpus(docs: list[Document], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps({"id": doc.id, "text": doc.text}) + "\n")


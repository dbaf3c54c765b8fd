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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Protocol

from .errors import DatasetParseError, DuplicateDocument, EmptyCorpus
from .rewrite import Rewrite, RewriteKind
from .text import token_key

DEFAULT_WINDOW = 10
DEFAULT_LIMIT = 100


@dataclass(frozen=True)
class Document:
    id: str
    text: str


@dataclass(frozen=True)
class Snippet:
    """A word window around one match."""

    text: str
    source_doc: str


class SearchProvider(Protocol):
    """Anything that can execute a rewrite and return snippets."""

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


class OfflineProvider:
    """SearchProvider over an in-memory index. Deterministic."""

    def __init__(self, index: Index):
        self.index = index

    def execute(self, rewrite: Rewrite, limit: int = DEFAULT_LIMIT) -> list[Snippet]:
        if rewrite.kind is RewriteKind.PHRASAL:
            return query_phrase(self.index, rewrite.parts[0].split(), limit)
        return query_conjunctive(self.index, list(rewrite.parts), limit)


class MeteredProvider:
    """Wraps a provider and counts execute calls (used to audit query costs)."""

    def __init__(self, inner: SearchProvider):
        self.inner = inner
        self.calls = 0

    def execute(self, rewrite: Rewrite, limit: int = DEFAULT_LIMIT) -> list[Snippet]:
        self.calls += 1
        return self.inner.execute(rewrite, limit)


# --------------------------------------------------------------------------
# Corpus and index files


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


def save_index(index: Index, path: str) -> None:
    """Serialize an index. The normalized corpus is stored; postings are
    rebuilt deterministically on load, which keeps the file small and the
    round trip exact."""
    payload = {
        "format": "budgetqa-index",
        "version": 1,
        "window": index.window,
        "docs": [{"id": d.id, "text": d.text} for d in index.docs],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_index(path: str) -> Index:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "budgetqa-index":
        raise DatasetParseError("not an index file")
    docs = [Document(id=row["id"], text=row["text"]) for row in payload["docs"]]
    return build_index(docs, window=payload.get("window", DEFAULT_WINDOW))

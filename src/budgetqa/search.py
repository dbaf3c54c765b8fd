"""Offline search backend: a positional inverted index over a document corpus.

The index supports exact-phrase and conjunctive lookup and returns page
summaries: the words from ``DEFAULT_WINDOW`` before a match to
``DEFAULT_WINDOW`` after it, clipped to the document. That width is fixed,
not set per index, since the models are trained on snippets of that width.
The index is the reproducible stand-in for a remote search engine: matching
is case-insensitive, results are deterministic, and the index is immutable
after construction so concurrent queries are safe.

The index keeps its documents in id order and two structures over them:
``keys``, each document's token keys in word order, and
``first_positions``, each key's map of doc ordinal -> first position,
built in one pass with one ``dict.get`` per token. A word that keys to ""
(all boundary punctuation, such as "—") keeps its place in ``keys`` but is
no key of ``first_positions``. Both query kinds share one document match,
``Index.documents``: it intersects the keys' document sets (the keys of
their first-position maps), starting from the key with the fewest
documents (Manning, Raghavan & Schütze, *Introduction to Information
Retrieval*, §1.3), and returns the ordinals left in ascending, and so id,
order. A conjunctive query cuts one snippet per matched document around
its first word's first position; a phrase query checks each matched
document's keys at each occurrence of the phrase's first key, from its
first position (§2.4). Either query ends at the first key that occurs
nowhere. The index keeps no second copy of the corpus's words: a
snippet's words are split from its document's text when the snippet is
cut, about 0.5 µs for the 12 words of a generated document. Traced by
``tracemalloc`` on a second build (2 vCPUs, Python 3.11.7), the index of
``generate_benchmark(240, seed=0)``'s corpus (713 documents, 8,242 tokens
over 245 keys) holds 468 KiB and that of 400 questions 733 KiB; with a
flat list of postings per key as well they held 623 and 971 KiB.

Search results are tuples of frozen snippets, so they can be shared. Each
``OfflineProvider`` memoises its results, keyed by the rewrite's kind, its
parts and the limit: those are all a result depends on, and the index never
changes. It pays because the paper's experiments replay the same rewrites:
the N sweep, the policy table and the k sweep evaluate the same questions
over and over. The memo keeps the ``MEMO_SIZE`` most recently used queries
and lives as long as its provider. It sits below everything that counts
queries, so every ``execute`` call is still one query issued and charged.

A ``Snippet`` derives its candidate n-grams (``grams``) on first mining and
keeps them as long as it lives. The memo returns the same snippets on every
repeat, so a replayed query's snippets are never tokenized twice; a remote
provider's snippets, n-grams included, are freed with the run that fetched
them.

Every JSON-lines file the package reads or writes (corpora, datasets, the
bundled demo corpus, the experiment script's reports and ``evaluate
--out``) goes through ``read_jsonl`` and ``write_jsonl`` here, so one loop
skips blank lines and numbers the line of a bad record.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from operator import attrgetter
from typing import Callable, Iterable, Protocol, Sequence

from .errors import DatasetParseError, DuplicateDocument, EmptyCorpus
from .rewrite import Rewrite, RewriteKind
from .text import Gram, ngrams, token_key

DEFAULT_WINDOW = 10
DEFAULT_LIMIT = 100
# Queries one provider remembers; the experiment script makes 2,560 distinct
# ones at its default of 400 questions.
MEMO_SIZE = 1 << 16
_PHRASAL = RewriteKind.PHRASAL  # a global read, not an enum attribute lookup, per query


@dataclass(frozen=True, slots=True)
class Document:
    id: str
    text: str


@dataclass(frozen=True)
class Snippet:
    """The words around one match. ``grams`` is not a field, so
    equality, hashing and ``dataclasses.replace`` ignore it."""

    text: str
    source_doc: str

    @cached_property
    def grams(self) -> tuple[Gram, ...]:
        return ngrams(self.text)


class SearchProvider(Protocol):
    """Anything that can execute a rewrite and return snippets.

    ``execute`` returns a sequence that neither the provider nor its caller
    changes afterwards. A provider whose queries wait on a backend may also
    offer ``execute_many(rewrites, limit, started=None)``: it executes a
    batch concurrently and returns, per rewrite in submission order, its
    snippets or the exception its ``execute`` raised. ``started``, a
    ``time.monotonic()`` instant, is when the question began; the provider
    fails any rewrite still pending once its own time per question has run
    out since then. A ``Run`` batches through it when present.
    """

    def execute(self, rewrite: Rewrite, limit: int) -> Sequence[Snippet]: ...


class Index:
    """Positional index over a corpus, its documents in id order.

    ``keys`` holds each document's token keys, one per whitespace word.
    ``first_positions`` maps a token key to doc ordinal -> first position,
    which answers "does this doc contain the key, and where first" in one
    lookup: ``{"a": {0: 0}, "b": {0: 1}}`` for the one document "a b a".
    A document's ordinal is its place in id order, so hits in ordinal
    order are in id order. Snippet text is cut from the document's raw
    whitespace words, split from its text per snippet, so source case and
    punctuation are preserved even though matching is normalized.
    """

    def __init__(self, docs: list[Document]):
        self.docs = sorted(docs, key=attrgetter("id"))
        self.keys: list[list[str]] = [list(map(token_key, doc.text.split())) for doc in self.docs]
        first_positions: dict[str, dict[int, int]] = {}
        for ordinal, keys in enumerate(self.keys):
            for pos, key in enumerate(keys):
                if (firsts := first_positions.get(key)) is None:
                    if key:  # the empty key matches nothing
                        first_positions[key] = {ordinal: pos}
                elif ordinal not in firsts:
                    firsts[ordinal] = pos
        self.first_positions = first_positions

    def _snippet(self, ordinal: int, start: int, end: int) -> Snippet:
        lo = start - DEFAULT_WINDOW
        doc = self.docs[ordinal]
        words = doc.text.split()[lo if lo > 0 else 0 : end + DEFAULT_WINDOW]
        return Snippet(text=" ".join(words), source_doc=doc.id)

    def documents(self, keys: list[str]) -> tuple[list[dict[int, int]], list[int]]:
        """Each key's first positions, and the ordinals of the documents
        that hold every key, ascending, intersected from the key with the
        fewest documents. No key, or a key that occurs nowhere (or is
        empty), matches no document."""
        first_positions = self.first_positions
        try:
            starts = [first_positions[key] for key in keys]
            fewest, *rest = sorted(starts, key=len)
        except (KeyError, ValueError):  # a key that occurs nowhere, or no key
            return [], []
        matched = fewest.keys()
        for found in rest:
            matched = matched & found.keys()  # iterates the smaller side, in C
        return starts, sorted(matched)

    def phrase_positions(self, phrase_keys: list[str]) -> list[tuple[int, int]]:
        """(ordinal, position) of every contiguous occurrence of the phrase,
        in (ordinal, position) order. Each document that holds every key is
        checked at each occurrence of the first key, from its first."""
        starts, ordinals = self.documents(phrase_keys)
        hits = []
        for ordinal in ordinals:
            keys, pos = self.keys[ordinal], starts[0][ordinal]
            try:
                while True:
                    if keys[pos : pos + len(phrase_keys)] == phrase_keys:
                        hits.append((ordinal, pos))
                    pos = keys.index(phrase_keys[0], pos + 1)
            except ValueError:  # the first key occurs no further on
                pass
        return hits


def build_index(corpus: list[Document]) -> Index:
    """Build the inverted index; ids must be unique and the corpus nonempty."""
    if not corpus:
        raise EmptyCorpus("cannot index an empty corpus")
    seen: set[str] = set()
    for doc in corpus:
        if doc.id in seen:
            raise DuplicateDocument(f"duplicate document id: {doc.id}")
        seen.add(doc.id)
    return Index(corpus)


def _phrase_keys(tokens: Iterable[str]) -> list[str]:
    return list(filter(None, map(token_key, tokens)))


def query_phrase(index: Index, phrase: Sequence[str], limit: int = DEFAULT_LIMIT) -> tuple[Snippet, ...]:
    """Snippets for every contiguous, case-insensitive occurrence of ``phrase``.

    Results are ordered by (document id, position) and truncated to ``limit``.
    """
    keys = _phrase_keys(phrase)
    hits = index.phrase_positions(keys)
    return tuple(index._snippet(o, p, p + len(keys)) for o, p in hits[:limit])


def query_conjunctive(index: Index, parts: Sequence[str], limit: int = DEFAULT_LIMIT) -> tuple[Snippet, ...]:
    """Documents containing every single-word part anywhere; one snippet per
    document, centered on the first part's first occurrence in it.
    """
    starts, ordinals = index.documents(_phrase_keys(parts))
    return tuple(index._snippet(o, starts[0][o], starts[0][o] + 1) for o in ordinals[:limit])


def _search(index: Index, phrasal: bool, parts: tuple[str, ...], limit: int) -> tuple[Snippet, ...]:
    # Looks the query functions up by module name on every miss, so that
    # rebinding them (as a tracer does) takes effect.
    if phrasal:
        return query_phrase(index, parts[0].split(), limit)
    return query_conjunctive(index, parts, limit)


class OfflineProvider:
    """SearchProvider over an in-memory index. Deterministic.

    A repeat returns the memo's own tuple. The memo is keyed by whether the
    rewrite is phrasal (``RewriteKind``'s hash is Python code), its parts
    and the limit. Threads may share a provider: two that miss on one query
    at once both search it and store equal results.
    """

    def __init__(self, index: Index):
        self.index = index
        self._memo = lru_cache(maxsize=MEMO_SIZE)(partial(_search, index))

    def execute(self, rewrite: Rewrite, limit: int = DEFAULT_LIMIT) -> tuple[Snippet, ...]:
        return self._memo(rewrite.kind is _PHRASAL, rewrite.parts, limit)


class MeteredProvider:
    """Wraps a provider and counts the rewrites it executes (used to audit
    query costs), one per ``execute`` call and one per rewrite of a batch.

    It has ``execute_many`` exactly when the wrapped provider does, and
    forwards a batch's ``started``, so a run batches through a meter as it
    would without one. The count is kept under a lock, so threads may share
    one meter.
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

    def execute(self, rewrite: Rewrite, limit: int = DEFAULT_LIMIT) -> Sequence[Snippet]:
        self._count(1)
        return self.inner.execute(rewrite, limit)

    def _execute_many(self, rewrites: Sequence[Rewrite], limit: int = DEFAULT_LIMIT, **kwargs) -> list:
        self._count(len(rewrites))
        return self.inner.execute_many(rewrites, limit, **kwargs)


# --------------------------------------------------------------------------
# JSON-lines files


def read_jsonl(path: str, what: str, record: Callable, errors: tuple[type[Exception], ...] = ()) -> list:
    """``record(row)`` for each row (one JSON value per line) of a
    JSON-lines file, in order; blank lines are skipped. A
    ``DatasetParseError`` that ``record`` raises gets the line number; a
    line that is not UTF-8, malformed JSON, a missing key, a wrong type or
    one of ``errors`` becomes ``DatasetParseError("bad {what} record:
    ...")`` with the line number. Lines end at a line feed, as JSON Lines
    has them, and each is decoded on its own, so a byte that is not UTF-8
    is reported on its line. A file that cannot be opened (missing, or a
    directory) raises ``DatasetParseError("cannot read {what} {path}:
    ...")``."""
    out = []
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DatasetParseError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    with fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                text = line.decode("utf-8")
                if text.strip():
                    out.append(record(json.loads(text)))
            except DatasetParseError as exc:
                raise DatasetParseError(str(exc), line_no) from exc
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, *errors) as exc:
                raise DatasetParseError(f"bad {what} record: {exc}", line_no) from exc
    return out


def write_jsonl(rows: Iterable[dict], path: str) -> None:
    """One JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)


def _document(row) -> Document:
    if not isinstance(text := row["text"], str):
        raise DatasetParseError(f"text is not a JSON string: {text!r}")
    if isinstance(doc_id := row["id"], bool) or not isinstance(doc_id, (str, int)):
        raise DatasetParseError(f"id is not a JSON string or integer: {doc_id!r}")
    return Document(id=str(doc_id), text=text)


def load_corpus(path: str) -> list[Document]:
    """Read a corpus file: one JSON object per line with ``id`` and ``text``.
    A ``text`` that is not a JSON string, or an ``id`` that is neither a
    JSON string nor an integer, raises ``DatasetParseError`` with the line
    number; an integer ``id`` is read as its string."""
    return read_jsonl(path, "corpus", _document)


def save_corpus(docs: list[Document], path: str) -> None:
    write_jsonl(({"id": doc.id, "text": doc.text} for doc in docs), path)

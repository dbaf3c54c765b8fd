"""Offline search backend: a positional inverted index over a document corpus.

The index supports exact-phrase and conjunctive lookup and returns page
summaries: the words from ``DEFAULT_WINDOW`` before a match to
``DEFAULT_WINDOW`` after it, clipped to the document. That width is fixed,
not set per index, since the models are trained on snippets of that width.
The index is the reproducible stand-in for a remote search engine: matching
is case-insensitive, results are deterministic, and the index is immutable
after construction so concurrent queries are safe.

The index is built in one pass over the documents' token keys: each token
costs one ``postings.get``, and a key's list of postings is made at its
first posting: ``generate_benchmark(240, seed=0)``'s corpus, 8,242 tokens
over 245 keys, makes 245 lists, not one per token. A word that keys to ""
(all boundary punctuation, such as "—") keeps its position in the
document's keys but gets no postings. ``first_positions`` is then read off
each key's postings.

A phrase is matched by scanning the postings of its rarest key and checking
the document's keys around each posting (Manning, Raghavan & Schütze,
*Introduction to Information Retrieval*, §2.4). Before that check, one
lookup in the first-position map of the phrase's next rarest key skips a
document that lacks it; in the experiment's queries that leaves about 3 of
28 postings. The phrase's keys nearly always share a document (1,222 of
1,296 seed-0 phrase queries), so intersecting their document sets first
would rule out little and cost more than it saves. A conjunctive query ANDs
single words: it intersects the words' document sets (the keys of the
index's first-position maps), starting from the word with the fewest
documents (§1.3), and reads the first word's first position in each
document left from its map. Either query ends at the first key that occurs
nowhere, without a scan.

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
import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
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


@dataclass(frozen=True)
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
    """Positional inverted index over a corpus.

    ``postings`` maps a token key to every (doc ordinal, position) it occurs
    at, in that order; ``first_positions`` maps it to doc ordinal -> first
    position, which answers "does this doc contain the key, and where first"
    in one lookup. Snippet text is cut from the document's raw whitespace
    words, so source case and punctuation are preserved even though matching
    is normalized.
    """

    def __init__(self, docs: list[Document]):
        self.docs = docs
        self.raw_words: list[list[str]] = [doc.text.split() for doc in docs]
        self.keys: list[list[str]] = [list(map(token_key, words)) for words in self.raw_words]
        postings: dict[str, list[tuple[int, int]]] = {}
        for ordinal, keys in enumerate(self.keys):
            for pos, key in enumerate(keys):
                if plist := postings.get(key):  # a key's list exists from its first posting on
                    plist.append((ordinal, pos))
                elif key:  # the empty key gets no postings
                    postings[key] = [(ordinal, pos)]
        self.postings = postings
        # Reversed so that each doc's first position is the one kept.
        self.first_positions: dict[str, dict[int, int]] = {
            key: dict(reversed(plist)) for key, plist in self.postings.items()
        }

    def _snippet(self, ordinal: int, start: int, end: int) -> Snippet:
        lo = start - DEFAULT_WINDOW
        words = self.raw_words[ordinal][lo if lo > 0 else 0 : end + DEFAULT_WINDOW]
        return Snippet(text=" ".join(words), source_doc=self.docs[ordinal].id)

    def phrase_positions(self, phrase_keys: list[str]) -> list[tuple[int, int]]:
        """(ordinal, position) of every contiguous occurrence of the phrase,
        in (ordinal, position) order. Scans the postings of the rarest key."""
        if not phrase_keys:
            return []
        postings = self.postings
        try:
            plists = [postings[key] for key in phrase_keys]
        except KeyError:
            return []  # a key that occurs nowhere (or is empty) matches nothing
        sizes = list(map(len, plists))
        offset = sizes.index(min(sizes))
        # A document without the next rarest key cannot hold the phrase, so
        # one lookup skips it. A one-key phrase's only key is its own next
        # rarest, which every posting's document has.
        sizes[offset] = math.inf
        also = self.first_positions[phrase_keys[sizes.index(min(sizes))]]
        size = len(phrase_keys)
        doc_keys = self.keys
        return [
            (ordinal, start)
            for ordinal, pos in plists[offset]
            if ordinal in also
            and (start := pos - offset) >= 0
            and doc_keys[ordinal][start : start + size] == phrase_keys
        ]


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
    if not keys:
        return ()
    hits = index.phrase_positions(keys)
    if not hits:
        return ()
    hits.sort(key=lambda hit: (index.docs[hit[0]].id, hit[1]))
    return tuple(index._snippet(o, p, p + len(keys)) for o, p in hits[:limit])


def query_conjunctive(index: Index, parts: Sequence[str], limit: int = DEFAULT_LIMIT) -> tuple[Snippet, ...]:
    """Documents containing every single-word part anywhere; one snippet per
    document, centered on the first part's first occurrence in it.
    """
    keys = _phrase_keys(parts)
    if not keys:
        return ()

    first_positions = index.first_positions
    try:
        starts = [first_positions[k] for k in keys]
    except KeyError:
        return ()  # a word that occurs nowhere
    fewest, *rest = sorted(starts, key=len)
    matched = fewest.keys()
    for found in rest:
        matched = matched & found.keys()  # iterates the smaller side, in C
    ordered = sorted(matched, key=lambda o: index.docs[o].id)
    return tuple(index._snippet(o, starts[0][o], starts[0][o] + 1) for o in ordered[:limit])


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

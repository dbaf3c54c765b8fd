import dataclasses
import hashlib
import json
import pickle
import sys
import threading
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from budgetqa import search
from budgetqa.bench import generate_benchmark
from budgetqa.errors import DatasetParseError, DuplicateDocument, EmptyCorpus
from budgetqa.rewrite import Question, Rewrite, RewriteKind, generate_rewrites
from budgetqa.search import (
    DEFAULT_LIMIT,
    DEFAULT_WINDOW,
    Document,
    Index,
    MeteredProvider,
    OfflineProvider,
    Snippet,
    build_index,
    load_corpus,
    query_conjunctive,
    query_phrase,
    save_corpus,
)
from budgetqa.text import ngrams, token_key, word_tokens

from oracles import (
    query_keys,
    scan_conjunctive,
    scan_conjunctive_snippets,
    scan_phrase,
    scan_snippets,
    slow_index_init,
    slow_ngrams,
    slow_phrase_positions,
)

LINCOLN_DOC = Document("d1", "John Wilkes Booth killed Abraham Lincoln in Ford's theater")


def test_build_index_postings():
    idx = build_index([Document("d", "a b a")])
    assert idx.postings["a"] == [0, 0, 0, 2]
    assert idx.postings["b"] == [0, 1]


def test_first_positions_keep_each_docs_first_occurrence():
    idx = build_index([Document("d", "a b a"), Document("e", "b -- a a")])
    assert idx.first_positions["a"] == {0: 0, 1: 2}
    assert idx.first_positions["b"] == {0: 1, 1: 0}
    assert "" not in idx.first_positions


def test_phrase_positions_with_repeated_and_rare_last_keys():
    idx = build_index([Document("d", "eta eta eta theta"), Document("e", "theta eta eta")])
    assert idx.phrase_positions(["eta", "eta"]) == [(0, 0), (0, 1), (1, 1)]
    assert idx.phrase_positions(["eta", "eta", "theta"]) == [(0, 1)]
    assert idx.phrase_positions(["theta", "eta", "eta"]) == [(1, 0)]
    assert idx.phrase_positions(["eta", ""]) == []


# Possessives, boundary punctuation, punctuation-only words and repeats. An
# index keys raw whitespace words, so a bare "’s", "—" and "..." key to ""
# there; "--" keys to itself.
_index_vocab = ["alpha", "ALPHA", "alpha,", "Zeta", "Zeta's", "zeta’s", "’s", "—", "--", "...", "beta"]


def _structures(index):
    """An index's first positions and keys, with every dict's key order
    spelled out."""
    return (
        [(key, list(docs.items())) for key, docs in index.first_positions.items()],
        index.keys,
    )


@given(docs_text=st.lists(st.lists(st.sampled_from(_index_vocab), max_size=10).map(" ".join), max_size=8))
@example(docs_text=["alpha — alpha", "", "Zeta's zeta’s ’s alpha,", "... -- beta alpha"])
# longer than a window on both sides of any one-word match
@example(docs_text=[" ".join(_index_vocab * 3)])
@settings(deadline=None, max_examples=300)
def test_index_equals_the_slow_version(docs_text):
    # Empty documents included; an empty corpus is build_index's to reject.
    docs = _docs(docs_text)
    slow = Index.__new__(Index)
    slow_index_init(slow, docs)
    index = Index(docs)
    # The slow version's (ordinal, position) postings, flattened.
    assert list(index.postings.items()) == [
        (key, [n for posting in plist for n in posting]) for key, plist in slow.postings.items()
    ]
    assert _structures(index) == _structures(slow)
    assert index.docs == slow.docs
    # Every snippet the index can cut, a match from start to end, is cut
    # from the document's raw words.
    for ordinal, words in enumerate(slow.raw_words):
        for start in range(len(words)):
            for end in range(start + 1, len(words) + 1):
                cut = words[max(0, start - DEFAULT_WINDOW) : end + DEFAULT_WINDOW]
                assert index._snippet(ordinal, start, end) == Snippet(" ".join(cut), docs[ordinal].id)


def test_index_of_the_240_question_corpus_traces_under_one_mib():
    corpus = generate_benchmark(240, seed=0).corpus
    build_index(corpus)  # the first build fills token_key's cache
    tracemalloc.start()
    try:
        index = build_index(corpus)  # alive while its size is read
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size < 1 << 20, (size, len(index.docs))


def test_build_index_rejects_duplicates_and_empty():
    with pytest.raises(DuplicateDocument):
        build_index([Document("d", "x"), Document("d", "y")])
    with pytest.raises(EmptyCorpus):
        build_index([])


def test_phrase_query_finds_the_match():
    idx = build_index([LINCOLN_DOC])
    snippets = query_phrase(idx, ["killed", "Abraham", "Lincoln"])
    assert len(snippets) == 1
    assert "killed Abraham Lincoln" in snippets[0].text
    assert snippets[0].source_doc == "d1"


def test_phrase_query_no_match_is_empty():
    idx = build_index([LINCOLN_DOC])
    assert query_phrase(idx, ["purple", "cow"]) == ()


def test_phrase_query_respects_limit():
    docs = [Document(f"d{i}", "the red fox ran") for i in range(3)]
    idx = build_index(docs)
    assert len(query_phrase(idx, ["red", "fox"], limit=1)) == 1


def test_phrase_query_case_insensitive_and_possessive():
    idx = build_index([LINCOLN_DOC])
    assert query_phrase(idx, ["FORD'S", "THEATER"])
    assert query_phrase(idx, ["fords", "theater"]) == ()  # different key


def test_conjunctive_query_and_semantics():
    idx = build_index([LINCOLN_DOC, Document("d2", "someone killed someone")])
    hits = query_conjunctive(idx, ["who", "killed", "Abraham", "Lincoln"])
    assert hits == ()  # "who" is absent from both docs
    hits = query_conjunctive(idx, ["killed", "Abraham", "Lincoln"])
    assert [s.source_doc for s in hits] == ["d1"]


def test_snippet_window_contains_full_match():
    words = " ".join(f"w{i}" for i in range(40))
    idx = build_index([Document("d", words + " alpha beta " + words)])
    (snippet,) = query_phrase(idx, ["alpha", "beta"])
    assert "alpha beta" in snippet.text
    assert len(snippet.text.split()) == 2 + 2 * DEFAULT_WINDOW


# "Zeta's" and "alpha," share keys with "Zeta" and "alpha"; "--" is a word
# keyed "--", while "—" (a boundary dash) has the empty key, which no query
# term matches.
_vocab = [
    "alpha", "beta", "gamma", "delta", "epsilon", "Zeta", "eta", "theta",
    "Zeta's", "alpha,", "--", "—",
]
_doc_text = st.lists(st.sampled_from(_vocab), min_size=1, max_size=12).map(" ".join)
# Some documents longer than a match of up to 3 words with DEFAULT_WINDOW
# words on each side, so that a snippet's cut falls inside the document at
# both ends.
_snippet_doc_text = st.one_of(
    _doc_text,
    st.lists(st.sampled_from(_vocab), min_size=2 * DEFAULT_WINDOW + 4, max_size=3 * DEFAULT_WINDOW).map(" ".join),
)


@st.composite
def _phrase_in(draw, docs_text, max_size):
    """Random words, or a slice of one document so that matches are common."""
    if draw(st.booleans()):
        words = draw(st.sampled_from(docs_text)).split()
        start = draw(st.integers(0, len(words) - 1))
        return words[start : start + draw(st.integers(1, max_size))]
    return draw(st.lists(st.sampled_from(_vocab), min_size=1, max_size=max_size))


@st.composite
def _corpus_and_phrase(draw, max_docs=12, max_size=3, doc_text=_doc_text):
    docs_text = draw(st.lists(doc_text, min_size=1, max_size=max_docs))
    return docs_text, draw(_phrase_in(docs_text, max_size))


@st.composite
def _corpus_and_parts(draw, max_docs=10, doc_text=_doc_text):
    # Conjunctive parts are single words, as generate_rewrites emits them.
    docs_text = draw(st.lists(doc_text, min_size=1, max_size=max_docs))
    parts = draw(st.lists(_phrase_in(docs_text, 1).map(" ".join), min_size=1, max_size=3))
    return docs_text, parts


def _docs(docs_text):
    return [Document(f"d{i:03d}", text) for i, text in enumerate(docs_text)]


_LONG_DOC = " ".join(["alpha"] * 12 + ["eta", "eta", "theta"] + ["beta"] * 12 + ["eta", "theta", "gamma"])


@given(case=_corpus_and_phrase(doc_text=_snippet_doc_text))
# a repeated key, and the rarest key last; the first match is cut inside
# the document at both ends, the second at its start
@example(case=([_LONG_DOC, "eta eta theta eta eta theta", "eta theta"], ["eta", "eta", "theta"]))
@example(case=([_LONG_DOC, "alpha alpha, alpha -- alpha", "Zeta's alpha"], ["alpha", "ALPHA"]))
@settings(deadline=None, max_examples=80)
def test_phrase_query_equals_linear_scan(case):
    docs_text, phrase = case
    docs = _docs(docs_text)
    idx = build_index(docs)
    got = [(s.source_doc, s.text) for s in query_phrase(idx, phrase, limit=10_000)]
    hits = scan_phrase(docs, phrase)
    assert got == scan_snippets(docs, hits, len(query_keys(phrase)), DEFAULT_WINDOW)


@given(case=_corpus_and_phrase(max_size=4))
# "theta" is the rarest key: one document has it without its neighbour, one
# has the neighbour elsewhere.
@example(case=(["theta alpha eta", "alpha theta", "eta eta theta"], ["eta", "theta"]))
@example(case=(["gamma beta alpha", "beta alpha gamma alpha"], ["beta", "alpha", "gamma"]))
@example(case=(["beta gamma", "gamma delta beta"], ["gamma"]))  # a key is its own neighbour
@settings(deadline=None, max_examples=150)
def test_phrase_positions_equal_linear_scan(case):
    docs_text, phrase = case
    docs = _docs(docs_text)
    got = build_index(docs).phrase_positions(query_keys(phrase))
    assert [(docs[o].id, p) for o, p in got] == scan_phrase(docs, phrase)


@given(case=_corpus_and_parts(doc_text=_snippet_doc_text))
# each snippet is cut around the first "eta", in _LONG_DOC inside the
# document at both ends
@example(case=([_LONG_DOC, "eta eta theta x eta eta", "theta eta eta"], ["eta", "theta"]))
@example(case=(["-- beta gamma", "beta -- gamma"], ["--", "beta", "gamma"]))
@settings(deadline=None, max_examples=80)
def test_conjunctive_query_equals_linear_scan(case):
    docs_text, parts = case
    docs = _docs(docs_text)
    idx = build_index(docs)
    got = [(s.source_doc, s.text) for s in query_conjunctive(idx, parts, limit=10_000)]
    assert [d for d, _ in got] == scan_conjunctive(docs, parts)
    assert got == scan_conjunctive_snippets(docs, parts, DEFAULT_WINDOW)


@given(
    docs_text=st.lists(_doc_text, min_size=1, max_size=10),
    tokens=st.lists(st.sampled_from(_vocab), min_size=1, max_size=3),
)
@settings(deadline=None, max_examples=40)
def test_phrase_docs_subset_of_conjunctive_docs(docs_text, tokens):
    docs = [Document(f"d{i:03d}", text) for i, text in enumerate(docs_text)]
    idx = build_index(docs)
    phrase_docs = {s.source_doc for s in query_phrase(idx, tokens, limit=10_000)}
    conj_docs = {s.source_doc for s in query_conjunctive(idx, tokens, limit=10_000)}
    assert phrase_docs <= conj_docs


def test_thousand_doc_corpus_matches_linear_scan_on_query_fuzz_set():
    rng = __import__("random").Random(42)
    docs = [
        Document(
            f"d{i:04d}",
            " ".join(rng.choice(_vocab) for _ in range(rng.randint(3, 3 * DEFAULT_WINDOW))),
        )
        for i in range(1000)
    ]
    idx = build_index(docs)
    for _ in range(25):
        phrase = [rng.choice(_vocab) for _ in range(rng.randint(1, 3))]
        got = [(s.source_doc, s.text) for s in query_phrase(idx, phrase, limit=10_000)]
        hits = scan_phrase(docs, phrase)
        assert got == scan_snippets(docs, hits, len(query_keys(phrase)), DEFAULT_WINDOW)


def test_offline_provider_dispatch_and_meter():
    idx = build_index([LINCOLN_DOC])
    provider = MeteredProvider(OfflineProvider(idx))
    phrasal = Rewrite(RewriteKind.PHRASAL, ("killed Abraham Lincoln",), 5.0)
    conj = Rewrite(RewriteKind.CONJUNCTIVE, ("killed", "Abraham", "Lincoln"), 1.0)
    assert provider.execute(phrasal, 100) == query_phrase(idx, ["killed", "Abraham", "Lincoln"])
    assert provider.execute(conj, 100) == query_conjunctive(idx, ["killed", "Abraham", "Lincoln"])
    assert provider.calls == 2


class _Echo:
    """A provider whose every query returns one snippet naming it."""

    def execute(self, rewrite, limit):
        return [Snippet(rewrite.as_query(), "d")]


class _EchoBatch(_Echo):
    def execute_many(self, rewrites, limit):
        return [self.execute(r, limit) for r in rewrites]


def test_meter_forwards_batches_only_when_the_inner_provider_has_them():
    assert not hasattr(MeteredProvider(_Echo()), "execute_many")
    assert not hasattr(MeteredProvider(OfflineProvider(build_index([LINCOLN_DOC]))), "execute_many")
    meter = MeteredProvider(_EchoBatch())
    rewrites = [Rewrite(RewriteKind.PHRASAL, (w,), 5.0) for w in ("a b", "c d")]
    assert meter.execute_many(rewrites, 10) == [[Snippet('"a b"', "d")], [Snippet('"c d"', "d")]]
    assert meter.calls == 2


def test_meter_counts_every_call_from_many_threads():
    meter = MeteredProvider(_EchoBatch())
    rewrite = Rewrite(RewriteKind.PHRASAL, ("a b",), 5.0)
    threads, rounds = 8, 2_000
    start = threading.Barrier(threads)

    def hammer():
        start.wait()
        for _ in range(rounds):
            meter.execute(rewrite, 10)
            meter.execute_many([rewrite, rewrite], 10)

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert meter.calls == threads * rounds * 3


def test_execute_never_exceeds_limit():
    docs = [Document(f"d{i}", "red fox red fox red fox") for i in range(5)]
    provider = OfflineProvider(build_index(docs))
    phrasal = Rewrite(RewriteKind.PHRASAL, ("red fox",), 5.0)
    assert len(provider.execute(phrasal, 4)) == 4


# --------------------------------------------------------------------------
# OfflineProvider's memo


def _direct(index, rewrite, limit):
    """The search a provider's execute stands for, run without its memo."""
    if rewrite.kind is RewriteKind.PHRASAL:
        return query_phrase(index, rewrite.parts[0].split(), limit)
    return query_conjunctive(index, list(rewrite.parts), limit)


@st.composite
def _corpus_and_rewrite(draw):
    docs_text = draw(st.lists(_doc_text, min_size=1, max_size=8))
    if draw(st.booleans()):
        phrase = draw(_phrase_in(docs_text, 3))
        return docs_text, Rewrite(RewriteKind.PHRASAL, (" ".join(phrase),), 5.0)
    parts = draw(st.lists(_phrase_in(docs_text, 1).map(" ".join), min_size=1, max_size=3))
    return docs_text, Rewrite(RewriteKind.CONJUNCTIVE, tuple(parts), 1.0)


@given(
    case=_corpus_and_rewrite(),
    limits=st.lists(st.sampled_from([1, 2, 3, DEFAULT_LIMIT]), min_size=2, max_size=2, unique=True),
)
@settings(deadline=None, max_examples=80)
def test_memoised_results_equal_direct_queries(case, limits):
    docs_text, rewrite = case
    index = build_index(_docs(docs_text))
    provider = OfflineProvider(index)
    for limit in limits:
        expected = _direct(index, rewrite, limit)
        first = provider.execute(rewrite, limit)
        assert first == expected
        with pytest.raises(AttributeError):
            first.append(Snippet("planted by a caller", "nowhere"))
        assert provider.execute(rewrite, limit) is first
        assert first == expected
    # One entry per limit, even where both limits give the same snippets.
    assert provider._memo.cache_info().currsize == 2


def _count_searches(monkeypatch):
    """Replace the module's query functions with spies counting their calls."""
    calls = Counter()
    lock = threading.Lock()

    def spy(name, real):
        def counted(*args, **kwargs):
            with lock:
                calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in ("query_phrase", "query_conjunctive"):
        monkeypatch.setattr(search, name, spy(name, getattr(search, name)))
    return calls


def test_memo_sits_below_the_module_query_functions(monkeypatch):
    calls = _count_searches(monkeypatch)
    index = build_index([LINCOLN_DOC])
    phrasal = Rewrite(RewriteKind.PHRASAL, ("killed Abraham Lincoln",), 5.0)
    conj = Rewrite(RewriteKind.CONJUNCTIVE, ("killed", "Abraham", "Lincoln"), 1.0)
    provider = OfflineProvider(index)
    for rewrite in (phrasal, conj):
        assert provider.execute(rewrite) == provider.execute(rewrite, DEFAULT_LIMIT)
    assert calls == {"query_phrase": 1, "query_conjunctive": 1}
    # A second provider over the same index keeps its own memo.
    OfflineProvider(index).execute(phrasal)
    assert calls == {"query_phrase": 2, "query_conjunctive": 1}


def test_memo_shared_by_many_threads_matches_a_serial_run(monkeypatch):
    bench = generate_benchmark(20, seed=0)
    rewrites = [r for item in bench.items for r in generate_rewrites(Question.from_text(item.question))]
    serial_provider = OfflineProvider(build_index(bench.corpus))
    serial = [serial_provider.execute(r, 5) for r in rewrites]
    calls = _count_searches(monkeypatch)
    provider = OfflineProvider(build_index(bench.corpus))
    threads = 8
    start = threading.Barrier(threads)
    results: dict[int, list] = {}

    def hammer(worker):
        start.wait()
        # Each thread takes the rewrites in its own order, so that threads
        # miss, fill and hit the same entries at overlapping times.
        order = rewrites[worker::threads] + rewrites
        results[worker] = [(r, provider.execute(r, 5)) for r in order]

    workers = [threading.Thread(target=hammer, args=(w,)) for w in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    expected = dict(zip(rewrites, serial))
    for found in results.values():
        assert all(snippets == expected[r] for r, snippets in found)
    # A thread searches each distinct query at most once; threads that miss
    # on one query at the same time may each search it.
    distinct = {(r.kind, r.parts) for r in rewrites}
    assert len(distinct) <= sum(calls.values()) <= threads * len(distinct)


def test_corpus_round_trip(tmp_path):
    docs = [Document("a", "one two three"), Document("b", "four five")]
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(docs, str(corpus_path))
    assert load_corpus(str(corpus_path)) == docs


def test_load_corpus_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "text": "ok"}\nnot json\n', encoding="utf-8")
    from budgetqa.errors import DatasetParseError

    with pytest.raises(DatasetParseError) as err:
        load_corpus(str(bad))
    assert err.value.line_no == 2


@pytest.mark.parametrize(
    "text", ["null", '["Booth", "shot", "Lincoln"]', "7"], ids=["null", "list", "number"]
)
def test_load_corpus_requires_a_text_string(tmp_path, text):
    # str() used to index null as the word "None" and a list as its Python
    # repr, so "Who shot Lincoln?" was answered "Booth" from a list.
    from budgetqa.errors import DatasetParseError

    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        f'{{"id": "a", "text": "ok"}}\n{{"id": "b", "text": {text}}}\n', encoding="utf-8"
    )
    with pytest.raises(DatasetParseError, match="text is not a JSON string") as err:
        load_corpus(str(bad))
    assert err.value.line_no == 2


@pytest.mark.parametrize(
    "doc_id",
    ["null", "[1]", "true", "7.5", '{"n": 1}'],
    ids=["null", "list", "bool", "float", "object"],
)
def test_load_corpus_requires_a_string_or_integer_id(tmp_path, doc_id):
    # str() used to read null, [1] and true as the documents "None", "[1]"
    # and "True" and index them.
    from budgetqa.errors import DatasetParseError

    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        f'{{"id": "a", "text": "ok"}}\n{{"id": {doc_id}, "text": "one two"}}\n', encoding="utf-8"
    )
    with pytest.raises(DatasetParseError, match="id is not a JSON string or integer") as err:
        load_corpus(str(bad))
    assert err.value.line_no == 2


def test_load_corpus_reads_an_integer_id_as_a_string(tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"id": 7, "text": "one two"}\n', encoding="utf-8")
    assert load_corpus(str(corpus)) == [Document("7", "one two")]


def _row_value(row):
    if row["a"] == 3:
        raise DatasetParseError("three is not a value")
    if row["a"] == 4:
        raise ValueError("four is out of range")
    return row["a"]


@pytest.mark.parametrize(
    "body, line_no, message, errors",
    [
        ('{"a": 1}\n\n{"b": 2}\n', 3, "bad row record: 'a'", ()),
        ('\n   \n{"a": 1}\nnot json\n', 4, "bad row record: Expecting value: line 1 column 1 (char 0)", ()),
        ('{"a": 1}\n{"a": 3}\n', 2, "three is not a value", ()),
        ('{"a": 1}\n\n{"a": 4}\n', 3, "bad row record: four is out of range", (ValueError,)),
        ('["a"]\n', 1, "bad row record: list indices must be integers or slices, not str", ()),
    ],
    ids=["missing-key", "bad-json-after-blank-lines", "record-error", "listed-error", "not-an-object"],
)
def test_read_jsonl_numbers_the_line_of_a_bad_record(tmp_path, body, line_no, message, errors):
    rows = tmp_path / "rows.jsonl"
    rows.write_text(body, encoding="utf-8")
    with pytest.raises(DatasetParseError) as err:
        search.read_jsonl(str(rows), "row", _row_value, errors)
    assert str(err.value) == f"line {line_no}: {message}"
    assert err.value.line_no == line_no


def test_read_jsonl_skips_blank_lines_and_raises_unlisted_errors(tmp_path):
    rows = tmp_path / "rows.jsonl"
    search.write_jsonl([{"a": 1}, {"a": 2}], str(rows))
    assert rows.read_text(encoding="utf-8") == '{"a": 1}\n{"a": 2}\n'
    rows.write_text('\n{"a": 1}\n \t\n{"a": 2}\n\n', encoding="utf-8")
    assert search.read_jsonl(str(rows), "row", _row_value) == [1, 2]
    rows.write_text('{"a": 4}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="four is out of range"):
        search.read_jsonl(str(rows), "row", _row_value)


# SHA-256 of every rewrite's offline results on generate_benchmark(240, seed=0).
# Index optimisations must keep every snippet, its order, text and source.
# Its documents average 12 words, so the DEFAULT_WINDOW cut covers nearly all
# of each; the linear-scan tests above draw documents that it cuts at both
# ends.
SEARCH_GOLDEN_DIGEST = "44800af695fc9737f57ae789567908f268898ac42e7c8646e2cc8c0aee3df6f9"


def _results_digest(provider, items):
    """How many rewrites of the items were executed, and the digest of what
    each returned."""
    digest = hashlib.sha256()
    executed = 0
    for item in items:
        for i, rewrite in enumerate(generate_rewrites(Question.from_text(item.question))):
            found = provider.execute(rewrite)
            record = [
                rewrite.as_query(),
                rewrite.kind.value,
                [[s.text, s.source_doc, i] for s in found],
            ]
            digest.update(json.dumps(record).encode("utf-8"))
            executed += 1
    return executed, digest.hexdigest()


def test_offline_results_match_golden_digest():
    bench = generate_benchmark(240, seed=0)
    provider = OfflineProvider(build_index(bench.corpus))
    # The second pass is answered from the provider's memo.
    for _ in range(2):
        assert _results_digest(provider, bench.items) == (1536, SEARCH_GOLDEN_DIGEST)


def test_documents_are_slotted_frozen_values():
    doc = Document("d1", "John Wilkes Booth")
    assert not hasattr(doc, "__dict__")
    assert pickle.loads(pickle.dumps(doc)) == doc
    with pytest.raises(dataclasses.FrozenInstanceError):
        doc.text = "Booth"


def test_snippet_keeps_its_ngrams_outside_its_value():
    snippet, twin = Snippet("John Wilkes Booth", "d1"), Snippet("John Wilkes Booth", "d1")
    grams = snippet.grams
    assert grams == ngrams("John Wilkes Booth") and snippet.grams is grams
    assert snippet == twin and hash(snippet) == hash(twin)
    assert "grams" not in twin.__dict__
    moved = dataclasses.replace(snippet, text="Booth was an actor")
    assert "grams" not in moved.__dict__
    assert moved.grams == ngrams("Booth was an actor") != grams


def test_ngrams_are_taken_before_any_exclusion():
    # Stop words may not sit at an edge, empty keys nowhere; the question's
    # words are still there.
    assert [keys for keys, _ in ngrams("Booth was the killer of Lincoln")] == [
        ("booth",), ("killer",), ("lincoln",), ("killer", "of", "lincoln"),
    ]
    # The surface form keeps case and possessives; equal forms share the keys.
    assert ngrams("Ford's theatre") == (
        (("ford",), ("Ford's",)),
        (("theatre",), ("theatre",)),
        (("ford", "theatre"), ("Ford's", "theatre")),
    )


def _nonempty_keys(text):
    # token_key's unwrapped function, so that sweeping code points leaves
    # its cache as it was.
    return all(map(token_key.__wrapped__, word_tokens(text)))


def test_no_token_of_any_bmp_code_point_keys_to_nothing():
    # Each code point alone, before each possessive form ("ſ" case-folds to
    # "s"), and after an apostrophe; ngrams relies on this.
    for form in ("{}", "{}'s", "{}’s", "{}'S", "{}ſ", "{}'ſ", "'{}"):
        assert _nonempty_keys(" ".join(form.format(chr(cp)) for cp in range(0x10000))), form


@given(text=st.text())
@example(text="—'s ’s 'S” (ſ) x's' «»")
@settings(deadline=None, max_examples=300)
def test_no_token_keys_to_nothing(text):
    assert _nonempty_keys(text)


# Tokens that read otherwise than they key: boundary punctuation, "'s" and
# "’s" possessives, stop words, "--" (a word, keyed "--"), and pieces that
# are all punctuation or key to nothing ("—", "'s", "“”"), which tokenizing
# strips before any key is taken.
_gram_tokens = [
    "Booth", "booth,", "(Booth)", "“Lincoln”", "Lincoln.", "Ford's", "FORD’S", "ford’s", "x's'",
    "the", "The", "of", "was", "an", "--", "—", "'s", "’s", "“”", "...", "3.5", "1865", "killed",
]
_gram_texts = st.one_of(
    st.lists(st.sampled_from(_gram_tokens), max_size=14).map(" ".join),
    st.text(alphabet="aB's’.,(-— ", max_size=30),
)


@given(text=_gram_texts)
@example(text="the Booth of Lincoln the")  # stop words at both edges
@example(text="The Ford's theatre -- killed ’s Lincoln. of")
@settings(deadline=None, max_examples=300)
def test_ngrams_equal_the_slow_version(text):
    # Pickling also compares which forms are their keys tuple itself.
    got, want = ngrams(text), slow_ngrams(text)
    assert got == want
    assert pickle.dumps(got) == pickle.dumps(want)


# "Zeta's" and "alpha," key as "zeta" and "alpha"; "—" keys to nothing.
_position_vocab = ["alpha", "beta", "gamma", "delta", "eta", "theta", "Zeta", "Zeta's", "alpha,", "--", "—"]


@st.composite
def _corpus_and_keys(draw):
    """Documents over a small vocabulary and phrase keys, half of them a
    slice of a document's keys, so that matches are common."""
    docs_text = draw(st.lists(
        st.lists(st.sampled_from(_position_vocab), min_size=1, max_size=10).map(" ".join),
        min_size=1, max_size=10,
    ))
    if draw(st.booleans()):
        keys = [token_key(w) for w in draw(st.sampled_from(docs_text)).split()]
        start = draw(st.integers(0, len(keys) - 1))
        keys = keys[start : start + draw(st.integers(1, 4))]
    else:
        # "iota" occurs nowhere and "" is no document word's key
        any_key = st.sampled_from(["alpha", "beta", "eta", "theta", "zeta", "--", "iota", ""])
        keys = draw(st.lists(any_key, max_size=4))
    return docs_text, keys


@given(case=_corpus_and_keys())
# every key occurs, but never two of them in one document
@example(case=(["alpha beta", "gamma delta", "beta alpha"], ["beta", "gamma"]))
@example(case=(["eta eta eta theta", "theta eta eta", "eta"], ["eta", "eta"]))  # a repeated key
# the rarest key ("theta") first, in the middle and last; in the first
# case a document holds every key, but not in the phrase's order
@example(case=(["theta eta beta gamma", "eta gamma eta gamma"], ["theta", "eta", "gamma"]))
@example(case=(["eta theta gamma", "eta gamma eta gamma theta"], ["eta", "theta", "gamma"]))
@example(case=(["eta gamma theta", "eta gamma eta gamma"], ["eta", "gamma", "theta"]))
@example(case=(["alpha — beta", "alpha beta"], ["alpha", "", "beta"]))  # the empty key
@settings(deadline=None, max_examples=300)
def test_phrase_positions_equal_the_slow_version(case):
    docs_text, keys = case
    docs = _docs(docs_text)
    slow = Index.__new__(Index)
    slow_index_init(slow, docs)
    assert build_index(docs).phrase_positions(list(keys)) == slow_phrase_positions(slow, list(keys))

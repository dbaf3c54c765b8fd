import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from budgetqa.bench import generate_benchmark
from budgetqa.errors import DuplicateDocument, EmptyCorpus
from budgetqa.rewrite import AnswerSlot, Question, Rewrite, RewriteKind, generate_rewrites
from budgetqa.search import (
    DEFAULT_WINDOW,
    Document,
    MeteredProvider,
    OfflineProvider,
    build_index,
    load_corpus,
    load_index,
    query_conjunctive,
    query_phrase,
    save_corpus,
    save_index,
)

from oracles import (
    query_keys,
    scan_conjunctive,
    scan_conjunctive_snippets,
    scan_phrase,
    scan_snippets,
)

LINCOLN_DOC = Document("d1", "John Wilkes Booth killed Abraham Lincoln in Ford's theater")


def test_build_index_postings():
    idx = build_index([Document("d", "a b a")])
    assert idx.postings["a"] == [(0, 0), (0, 2)]
    assert idx.postings["b"] == [(0, 1)]


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
    assert query_phrase(idx, ["purple", "cow"]) == []


def test_phrase_query_respects_limit():
    docs = [Document(f"d{i}", "the red fox ran") for i in range(3)]
    idx = build_index(docs)
    assert len(query_phrase(idx, ["red", "fox"], limit=1)) == 1


def test_phrase_query_case_insensitive_and_possessive():
    idx = build_index([LINCOLN_DOC])
    assert query_phrase(idx, ["FORD'S", "THEATER"])
    assert query_phrase(idx, ["fords", "theater"]) == []  # different key


def test_conjunctive_query_and_semantics():
    idx = build_index([LINCOLN_DOC, Document("d2", "someone killed someone")])
    hits = query_conjunctive(idx, ["who", "killed", "Abraham", "Lincoln"])
    assert hits == []  # "who" is absent from both docs
    hits = query_conjunctive(idx, ["killed", "Abraham", "Lincoln"])
    assert [s.source_doc for s in hits] == ["d1"]


def test_snippet_window_contains_full_match():
    words = " ".join(f"w{i}" for i in range(40))
    idx = build_index([Document("d", words + " alpha beta " + words)])
    (snippet,) = query_phrase(idx, ["alpha", "beta"])
    assert "alpha beta" in snippet.text
    assert len(snippet.text.split()) <= 2 + 2 * idx.window


# "Zeta's" and "alpha," share keys with "Zeta" and "alpha"; "--" has the
# empty key, which no query term matches.
_vocab = [
    "alpha", "beta", "gamma", "delta", "epsilon", "Zeta", "eta", "theta",
    "Zeta's", "alpha,", "--",
]
_doc_text = st.lists(st.sampled_from(_vocab), min_size=1, max_size=12).map(" ".join)


@st.composite
def _phrase_in(draw, docs_text, max_size):
    """Random words, or a slice of one document so that matches are common."""
    if draw(st.booleans()):
        words = draw(st.sampled_from(docs_text)).split()
        start = draw(st.integers(0, len(words) - 1))
        return words[start : start + draw(st.integers(1, max_size))]
    return draw(st.lists(st.sampled_from(_vocab), min_size=1, max_size=max_size))


@st.composite
def _corpus_and_phrase(draw, max_docs=12, max_size=3):
    docs_text = draw(st.lists(_doc_text, min_size=1, max_size=max_docs))
    return docs_text, draw(_phrase_in(docs_text, max_size))


@st.composite
def _corpus_and_parts(draw, max_docs=10):
    # Conjunctive parts are single words, as generate_rewrites emits them.
    docs_text = draw(st.lists(_doc_text, min_size=1, max_size=max_docs))
    parts = draw(st.lists(_phrase_in(docs_text, 1).map(" ".join), min_size=1, max_size=3))
    return docs_text, parts


def _docs(docs_text):
    return [Document(f"d{i:03d}", text) for i, text in enumerate(docs_text)]


@given(case=_corpus_and_phrase(), window=st.integers(0, 3))
@example(  # a repeated key, and the rarest key last
    case=(["eta eta theta eta eta theta", "eta theta", "eta eta"], ["eta", "eta", "theta"]),
    window=1,
)
@example(case=(["alpha alpha, alpha -- alpha", "Zeta's alpha"], ["alpha", "ALPHA"]), window=0)
@settings(deadline=None, max_examples=80)
def test_phrase_query_equals_linear_scan(case, window):
    docs_text, phrase = case
    docs = _docs(docs_text)
    idx = build_index(docs, window=window)
    got = [(s.source_doc, s.text) for s in query_phrase(idx, phrase, limit=10_000)]
    hits = scan_phrase(docs, phrase)
    assert got == scan_snippets(docs, hits, len(query_keys(phrase)), window)


@given(case=_corpus_and_parts(), window=st.integers(0, 3))
@example(case=(["eta eta theta x eta eta", "theta eta eta"], ["eta", "theta"]), window=1)
@example(case=(["-- beta gamma", "beta -- gamma"], ["--", "beta", "gamma"]), window=0)
@settings(deadline=None, max_examples=80)
def test_conjunctive_query_equals_linear_scan(case, window):
    docs_text, parts = case
    docs = _docs(docs_text)
    idx = build_index(docs, window=window)
    got = [(s.source_doc, s.text) for s in query_conjunctive(idx, parts, limit=10_000)]
    assert [d for d, _ in got] == scan_conjunctive(docs, parts)
    assert got == scan_conjunctive_snippets(docs, parts, window)


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
            " ".join(rng.choice(_vocab) for _ in range(rng.randint(3, 15))),
        )
        for i in range(1000)
    ]
    idx = build_index(docs, window=2)
    for _ in range(25):
        phrase = [rng.choice(_vocab) for _ in range(rng.randint(1, 3))]
        got = [(s.source_doc, s.text) for s in query_phrase(idx, phrase, limit=10_000)]
        hits = scan_phrase(docs, phrase)
        assert got == scan_snippets(docs, hits, len(query_keys(phrase)), 2)


def test_offline_provider_dispatch_and_meter():
    idx = build_index([LINCOLN_DOC])
    provider = MeteredProvider(OfflineProvider(idx))
    phrasal = Rewrite(RewriteKind.PHRASAL, ("killed Abraham Lincoln",), AnswerSlot.LEFT, 5.0)
    conj = Rewrite(RewriteKind.CONJUNCTIVE, ("killed", "Abraham", "Lincoln"), AnswerSlot.NONE, 1.0)
    assert provider.execute(phrasal, 100) == query_phrase(idx, ["killed", "Abraham", "Lincoln"])
    assert provider.execute(conj, 100) == query_conjunctive(idx, ["killed", "Abraham", "Lincoln"])
    assert provider.calls == 2


def test_execute_never_exceeds_limit():
    docs = [Document(f"d{i}", "red fox red fox red fox") for i in range(5)]
    provider = OfflineProvider(build_index(docs))
    phrasal = Rewrite(RewriteKind.PHRASAL, ("red fox",), AnswerSlot.LEFT, 5.0)
    assert len(provider.execute(phrasal, 4)) == 4


def test_corpus_and_index_round_trip(tmp_path):
    docs = [Document("a", "one two three"), Document("b", "four five")]
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(docs, str(corpus_path))
    assert load_corpus(str(corpus_path)) == docs

    idx = build_index(docs)
    index_path = tmp_path / "index.json"
    save_index(idx, str(index_path))
    reloaded = load_index(str(index_path))
    assert [s.text for s in query_phrase(reloaded, ["four", "five"])] == [
        s.text for s in query_phrase(idx, ["four", "five"])
    ]


def test_load_corpus_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "text": "ok"}\nnot json\n', encoding="utf-8")
    from budgetqa.errors import DatasetParseError

    with pytest.raises(DatasetParseError) as err:
        load_corpus(str(bad))
    assert err.value.line_no == 2


# SHA-256 of every rewrite's offline results on generate_benchmark(240, seed=0).
# Index optimisations must keep every snippet, its order, text and source.
# Its documents average 12 words, so the default window covers nearly all of
# each; the narrow window also pins where each match starts.
SEARCH_GOLDEN_DIGESTS = {
    DEFAULT_WINDOW: "44800af695fc9737f57ae789567908f268898ac42e7c8646e2cc8c0aee3df6f9",
    2: "91ef315867517ac68cb4f6cd01be2aea403feaa289aec9712a1ac9a24e548d34",
}


@pytest.mark.parametrize("window", sorted(SEARCH_GOLDEN_DIGESTS))
def test_offline_results_match_golden_digest(window):
    bench = generate_benchmark(240, seed=0)
    provider = OfflineProvider(build_index(bench.corpus, window=window))
    digest = hashlib.sha256()
    executed = 0
    for item in bench.items:
        for i, rewrite in enumerate(generate_rewrites(Question.from_text(item.question))):
            found = provider.execute(rewrite)
            record = [
                rewrite.as_query(),
                rewrite.kind.value,
                [[s.text, s.source_doc, i] for s in found],
            ]
            digest.update(json.dumps(record).encode("utf-8"))
            executed += 1
    assert executed == 1536
    assert digest.hexdigest() == SEARCH_GOLDEN_DIGESTS[window]

import dataclasses
import pickle

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from budgetqa.bench import generate_benchmark
from budgetqa.control import RandomN, run_policy
from budgetqa.errors import EmptyQuestion, WrongRewriteKind
from budgetqa.rewrite import (
    AdjacencyGrammarScorer,
    Question,
    QuestionType,
    Rewrite,
    RewriteKind,
    classify_tokens,
    conjunctive_features,
    generate_rewrites,
    phrasal_features,
)
from budgetqa.text import AUXILIARIES, default_stopwords, tokenize, word_tokens

from oracles import (
    WH_STRIP,
    SlowAdjacencyGrammarScorer,
    slow_all_words,
    slow_classify_tokens,
    slow_conjunctive_features,
    slow_phrasal_features,
)
from stubs import StubGrammarScorer


# --------------------------------------------------------------------------
# tokenize


def test_tokenize_strips_punctuation():
    assert tokenize("Who killed Abraham Lincoln?") == ["Who", "killed", "Abraham", "Lincoln"]


def test_tokenize_preserves_numeric_tokens():
    assert tokenize("What is 3.5%?") == ["What", "is", "3.5%"]


@pytest.mark.parametrize("bad", ["", "   ", "???"])
def test_tokenize_rejects_empty(bad):
    with pytest.raises(EmptyQuestion):
        tokenize(bad)


def test_tokenize_keeps_possessive_surface():
    assert tokenize("Ford's theater.") == ["Ford's", "theater"]


# --------------------------------------------------------------------------
# classify


@pytest.mark.parametrize(
    "text,expected",
    [
        ("Who killed Abraham Lincoln?", QuestionType.WHO),
        ("How many dogs pull a sled?", QuestionType.HOW_MANY),
        ("How long is the Nile?", QuestionType.HOW_LONG),
        ("When did CNN begin broadcasting?", QuestionType.WHEN),
        ("Where is the Orinoco River?", QuestionType.WHERE),
        ("What is a nanometer?", QuestionType.WHAT),
        ("Name the capital of France", QuestionType.OTHER),
        ("How do birds fly?", QuestionType.OTHER),
    ],
)
def test_classify(text, expected):
    assert Question.from_text(text).qtype is expected


# Head words and others in case variants, with possessives and boundary
# punctuation, so that every key the head table reads comes up.
_head_tokens = st.tuples(
    st.sampled_from(["", '"', "(", "¿"]),
    st.sampled_from(["who", "when", "where", "what", "how", "many", "long", "much", "is", "nile"]),
    st.sampled_from([str.lower, str.upper, str.capitalize]),
    st.sampled_from(["", "'s", "’s", "?", "'s?", ","]),
).map(lambda t: t[0] + t[2](t[1]) + t[3])


@given(st.lists(_head_tokens, max_size=3).map(tuple))
@example(())
@example(("How",))
@example(("how", "much"))
@example(("How", "long", "is"))
@example(("HOW’s", "Many's"))
@settings(max_examples=400)
def test_classify_tokens_and_dropped_head_equal_the_if_chain(tokens):
    qtype = classify_tokens(tokens)
    assert qtype is slow_classify_tokens(tokens)
    if not tokens:
        return
    # The first phrasal rewrite is the tokens left once the head is dropped.
    lowered = [tokens[0].lower(), *tokens[1:]]
    remaining = lowered[WH_STRIP[qtype] :]
    rewrites = generate_rewrites(Question(tokens, qtype))
    if len(tokens) >= 2 and remaining:
        assert rewrites[0].parts == (" ".join(remaining),)
    else:
        assert [r.kind for r in rewrites] == [RewriteKind.CONJUNCTIVE]


# --------------------------------------------------------------------------
# generate_rewrites


def test_lincoln_rewrites_contain_the_three_documented_forms():
    rewrites = generate_rewrites(Question.from_text("Who killed Abraham Lincoln?"))
    phrasal = {r.parts[0] for r in rewrites if r.kind is RewriteKind.PHRASAL}
    assert "killed Abraham Lincoln" in phrasal
    assert "Abraham Lincoln was killed by" in phrasal
    conj = [r for r in rewrites if r.kind is RewriteKind.CONJUNCTIVE]
    assert len(conj) == 1
    assert conj[0].parts == ("who", "killed", "Abraham", "Lincoln")


def test_conjunctive_is_last_and_single_token_question_degenerates():
    rewrites = generate_rewrites(Question.from_text("Who killed Abraham Lincoln?"))
    assert rewrites[-1].kind is RewriteKind.CONJUNCTIVE
    only = generate_rewrites(Question.from_text("Lincoln?"))
    assert len(only) == 1
    assert only[0].kind is RewriteKind.CONJUNCTIVE
    assert only[0].parts == ("lincoln",)


def test_phrasal_weights_exceed_conjunctive():
    rewrites = generate_rewrites(Question.from_text("Where is the Orinoco River?"))
    conj = [r for r in rewrites if r.kind is RewriteKind.CONJUNCTIVE]
    phr = [r for r in rewrites if r.kind is RewriteKind.PHRASAL]
    assert len(conj) == 1 and phr
    assert min(r.weight for r in phr) > conj[0].weight


def test_phrasal_cap():
    text = "Who painted the very large old red wooden barn door panel mural?"
    rewrites = generate_rewrites(Question.from_text(text))
    assert sum(1 for r in rewrites if r.kind is RewriteKind.PHRASAL) == 8


_words = st.sampled_from(
    ["Who", "What", "Where", "When", "How", "many", "painted", "designed",
     "the", "old", "bridge", "tower", "Maren", "Velt", "is", "was", "long"]
)
_questions = st.lists(_words, min_size=2, max_size=8).map(lambda ws: " ".join(ws) + "?")


@given(_questions)
def test_generate_is_deterministic_with_one_conjunctive(text):
    q = Question.from_text(text)
    first = generate_rewrites(q)
    second = generate_rewrites(q)
    assert first == second
    assert sum(1 for r in first if r.kind is RewriteKind.CONJUNCTIVE) == 1


@given(st.one_of(_questions, st.text(max_size=40)))
def test_conjunctive_parts_are_single_words(text):
    # query_conjunctive matches each part as one word, and the conjunctive
    # features have no phrase counts, so no part may contain whitespace.
    assume(word_tokens(text))
    rewrites = generate_rewrites(Question.from_text(text))
    (conj,) = [r for r in rewrites if r.kind is RewriteKind.CONJUNCTIVE]
    assert conj.parts and all(part.split() == [part] for part in conj.parts)


# Content vocabulary avoids auxiliaries and "by" so the inserted function
# words can be separated back out when checking token conservation.
_content = st.sampled_from(["painted", "designed", "bridge", "tower", "Maren", "Velt", "old", "red"])


@given(st.sampled_from(["Who", "What", "Where", "When"]), st.lists(_content, min_size=1, max_size=5))
def test_phrasal_rewrites_conserve_content_tokens(wh, content):
    q = Question.from_text(f"{wh} {' '.join(content)}?")
    inserted = {a for a in AUXILIARIES} | {"by"}
    expected = sorted(t.lower() for t in content)
    for r in generate_rewrites(q):
        if r.kind is not RewriteKind.PHRASAL:
            continue
        kept = sorted(w.lower() for w in r.all_words() if w.lower() not in inserted)
        assert kept == expected


@given(_questions)
@settings(deadline=None)
def test_feature_extraction_never_fails_on_generated_rewrites(text):
    q = Question.from_text(text)
    for r in generate_rewrites(q):
        feats = conjunctive_features(r)
        assert feats["numstop"] <= feats["numwords"]
        if r.kind is RewriteKind.PHRASAL:
            pf = phrasal_features(r, AdjacencyGrammarScorer())
            assert 0.0 <= pf["sgm"] <= 1.0


def test_question_keeps_its_rewrites_outside_its_value(lincoln_provider):
    question = Question.from_text("Who killed Abraham Lincoln?")
    rewrites = question.rewrites
    assert isinstance(rewrites, tuple) and question.rewrites is rewrites
    assert list(rewrites) == generate_rewrites(question)
    assert question.token_keys == {"who", "killed", "abraham", "lincoln"}
    twin = Question.from_text("Who killed Abraham Lincoln?")
    assert twin == question and hash(twin) == hash(question)
    assert "rewrites" not in twin.__dict__
    moved = dataclasses.replace(question, tokens=("Who", "shot", "Lincoln"))
    assert "rewrites" not in moved.__dict__ and "token_keys" not in moved.__dict__
    assert list(moved.rewrites) == generate_rewrites(moved)
    assert moved.token_keys == {"who", "shot", "lincoln"}
    # What its runs produced is no part of its value either.
    run_policy(RandomN(3, seed=0), question, lincoln_provider)
    assert question.orders and question.compositions
    assert twin == question and hash(twin) == hash(question)
    assert repr(question) == repr(twin) == f"Question(tokens={question.tokens!r}, qtype={question.qtype!r})"
    copy = dataclasses.replace(question)
    assert copy == question and copy.orders == {} and copy.compositions == {}


def test_generated_rewrites_carry_their_positions_outside_their_value():
    capped = "Who painted the very large old red wooden barn door panel mural?"
    for text in ("Who killed Abraham Lincoln?", "Lincoln?", capped):
        rewrites = generate_rewrites(Question.from_text(text))
        assert [r.position for r in rewrites] == list(range(len(rewrites)))
        assert rewrites[-1].kind is RewriteKind.CONJUNCTIVE
    generated = generate_rewrites(Question.from_text("Who killed Abraham Lincoln?"))[1]
    by_hand = Rewrite(generated.kind, generated.parts, generated.weight)
    assert generated.position == 1 and by_hand.position is None
    assert by_hand == generated and hash(by_hand) == hash(generated)
    moved = dataclasses.replace(generated, position=7)
    assert moved == generated and hash(moved) == hash(generated)
    # Slotted: no instance dict, and a pickled copy keeps its value and position.
    assert not hasattr(generated, "__dict__")
    copied = pickle.loads(pickle.dumps(generated))
    assert copied == generated and copied.position == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        generated.position = 2


# --------------------------------------------------------------------------
# features


def _conj(parts, weight=1.0):
    return Rewrite(RewriteKind.CONJUNCTIVE, tuple(parts), weight)


def _phrasal(phrase, weight=5.0):
    return Rewrite(RewriteKind.PHRASAL, (phrase,), weight)


def test_conj_features_counts_capitals():
    feats = conjunctive_features(_conj(["who", "killed", "Abraham", "Lincoln"]))
    assert feats["numcap"] == 2


def test_pctstop_matches_hand_count_against_shipped_list():
    stop = default_stopwords()
    assert {"the", "of", "is"} <= stop
    assert "population" not in stop and "japan" not in stop
    feats = conjunctive_features(_phrasal("the population of Japan is"))
    assert feats["numstop"] == 3
    assert feats["numwords"] == 5
    assert feats["pctstop"] == 3 / 5


@given(st.lists(_words, min_size=1, max_size=6))
def test_pctstop_is_exactly_rational(parts):
    feats = conjunctive_features(_conj(parts))
    if feats["numwords"]:
        assert abs(feats["pctstop"] * feats["numwords"] - feats["numstop"]) < 1e-9


def test_phrasal_features_sgm_in_unit_range():
    feats = phrasal_features(_phrasal("Abraham Lincoln was killed by"), AdjacencyGrammarScorer())
    assert 0.0 <= feats["sgm"] <= 1.0
    assert "primary_parses" not in feats


def test_phrasal_features_stub_passthrough():
    feats = phrasal_features(_phrasal("Abraham Lincoln was killed by"), StubGrammarScorer(2, 0.5))
    assert (feats["secondary_parses"], feats["sgm"]) == (2, 0.5)


def test_phrasal_features_rejects_conjunctive():
    with pytest.raises(WrongRewriteKind):
        phrasal_features(_conj(["who", "killed"]), AdjacencyGrammarScorer())


def test_adjacency_scorer_separates_natural_from_scrambled():
    scorer = AdjacencyGrammarScorer()
    natural = scorer.score("the crystal bridge was designed")[1]
    scrambled = scorer.score("the was crystal bridge designed")[1]
    leading_aux = scorer.score("was the crystal bridge designed")[1]
    assert natural > scrambled
    assert natural > leading_aux


# --------------------------------------------------------------------------
# The rewrite features against their slow versions, item for item and in
# key order.


def _same_features(got, want):
    assert list(got.items()) == list(want.items())
    assert repr(got) == repr(want)


def test_rewrite_features_equal_the_slow_versions_on_a_benchmark():
    bench = generate_benchmark(240, seed=0)
    scorer, slow_scorer = AdjacencyGrammarScorer(), SlowAdjacencyGrammarScorer()
    phrasal = 0
    for item in bench.items:
        for r in Question.from_text(item.question).rewrites:
            assert r.all_words() == slow_all_words(r)
            _same_features(conjunctive_features(r), slow_conjunctive_features(r))
            if r.kind is RewriteKind.PHRASAL:
                _same_features(phrasal_features(r, scorer), slow_phrasal_features(r, slow_scorer))
                phrasal += 1
    assert phrasal == 1296


# Auxiliaries, determiners and past forms in every case and with boundary
# punctuation, so that every adjacency rule fires; stop words, capitals and
# possessives for the count features.
_feature_words = [
    "was", "Was", "is", "did", "has", "could", "will", "the", "The", "a", "those,", "killed",
    "Painted", "led", "ed", "painted.", "(was", "Lincoln", "Ford's", "FORD’S", "of", "by", "3.5",
    "--", "—", "'s", "", "x",
]
_feature_phrases = st.one_of(
    st.lists(st.sampled_from(_feature_words), max_size=8).map(" ".join),
    st.text(alphabet="aEdsw'’.( ", max_size=20),
)


@given(parts=st.lists(_feature_phrases, min_size=1, max_size=3))
@example(parts=["the painted was killed by"])
@example(parts=["was the has had killed", "Who led"])
@settings(deadline=None, max_examples=300)
def test_rewrite_features_equal_the_slow_versions_on_drawn_phrases(parts):
    r = Rewrite(RewriteKind.PHRASAL, tuple(parts), 5.0)
    assert r.all_words() == slow_all_words(r)
    assert AdjacencyGrammarScorer().score(parts[0]) == SlowAdjacencyGrammarScorer().score(parts[0])
    _same_features(
        phrasal_features(r, AdjacencyGrammarScorer()), slow_phrasal_features(r, SlowAdjacencyGrammarScorer())
    )
    _same_features(conjunctive_features(r), slow_conjunctive_features(r))

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from budgetqa.errors import EmptyQuestion, WrongRewriteKind
from budgetqa.rewrite import (
    AdjacencyGrammarScorer,
    AnswerSlot,
    HeuristicGrammarScorer,
    Question,
    QuestionType,
    Rewrite,
    RewriteKind,
    conjunctive_features,
    generate_rewrites,
    phrasal_features,
)
from budgetqa.text import AUXILIARIES, default_stopwords, tokenize, word_tokens

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


# --------------------------------------------------------------------------
# generate_rewrites


def test_lincoln_rewrites_contain_the_three_documented_forms():
    rewrites = generate_rewrites(Question.from_text("Who killed Abraham Lincoln?"))
    phrasal = {(r.parts[0], r.answer_slot) for r in rewrites if r.kind is RewriteKind.PHRASAL}
    assert ("killed Abraham Lincoln", AnswerSlot.LEFT) in phrasal
    assert ("Abraham Lincoln was killed by", AnswerSlot.RIGHT) in phrasal
    conj = [r for r in rewrites if r.kind is RewriteKind.CONJUNCTIVE]
    assert len(conj) == 1
    assert conj[0].parts == ("who", "killed", "Abraham", "Lincoln")
    assert conj[0].answer_slot is AnswerSlot.NONE


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


def test_question_keeps_its_rewrites_outside_its_value():
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


# --------------------------------------------------------------------------
# features


def _conj(parts, weight=1.0):
    return Rewrite(RewriteKind.CONJUNCTIVE, tuple(parts), AnswerSlot.NONE, weight)


def _phrasal(phrase, weight=5.0, slot=AnswerSlot.LEFT):
    return Rewrite(RewriteKind.PHRASAL, (phrase,), slot, weight)


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
    feats = phrasal_features(_phrasal("Abraham Lincoln was killed by"), HeuristicGrammarScorer())
    assert 0.0 <= feats["sgm"] <= 1.0
    assert "primary_parses" not in feats


def test_phrasal_features_stub_passthrough():
    feats = phrasal_features(_phrasal("Abraham Lincoln was killed by"), StubGrammarScorer(2, 0.5))
    assert (feats["secondary_parses"], feats["sgm"]) == (2, 0.5)


def test_phrasal_features_rejects_conjunctive():
    with pytest.raises(WrongRewriteKind):
        phrasal_features(_conj(["who", "killed"]), HeuristicGrammarScorer())


def test_heuristic_scorer_clamps_to_unit_interval():
    _, sgm = HeuristicGrammarScorer().score("the of is was to")
    assert 0.0 <= sgm <= 1.0


def test_adjacency_scorer_separates_natural_from_scrambled():
    scorer = AdjacencyGrammarScorer()
    natural = scorer.score("the crystal bridge was designed")[1]
    scrambled = scorer.score("the was crystal bridge designed")[1]
    leading_aux = scorer.score("was the crystal bridge designed")[1]
    assert natural > scrambled
    assert natural > leading_aux

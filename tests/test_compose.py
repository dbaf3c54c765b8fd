import dataclasses
import gc
import hashlib
import json
import pickle
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from budgetqa import compose
from budgetqa.bench import generate_benchmark
from budgetqa.compose import (
    DEFAULT_FILTERS,
    Candidates,
    NGramCandidate,
    compose_answers,
    filter_ngrams,
    mine_ngrams,
    tile_ngrams,
)
from budgetqa.control import Run
from budgetqa.rewrite import Question, QuestionType, generate_rewrites
from budgetqa.search import OfflineProvider, Snippet, build_index
from budgetqa.text import default_stopwords, token_key

from oracles import (
    all_fixpoints,
    candidate_key,
    filter_each,
    mine_in_order,
    mine_per_call,
    slow_mine_ngrams,
    slow_tile_ngrams,
    stepwise_best_fixpoint,
    tile_all_pairs,
)

def _snip(text):
    return Snippet(text=text, source_doc="d")


def _one_per_snippet(snips, weights):
    """One single-snippet (weight, snippets) group per drawn (text, weight
    index), so weights interleave snippet by snippet."""
    return [(weights[idx], [_snip(text)]) for text, idx in snips]


def _by_key(cands):
    return {candidate_key(c): c for c in cands}


def _excluded(tokens):
    """Question tokens as the keys mining excludes, as a run passes them."""
    return frozenset(map(token_key, tokens))


# --------------------------------------------------------------------------
# mine_ngrams


def test_single_snippet_all_ngrams_scored():
    cands = _by_key(mine_ngrams([(5.0, [_snip("John Wilkes Booth")])]))
    expected = {
        ("john",): 5.0,
        ("wilkes",): 5.0,
        ("booth",): 5.0,
        ("john", "wilkes"): 5.0,
        ("wilkes", "booth"): 5.0,
        ("john", "wilkes", "booth"): 5.0,
    }
    assert {k: c.score for k, c in cands.items()} == expected
    assert all(c.support == 1 for c in cands.values())


def test_scores_add_across_rewrites():
    evidence = [(5.0, [_snip("John Wilkes Booth")]), (1.0, [_snip("John Wilkes Booth")])]
    cands = _by_key(mine_ngrams(evidence))
    assert cands[("john", "wilkes", "booth")].score == 6.0
    assert cands[("john", "wilkes", "booth")].support == 2


def test_question_tokens_are_excluded():
    cands = _by_key(
        mine_ngrams([(5.0, [_snip("Booth killed Abraham Lincoln")])],
                    exclude=_excluded(["killed", "abraham", "lincoln"]))
    )
    assert ("booth",) in cands
    assert all("killed" not in k and "abraham" not in k for k in cands)


def test_stopword_edged_ngrams_are_dropped():
    cands = _by_key(mine_ngrams([(1.0, [_snip("Booth was an actor")])]))
    assert ("booth",) in cands and ("actor",) in cands
    assert ("booth", "was") not in cands
    assert ("was", "an", "actor") not in cands
    assert ("booth", "was", "an") not in cands


def test_majority_surface_form_reported():
    snippets = [_snip("the BOOTH story"), _snip("near Booth today"), _snip("near Booth now")]
    cands = _by_key(mine_ngrams([(1.0, snippets)]))
    assert cands[("booth",)].tokens == ("Booth",)


def test_mined_candidates_are_slotted_frozen_values():
    cand = mine_ngrams([(1.0, [_snip("near Booth today")])])[0]
    assert not hasattr(cand, "__dict__")
    assert cand._replace() == cand and hash(cand._replace()) == hash(cand)
    assert pickle.loads(pickle.dumps(cand)) == cand
    assert cand._replace(support=cand.support + 1) != cand
    with pytest.raises(dataclasses.FrozenInstanceError):
        cand.score = 0.0


def test_empty_snippets_empty_result():
    assert mine_ngrams([]) == ()


# "Ford's," and "ford" share a key; "--" is a word of its own and "—" no
# word at all, so it joins its neighbours into one n-gram.
_vocab = ["Booth", "bullet", "actor", "Wilkes", "the", "of", "President", "Ford's", "Ford's,", "ford", "--", "—"]
_texts = st.lists(st.sampled_from(_vocab), min_size=1, max_size=8).map(" ".join)


@given(
    snips=st.lists(
        st.tuples(_texts, st.integers(min_value=0, max_value=2)), min_size=1, max_size=20
    ),
    exclude=st.lists(st.sampled_from(["bullet", "Ford", "actor", "--"]), max_size=2),
)
@example(
    snips=[("the ford Booth", 0), ("Ford's, of Booth", 1), ("BOOTH ford", 2)], exclude=["actor"]
)
@settings(deadline=None, max_examples=120)
def test_mining_matches_brute_force_oracle(snips, exclude):
    # candidates, their first-occurrence order, majority surface form (first
    # seen wins ties), score and support
    evidence = _one_per_snippet(snips, {0: 5.0, 1: 2.0, 2: 1.0})
    mined = mine_ngrams(evidence, exclude=_excluded(exclude))
    expected = mine_in_order(evidence, exclude=exclude, stop=default_stopwords())
    assert [(c.tokens, c.score, c.support) for c in mined] == expected
    assert mined.mined == len(expected)


@given(
    snips=st.lists(
        st.tuples(_texts, st.integers(min_value=0, max_value=1)), min_size=2, max_size=12
    )
)
@settings(deadline=None, max_examples=40)
def test_mining_scores_are_exactly_additive_over_splits(snips):
    evidence = _one_per_snippet(snips, {0: 5.0, 1: 1.0})
    half = len(evidence) // 2
    whole = _by_key(mine_ngrams(evidence))
    first = _by_key(mine_ngrams(evidence[:half]))
    second = _by_key(mine_ngrams(evidence[half:]))
    for key, cand in whole.items():
        total = (first[key].score if key in first else 0.0) + (
            second[key].score if key in second else 0.0
        )
        assert cand.score == total


# Punctuation at the edges and inside, possessives, stop words, mixed case,
# and words that are all punctuation.
_rich_vocab = [
    "Booth", "booth", "BOOTH", "Booth's", "booth’s", "Ford's,", "(Lincoln)", "Lincoln.",
    "the", "The", "of", "was", "an", "by", "killed", "Killed", "3.5", "$100", "'s", "--", "—", "...",
]
_rich_words = st.one_of(
    st.sampled_from(_rich_vocab),
    st.text(alphabet="aBz's.,’-", min_size=1, max_size=4),
)
_rich_texts = st.lists(_rich_words, max_size=10).map(" ".join)
# (weight, texts) per rewrite; a rewrite may have retrieved nothing.
_evidence_texts = st.lists(
    st.tuples(st.sampled_from([5.0, 2.0, 1.0]), st.lists(_rich_texts, max_size=3)), max_size=5
)
_exclusions = st.lists(st.sampled_from(_rich_vocab + ["lincoln", "ford", "KILLED"]), max_size=4)


def _mined(cands):
    return [(c.tokens, c.score, c.support) for c in cands], cands.mined, cands.mined_by_weight


@given(texts=_evidence_texts, exclude=_exclusions)
@settings(deadline=None, max_examples=200)
def test_mining_matches_per_call_oracle(texts, exclude):
    evidence = [(weight, [_snip(t) for t in group]) for weight, group in texts]
    got = mine_ngrams(evidence, exclude=_excluded(exclude))
    want = mine_per_call(evidence, exclude=exclude)
    assert _mined(got) == _mined(want)
    # A weight is listed exactly when one of its snippets was mined, even
    # when that snippet produced nothing.
    assert set(got.mined_by_weight) == {w for w, group in texts if group}


@given(texts=_evidence_texts, first=_exclusions, second=_exclusions, swap=st.booleans())
@settings(deadline=None, max_examples=100)
def test_kept_ngrams_serve_any_later_exclusions(texts, first, second, swap):
    # The same snippet objects mined under two exclusion sets, in either
    # order: what a snippet keeps must not depend on the first question.
    evidence = [(weight, [_snip(t) for t in group]) for weight, group in texts]
    for exclude in (second, first) if swap else (first, second):
        got = mine_ngrams(evidence, exclude=_excluded(exclude))
        fresh = [(weight, [_snip(t) for t in group]) for weight, group in texts]
        assert _mined(got) == _mined(mine_per_call(fresh, exclude=exclude))
    assert all("grams" in s.__dict__ for _, group in evidence for s in group)


@given(texts=_evidence_texts, exclude=_exclusions)
# a second form that ties the first on count keeps the first seen
@example(texts=[(5.0, ["Booth Booth BOOTH BOOTH booth"])], exclude=[])
@example(texts=[(1.0, ["Booth's the"]), (5.0, []), (1.0, ["booth’s BOOTH BOOTH"])], exclude=["the"])
@settings(deadline=None, max_examples=200)
def test_mining_equals_the_slow_version(texts, exclude):
    evidence = [(weight, [_snip(t) for t in group]) for weight, group in texts]
    got = mine_ngrams(evidence, exclude=_excluded(exclude))
    want = slow_mine_ngrams(evidence, exclude=_excluded(exclude))
    assert _mined(got) == _mined(want) and got.keys == want.keys
    assert list(got.mined_by_weight.items()) == list(want.mined_by_weight.items())
    assert pickle.dumps(list(got)) == pickle.dumps(list(want))


def test_mutating_a_mined_list_leaves_later_minings_alone():
    evidence = [(5.0, [_snip("John Wilkes Booth"), _snip("Booth was an actor")])]
    first = mine_ngrams(evidence)
    expected = _mined(mine_per_call(evidence))
    assert _mined(first) == expected
    with pytest.raises(AttributeError):
        first.clear()
    with pytest.raises(AttributeError):
        first.append(first[0])
    with pytest.raises(TypeError):
        first.mined_by_weight[5.0] = 0
    with pytest.raises(TypeError):
        first[0] = first[1]
    with pytest.raises(AttributeError):
        first.mined = 0
    with pytest.raises(AttributeError):
        del first.keys
    assert _mined(first) == _mined(mine_ngrams(evidence)) == expected


def test_candidates_keep_a_read_only_mapping_they_are_given():
    evidence = [(5.0, [_snip("John Wilkes Booth"), _snip("Booth was an actor")]), (2.0, [_snip("Wilkes Booth")])]
    mined = mine_ngrams(evidence)
    proxy = mined.mined_by_weight
    counts = dict(proxy)
    assert isinstance(proxy, MappingProxyType) and counts == {5.0: 7, 2.0: 3}
    kept = Candidates(mined, mined.mined, proxy)
    assert kept.mined_by_weight is proxy and dict(kept.mined_by_weight) == counts
    # A plain mapping is still wrapped, and a composition's proxy is over
    # mining's dict itself, not over another proxy.
    wrapped = Candidates((), 0, {1.0: 2})
    assert isinstance(wrapped.mined_by_weight, MappingProxyType)
    with pytest.raises(TypeError):
        wrapped.mined_by_weight[1.0] = 0
    composed = compose_answers(evidence, QuestionType.WHO)
    assert dict(composed.mined_by_weight) == counts
    assert [type(inner) for inner in gc.get_referents(composed.mined_by_weight)] == [dict]


# --------------------------------------------------------------------------
# filter_ngrams


def _cand(text, score=1.0, support=1):
    return NGramCandidate(tokens=tuple(text.split()), score=score, support=support)


def _tile(cands):
    """``tile_ngrams`` with the keys mining would have found."""
    return tile_ngrams(cands, [candidate_key(c) for c in cands])


def test_how_many_digits_beat_equal_scored_words():
    cands = [_cand("million people", 10.0), _cand("125 million", 10.0)]
    ranked = sorted(filter_ngrams(cands, QuestionType.HOW_MANY), key=lambda c: -c.score)
    assert ranked[0].text == "125 million"
    assert ranked[0].score > ranked[1].score


def test_who_boosts_capitals_and_demotes_dates():
    cands = [_cand("John Wilkes Booth", 10.0), _cand("April 14", 10.0)]
    out = {c.text: c.score for c in filter_ngrams(cands, QuestionType.WHO)}
    assert out["John Wilkes Booth"] == 20.0  # capital boost
    assert out["April 14"] < 10.0  # date and digit demotions beat the boost


def test_other_type_with_no_filters_is_identity():
    cands = [_cand("anything at all", 3.0), _cand("x 123", 2.0)]
    out = filter_ngrams(cands, QuestionType.OTHER)
    assert [(c.text, c.score) for c in out] == [(c.text, c.score) for c in cands]


def test_filtering_preserves_order_and_support():
    cands = [_cand("alpha", 5.0, support=2), _cand("Beta", 4.0, support=7), _cand("gamma", 3.0, support=1)]
    out = filter_ngrams(cands, QuestionType.WHO)
    assert list(map(candidate_key, out)) == list(map(candidate_key, cands))
    assert [c.support for c in out] == [2, 7, 1]


def test_default_table_has_fifteen_filters():
    assert len(DEFAULT_FILTERS) == 15


# Words that the filters test for: months, years, digits, scale words,
# units and capitalised words, mixed with plain and stop words.
_answer_vocab = [
    "April", "march", "May", "december", "1865", "2004", "999", "14", "3.5", "$100",
    "million", "Dozen", "percent", "hours", "feet", "Miles", "century",
    "Booth", "Lincoln", "Ford's", "BOOTH", "the", "of", "bullet", "actor", "--",
]
_answer_tokens = st.lists(st.sampled_from(_answer_vocab), min_size=1, max_size=5).map(tuple)


def _listed(cands):
    return [(c.tokens, c.score, c.support) for c in cands]


@given(st.lists(_answer_tokens, min_size=1, max_size=10))
@settings(deadline=None, max_examples=150)
def test_filtering_matches_product_of_matching_filters(token_lists):
    cands = [NGramCandidate(t, float(i % 4 + 1), i % 3 + 1) for i, t in enumerate(token_lists)]
    for factor_of in compose._FACTORS.values():
        factor_of.cache_clear()
    for qtype in QuestionType:
        want = _listed(filter_each(cands, qtype))
        assert _listed(filter_ngrams(cands, qtype)) == want  # computed
        assert _listed(filter_ngrams(cands, qtype)) == want  # memoised


# --------------------------------------------------------------------------
# tile_ngrams


def test_paper_pair_tiles_into_full_name():
    cands = [_cand("John Wilkes", 5.0), _cand("Wilkes Booth", 5.0)]
    out = _tile(cands)
    assert out[0].text == "John Wilkes Booth"
    assert out[0].score == 10.0
    assert len(out) == 1


def test_disjoint_candidates_untouched_and_sorted():
    out = _tile([_cand("bullet", 3.0), _cand("actor", 2.0)])
    assert [c.text for c in out] == ["bullet", "actor"]


def test_subsumed_candidate_absorbed_without_token_change():
    out = _tile([_cand("John Wilkes Booth", 9.0), _cand("Wilkes Booth", 2.0)])
    assert [c.text for c in out] == ["John Wilkes Booth"]
    assert out[0].score == 11.0


@pytest.mark.parametrize("partners", [("b c", "b d"), ("b d", "b c")])
def test_equal_tilings_merge_the_smaller_key_pair_first(partners):
    # Both pairs through "a b" score the same and overlap by one key, so the
    # key pair decides, whichever partner comes first in the pool.
    out = _tile([_cand("a b", 1.0)] + [_cand(text, 1.0) for text in partners])
    assert [c.text for c in out] == ["a b c", "b d"]


def test_tiling_never_lowers_max_score():
    cands = [_cand("a b", 4.0), _cand("b c", 3.0), _cand("x", 9.0)]
    out = _tile(cands)
    assert max(c.score for c in out) >= 9.0


_keys = st.sampled_from(["a", "b", "c", "d"])
_tile_cands = st.lists(
    st.tuples(st.lists(_keys, min_size=1, max_size=3), st.integers(1, 20)),
    min_size=1,
    max_size=6,
).map(lambda items: [(tuple(k), float(s)) for k, s in items])


@given(_tile_cands)
@settings(deadline=None, max_examples=60)
def test_tiling_matches_stepwise_oracle_and_lands_on_reachable_fixpoint(cands):
    # distinct keys only: mining can never emit duplicates
    unique = {}
    for key, score in cands:
        unique.setdefault(key, score)
    cands = list(unique.items())

    produced = _tile([NGramCandidate(k, s, support=1) for k, s in cands])
    got = sorted((candidate_key(c), c.score) for c in produced)

    oracle = stepwise_best_fixpoint(cands)
    assert got == sorted((k, s) for k, s in oracle)

    reachable = all_fixpoints(cands)
    assert tuple(sorted(got)) in reachable


@given(_tile_cands)
@settings(deadline=None, max_examples=40)
def test_tiled_answers_reconstructible_from_inputs(cands):
    unique = {}
    for key, score in cands:
        unique.setdefault(key, score)
    inputs = [NGramCandidate(k, s, support=1) for k, s in unique.items()]
    total_before = sum(c.score for c in inputs)
    out = _tile(inputs)
    # merging conserves total score, and every output key is a join of inputs
    assert abs(sum(c.score for c in out) - total_before) < 1e-9
    input_keys = set(unique)
    for cand in out:
        key = candidate_key(cand)
        if key in input_keys:
            continue
        # must contain at least one input key as a contiguous subsequence
        assert any(
            key[i : i + len(k)] == k
            for k in input_keys
            for i in range(len(key) - len(k) + 1)
        )


# Equal scores, repeated keys and case variants of one key make ties on
# score, overlap and key pair common, so the tie-breaks decide the output.
_tile_words = st.sampled_from(["a", "A", "b", "c", "C", "d"])
_tile_pool = st.lists(
    st.tuples(
        st.lists(_tile_words, min_size=1, max_size=4), st.integers(1, 4), st.integers(1, 3)
    ),
    min_size=1,
    max_size=12,
).map(lambda items: [NGramCandidate(tuple(w), float(s), n) for w, s, n in items])


@given(_tile_pool)
@example([_cand("a b"), _cand("b c"), _cand("a b"), _cand("b C")])
@settings(deadline=None, max_examples=200)
def test_tiling_matches_all_pairs_oracle_exactly(cands):
    def listed(out):
        return [(c.tokens, c.score, c.support) for c in out]

    assert listed(_tile(cands)) == listed(tile_all_pairs(cands))


@given(_tile_pool)
# kb's first key is ka's first too, yet their tails differ: no overlap
@example([_cand("a b", 2.0), _cand("a c"), _cand("b")])
@example([_cand("a"), _cand("b"), _cand("a b")])
@settings(deadline=None, max_examples=300)
def test_tiling_equals_the_slow_version(cands):
    keys = [candidate_key(c) for c in cands]
    got, want = tile_ngrams(cands, keys), slow_tile_ngrams(cands, keys)
    assert _listed(got) == _listed(want)
    # which outputs are input candidates themselves, and which ones
    def sources(out):
        return [next((i for i, c in enumerate(cands) if c is a), None) for a in out]

    assert sources(got) == sources(want)


# Small enough for the all-pairs oracle to tile quickly.
_answer_texts = st.lists(st.sampled_from(_answer_vocab), max_size=5).map(" ".join)
# (weight, texts) per rewrite; a rewrite may have retrieved nothing.
_answer_evidence = st.lists(
    st.tuples(st.sampled_from([5.0, 2.0, 1.0]), st.lists(_answer_texts, max_size=2)), max_size=3
).map(lambda texts: [(weight, [_snip(t) for t in group]) for weight, group in texts])
_answer_exclusions = st.lists(st.sampled_from(_answer_vocab), max_size=3)


@given(evidence=_answer_evidence, exclude=_answer_exclusions)
@settings(deadline=None, max_examples=150)
def test_tiling_from_mined_keys_matches_all_pairs_oracle(evidence, exclude):
    mined = mine_ngrams(evidence, exclude=_excluded(exclude))
    assert mined.keys == tuple(map(candidate_key, mined))
    assert _listed(tile_ngrams(mined, mined.keys)) == _listed(tile_all_pairs(mined))


@given(evidence=_answer_evidence, exclude=_answer_exclusions, qtype=st.sampled_from(QuestionType))
@settings(deadline=None, max_examples=150)
def test_composition_matches_mine_filter_tile_oracles(evidence, exclude, qtype):
    got = compose_answers(evidence, qtype, exclude=_excluded(exclude))
    mined = [
        NGramCandidate(tokens, score, support)
        for tokens, score, support in mine_in_order(evidence, exclude, default_stopwords())
    ]
    assert _listed(got) == _listed(tile_all_pairs(filter_each(mined, qtype)))
    assert got.mined == len(mined)


def _everything(cands):
    return _listed(cands), cands.mined, dict(cands.mined_by_weight), cands.keys


# Where to insert an empty group and its weight; 3.0 and 0.5 weigh no
# snippet that the evidence strategies draw.
_empty_groups = st.lists(
    st.tuples(st.integers(min_value=0, max_value=8), st.sampled_from([5.0, 2.0, 1.0, 3.0, 0.5])),
    max_size=4,
)


@given(evidence=_answer_evidence, empties=_empty_groups, exclude=_answer_exclusions,
       qtype=st.sampled_from(QuestionType))
@settings(deadline=None, max_examples=150)
def test_empty_groups_change_no_mining_or_composition(evidence, empties, exclude, qtype):
    # A run composes only the rewrites that returned snippets, which is
    # sound only if an empty group, wherever it sits, changes nothing.
    padded = list(evidence)
    for position, weight in empties:
        padded.insert(position % (len(padded) + 1), (weight, ()))
    stripped = [(weight, group) for weight, group in padded if group]
    keys = _excluded(exclude)
    assert _everything(mine_ngrams(padded, exclude=keys)) == _everything(
        mine_ngrams(stripped, exclude=keys)
    )
    assert _everything(compose_answers(padded, qtype, exclude=keys)) == _everything(
        compose_answers(stripped, qtype, exclude=keys)
    )


# --------------------------------------------------------------------------
# compose_answers


def test_compose_is_deterministic(lincoln_provider):
    from budgetqa.control import AllRewrites, run_policy

    first = run_policy(AllRewrites(), "Who killed Abraham Lincoln?", lincoln_provider)
    second = run_policy(AllRewrites(), "Who killed Abraham Lincoln?", lincoln_provider)
    assert [(c.text, c.score) for c in first.answers] == [
        (c.text, c.score) for c in second.answers
    ]


def test_compose_empty_snippets():
    for evidence in ([], [(5.0, []), (1.0, [])]):
        composed = compose_answers(evidence, QuestionType.WHO)
        assert composed == ()
        assert composed.mined == 0 and dict(composed.mined_by_weight) == {} and composed.keys is None


def test_support_conserved_through_filtering():
    cands = [_cand("John Booth", 4.0, support=3), _cand("april", 2.0, support=5)]
    out = filter_ngrams(cands, QuestionType.WHO)
    assert sum(c.support for c in out) == 8


# --------------------------------------------------------------------------
# Golden digest: every prefix composition of a benchmark, pinned.

# Digested before tiling, mining and filtering were sped up; any change to a
# composition's candidates, their order, tokens, scores or supports, or to
# its mining counts, changes it.
COMPOSE_GOLDEN_DIGEST = "728610fb3bd1fbfed22c8789473b5bb1c70d85b39cb3ff905a090b3a44249696"


def test_compositions_match_golden_digest():
    """Every prefix composition of every question of a 120-question
    benchmark, with its rewrites in generated and in reversed order."""
    bench = generate_benchmark(120, seed=0)
    provider = OfflineProvider(build_index(bench.corpus))
    digest = hashlib.sha256()
    composed = 0
    for item in bench.items:
        question = Question.from_text(item.question)
        rewrites = generate_rewrites(question)
        for order in (rewrites, rewrites[::-1]):
            run = Run(question, order, provider)
            for k in range(1, len(order) + 1):
                answers = run.compose(k)
                record = [
                    [[list(c.tokens), c.score, c.support] for c in answers],
                    answers.mined,
                    sorted(answers.mined_by_weight.items()),
                ]
                digest.update(json.dumps(record).encode("utf-8"))
                composed += 1
    assert composed == 1536
    assert digest.hexdigest() == COMPOSE_GOLDEN_DIGEST

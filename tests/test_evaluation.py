import dataclasses
import hashlib
import json
import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetqa import control, evaluation, rewrite
from budgetqa.bench import generate_benchmark
from budgetqa.control import (
    AllRewrites,
    ConjunctiveOnly,
    CostBenefit,
    LikelihoodN,
    Preferences,
    RandomN,
    Run,
    run_policy,
)
from budgetqa.errors import DatasetParseError
from budgetqa.evaluation import (
    K_SWEEP,
    Judgment,
    QAItem,
    QuestionRecord,
    Report,
    dump_dataset,
    evaluate,
    judge,
    load_dataset,
    render_k_sweep,
    render_n_sweep,
    render_reports,
    reproduce,
    sweep_k,
    sweep_n,
    write_jsonl,
)
from budgetqa.harness import train_models
from budgetqa.models import DEFAULT_THRESHOLDS, ModelSet, ThresholdEnsemble
from budgetqa.rewrite import AdjacencyGrammarScorer, Question, generate_rewrites
from budgetqa.search import Document, MeteredProvider, OfflineProvider, build_index
from budgetqa.text import token_key, tokenize
from budgetqa.tree import DecisionTree, Leaf


# --------------------------------------------------------------------------
# judge


def _patterns(*ps):
    return tuple(re.compile(p, re.IGNORECASE) for p in ps)


def test_judge_correct_on_full_match():
    assert judge("John Wilkes Booth", _patterns(r"(John )?Wilkes Booth")) is Judgment.CORRECT


def test_judge_incorrect_on_other_answer():
    assert judge("bullet", _patterns(r"(John )?Wilkes Booth")) is Judgment.INCORRECT


def test_judge_abstained_on_none():
    assert judge(None, _patterns(r".*")) is Judgment.ABSTAINED


def test_judge_trims_and_ignores_case():
    assert judge("  wilkes booth  ", _patterns(r"(John )?Wilkes Booth")) is Judgment.CORRECT


def test_judge_requires_full_match():
    assert judge("the Wilkes Booth story", _patterns(r"(John )?Wilkes Booth")) is Judgment.INCORRECT


# --------------------------------------------------------------------------
# dataset i/o


def test_load_dataset_well_formed(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"question": "Who did it?", "patterns": ["booth"]}\n'
        '{"question": "How many?", "patterns": ["\\\\d+", "many"]}\n',
        encoding="utf-8",
    )
    items = load_dataset(str(path))
    assert len(items) == 2
    assert items[0].question == "Who did it?"
    assert len(items[1].patterns) == 2


def test_load_dataset_bad_regex_reports_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"question": "ok", "patterns": ["fine"]}\n'
        '{"question": "bad", "patterns": ["(unclosed"]}\n',
        encoding="utf-8",
    )
    with pytest.raises(DatasetParseError) as err:
        load_dataset(str(path))
    assert err.value.line_no == 2


@pytest.mark.parametrize("patterns", ['"Booth"', '["Booth", 3]', '{"Booth": 1}', "null"])
def test_load_dataset_requires_a_list_of_pattern_strings(tmp_path, patterns):
    # A bare string used to become one single-character regex per letter,
    # so "o" judged correct and "Booth" incorrect.
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"question": "ok", "patterns": ["fine"]}\n'
        f'{{"question": "Who shot Lincoln?", "patterns": {patterns}}}\n',
        encoding="utf-8",
    )
    with pytest.raises(DatasetParseError, match="list of strings") as err:
        load_dataset(str(path))
    assert err.value.line_no == 2


@pytest.mark.parametrize(
    "question", ["null", '["Who", "shot", "Lincoln?"]', "7"], ids=["null", "list", "number"]
)
def test_load_dataset_requires_a_question_string(tmp_path, question):
    # str() used to turn null into the question "None".
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"question": "ok", "patterns": ["fine"]}\n'
        f'{{"question": {question}, "patterns": ["Booth"]}}\n',
        encoding="utf-8",
    )
    with pytest.raises(DatasetParseError, match="question is not a JSON string") as err:
        load_dataset(str(path))
    assert err.value.line_no == 2


def test_load_dataset_rejects_a_question_without_word_tokens(tmp_path):
    # Such a question used to load and stop evaluate or train mid-run,
    # after the backend was built, with no line number.
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"question": "ok", "patterns": ["fine"]}\n{"question": "?!", "patterns": ["x"]}\n',
        encoding="utf-8",
    )
    with pytest.raises(DatasetParseError, match="no word tokens") as err:
        load_dataset(str(path))
    assert err.value.line_no == 2


def test_dataset_round_trip(tmp_path):
    items = [QAItem.make("Who?", [r"(a )?b"]), QAItem.make("Where?", [r"x", r"y"])]
    items += [QAItem.make("Où est le pont?", [r"\d+ (feet|ft)", "caf\u00e9", r'"quoted"'])]
    items += generate_benchmark(20, seed=2).items
    path, again = tmp_path / "rt.jsonl", tmp_path / "again.jsonl"
    dump_dataset(items, str(path))
    loaded = load_dataset(str(path))
    assert loaded == items
    dump_dataset(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()


def test_empty_patterns_rejected():
    with pytest.raises(DatasetParseError):
        QAItem.make("Who?", [])


# --------------------------------------------------------------------------
# evaluate


@pytest.fixture(scope="module")
def small_bench():
    bench = generate_benchmark(
        20, redundancy=3, distractors=10, tease_rate=0.2, sparse_rate=0.0, empty_rate=0.0, seed=5
    )
    provider = OfflineProvider(build_index(bench.corpus))
    return bench, provider


def test_conjunctive_only_cost_equals_question_count(small_bench):
    bench, provider = small_bench
    meter = MeteredProvider(provider)
    report = evaluate(ConjunctiveOnly(), bench.items, meter)
    assert report.total_cost == len(bench.items) == meter.calls
    report.check_accounting()


def test_evaluation_is_deterministic(small_bench):
    bench, provider = small_bench
    first = evaluate(RandomN(2, seed=3), bench.items, provider)
    second = evaluate(RandomN(2, seed=3), bench.items, provider)
    assert first.to_json() == second.to_json()
    assert [r.top_answer for r in first.per_question] == [
        r.top_answer for r in second.per_question
    ]


def test_parallel_evaluation_matches_serial(small_bench):
    bench, provider = small_bench
    serial = evaluate(AllRewrites(), bench.items, provider, jobs=1)
    parallel = evaluate(AllRewrites(), bench.items, provider, jobs=4)
    assert serial.to_json() == parallel.to_json()


def test_parallel_k_sweep_matches_serial(small_bench):
    # Threads share each question's remembered probe prediction across the
    # k values; fresh item copies start both sides with empty maps.
    bench, provider = small_bench
    models = _leaf_models()
    models.ensemble = ThresholdEnsemble(
        trees={n: _leaf(min(0.95, 0.1 * n)) for n in DEFAULT_THRESHOLDS}
    )
    ks = [2.0, 5.0, 10.0, 20.0]
    serial, parallel = (
        sweep_k([dataclasses.replace(item) for item in bench.items], provider, models, ks, jobs=jobs)
        for jobs in (1, 4)
    )
    assert [(k, r.to_json(), r.per_question) for k, r in serial] == [
        (k, r.to_json(), r.per_question) for k, r in parallel
    ]


def test_k_sweep_reports_do_not_depend_on_c():
    # Budgets rank on their nets in query units, so the cost c of a query
    # changes no decision: every report, per-question records included, is
    # the same.
    bench = generate_benchmark(40, seed=0)
    provider = OfflineProvider(build_index(bench.corpus))
    models = train_models(bench.items[:20], provider, scorer=AdjacencyGrammarScorer())
    ks = [1.5, 2.0, 3.0, 5.0, 10.0, 20.0]
    runs = [sweep_k(bench.items[20:], provider, models, ks, c) for c in (0.1, 1.0, 7.0)]
    assert runs[0][0][1].per_question
    assert runs[0] == runs[1] == runs[2]


def test_accounting_identity_and_meter(small_bench):
    bench, provider = small_bench
    meter = MeteredProvider(provider)
    report = evaluate(AllRewrites(), bench.items, meter)
    assert report.correct + report.incorrect + report.abstained == report.total_questions
    assert report.total_cost == meter.calls


def test_queries_answered_from_the_memo_are_charged(small_bench):
    bench, _ = small_bench
    meter = MeteredProvider(OfflineProvider(build_index(bench.corpus)))
    # The first pass searches; the second is answered from the provider's memo.
    first = evaluate(AllRewrites(), bench.items, meter)
    second = evaluate(AllRewrites(), bench.items, meter)
    assert first.to_json() == second.to_json()
    assert first.per_question == second.per_question
    assert meter.calls == first.total_cost + second.total_cost == 2 * first.total_cost

    question = Question.from_text(bench.items[0].question)
    rewrites = generate_rewrites(question)
    runs = [Run(question, rewrites, meter) for _ in range(2)]
    for run in runs:
        run.compose(len(rewrites))
    assert len(runs[0].snippets) == len(runs[1].snippets) == len(rewrites)
    assert runs[0].snippets == runs[1].snippets


def test_backend_failures_recorded_per_rewrite_not_fatal(small_bench):
    bench, provider = small_bench
    from budgetqa.errors import RetryableError

    class Flaky:
        def __init__(self, inner):
            self.inner = inner
            self.count = 0

        def execute(self, rewrite, limit):
            self.count += 1
            if self.count % 7 == 0:
                raise RetryableError("transient")
            return self.inner.execute(rewrite, limit)

    flaky = Flaky(provider)
    report = evaluate(AllRewrites(), bench.items, flaky)
    report.check_accounting()
    assert any(r.error for r in report.per_question)
    # a failed rewrite does not abort its question: every question still
    # issued its full budget, and most are still answered correctly
    assert report.total_cost == flaky.count
    assert report.correct > 0


@given(seed=st.integers(min_value=0, max_value=9), order=st.integers(min_value=0, max_value=2**32 - 1))
@settings(deadline=None, max_examples=8)
def test_corpus_order_changes_no_top_answer(seed, order):
    # Results sort by document id, so the order the corpus lists its
    # documents in must not reach any answer.
    bench = generate_benchmark(40, seed=seed)
    shuffled = list(bench.corpus)
    random.Random(order).shuffle(shuffled)
    for policy in (AllRewrites(), ConjunctiveOnly()):
        tops = []
        for corpus in (bench.corpus, shuffled):
            items = [QAItem(item.question, item.pattern_texts) for item in bench.items]
            report = evaluate(policy, items, OfflineProvider(build_index(corpus)))
            tops.append([record.top_answer for record in report.per_question])
        assert tops[0] == tops[1]


def _trained_half(seed):
    """A 40-question benchmark, its provider, models trained on its first
    half, and its held-out second half."""
    bench = generate_benchmark(40, seed=seed)
    provider = OfflineProvider(build_index(bench.corpus))
    models = train_models(bench.items[:20], provider, scorer=AdjacencyGrammarScorer())
    return bench, provider, models, bench.items[20:]


@given(seed=st.integers(min_value=0, max_value=9))
@settings(deadline=None, max_examples=4)
def test_cost_benefit_cost_is_monotone_in_k_through_the_pipeline(seed):
    # The best net p(n) * k - n moves to larger n as k grows, and from
    # abstaining to answering, never back. Each k predicts on its own
    # probe, so this also pins that the repeated predictions agree.
    _, provider, models, held_out = _trained_half(seed)
    ks = (1.01, 1.5, 2, 3, 5, 10, 20, 100)
    for item in held_out:
        results = [
            run_policy(CostBenefit(), item.parsed, provider, models, Preferences(k=k, c=1)) for k in ks
        ]
        for lower, higher in zip(results, results[1:]):
            assert higher.queries_issued >= lower.queries_issued, item.question
            assert lower.abstained or not higher.abstained, item.question


@given(seed=st.integers(min_value=0, max_value=9))
@settings(deadline=None, max_examples=2)
def test_a_questions_record_does_not_depend_on_the_questions_before_it(seed):
    # Evaluated in order and reversed, each with fresh items and a fresh
    # provider, every question gets the same record. RandomN is left out:
    # it seeds its shuffle on the question's index in the dataset.
    bench, _, models, held_out = _trained_half(seed)
    policies = (ConjunctiveOnly(), AllRewrites(), LikelihoodN(3), CostBenefit())
    prefs = Preferences(k=10, c=1)
    for policy in policies:
        records = []
        for items in (held_out, held_out[::-1]):
            fresh = [dataclasses.replace(item) for item in items]
            provider = OfflineProvider(build_index(bench.corpus))
            records.append(evaluate(policy, fresh, provider, models, prefs).per_question)
        assert records[0] == records[1][::-1], policy.name


@given(seed=st.integers(min_value=0, max_value=9))
@settings(deadline=None, max_examples=3)
def test_documents_sharing_no_key_with_a_question_change_no_answer(seed):
    # Documents whose words key to nothing in any question match no
    # rewrite, wherever their ids sort among the others'.
    bench = generate_benchmark(40, seed=seed)
    question_keys = set().union(*(item.parsed.token_keys for item in bench.items))
    words = ["zorbel", "quimset", "flundra", "vexhollow", "praddock"]
    assert not question_keys & set(map(token_key, words))
    unrelated = [
        Document(doc_id, " ".join(words[i:] + words[:i]) + ".")
        for i, doc_id in enumerate(["a0", "d00000a", "d99999", "zz"])
    ]
    ids = sorted(doc.id for doc in bench.corpus + unrelated)
    assert ids[0] == "a0" and ids[-1] == "zz"
    for policy in (AllRewrites(), ConjunctiveOnly()):
        tops = []
        for corpus in (bench.corpus, bench.corpus + unrelated):
            items = [dataclasses.replace(item) for item in bench.items]
            report = evaluate(policy, items, OfflineProvider(build_index(corpus)))
            tops.append([record.top_answer for record in report.per_question])
        assert tops[0] == tops[1], policy.name


def test_all_rewrites_beats_or_ties_prefix_policies(small_bench):
    bench, provider = small_bench
    full = evaluate(AllRewrites(), bench.items, provider)
    assert full.correct >= 1  # the benchmark is answerable at all


def test_item_keeps_its_parsed_question_outside_its_value():
    item = QAItem.make("Who killed Abraham Lincoln?", [r"(John )?Wilkes Booth"])
    parsed = item.parsed
    assert parsed == Question.from_text(item.question) and item.parsed is parsed
    twin = QAItem.make(item.question, [r"(John )?Wilkes Booth"])
    assert twin == item and hash(twin) == hash(item)
    assert "parsed" not in twin.__dict__
    moved = dataclasses.replace(item, question="Who shot Lincoln?")
    assert "parsed" not in moved.__dict__
    assert moved.parsed == Question.from_text("Who shot Lincoln?")


def test_items_from_equal_pattern_strings_are_equal_judged_or_not():
    judged = QAItem.make("Who killed Abraham Lincoln?", [r"(John )?Wilkes Booth"])
    assert judged.verdict(" wilkes booth ") is Judgment.CORRECT
    twin = QAItem.make(judged.question, (r"(John )?Wilkes Booth",))
    assert "patterns" in judged.__dict__ and "patterns" not in twin.__dict__
    assert twin == judged and hash(twin) == hash(judged)
    assert twin != QAItem.make(judged.question, [r"(John )?Wilkes Booth", r"Booth"])


def test_a_judged_item_survives_pickle():
    item = QAItem.make("Who killed Abraham Lincoln?", [r"(John )?Wilkes Booth"])
    assert item.verdict(" wilkes booth ") is Judgment.CORRECT
    copy = pickle.loads(pickle.dumps(item))
    assert copy == item and hash(copy) == hash(item)
    assert copy.patterns == item.patterns and copy.verdicts == item.verdicts
    assert copy.verdict("bullet") is Judgment.INCORRECT


def test_item_verdicts_equal_judge_and_judge_each_answer_once(monkeypatch):
    item = QAItem.make("Who killed Abraham Lincoln?", [r"(John )?Wilkes Booth"])
    answers = [None, "  wilkes BOOTH ", "John Wilkes Booth", "bullet"]
    expected = [judge(a, item.patterns) for a in answers]
    assert expected == [Judgment.ABSTAINED, Judgment.CORRECT, Judgment.CORRECT, Judgment.INCORRECT]
    calls = Counter()
    pure = evaluation.judge

    def counting(top_answer, patterns):
        calls[top_answer] += 1
        return pure(top_answer, patterns)

    monkeypatch.setattr(evaluation, "judge", counting)
    assert [item.verdict(a) for a in answers + answers] == expected + expected
    assert calls == Counter(answers) and list(item.verdicts) == answers
    moved = dataclasses.replace(item)
    assert moved == item
    assert moved.verdicts == {} and moved.verdict("bullet") is Judgment.INCORRECT


@pytest.mark.parametrize("jobs", [1, 4])
def test_evaluations_judge_each_distinct_answer_of_an_item_once(small_bench, monkeypatch, jobs):
    bench, provider = small_bench
    policies = [ConjunctiveOnly(), RandomN(1, seed=0), RandomN(3, seed=1), AllRewrites()]
    baseline = [evaluate(p, bench.items, provider).per_question for p in policies]
    calls = Counter()
    pure = evaluation.judge

    def counting(top_answer, patterns):
        calls[top_answer, patterns] += 1
        return pure(top_answer, patterns)

    monkeypatch.setattr(evaluation, "judge", counting)
    items = [QAItem(item.question, item.pattern_texts) for item in bench.items]  # none judged yet
    records = [evaluate(p, items, provider, jobs=jobs).per_question for p in policies]
    assert records == baseline
    for i, item in enumerate(items):
        tops = {report[i].top_answer for report in records}
        assert set(item.verdicts) == tops
        assert all(calls[top, item.patterns] == 1 for top in tops)
    assert sum(calls.values()) == sum(len(item.verdicts) for item in items)


def test_question_records_are_slotted_values(small_bench):
    bench, provider = small_bench
    record = evaluate(AllRewrites(), bench.items[:1], provider).per_question[0]
    assert isinstance(record, QuestionRecord) and not hasattr(record, "__dict__")
    assert dataclasses.replace(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    assert dataclasses.replace(record, error="down") != record
    with pytest.raises(AttributeError):
        record.note = "not a field"


def test_evaluations_rewrite_each_item_once(small_bench, monkeypatch):
    bench, provider = small_bench
    items = [QAItem(item.question, item.pattern_texts) for item in bench.items]  # none parsed yet
    generate = rewrite.generate_rewrites
    calls = Counter()

    def counted(question):
        calls[question.tokens] += 1
        return generate(question)

    monkeypatch.setattr(rewrite, "generate_rewrites", counted)
    evaluate(AllRewrites(), items, provider)
    evaluate(RandomN(n=2, seed=1), items, provider)
    assert calls == Counter(tuple(tokenize(item.question)) for item in items)


def test_changing_a_result_leaves_later_runs_alone(small_bench):
    bench, provider = small_bench
    question = Question.from_text(bench.items[0].question)
    first = run_policy(AllRewrites(), question, provider)
    answers, used = tuple(first.answers), first.rewrites_used
    assert answers and len(used) > 1
    with pytest.raises(AttributeError):
        first.answers.clear()
    with pytest.raises(AttributeError):
        first.rewrites_used.reverse()
    with pytest.raises(AttributeError):
        AllRewrites().select(question, None, 0).clear()
    second = run_policy(AllRewrites(), question, provider)
    assert second.answers == answers and second.rewrites_used == used == question.rewrites


# --------------------------------------------------------------------------
# sweep_n


def _leaf(p):
    return DecisionTree(root=Leaf(probability=p, support=10, positives=5))


def _leaf_models():
    return ModelSet(conjunctive=_leaf(0.5), phrasal=_leaf(0.7))


def test_sweep_n_makes_one_evaluation_per_order_and_threshold(small_bench, monkeypatch):
    # The benchmark's experiment checks this count of evaluate calls.
    bench, provider = small_bench
    policies = []

    def counted(policy, *args, **kwargs):
        policies.append(policy)
        return evaluate(policy, *args, **kwargs)

    monkeypatch.setattr(evaluation, "evaluate", counted)
    rows = sweep_n(bench.items, provider, _leaf_models(), seeds=(0, 1, 2))
    assert len(policies) == len(DEFAULT_THRESHOLDS) * (3 + 1)
    assert sorted(map(repr, policies)) == sorted(
        [repr(RandomN(n=n, seed=s)) for n in DEFAULT_THRESHOLDS for s in (0, 1, 2)]
        + [repr(LikelihoodN(n=n)) for n in DEFAULT_THRESHOLDS]
    )
    assert [row["total_cost"] for row in rows] == [
        sum(min(n, len(item.parsed.rewrites)) for item in bench.items) for n in DEFAULT_THRESHOLDS
    ]


def test_sweep_n_rejects_no_seeds(small_bench):
    bench, provider = small_bench
    with pytest.raises(ValueError, match="seed"):
        sweep_n(bench.items, provider, _leaf_models(), seeds=())


def test_sweep_n_rejects_a_row_whose_costs_disagree(small_bench, monkeypatch):
    bench, provider = small_bench

    def overcharged(policy, *args, **kwargs):
        report = evaluate(policy, *args, **kwargs)
        if policy == RandomN(n=3, seed=1):
            report.total_cost += 1
        return report

    monkeypatch.setattr(evaluation, "evaluate", overcharged)
    with pytest.raises(RuntimeError, match="N=3"):
        sweep_n(bench.items, provider, _leaf_models(), seeds=(0, 1))


# --------------------------------------------------------------------------
# Golden digest: the experiment's tables, pinned.

# Digested before the N sweep was reordered to walk each order's budgets in
# turn; any change to a row of the N sweep, the policy comparison or the k
# sweep changes it.
TABLES_GOLDEN_DIGEST = "97576b805c1de6a4ba82f4393f88f610635cf3fb62ac097962aabe0621040ca4"


def test_experiment_tables_match_golden_digest():
    """The experiment script's three tables on an 80-question benchmark,
    trained on the first half and evaluated on the second."""
    bench = generate_benchmark(80, seed=0)
    provider = OfflineProvider(build_index(bench.corpus))
    train_items, eval_items = bench.items[:40], bench.items[40:]
    models = train_models(train_items, provider, scorer=AdjacencyGrammarScorer())
    experiment = reproduce(eval_items, provider, models, Preferences(k=10.0, c=1.0), seeds=(0, 1))
    tables = "\n\n".join(experiment.tables())
    assert hashlib.sha256(tables.encode("utf-8")).hexdigest() == TABLES_GOLDEN_DIGEST


def test_a_question_keeps_one_composition_per_ordered_evidence(monkeypatch):
    # After the experiments, a question holds one composition per ordered
    # tuple of its rewrites that returned snippets, keyed by their parts,
    # and the k sweep finds every probe and every chosen budget
    # among the compositions already made.
    bench = generate_benchmark(40, seed=0)
    provider = OfflineProvider(build_index(bench.corpus))
    train_items, eval_items = bench.items[:20], bench.items[20:]
    models = train_models(train_items, provider, scorer=AdjacencyGrammarScorer())
    reproduce(eval_items, provider, models, Preferences(k=10.0, c=1.0), seeds=(0, 1))
    for item in bench.items:
        by_parts = {r.parts: r for r in item.parsed.rewrites}
        assert item.parsed.compositions
        for key, (evidence, _) in item.parsed.compositions.items():
            assert len(set(key)) == len(key) and set(key) <= by_parts.keys()
            assert all(found for _, found in evidence)
            assert [found for _, found in evidence] == [provider.execute(by_parts[parts]) for parts in key]

    calls = []
    compose_answers = control.compose_answers

    def counted(*args, **kwargs):
        calls.append(args)
        return compose_answers(*args, **kwargs)

    monkeypatch.setattr(control, "compose_answers", counted)
    again = sweep_k(eval_items, provider, models, K_SWEEP)
    assert calls == []
    fresh = [QAItem(item.question, item.pattern_texts) for item in eval_items]
    assert again == sweep_k(fresh, provider, models, K_SWEEP)
    assert calls


# --------------------------------------------------------------------------
# rendering


def test_render_reports_is_aligned():
    report = Report("demo", 10, 6, 3, 1, 42)
    text = render_reports([report])
    lines = text.splitlines()
    assert len(lines) == 3
    assert "demo" in lines[2]
    assert "42" in lines[2]


def test_render_sweeps_shapes():
    n_rows = [{"n": 1, "total_cost": 9, "random_correct": 4.5, "likelihood_correct": 6}]
    assert "likelihood" in render_n_sweep(n_rows)
    k_rows = [(5.0, Report("cb", 10, 5, 5, 0, 20))]
    assert "answer value" in render_k_sweep(k_rows)


def test_write_jsonl(tmp_path):
    path = tmp_path / "reports.jsonl"
    write_jsonl([Report("demo", 4, 2, 2, 0, 8).to_json()], str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["policy"] == "demo"
    assert rows[0]["total_cost"] == 8

import json
import re

import pytest

from budgetqa.bench import generate_benchmark
from budgetqa.control import AllRewrites, ConjunctiveOnly, RandomN, Run
from budgetqa.errors import DatasetParseError
from budgetqa.evaluation import (
    Judgment,
    QAItem,
    Report,
    dump_dataset,
    evaluate,
    judge,
    load_dataset,
    render_k_sweep,
    render_n_sweep,
    render_reports,
    write_reports_jsonl,
)
from budgetqa.rewrite import Question, generate_rewrites
from budgetqa.search import DEFAULT_LIMIT, MeteredProvider, OfflineProvider, build_index


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


def test_dataset_round_trip(tmp_path):
    items = [QAItem.make("Who?", [r"(a )?b"]), QAItem.make("Where?", [r"x", r"y"])]
    path = tmp_path / "rt.jsonl"
    dump_dataset(items, str(path))
    assert load_dataset(str(path)) == items


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
    runs = [Run(question, rewrites, meter, DEFAULT_LIMIT) for _ in range(2)]
    for run in runs:
        run.compose(len(rewrites))
    assert runs[0].issued == runs[1].issued == len(rewrites)
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


def test_all_rewrites_beats_or_ties_prefix_policies(small_bench):
    bench, provider = small_bench
    full = evaluate(AllRewrites(), bench.items, provider)
    assert full.correct >= 1  # the benchmark is answerable at all


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


def test_write_reports_jsonl(tmp_path):
    path = tmp_path / "reports.jsonl"
    write_reports_jsonl([Report("demo", 4, 2, 2, 0, 8)], str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["policy"] == "demo"
    assert rows[0]["total_cost"] == 8

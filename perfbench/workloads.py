"""The benchmark's workloads, their output checks and their metrics.

experiment   The steps of scripts/run_policy_experiments.py, one thread, in
             process: train on the first half of a generated set, then the
             N sweep (random seeds 0-4), the three-policy comparison and the
             k sweep on the second half. Its traffic repeats heavily.
ask_remote   Two clients in a closed loop ask every question of fresh
             corpora exactly once (cost-benefit, k=10, c=1) through
             RemoteProvider against a stub HTTP backend (stubserver.py).
             No query repeats, search is waiting, not CPU, and the client
             never touches an Index.

Every workload trains with AdjacencyGrammarScorer and receives only inputs
from ``budgetqa.bench.generate_benchmark``, derived from the seed.

Timing on a shared host: other load slowed CPU-bound Python by up to 1.6x
(measured on 2 vCPUs of a 2 GHz Intel Xeon), in stretches of seconds to
minutes, so the same run of the same code took 12 s or 20 s, and a run
cannot average that out. So
CPU-bound times are reported at a reference speed: a fixed dict- and
string-heavy loop that calls no program code (``calibration_s``) is timed
next to each timed part, and the part's time is scaled by
``CALIBRATION_REF_S`` over the loop's time. A program that does more work
still reads slower in proportion; a host that runs everything slower does
not. This applies to ``setup_s`` on both workloads and to the experiment's
times. The ask_remote latencies and throughput are mostly waiting on the
stub's fixed delay, so they are reported as measured. Set-up is repeated
across a run and reports the median of its repeats.

Program functions are called through their modules (``harness.train_models``,
``control.run_policy``, ...) so that the tracer in spans.py can rebind them.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import resource
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from budgetqa import control, evaluation, harness, search
from budgetqa.bench import generate_benchmark
from budgetqa.config import Config
from budgetqa.control import AllRewrites, ConjunctiveOnly, CostBenefit, Preferences
from budgetqa.evaluation import Judgment, judge, render_k_sweep, render_n_sweep, render_reports
from budgetqa.models import DEFAULT_THRESHOLDS
from budgetqa.rewrite import AdjacencyGrammarScorer
from budgetqa.search import MeteredProvider, OfflineProvider

from perfbench.spans import Tracer, layer_metrics, percentile

PREFS = Preferences(k=10.0, c=1.0)
SWEEP_SEEDS = (0, 1, 2, 3, 4)
K_SWEEP = (5.0, 10.0, 15.0, 20.0)
# sweep_n: one likelihood and one random run per seed at each threshold;
# then the three-policy comparison and the k sweep.
EXPERIMENT_EVALUATIONS = len(DEFAULT_THRESHOLDS) * (len(SWEEP_SEEDS) + 1) + 3 + len(K_SWEEP)
REMOTE_CLIENTS = 2
# The traced run's asks are split into this many chunks, each run untraced
# and traced, for the tracing overhead.
TRACE_CHUNKS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.p99": "ms",
    "questions_per_s": "1/s",
    "accuracy": "share",
    "queries_per_question": "queries",
    "net_value_per_question": "c",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """An output check did not hold; the run reports no numbers."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Sizes:
    experiment_questions: int = 240  # half train, half evaluation
    train_questions: int = 400  # ask_remote trains on the first half
    ask_questions: int = 440  # per ask corpus; the generator's maximum
    ask_corpora: int = 3  # the asks stop at min_asks
    min_asks: int = 1000  # p99 needs ten asks beyond it
    experiment_setups: int = 3  # before each experiment step
    experiment_repeats: int = 2
    ask_setups: int = 4
    warmup_asks: int = 20


FULL = Sizes()
TINY = Sizes(
    experiment_questions=20, train_questions=40, ask_questions=30, ask_corpora=2,
    min_asks=40, experiment_setups=2, ask_setups=2, warmup_asks=2,
)


# The calibration loop's time at the reference speed: a round figure near
# its time on the 2 GHz Xeon vCPUs of the recorded results.
CALIBRATION_REF_S = 0.004
_CALIBRATION_WORDS = [f"w{i * 7919 % 10007}" for i in range(20000)]
CALIBRATIONS: list[float] = []  # every calibration time of this run


def calibration_s() -> float:
    """Time of a fixed loop that calls no program code: how fast this core
    runs dict- and string-heavy Python right now."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for word in _CALIBRATION_WORDS:
        counts[word] = counts.get(word, 0) + 1
    total = 0
    for word in _CALIBRATION_WORDS:
        total += counts[word]
    CALIBRATIONS.append(time.perf_counter() - start)
    return CALIBRATIONS[-1]


def at_reference_speed(seconds: float, calibration: float) -> float:
    return seconds * CALIBRATION_REF_S / calibration


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cost_metrics(correct: int, queries: int, questions: int) -> dict[str, float]:
    return {
        "accuracy": correct / questions,
        "queries_per_question": queries / questions,
        "net_value_per_question": (PREFS.k * PREFS.c * correct - PREFS.c * queries) / questions,
    }


# --------------------------------------------------------------------------
# experiment


@dataclass
class ExperimentRun:
    total_s: float  # at reference speed
    digest: str
    cost_benefit: evaluation.Report
    failed: int


def _experiment_setup(seed: int, sizes: Sizes):
    """Returns the set-up time at reference speed, and the inputs."""
    calibration = calibration_s()
    start = time.perf_counter()
    bench = generate_benchmark(sizes.experiment_questions, seed=seed)
    provider = OfflineProvider(search.build_index(bench.corpus))
    return at_reference_speed(time.perf_counter() - start, calibration), (bench, provider)


EXPERIMENT_STEPS = ("train", "sweep_n", "policies", "sweep_k")


def experiment_step(step: str, bench, provider, models):
    """One step of the experiment script (at its defaults but for the
    question count). "train" returns the models the later steps take."""
    half = len(bench.items) // 2
    train_items, eval_items = bench.items[:half], bench.items[half:]
    if step == "train":
        return harness.train_models(train_items, provider, scorer=AdjacencyGrammarScorer())
    if step == "sweep_n":
        return evaluation.sweep_n(eval_items, provider, models, seeds=SWEEP_SEEDS)
    if step == "policies":
        return [
            evaluation.evaluate(ConjunctiveOnly(), eval_items, provider, models),
            evaluation.evaluate(CostBenefit(), eval_items, provider, models, PREFS,
                                label=f"cost_benefit_k{PREFS.k:g}_c{PREFS.c:g}"),
            evaluation.evaluate(AllRewrites(), eval_items, provider, models),
        ]
    return evaluation.sweep_k(eval_items, provider, models, K_SWEEP, PREFS.c)


def experiment_outcome(outputs: dict, total_s: float) -> ExperimentRun:
    """Render the tables from the steps' outputs and check every report."""
    reports, k_results = outputs["policies"], outputs["sweep_k"]
    tables = "\n\n".join([
        render_n_sweep(outputs["sweep_n"]), render_reports(reports), render_k_sweep(k_results)])
    all_reports = reports + [report for _, report in k_results]
    for report in all_reports:
        report.check_accounting()
    return ExperimentRun(
        total_s=total_s,
        digest=hashlib.sha256(tables.encode("utf-8")).hexdigest(),
        cost_benefit=reports[1],
        failed=sum(1 for r in all_reports for q in r.per_question if q.error),
    )


def run_experiment(bench, provider, between) -> ExperimentRun:
    """The experiment script's steps, timed at reference speed by part:
    each ``evaluate`` call (half a second or less) against the calibration
    loop run just before it, and the rest of each step against the mean of
    the loops before and after the step. ``between()`` is called before
    each step, outside the timing."""
    outputs: dict = {}
    total_s = 0.0
    calls: list[tuple[float, float]] = []  # (seconds, calibration) per evaluate call
    evaluations = 0
    evaluate = evaluation.evaluate

    def timed_evaluate(*args, **kwargs):
        calibration = calibration_s()
        start = time.perf_counter()
        try:
            return evaluate(*args, **kwargs)
        finally:
            calls.append((time.perf_counter() - start, calibration))

    evaluation.evaluate = timed_evaluate
    try:
        for step in EXPERIMENT_STEPS:
            between()
            calls.clear()
            before = calibration_s()
            start = time.perf_counter()
            outputs[step] = experiment_step(step, bench, provider, outputs.get("train"))
            step_s = time.perf_counter() - start
            after = calibration_s()
            # The rest: the step's own work outside evaluate(), less the
            # calibration loops run inside it.
            rest_s = step_s - sum(seconds + calibration for seconds, calibration in calls)
            total_s += at_reference_speed(rest_s, (before + after) / 2)
            total_s += sum(at_reference_speed(seconds, calibration) for seconds, calibration in calls)
            evaluations += len(calls)
    finally:
        evaluation.evaluate = evaluate
    check(evaluations == EXPERIMENT_EVALUATIONS,
          f"experiment made {evaluations} evaluate calls, expected {EXPERIMENT_EVALUATIONS}")
    return experiment_outcome(outputs, total_s)


def _same_experiment(a: ExperimentRun, b: ExperimentRun, what: str) -> None:
    check(a.digest == b.digest, f"{what}: experiment tables differ ({a.digest} vs {b.digest})")
    check(a.cost_benefit.to_json() == b.cost_benefit.to_json(), f"{what}: cost-benefit report differs")


def alternate(chunks, tracer: Tracer) -> float:
    """Run each chunk once untraced and once traced, ``chunk(False)`` and
    ``chunk(True)``, alternating which side goes first so that a drift in
    CPU speed does not favour one side. Returns the tracing overhead: the
    median over chunks of traced over untraced time, minus one."""
    ratios = []
    for i, chunk in enumerate(chunks):
        took = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            start = time.perf_counter()
            if traced:
                with tracer:
                    chunk(True)
            else:
                chunk(False)
            took[traced] = time.perf_counter() - start
        ratios.append(took[True] / took[False])
    return statistics.median(ratios) - 1.0


def experiment(seed: int, seconds: float, trace: bool, sizes: Sizes) -> dict:
    setup_times: list[float] = []

    def fresh_inputs():
        # Every run gets its own freshly built index, so no state carries over.
        took, inputs = _experiment_setup(seed, sizes)
        setup_times.append(took)
        return inputs

    question_runs = (sizes.experiment_questions - sizes.experiment_questions // 2) * EXPERIMENT_EVALUATIONS

    if trace:
        tracer = Tracer()
        inputs = {False: fresh_inputs()}
        with tracer:
            tracer.phase = "setup"
            inputs[True] = fresh_inputs()
        tracer.phase = "run"
        outputs: dict = {False: {}, True: {}}

        def chunk(step):
            def run(traced):
                outputs[traced][step] = experiment_step(step, *inputs[traced], outputs[traced].get("train"))
            return run

        # Each step of the experiment is one chunk of the overhead measure.
        overhead = alternate([chunk(step) for step in EXPERIMENT_STEPS], tracer)
        untraced, traced = (experiment_outcome(outputs[side], 0.0) for side in (False, True))
        _same_experiment(untraced, traced, "traced run")
        evaluations = tracer.counts["run:evaluation.reports"]
        check(evaluations == EXPERIMENT_EVALUATIONS,
              f"traced run saw {evaluations} evaluations, expected {EXPERIMENT_EVALUATIONS}")
        metrics = layer_metrics(tracer)
        metrics["trace.overhead"] = overhead
        metrics["trace.spans"] = tracer.span_count()
        print(f"experiment tables sha256 {traced.digest}")
        return _result(question_runs, traced.failed, metrics)

    def setups() -> None:
        # Set-up takes milliseconds, so it is timed many times, between the
        # steps of each experiment, so that the samples span the whole run.
        for _ in range(sizes.experiment_setups):
            fresh_inputs()

    runs: list[ExperimentRun] = []
    start = time.perf_counter()
    while len(runs) < sizes.experiment_repeats or time.perf_counter() - start < seconds:
        runs.append(run_experiment(*fresh_inputs(), setups))
    setups()
    for other in runs[1:]:
        _same_experiment(runs[0], other, "repeated run")

    experiment_s = statistics.median(r.total_s for r in runs)
    cb = runs[0].cost_benefit
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_ms.p50": experiment_s * 1000.0,
        # A run holds two experiments (three on a fast host), so no
        # percentile above the median has ten samples beyond it: the median
        # stands in for p99.
        "latency_ms.p99": experiment_s * 1000.0,
        "questions_per_s": question_runs / experiment_s,
        **_cost_metrics(cb.correct, cb.total_cost, cb.total_questions),
        "peak_rss_mb": _peak_rss_mb(),
    }
    print(f"experiment tables sha256 {runs[0].digest}")
    return _result(question_runs * len(runs), sum(r.failed for r in runs), metrics)


# --------------------------------------------------------------------------
# ask_remote


@dataclass
class AskSetup:
    setup_s: float
    models: object
    train_provider: OfflineProvider
    train_items: list
    corpora: list  # Benchmark per ask corpus


def _ask_setup(seed: int, sizes: Sizes) -> AskSetup:
    # Set-up lasts seconds: it is timed against calibration loops before and
    # after it, three each for a steadier reading.
    before = statistics.median(calibration_s() for _ in range(3))
    start = time.perf_counter()
    bench = generate_benchmark(sizes.train_questions, seed=seed)
    provider = OfflineProvider(search.build_index(bench.corpus))
    train_items = bench.items[: sizes.train_questions // 2]
    models = harness.train_models(train_items, provider, scorer=AdjacencyGrammarScorer())
    asks = [generate_benchmark(sizes.ask_questions, seed=seed + 1 + i) for i in range(sizes.ask_corpora)]
    took = time.perf_counter() - start
    after = statistics.median(calibration_s() for _ in range(3))
    return AskSetup(
        setup_s=at_reference_speed(took, (before + after) / 2),
        models=models,
        train_provider=provider,
        train_items=train_items,
        corpora=asks,
    )


@dataclass
class Ask:
    start_s: float  # time.perf_counter() when asked
    latency_s: float
    top_answer: str | None
    queries: int
    executes: int  # counted by MeteredProvider
    judgment: Judgment
    errors: int


def _ask(item, provider: MeteredProvider, models) -> Ask:
    before = provider.calls
    start = time.perf_counter()
    result = control.run_policy(CostBenefit(), item.question, provider, models, PREFS)
    latency = time.perf_counter() - start
    return Ask(
        start_s=start,
        latency_s=latency,
        top_answer=result.top_answer,
        queries=result.queries_issued,
        executes=provider.calls - before,
        judgment=Judgment.ABSTAINED if result.abstained else judge(result.top_answer, item.patterns),
        errors=len(result.backend_errors),
    )


def closed_loop(questions, make_provider, models, clients: int, seconds: float, min_asks: int):
    """Each client asks the next unasked question as soon as its previous
    answer arrives, until ``seconds`` have passed and at least ``min_asks``
    questions were asked (or the questions run out). Returns the asks by
    question position (None where not asked)."""
    asks: list[Ask | None] = [None] * len(questions)
    lock = threading.Lock()
    position = [0]
    start = time.perf_counter()

    def client() -> None:
        providers: dict[int, MeteredProvider] = {}  # one per corpus, per client
        while True:
            with lock:
                i = position[0]
                if i >= len(questions) or (i >= min_asks and time.perf_counter() - start >= seconds):
                    return
                position[0] = i + 1
            corpus, item = questions[i]
            provider = providers.get(corpus)
            if provider is None:
                provider = providers[corpus] = MeteredProvider(make_provider(corpus))
            asks[i] = _ask(item, provider, models)

    with ThreadPoolExecutor(max_workers=clients) as pool:
        futures = [pool.submit(client) for _ in range(clients)]
        for future in futures:
            future.result()
    return asks


class Stub:
    """The stub backend in a child process; see stubserver.py. The child
    exits when its stdin closes, so it ends with this process even if this
    process is killed before ``stop``."""

    def __init__(self, seed: int, corpora: int, questions: int):
        script = Path(__file__).with_name("stubserver.py")
        self.proc = subprocess.Popen(
            [sys.executable, str(script), "--seed", str(seed), "--corpora", str(corpora),
             "--questions", str(questions)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.base = None

    def wait_ready(self) -> None:
        line = self.proc.stdout.readline()
        check(line.startswith("ready "), f"stub server did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"

    def endpoint(self, corpus: int) -> str:
        return f"{self.base}/c/{corpus}/search"

    def counts(self) -> dict:
        with urllib.request.urlopen(f"{self.base}/counts", timeout=30) as response:
            return json.load(response)

    def reset(self) -> None:
        request = urllib.request.Request(f"{self.base}/reset", data=b"", method="POST")
        urllib.request.urlopen(request, timeout=30).close()

    def stop(self) -> None:
        self.proc.stdin.close()
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _check_asks(asks, what: str) -> None:
    for i, ask in enumerate(asks):
        if ask is not None:
            check(ask.queries == ask.executes,
                  f"{what}: question {i} reports {ask.queries} queries but made {ask.executes} execute calls")


def _same_asks(a, b, what: str) -> None:
    for i, (x, y) in enumerate(zip(a, b)):
        if x is None or y is None:
            check(x is None and y is None, f"{what}: question {i} asked in only one pass")
            continue
        check((x.top_answer, x.queries, x.judgment) == (y.top_answer, y.queries, y.judgment),
              f"{what}: question {i} differs: {x.top_answer!r}/{x.queries} vs {y.top_answer!r}/{y.queries}")


def reference_answers(seed: int, sizes: Sizes, models) -> list:
    """Offline top answer to every question of the ask corpora, in order,
    from reference.py in a process of its own, so that the indexes it
    builds do not count in the remote client's peak RSS."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("reference.py"))],
        input=pickle.dumps((seed, sizes.ask_corpora, sizes.ask_questions, models, PREFS)),
        capture_output=True,
        timeout=120,
    )
    check(proc.returncode == 0, f"reference answers failed: {proc.stderr.decode(errors='replace')}")
    return json.loads(proc.stdout)


def _sum_counts(passes) -> dict:
    total: dict = {}
    for _, counts in passes:
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value
    return total


def ask_remote(seed: int, seconds: float, trace: bool, sizes: Sizes) -> dict:
    setup = _ask_setup(seed, sizes)
    models = setup.models
    questions = [(c, item) for c, bench in enumerate(setup.corpora) for item in bench.items]

    warm = MeteredProvider(setup.train_provider)
    for item in setup.train_items[: sizes.warmup_asks]:
        _ask(item, warm, models)

    stub = Stub(seed, sizes.ask_corpora, sizes.ask_questions)
    try:
        # The offline answers to compare with, computed while the stub
        # builds its tables; both finish before the measured asks.
        reference = reference_answers(seed, sizes, models)
        stub.wait_ready()

        def make_provider(corpus):
            return Config(endpoint=stub.endpoint(corpus)).make_provider()

        if trace:
            tracer = Tracer()
            with tracer:
                tracer.phase = "setup"
                _ask_setup(seed, sizes)
            tracer.phase = "run"
            passes: dict = {False: [], True: []}  # per side: (asks, stub counts) per chunk

            def chunk(part):
                def run(traced):
                    stub.reset()
                    part_asks = closed_loop(part, make_provider, models, REMOTE_CLIENTS, 0, len(part))
                    passes[traced].append((part_asks, stub.counts()))
                return run

            traced_questions = questions[: sizes.min_asks]
            size = -(-len(traced_questions) // TRACE_CHUNKS)
            overhead = alternate(
                [chunk(traced_questions[i:i + size]) for i in range(0, len(traced_questions), size)], tracer)
            asks, traced_asks = ([a for part, _ in passes[side] for a in part] for side in (False, True))
            _same_asks(asks, traced_asks, "traced run")
            _check_asks(traced_asks, "traced run")
            untraced_counts, stub_counts = (_sum_counts(passes[side]) for side in (False, True))
            for key in ("attempts", "faults"):
                check(untraced_counts[key] == stub_counts[key],
                      f"traced run: stub {key} {stub_counts[key]} vs untraced {untraced_counts[key]}")
        else:
            asks = closed_loop(questions, make_provider, models, REMOTE_CLIENTS, seconds, sizes.min_asks)
            stub_counts = stub.counts()
    finally:
        stub.stop()

    _check_asks(asks, "untraced run")
    check(stub_counts["unknown"] == 0, f"stub saw {stub_counts['unknown']} unknown queries")
    for i, ask in enumerate(asks):
        if ask is not None:
            check(ask.top_answer == reference[i],
                  f"question {i}: remote answer {ask.top_answer!r}, offline {reference[i]!r}")

    done = [a for a in asks if a is not None]
    failed = sum(1 for a in done if a.errors)
    if trace:
        metrics = layer_metrics(tracer, stub_counts)
        metrics["trace.overhead"] = overhead
        metrics["trace.spans"] = tracer.span_count()
        return _result(len(done), failed, metrics)

    peak_rss_mb = _peak_rss_mb()
    # Set up a few more times for a steady setup_s, after the asks so that
    # the samples span the whole run.
    setup_times = [setup.setup_s]
    setup = None
    for _ in range(sizes.ask_setups - 1):
        extra = _ask_setup(seed, sizes)
        setup_times.append(extra.setup_s)
        del extra  # freed before the next one is built

    prefix = asks[: sizes.min_asks]
    latencies_ms = [a.latency_s * 1000.0 for a in done]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_ms.p50": statistics.median(latencies_ms),
        "latency_ms.p99": percentile(latencies_ms, 99),
        "questions_per_s": len(done) / (max(a.start_s + a.latency_s for a in done) - min(a.start_s for a in done)),
        **_cost_metrics(
            sum(1 for a in prefix if a.judgment is Judgment.CORRECT),
            sum(a.queries for a in prefix),
            len(prefix),
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    return _result(len(done), failed, metrics)


# --------------------------------------------------------------------------


def layer_unit(name: str) -> str:
    if name.endswith(("ms", ".p50", ".p99")):
        return "ms"
    if name.endswith(("_share", ".overhead")):
        return "share"
    if "_per_" in name:
        return "ratio"
    return "count"


def _result(attempted: int, failed: int, metrics: dict[str, float]) -> dict:
    if CALIBRATIONS:
        # How far the times were scaled: measured = reported * this / reference.
        print(f"calibration loop median {statistics.median(CALIBRATIONS):.6f} s "
              f"over {len(CALIBRATIONS)}, reference {CALIBRATION_REF_S} s")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS.get(name) or layer_unit(name)}
            for name, value in metrics.items()
        },
    }


WORKLOADS = {
    "experiment": experiment,
    "ask_remote": ask_remote,
}

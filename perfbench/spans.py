"""Span recording around the program's public functions, from outside it.

``Tracer.install()`` rebinds module and class attributes of ``budgetqa`` to
wrappers that record one span per call: name, phase, start, end and the
index of the enclosing span on the same thread. ``Tracer.restore()`` puts
every original back. Nothing under ``src/`` is edited.

Names are patched where callers look them up: ``control.py`` imported
``compose_answers`` into its own namespace, so the patch goes on
``budgetqa.control.compose_answers``; ``models.py`` imports ``mine_ngrams``
at call time, so the patch on ``budgetqa.compose.mine_ngrams`` reaches it.

Spans live in per-thread column arrays (a span and its parent always share
a thread), so recording a span needs no lock. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from array import array
from collections import Counter, defaultdict

# (owner, attribute, span name). Owner is a module path, or a module path
# plus class name for methods. Several bindings may share one span name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("budgetqa.control", "generate_rewrites", "rewrite"),
    ("budgetqa.harness", "generate_rewrites", "rewrite"),
    ("budgetqa.search", "build_index", "search.build_index"),
    ("budgetqa.search", "query_phrase", "search.phrase"),
    ("budgetqa.search", "query_conjunctive", "search.conjunctive"),
    ("budgetqa.search:Index", "phrase_positions", "search.phrase_positions"),
    ("budgetqa.search:OfflineProvider", "execute", "search.execute"),
    ("budgetqa.remote:RemoteProvider", "execute", "remote.execute"),
    ("budgetqa.control", "compose_answers", "compose"),
    ("budgetqa.harness", "compose_answers", "compose"),
    ("budgetqa.compose", "mine_ngrams", "compose.mine"),
    ("budgetqa.compose", "filter_ngrams", "compose.filter"),
    ("budgetqa.compose", "tile_ngrams", "compose.tile"),
    ("budgetqa.control", "extract_run_features", "models.features"),
    ("budgetqa.harness", "extract_run_features", "models.features"),
    ("budgetqa.models:ModelSet", "quality_score", "models.quality_score"),
    ("budgetqa.harness", "train_tree", "tree.train"),
    ("budgetqa.models", "train_tree", "tree.train"),
    ("budgetqa.tree:DecisionTree", "predict", "tree.predict"),
    ("budgetqa.control", "choose_n", "control.choose_n"),
    ("budgetqa.control", "run_policy", "control.run_policy"),
    ("budgetqa.evaluation", "run_policy", "control.run_policy"),
    ("budgetqa.harness", "generate_quality_cases", "harness.quality_cases"),
    ("budgetqa.harness", "generate_threshold_cases", "harness.threshold_cases"),
    ("budgetqa.harness", "train_models", "harness.train_models"),
    ("budgetqa.evaluation", "evaluate", "evaluation.evaluate"),
)

# Spans of these layers are counted in every phase; all other layers only
# in the measured phase, so training in an ask workload's set-up does not
# show up as search or compose work of the asks.
SETUP_LAYERS = ("search.build_index", "tree.train", "harness.")


def resolve_owner(owner: str):
    module_path, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_path)
    return getattr(obj, class_name) if class_name else obj


class _Columns:
    """One thread's spans, one array per field."""

    def __init__(self):
        self.name = array("H")
        self.phase = array("B")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


PHASES = ("setup", "run")


class Tracer:
    def __init__(self):
        self.phase = "run"
        self.names: list[str] = []
        self._local = threading.local()
        self._threads: list[_Columns] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        # Counts taken from return values, keyed "<phase>:<counter>".
        self.counts: Counter = Counter()
        self.distinct_queries: set = set()

    # -- recording --------------------------------------------------------

    def _columns(self) -> _Columns:
        cols = getattr(self._local, "cols", None)
        if cols is None:
            cols = self._local.cols = _Columns()
            with self._lock:
                self._threads.append(cols)
        return cols

    def count(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[f"{self.phase}:{counter}"] += amount

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cols = self._columns()
            idx = len(cols.start)
            parent = cols.stack[-1] if cols.stack else -1
            cols.name.append(name_id)
            cols.phase.append(PHASES.index(self.phase))
            cols.parent.append(parent)
            cols.end.append(0.0)
            cols.stack.append(idx)
            cols.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(f"{name}.errors")
                raise
            finally:
                cols.end[idx] = time.perf_counter()
                cols.stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result,
                        self.names[cols.name[parent]] if parent >= 0 else None)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner_path, attr, name in TARGETS:
            owner = resolve_owner(owner_path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- reading ----------------------------------------------------------

    def span_count(self) -> int:
        return sum(len(cols.start) for cols in self._threads)

    def spans(self):
        """Every closed span as (phase, name, parent name or None, duration,
        self time)."""
        out = []
        for cols in self._threads:
            n = len(cols.start)
            durations = [cols.end[i] - cols.start[i] for i in range(n)]
            child = [0.0] * n
            for i in range(n):
                p = cols.parent[i]
                if p >= 0:
                    child[p] += durations[i]
            for i in range(n):
                p = cols.parent[i]
                out.append((
                    PHASES[cols.phase[i]],
                    self.names[cols.name[i]],
                    self.names[cols.name[p]] if p >= 0 else None,
                    durations[i],
                    durations[i] - child[i],
                ))
        return out


# --------------------------------------------------------------------------
# Result observers: counts that only the return value shows.


def _observe_rewrite(tracer, args, kwargs, result, parent):
    tracer.count("rewrite.rewrites", len(result))


def _distinct(tracer, backend, rewrite):
    with tracer._lock:
        tracer.distinct_queries.add((tracer.phase, backend, rewrite.as_query()))


def _observe_execute(tracer, args, kwargs, result, parent):
    provider, rewrite = args[0], args[1]
    tracer.count("search.snippets", len(result))
    _distinct(tracer, id(provider), rewrite)


def _observe_remote_execute(tracer, args, kwargs, result, parent):
    provider, rewrite = args[0], args[1]
    _distinct(tracer, provider.endpoint, rewrite)


def _observe_compose(tracer, args, kwargs, result, parent):
    if not result:
        tracer.count("compose.no_answer")


def _observe_mine(tracer, args, kwargs, result, parent):
    if parent == "compose":
        tracer.count("compose.mined", len(result))


def _observe_tile(tracer, args, kwargs, result, parent):
    cands = args[0] if args else kwargs["cands"]
    tracer.count("compose.tile_merges", len(cands) - len(result))


def _observe_run_policy(tracer, args, kwargs, result, parent):
    tracer.count("control.queries", result.queries_issued)
    if result.abstained:
        tracer.count("control.abstained")
    else:
        # Charged queries whose snippets were not kept as evidence: the
        # probe tail when the chosen budget is below the probe size.
        tracer.count("control.wasted", result.queries_issued - len(result.rewrites_used))


def _observe_evaluate(tracer, args, kwargs, result, parent):
    result.check_accounting()
    tracer.count("evaluation.reports")


OBSERVERS = {
    "rewrite": _observe_rewrite,
    "search.execute": _observe_execute,
    "remote.execute": _observe_remote_execute,
    "compose": _observe_compose,
    "compose.mine": _observe_mine,
    "compose.tile": _observe_tile,
    "control.run_policy": _observe_run_policy,
    "evaluation.evaluate": _observe_evaluate,
}


# --------------------------------------------------------------------------
# Per-layer metrics


def percentile(values, q: int) -> float:
    """The q-th percentile, 0.0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, stub_counts: dict | None = None) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counts.

    Times are totals in ms over the traced work. Layers in SETUP_LAYERS
    count spans of every phase; the others only spans of the "run" phase.
    """
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    nested: defaultdict = defaultdict(float)  # (name, parent) -> duration
    durations: defaultdict = defaultdict(list)
    for phase, name, parent, duration, own in tracer.spans():
        if phase != "run" and not name.startswith(SETUP_LAYERS):
            continue
        calls[name] += 1
        total[name] += duration
        self_time[name] += own
        nested[(name, parent)] += duration
        if name == "remote.execute":
            durations[name].append(duration)

    c = Counter({k.split(":", 1)[1]: v for k, v in tracer.counts.items() if k.startswith("run:")})
    ms = lambda name: total[name] * 1000.0  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    distinct = sum(1 for key in tracer.distinct_queries if key[0] == "run")
    remote_ms = [d * 1000.0 for d in durations["remote.execute"]]
    stub = stub_counts or {}

    return {
        "rewrite.ms": ms("rewrite"),
        "rewrite.rewrites_per_question": ratio(c["rewrite.rewrites"], calls["rewrite"]),
        "search.build_index.calls": calls["search.build_index"],
        "search.build_index.ms": ms("search.build_index"),
        "search.phrase.calls": calls["search.phrase"],
        "search.phrase.ms": ms("search.phrase"),
        "search.phrase_positions.calls": calls["search.phrase_positions"],
        "search.phrase_positions.ms": ms("search.phrase_positions"),
        "search.conjunctive.calls": calls["search.conjunctive"],
        "search.conjunctive.ms": ms("search.conjunctive"),
        "search.execute.calls": calls["search.execute"],
        "search.execute.ms": ms("search.execute"),
        "search.snippets_per_query": ratio(c["search.snippets"], calls["search.execute"]),
        # Distinct over executed queries, on whichever backend executes them.
        "search.distinct_query_share": ratio(distinct, calls["search.execute"] + calls["remote.execute"]),
        "remote.execute.calls": calls["remote.execute"],
        "remote.execute.ms.p50": percentile(remote_ms, 50),
        "remote.execute.ms.p99": percentile(remote_ms, 99),
        "remote.attempts": stub.get("attempts", 0),
        "remote.retries": max(0, stub.get("attempts", 0) - calls["remote.execute"]),
        "remote.failed": c["remote.execute.errors"],
        "remote.wait_share": ratio(total["remote.execute"], total["control.run_policy"]),
        "compose.calls": calls["compose"],
        "compose.ms": ms("compose"),
        "compose.mine.calls": calls["compose.mine"],
        "compose.mine.ms": ms("compose.mine"),
        "compose.filter.ms": ms("compose.filter"),
        "compose.tile.ms": ms("compose.tile"),
        "compose.mined_per_compose": ratio(c["compose.mined"], calls["compose"]),
        "compose.tile_merges": c["compose.tile_merges"],
        "compose.mine_calls_per_compose": ratio(calls["compose.mine"], calls["compose"]),
        "compose.no_answer_share": ratio(c["compose.no_answer"], calls["compose"]),
        "models.features.calls": calls["models.features"],
        "models.features.self_ms": self_time["models.features"] * 1000.0,
        "models.features.mine_ms": nested[("compose.mine", "models.features")] * 1000.0,
        "models.quality_score.calls": calls["models.quality_score"],
        "models.quality_score.ms": ms("models.quality_score"),
        "tree.train.calls": calls["tree.train"],
        "tree.train.ms": ms("tree.train"),
        "tree.predict.calls": calls["tree.predict"],
        "tree.predict.ms": ms("tree.predict"),
        "control.run_policy.calls": calls["control.run_policy"],
        "control.run_policy.self_ms": self_time["control.run_policy"] * 1000.0,
        "control.choose_n.calls": calls["control.choose_n"],
        "control.choose_n.ms": ms("control.choose_n"),
        "control.wasted_query_share": ratio(c["control.wasted"], c["control.queries"]),
        "control.abstain_share": ratio(c["control.abstained"], calls["control.run_policy"]),
        "harness.quality_cases.ms": ms("harness.quality_cases"),
        "harness.threshold_cases.ms": ms("harness.threshold_cases"),
        "harness.train_models.ms": ms("harness.train_models"),
        "evaluation.evaluate.calls": calls["evaluation.evaluate"],
        "evaluation.evaluate.self_ms": self_time["evaluation.evaluate"] * 1000.0,
    }

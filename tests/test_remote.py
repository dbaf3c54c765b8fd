import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection, HTTPSConnection
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import pytest

from budgetqa import remote as remote_module
from budgetqa.control import Run
from budgetqa.errors import ProviderError, RetryableError
from budgetqa.remote import RemoteProvider
from budgetqa.rewrite import Question, Rewrite, RewriteKind, generate_rewrites
from budgetqa.search import MeteredProvider

PHRASAL = Rewrite(RewriteKind.PHRASAL, ("killed Abraham Lincoln",), 5.0)
CONJ = Rewrite(RewriteKind.CONJUNCTIVE, ("who", "killed", "of Japan"), 1.0)


class StubHandler(BaseHTTPRequestHandler):
    script = []  # list of (status, body) or (status, body, headers) consumed per request
    requests_seen = []

    def do_GET(self):
        StubHandler.requests_seen.append(urlparse(self.path))
        status, body, *extra = (
            StubHandler.script.pop(0) if StubHandler.script else (200, json.dumps({"results": []}))
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body.encode("utf-8"))

    def log_message(self, *args):  # keep test output clean
        pass


@pytest.fixture
def stub_server():
    server = _serve(StubHandler)
    StubHandler.script = []
    StubHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_port}/search"
    _stop(server)


def _serve(handler, server_class=HTTPServer):
    # A short poll interval, so that shutdown() does not wait out the 0.5 s default.
    server = server_class(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True).start()
    return server


def _stop(server):
    server.shutdown()
    server.server_close()


def _provider(endpoint, **kwargs):
    kwargs.setdefault("backoff", 0.01)
    return RemoteProvider(endpoint, **kwargs)


def test_two_summaries_become_two_snippets(stub_server):
    StubHandler.script = [
        (200, json.dumps({"results": [{"summary": "first hit"}, {"summary": "second hit"}]}))
    ]
    snippets = _provider(stub_server).execute(PHRASAL, 10)
    assert [s.text for s in snippets] == ["first hit", "second hit"]


def test_query_serialization_quotes_phrases(stub_server):
    StubHandler.script = [(200, json.dumps({"results": []}))]
    _provider(stub_server).execute(CONJ, 10)
    query = parse_qs(StubHandler.requests_seen[-1].query)["q"][0]
    assert query == 'who killed "of Japan"'


def test_retryable_after_three_500s(stub_server):
    StubHandler.script = [(500, "oops")] * 3
    with pytest.raises(RetryableError):
        _provider(stub_server).execute(PHRASAL, 10)
    assert len(StubHandler.requests_seen) == 3


def test_retry_recovers_on_second_attempt(stub_server):
    StubHandler.script = [
        (500, "oops"),
        (200, json.dumps({"results": [{"summary": "ok"}]})),
    ]
    snippets = _provider(stub_server).execute(PHRASAL, 10)
    assert [s.text for s in snippets] == ["ok"]


@pytest.fixture
def sleeps(monkeypatch):
    """Record the client's backoff waits instead of sleeping them."""
    waits = []
    monkeypatch.setattr(remote_module.time, "sleep", waits.append)
    return waits


def _assert_full_jitter(sleeps, steps, play):
    """Each recorded wait lies within its backoff step, and playing the
    same exchange again waits exactly the same."""
    assert len(sleeps) == len(steps) and all(0 <= wait <= step for wait, step in zip(sleeps, steps))
    first = list(sleeps)
    sleeps.clear()
    play()
    assert sleeps == first


def test_429_is_retried_with_backoff(stub_server, sleeps):
    script = [
        (429, "slow down"),
        (429, "slow down"),
        (200, json.dumps({"results": [{"summary": "ok"}]})),
    ]

    def play():
        StubHandler.script = list(script)
        return _provider(stub_server, backoff=0.5).execute(PHRASAL, 10)

    assert [s.text for s in play()] == ["ok"]
    _assert_full_jitter(sleeps, [0.5, 1.0], play)


def test_429_on_every_attempt_is_retryable(stub_server, sleeps):
    StubHandler.script = [(429, "slow down")] * 3
    with pytest.raises(RetryableError):
        _provider(stub_server).execute(PHRASAL, 10)
    assert len(StubHandler.requests_seen) == 3


def test_numeric_retry_after_replaces_backoff_capped_at_timeout(stub_server, sleeps):
    StubHandler.script = [
        (429, "slow down", {"Retry-After": "2"}),
        (503, "busy", {"Retry-After": "3600"}),
        (200, json.dumps({"results": []})),
    ]
    _provider(stub_server, backoff=0.5, timeout=5.0).execute(PHRASAL, 10)
    assert sleeps == [2.0, 5.0]


def test_unusable_retry_after_falls_back_to_backoff(stub_server, sleeps):
    script = [
        (429, "slow down", {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
        (429, "slow down", {"Retry-After": "-1"}),
        (200, json.dumps({"results": []})),
    ]

    def play():
        StubHandler.script = list(script)
        _provider(stub_server, backoff=0.5).execute(PHRASAL, 10)

    play()
    _assert_full_jitter(sleeps, [0.5, 1.0], play)


def test_non_json_body_is_provider_error(stub_server):
    StubHandler.script = [(200, "<html>not json</html>")]
    with pytest.raises(ProviderError):
        _provider(stub_server).execute(PHRASAL, 10)


def test_missing_summary_field_is_provider_error(stub_server):
    StubHandler.script = [(200, json.dumps({"results": [{"title": "no summary"}]}))]
    with pytest.raises(ProviderError):
        _provider(stub_server).execute(PHRASAL, 10)


def test_limit_truncates_results(stub_server):
    rows = [{"summary": f"hit {i}"} for i in range(5)]
    StubHandler.script = [(200, json.dumps({"results": rows}))]
    assert len(_provider(stub_server).execute(PHRASAL, 2)) == 2


def test_top_level_array_accepted(stub_server):
    StubHandler.script = [(200, json.dumps([{"summary": "bare"}]))]
    assert [s.text for s in _provider(stub_server).execute(PHRASAL, 10)] == ["bare"]


def test_bearer_token_header(stub_server):
    captured = {}

    class RecordingHandler(StubHandler):
        def do_GET(self):
            captured["auth"] = self.headers.get("Authorization")
            super().do_GET()

    # swap in a recording handler on a fresh server
    server = _serve(RecordingHandler)
    StubHandler.script = [(200, json.dumps({"results": []}))]
    try:
        _provider(f"http://127.0.0.1:{server.server_port}/s", token="sesame").execute(PHRASAL, 10)
    finally:
        _stop(server)
    assert captured["auth"] == "Bearer sesame"


# --------------------------------------------------------------------------
# Concurrent batches, against a threading stub that answers from a table


DELAY_S = 0.2


class TableHandler(BaseHTTPRequestHandler):
    """Answers each query from ``table`` (status, body) after its delay in
    ``delays`` (default ``delay``); records the order responses are sent in."""

    table: dict = {}
    delays: dict = {}
    delay = DELAY_S
    finished: list = []

    def do_GET(self):
        query = parse_qs(urlparse(self.path).query)["q"][0]
        time.sleep(TableHandler.delays.get(query, TableHandler.delay))
        status, body = TableHandler.table.get(query, (200, json.dumps({"results": []})))
        TableHandler.finished.append(query)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body.encode("utf-8"))

    def log_message(self, *args):
        pass


@pytest.fixture
def table_server():
    server = _serve(TableHandler, ThreadingHTTPServer)
    TableHandler.table, TableHandler.delays, TableHandler.finished = {}, {}, []
    TableHandler.delay = DELAY_S
    yield f"http://127.0.0.1:{server.server_port}/search"
    _stop(server)


def _rewrites(*phrases):
    return [Rewrite(RewriteKind.PHRASAL, (p,), 5.0) for p in phrases]


def _hits(*snippets):
    """A 200 body of (text, doc id) results; a bare string is a text from doc "d"."""
    rows = [(s, "d") if isinstance(s, str) else s for s in snippets]
    return 200, json.dumps({"results": [{"summary": text, "id": doc} for text, doc in rows]})


def test_batch_of_two_waits_about_one_delay(table_server):
    provider = _provider(table_server)
    batch = _rewrites("first query", "second query")
    provider.execute_many(batch, 10)  # warm-up: connections are open afterwards
    start = time.perf_counter()
    outcomes = provider.execute_many(batch, 10)
    took = time.perf_counter() - start
    assert outcomes == [(), ()]
    assert took < 1.5 * DELAY_S


def test_batch_outcomes_keep_submission_order(table_server):
    slow, failing, fast = _rewrites("slow one", "failing one", "fast one")
    TableHandler.table = {
        slow.as_query(): _hits("slow hit"),
        failing.as_query(): (404, "not found"),
        fast.as_query(): _hits("fast hit"),
    }
    TableHandler.delay, TableHandler.delays = 0.0, {slow.as_query(): DELAY_S}
    run = Run(Question.from_text("Who did it?"), [slow, failing, fast], _provider(table_server))
    run.compose(3)
    assert TableHandler.finished[-1] == slow.as_query()  # the first rewrite finished last
    assert [[s.text for s in found] for found in run.snippets] == [["slow hit"], [], ["fast hit"]]
    assert run.errors == [f"{failing.as_query()}: HTTP 404 from backend"]


def test_404_in_a_batch_is_that_rewrites_error(table_server):
    batch = _rewrites("alpha", "beta", "gamma")
    TableHandler.table = {q.as_query(): _hits(f"{q.parts[0]} hit") for q in batch}
    TableHandler.table[batch[1].as_query()] = (404, "not found")
    TableHandler.delay = 0.0
    first, second, third = _provider(table_server).execute_many(batch, 10)
    assert [s.text for s in first] == ["alpha hit"]
    assert isinstance(second, ProviderError) and "404" in str(second)
    assert [s.text for s in third] == ["gamma hit"]
    assert len(TableHandler.finished) == 3


def test_batch_workers_end_with_the_batch(table_server, monkeypatch):
    workers = []
    execute = RemoteProvider.execute

    def recording(self, rewrite, limit, started=None):
        workers.append(threading.current_thread())
        return execute(self, rewrite, limit, started)

    monkeypatch.setattr(RemoteProvider, "execute", recording)
    TableHandler.delay = 0.0
    _provider(table_server, max_in_flight=2).execute_many(_rewrites("a", "b", "c", "d", "e"), 10)
    assert len(workers) == 5
    assert threading.main_thread() not in workers
    assert len(set(workers)) <= 2  # no more workers than max_in_flight
    assert not any(t.is_alive() for t in workers)


def test_other_worker_exceptions_propagate_as_from_serial_calls(table_server, monkeypatch):
    execute = RemoteProvider.execute

    def broken(self, rewrite, limit, started=None):
        if rewrite.parts[0] == "broken":
            raise KeyError("not a backend failure")
        return execute(self, rewrite, limit, started)

    monkeypatch.setattr(RemoteProvider, "execute", broken)
    TableHandler.delay = 0.0
    rewrites = _rewrites("fine", "broken", "after")
    run = Run(Question.from_text("Who did it?"), rewrites, _provider(table_server))
    with pytest.raises(KeyError, match="not a backend failure"):
        run.compose(3)
    assert run.snippets == [()]  # the rewrite before it is recorded, as in a serial run
    assert run.errors == []


class _FailsOne:
    """The offline provider, answering one query with the error the remote
    client raises for a 404."""

    def __init__(self, inner, failing: str):
        self.inner = inner
        self.failing = failing

    def execute(self, rewrite, limit):
        if rewrite.as_query() == self.failing:
            raise ProviderError("HTTP 404 from backend")
        return self.inner.execute(rewrite, limit)


def test_run_over_remote_matches_run_over_offline(table_server, lincoln_provider):
    question = Question.from_text("Who killed Abraham Lincoln?")
    rewrites = generate_rewrites(question)
    failing = rewrites[1].as_query()
    for rewrite in rewrites:
        found = lincoln_provider.execute(rewrite, 10)
        TableHandler.table[rewrite.as_query()] = _hits(*((s.text, s.source_doc) for s in found))
    TableHandler.table[failing] = (404, "not found")
    TableHandler.delay = 0.01

    def play(provider):
        meter = MeteredProvider(provider)
        run = Run(question, rewrites, meter)
        probe = run.compose(2)  # a probe batch, then the extension batch
        result = run.result(len(rewrites))
        answers = [(c.text, c.score, c.support) for c in result.answers]
        probe = [(c.text, c.score) for c in probe]
        return probe, answers, result.queries_issued, meter.calls, result.backend_errors

    remote = play(_provider(table_server))
    offline = play(_FailsOne(lincoln_provider, failing))
    assert remote == offline
    assert remote[1][0][0] == "John Wilkes Booth"
    assert remote[2] == remote[3] == len(rewrites)
    assert remote[4] == (f"{failing}: HTTP 404 from backend",)


def test_question_deadline_bounds_a_stalled_query(table_server, lincoln_provider):
    question = Question.from_text("Who killed Abraham Lincoln?")
    rewrites = generate_rewrites(question)[:2]
    stalled = rewrites[1].as_query()
    for rewrite in rewrites:
        found = lincoln_provider.execute(rewrite, 10)
        TableHandler.table[rewrite.as_query()] = _hits(*((s.text, s.source_doc) for s in found))
    TableHandler.delay, TableHandler.delays = 0.0, {stalled: 1.0}
    # A question may take three timeouts, 0.2 s; backoff steps of 0.2 s and
    # 0.4 s leave no time for a third attempt.
    meter = MeteredProvider(_provider(table_server, timeout=0.2 / 3, backoff=0.2))
    start = time.perf_counter()
    result = Run(question, rewrites, meter).result(2)
    assert time.perf_counter() - start < 0.5
    assert result.queries_issued == meter.calls == 2  # the stalled query is charged
    assert len(result.backend_errors) == 1
    assert re.fullmatch(
        re.escape(f"{stalled}: question deadline passed after ") + r"[12] of 3 attempts: timed out",
        result.backend_errors[0],
    )
    # Answered from the other rewrite of the batch, as if the stalled one had failed.
    offline = Run(question, rewrites, _FailsOne(lincoln_provider, stalled)).result(2)
    assert [(c.text, c.score) for c in result.answers] == [(c.text, c.score) for c in offline.answers]
    assert result.answers


def test_batch_past_its_deadline_sends_nothing(table_server):
    provider = _provider(table_server)
    outcomes = provider.execute_many(_rewrites("late"), 10, started=time.monotonic() - provider.deadline)
    assert isinstance(outcomes[0], RetryableError)
    assert str(outcomes[0]) == "question deadline passed after 0 of 3 attempts"
    assert TableHandler.finished == []


def test_waiting_for_a_connection_slot_ends_at_the_deadline(table_server):
    # The only slot is held by a query the server stalls for 1 s; a batch
    # with 0.05 s of its question left gives up then, without sending.
    TableHandler.delay, TableHandler.delays = 0.0, {"stalled": 1.0}
    provider = _provider(table_server, max_in_flight=1, timeout=0.3)
    holder = threading.Thread(target=provider.execute_many, args=(_rewrites("stalled"), 10))
    holder.start()
    while provider._pool.qsize():  # until the holder has the slot
        time.sleep(0.001)
    start = time.perf_counter()
    [outcome] = provider.execute_many(_rewrites("late"), 10, started=time.monotonic() - provider.deadline + 0.05)
    assert time.perf_counter() - start < 0.2
    assert isinstance(outcome, RetryableError)
    assert str(outcome) == "question deadline passed after 0 of 3 attempts"
    holder.join()
    provider.close()
    assert "late" not in TableHandler.finished


def test_redirect_is_provider_error_naming_its_location(stub_server):
    StubHandler.script = [(301, "", {"Location": "https://elsewhere.example/search"})]
    with pytest.raises(ProviderError, match="HTTP 301 from backend to https://elsewhere.example/search"):
        _provider(stub_server).execute(PHRASAL, 10)
    assert len(StubHandler.requests_seen) == 1


# --------------------------------------------------------------------------
# The connection pool, against an HTTP/1.1 keep-alive stub


class KeepAliveHandler(BaseHTTPRequestHandler):
    """Answers every GET with no results over HTTP/1.1 keep-alive; the
    server counts the connections it accepts and how many are open."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # else delayed ACKs add ~40 ms per request

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1
            self.server.open += 1
            self.server.most_open = max(self.server.most_open, self.server.open)

    def finish(self):
        with self.server.lock:
            self.server.open -= 1
        super().finish()
        self.server.closed.set()

    def do_GET(self):
        with self.server.lock:
            self.server.paths.append(urlparse(self.path))
        if self.server.delay:  # the sleeps fixture patches time.sleep everywhere
            time.sleep(self.server.delay)
        body = json.dumps({"results": []}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class IdleClosingHandler(KeepAliveHandler):
    timeout = 0.05  # the server drops a connection idle this long


class KeepAliveServer(ThreadingHTTPServer):
    def __init__(self, address, handler):
        super().__init__(address, handler)
        self.lock = threading.Lock()
        self.connections = self.open = self.most_open = 0
        self.paths = []
        self.delay = 0.0
        self.closed = threading.Event()  # set when a connection ends

    @property
    def endpoint(self):
        return f"http://127.0.0.1:{self.server_port}/search"


@pytest.fixture(params=[KeepAliveHandler])
def keepalive(request):
    server = _serve(request.param, KeepAliveServer)
    yield server
    _stop(server)


def test_sequential_requests_share_one_connection(keepalive):
    with _provider(keepalive.endpoint) as provider:
        for _ in range(20):
            assert provider.execute(PHRASAL, 10) == ()
    assert len(keepalive.paths) == 20
    assert keepalive.connections == 1


@pytest.mark.parametrize("keepalive", [IdleClosingHandler], indirect=True)
def test_connection_closed_while_idle_costs_one_reconnect(keepalive, sleeps):
    with _provider(keepalive.endpoint) as provider:
        provider.execute(PHRASAL, 10)
        assert keepalive.closed.wait(timeout=5)
        provider.execute(PHRASAL, 10)
    assert len(keepalive.paths) == 2  # one request per execute
    assert keepalive.connections == 2
    assert sleeps == []  # the reconnect is not a retry


def test_pooled_socket_has_nagle_off(keepalive):
    with _provider(keepalive.endpoint) as provider:
        provider.execute(PHRASAL, 10)
        [conn] = [slot for slot in provider._pool.queue if slot is not None]
        assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_endpoint_query_string_is_kept(keepalive):
    with _provider(keepalive.endpoint + "?key=abc&lang=en") as provider:
        provider.execute(CONJ, 10)
    [path] = keepalive.paths
    assert path.path == "/search"
    assert parse_qs(path.query) == {"key": ["abc"], "lang": ["en"], "q": ['who killed "of Japan"']}


def test_concurrent_batches_hold_at_most_max_in_flight_connections(keepalive):
    # More client threads than cores and than connections, switching as
    # often as the interpreter allows, so a lost pool update would show.
    keepalive.delay = 0.002
    clients, batches, batch = 6, 3, _rewrites("a", "b", "c", "d", "e")
    outcomes = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _provider(keepalive.endpoint, max_in_flight=2) as provider:
            def client():
                for _ in range(batches):
                    outcomes.extend(provider.execute_many(batch, 10))

            threads = [threading.Thread(target=client) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len([slot for slot in provider._pool.queue if slot is not None]) <= 2
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == [()] * (clients * batches * len(batch))
    assert len(keepalive.paths) == clients * batches * len(batch)
    assert keepalive.most_open <= 2
    assert keepalive.connections <= 2


def test_close_leaves_a_checked_out_connection_open(keepalive):
    keepalive.delay = 0.2
    with _provider(keepalive.endpoint, max_in_flight=2) as provider:
        assert provider.execute_many(_rewrites("a", "b"), 10) == [(), ()]  # two idle connections
        busy = []
        holder = threading.Thread(target=lambda: busy.append(provider.execute(PHRASAL, 10)))
        holder.start()
        while provider._pool.qsize() == 2:  # until the holder has a slot
            time.sleep(0.001)
        provider.close()
        holder.join()
        assert busy == [()]
        # The idle connection is closed, the checked-out one is still open.
        assert sorted(slot.sock is not None for slot in provider._pool.queue) == [False, True]
    assert keepalive.connections == 2


class _StaleConnection:
    """A kept-alive connection the server has closed; finding that out
    takes ``delay`` seconds."""

    sock = None

    def __init__(self, delay):
        self.delay = delay

    def request(self, *args, **kwargs):
        time.sleep(self.delay)
        raise ConnectionResetError("reset by peer")

    def close(self):
        pass


def test_reconnect_after_a_stale_connection_counts_against_the_deadline(keepalive):
    with _provider(keepalive.endpoint, timeout=0.05) as provider:
        provider._pool.get()
        provider._pool.put(_StaleConnection(provider.deadline))
        with pytest.raises(RetryableError, match="question deadline passed after 0 of 3 attempts"):
            provider.execute(PHRASAL, 10)
    assert keepalive.paths == []


def test_https_endpoint_builds_an_https_connection():
    with RemoteProvider("https://search.example/s") as provider:
        assert isinstance(provider._connection(), HTTPSConnection)
    with RemoteProvider("http://search.example/s") as provider:
        assert type(provider._connection()) is HTTPConnection


def test_neither_requests_nor_urllib3_is_imported():
    src = Path(remote_module.__file__).resolve().parents[1]
    probe = "import sys, budgetqa.cli, budgetqa.remote; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    tomllib = pytest.importorskip("tomllib")
    with open(src.parent / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert not [d for d in dependencies if d.lower().startswith("requests")]

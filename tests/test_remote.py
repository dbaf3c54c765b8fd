import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import pytest

from budgetqa import remote as remote_module
from budgetqa.errors import ProviderError, RetryableError
from budgetqa.remote import RemoteProvider
from budgetqa.rewrite import AnswerSlot, Rewrite, RewriteKind

PHRASAL = Rewrite(RewriteKind.PHRASAL, ("killed Abraham Lincoln",), AnswerSlot.LEFT, 5.0)
CONJ = Rewrite(RewriteKind.CONJUNCTIVE, ("who", "killed", "of Japan"), AnswerSlot.NONE, 1.0)


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


def _serve(handler):
    # A short poll interval, so that shutdown() does not wait out the 0.5 s default.
    server = HTTPServer(("127.0.0.1", 0), handler)
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


def test_429_is_retried_with_backoff(stub_server, sleeps):
    StubHandler.script = [
        (429, "slow down"),
        (429, "slow down"),
        (200, json.dumps({"results": [{"summary": "ok"}]})),
    ]
    snippets = _provider(stub_server, backoff=0.5).execute(PHRASAL, 10)
    assert [s.text for s in snippets] == ["ok"]
    assert sleeps == [0.5, 1.0]


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
    StubHandler.script = [
        (429, "slow down", {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
        (429, "slow down", {"Retry-After": "-1"}),
        (200, json.dumps({"results": []})),
    ]
    _provider(stub_server, backoff=0.5).execute(PHRASAL, 10)
    assert sleeps == [0.5, 1.0]


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

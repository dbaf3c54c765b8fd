"""HTTP client for a remote search backend, on ``http.client``.

One GET per rewrite, query serialized as quoted phrases and bare AND terms.
Transient failures (connection errors, 5xx and 429) are retried with
exponential backoff under full jitter: retry r (1 or 2) first waits a draw
from U(0, backoff * 2^(r - 1)) by a generator seeded with the query and r,
so a replay waits the same. A numeric ``Retry-After`` header replaces that
draw with the wait it asks for, capped at the request timeout. A
failure that survives all attempts surfaces as RetryableError, and a
response that cannot be parsed, or any other status from 300 up, as
ProviderError. Both are per-rewrite conditions: callers treat them as a
failed query, not as a failed question.

The client connects straight to the endpoint: it follows no redirect (a
3xx fails the query, naming its ``Location``), ignores the proxy
environment variables, and takes no ``user:password@`` in the URL, which
``parse_endpoint`` rejects as a ConfigError along with anything that is
not an http:// or https:// URL with a host.

The provider's pool is one LIFO queue of ``max_in_flight`` connection
slots, both the cap on requests in flight and the keep-alive pool: a
request takes a slot and puts it back when done, so the connection used
last is reused first and no more than ``max_in_flight`` are ever open. A
slot builds its connection on its first request. ``http.client`` sets
``TCP_NODELAY`` on each new socket and closes it when a response says it
will close, the client closes it on any error, and a closed connection
reconnects on its next request. A slot's connection from an earlier
request that the server has closed costs one reconnect, not an attempt.

A question may take ``deadline`` seconds, three request timeouts, from
``started``, a ``time.monotonic()`` instant that ``execute`` and
``execute_many`` take (default: the call's start; a ``Run`` passes its
first batch's). Waiting for a slot ends at the deadline, each attempt and
a stale connection's reconnect get a socket timeout of the request timeout
or the time left, if less, and no backoff that would end past the deadline
is slept. A rewrite out of time raises RetryableError("question deadline
..."), a failed query like any other. The socket timeout bounds each wait
for data, not a whole response, so a server that keeps sending slowly can
still hold an attempt past the deadline.
"""

from __future__ import annotations

import json
import queue
import random
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from http.client import HTTPConnection, HTTPException, HTTPMessage, HTTPSConnection, RemoteDisconnected
from typing import Sequence
from urllib.parse import SplitResult, urlencode, urlsplit

from .errors import ConfigError, ProviderError, RetryableError
from .rewrite import Rewrite
from .search import DEFAULT_LIMIT, Snippet

MAX_ATTEMPTS = 3
_CONNECTIONS = {"http": HTTPConnection, "https": HTTPSConnection}
# What reusing a kept-alive connection raises when the server has closed it.
_STALE = (RemoteDisconnected, ConnectionResetError, BrokenPipeError)
# The question's deadline passed before an attempt could run: what waiting
# for a slot raises at the deadline, and what _time_left raises after it.
_OutOfTime = queue.Empty


def parse_endpoint(endpoint) -> SplitResult:
    """The parts of ``endpoint``, which must be an http:// or https:// URL
    with a host, a valid port if any and no ``user:password@``; otherwise
    ConfigError."""
    url = None
    if isinstance(endpoint, str):
        try:
            url = urlsplit(endpoint)
            url.port  # raises ValueError unless absent or a number in range
        except ValueError:
            url = None
    if url is None or url.scheme not in _CONNECTIONS or not url.hostname:
        raise ConfigError(f"endpoint must be an http:// or https:// URL with a host, not {endpoint!r}")
    if "@" in url.netloc:
        raise ConfigError("endpoint must not carry user:password@; give a bearer token as token")
    return url


def _retry_after(value: str | None, cap: float) -> float | None:
    """Seconds a numeric ``Retry-After`` header value asks to wait, at most
    ``cap``; None when the header is absent, an HTTP date or not a valid
    number."""
    try:
        seconds = float(value or "")
    except ValueError:
        return None
    if not seconds >= 0:  # negative or NaN
        return None
    return min(seconds, cap)


def _full_jitter(query: str, retry: int, step: float) -> float:
    """The wait before retry ``retry`` of ``query``: U(0, step), the same
    on every run."""
    return random.Random(f"{query}\0{retry}").uniform(0.0, step)


def _deadline_passed(attempts: int, last_exc: Exception | None) -> RetryableError:
    cause = f": {last_exc}" if last_exc else ""
    return RetryableError(f"question deadline passed after {attempts} of {MAX_ATTEMPTS} attempts{cause}")


def _close_free_slots(pool: queue.LifoQueue) -> None:
    """Close the connections of the slots no request holds, each taken out
    of the pool while it closes."""
    free = []
    try:
        while True:
            free.append(pool.get_nowait())
    except queue.Empty:
        pass
    for conn in reversed(free):
        if conn is not None:
            conn.close()
        pool.put(conn)


def _exchange(conn: HTTPConnection, target: str, headers: dict, timeout: float) -> tuple[int, HTTPMessage, bytes]:
    try:
        conn.timeout = timeout  # for the connect, when it is closed
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        conn.request("GET", target, headers=headers)
        response = conn.getresponse()
        return response.status, response.msg, response.read()
    except BaseException:
        conn.close()  # it reconnects on its next request
        raise


class RemoteProvider:
    """SearchProvider talking to an HTTP endpoint.

    The endpoint is expected to answer GET requests carrying the query in a
    single parameter (default ``q``, added to any query string the endpoint
    already has) with a JSON body that is either a list of result objects or
    an object holding that list under ``results_key``. Each result object
    must carry the summary text under ``summary_key``.

    Every thread that executes through the provider takes a slot of its
    one pool per request, so at most ``max_in_flight`` requests are in
    flight. ``close()``, leaving a ``with`` block or garbage collection
    closes the connections of the idle slots.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        query_param: str = "q",
        results_key: str = "results",
        summary_key: str = "summary",
        token: str | None = None,
        backoff: float = 0.25,
        max_in_flight: int = 4,
        timeout: float = 10.0,
    ):
        url = parse_endpoint(endpoint)
        self.endpoint = endpoint
        self.query_param = query_param
        self.results_key = results_key
        self.summary_key = summary_key
        self.token = token
        self.backoff = backoff
        self.timeout = timeout
        self.deadline = MAX_ATTEMPTS * timeout  # seconds a question may take
        self.max_in_flight = max_in_flight
        self._connection = partial(_CONNECTIONS[url.scheme], url.netloc)  # unconnected until its first request
        self._path = url.path or "/"
        self._query = url.query
        self._pool: queue.LifoQueue[HTTPConnection | None] = queue.LifoQueue()
        for _ in range(max_in_flight):
            self._pool.put(None)  # a slot whose connection is not built yet
        weakref.finalize(self, _close_free_slots, self._pool)

    def close(self) -> None:
        """Close the idle pooled connections. A later request reopens one."""
        _close_free_slots(self._pool)

    def __enter__(self) -> RemoteProvider:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _target(self, query: str) -> str:
        params = urlencode({self.query_param: query})
        return f"{self._path}?{self._query}&{params}" if self._query else f"{self._path}?{params}"

    def _time_left(self, deadline: float) -> float:
        """An attempt's socket timeout: the request timeout, or the time left if less."""
        left = deadline - time.monotonic()
        if left <= 0:
            raise _OutOfTime
        return min(self.timeout, left)

    def _request(self, target: str, headers: dict, deadline: float) -> tuple[int, HTTPMessage, bytes]:
        """One GET through a pooled connection: status, headers and body.
        Waiting for a slot, a stale connection and its reconnect all count
        against ``deadline``."""
        kept = self._pool.get(timeout=max(0.0, deadline - time.monotonic()))
        conn = kept or self._connection()
        try:
            if kept:
                try:
                    return _exchange(conn, target, headers, self._time_left(deadline))
                except _STALE:
                    pass  # the server closed it while idle: reconnect once
            return _exchange(conn, target, headers, self._time_left(deadline))
        finally:
            self._pool.put(conn)

    def _get(self, query: str, started: float | None) -> bytes:
        deadline = (time.monotonic() if started is None else started) + self.deadline
        target = self._target(query)
        headers = {"Authorization": f"Bearer {self.token}"} if self.token else {}
        last_exc: Exception | None = None
        asked_wait: float | None = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                wait = asked_wait
                if wait is None:
                    wait = _full_jitter(query, attempt, self.backoff * 2 ** (attempt - 1))
                if time.monotonic() + wait >= deadline:
                    raise _deadline_passed(attempt, last_exc)
                time.sleep(wait)
            asked_wait = None
            try:
                status, reply, body = self._request(target, headers, deadline)
            except _OutOfTime:
                raise _deadline_passed(attempt, last_exc) from None
            except (OSError, HTTPException) as exc:
                last_exc = exc
                continue
            if status == 429 or status >= 500:
                last_exc = RetryableError(f"HTTP {status}")
                asked_wait = _retry_after(reply.get("Retry-After"), self.timeout)
                continue
            if 300 <= status < 400:
                location = reply.get("Location")
                raise ProviderError(f"HTTP {status} from backend to {location}; redirects are not followed")
            if status >= 300:
                raise ProviderError(f"HTTP {status} from backend")
            return body
        raise RetryableError(f"backend failed after {MAX_ATTEMPTS} attempts: {last_exc}")

    def execute(
        self, rewrite: Rewrite, limit: int = DEFAULT_LIMIT, started: float | None = None
    ) -> tuple[Snippet, ...]:
        """The rewrite's snippets, within ``self.deadline`` seconds of
        ``started``, a ``time.monotonic()`` instant (default: now)."""
        body = self._get(rewrite.as_query(), started)
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise ProviderError(f"response is not JSON: {exc}") from exc

        if isinstance(payload, list):
            rows = payload
        elif isinstance(payload, dict) and isinstance(payload.get(self.results_key), list):
            rows = payload[self.results_key]
        else:
            raise ProviderError(f"no result array under {self.results_key!r}")

        rows = rows[:limit]
        if not all(isinstance(row, dict) and isinstance(row.get(self.summary_key), str) for row in rows):
            raise ProviderError(f"result object lacks a {self.summary_key!r} string")
        return tuple(Snippet(text=row[self.summary_key], source_doc=str(row.get("id", "remote"))) for row in rows)

    def execute_many(
        self, rewrites: Sequence[Rewrite], limit: int = DEFAULT_LIMIT, started: float | None = None
    ) -> list[tuple[Snippet, ...] | BaseException]:
        """``execute`` each rewrite concurrently; per rewrite, in submission
        order, its snippets or the exception it raised. Every rewrite must
        finish within ``self.deadline`` seconds of ``started`` (default:
        now). Every worker thread has ended when this returns."""
        if started is None:
            started = time.monotonic()
        with ThreadPoolExecutor(max_workers=min(len(rewrites), self.max_in_flight) or 1) as pool:
            futures = [pool.submit(self.execute, rewrite, limit, started) for rewrite in rewrites]
        return [future.exception() or future.result() for future in futures]

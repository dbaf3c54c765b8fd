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

Connections are kept alive in a pool of at most ``max_in_flight``, checked
out under the semaphore that caps requests in flight, so no more than that
many are ever open. ``http.client`` sets ``TCP_NODELAY`` on each new socket
and closes it when a response says it will close; the client closes it on
any error. A kept-alive connection the server has closed in the meantime
costs one reconnect, which is not a retry attempt.

A question may take ``deadline`` seconds, three request timeouts, from the
instant a ``Run`` passes as ``started`` with its first batch; a lone
``execute`` counts from its own start. Waiting for a free connection slot
ends at the deadline, each attempt and the reconnect of a stale connection
get a socket timeout of the request timeout or the time left, if less, and
no backoff that would end past the deadline is slept. A rewrite out of time
raises RetryableError("question deadline ..."), a failed query like any
other. The socket timeout bounds each wait for data, not a whole response,
so a server that keeps sending slowly can still hold an attempt past the
deadline.

``execute_many`` sends a batch of rewrites concurrently, each through
``execute`` on a worker thread that ends with the batch, and returns every
outcome in submission order. The provider's ``max_in_flight`` semaphore is
the only cap on concurrent requests.
"""

from __future__ import annotations

import json
import random
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
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


class _OutOfTime(Exception):
    """The question's deadline passed before an attempt could run."""


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


def _close_all(connections: list[HTTPConnection]) -> None:
    while True:
        try:
            connections.pop().close()
        except IndexError:  # pop is atomic; another thread may empty the list
            return


class RemoteProvider:
    """SearchProvider talking to an HTTP endpoint.

    The endpoint is expected to answer GET requests carrying the query in a
    single parameter (default ``q``, added to any query string the endpoint
    already has) with a JSON body that is either a list of result objects or
    an object holding that list under ``results_key``. Each result object
    must carry the summary text under ``summary_key``.

    A semaphore caps concurrent in-flight requests to bound backend load,
    and every thread that executes through the provider (``execute_many``'s
    workers, or an evaluation's jobs) shares its pool of kept-alive
    connections. ``close()``, or leaving a ``with`` block, closes the pooled
    connections; so does garbage collection of the provider.
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
        self._connection = _CONNECTIONS[url.scheme]
        self._netloc = url.netloc
        self._path = url.path or "/"
        self._query = url.query
        self._gate = threading.Semaphore(max_in_flight)
        self._idle: list[HTTPConnection] = []  # kept alive; appended and popped atomically
        self._batch = threading.local()  # a batch worker's deadline
        weakref.finalize(self, _close_all, self._idle)

    def close(self) -> None:
        """Close the pooled connections. A later request opens a new one."""
        _close_all(self._idle)

    def __enter__(self) -> RemoteProvider:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _new_connection(self) -> HTTPConnection:
        """An unconnected connection to the endpoint; it connects on its first request."""
        return self._connection(self._netloc)

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
        Waiting for a free slot, a stale connection and its reconnect all
        count against ``deadline``."""
        left = deadline - time.monotonic()
        if left <= 0 or not self._gate.acquire(timeout=left):
            raise _OutOfTime
        try:
            try:
                kept = self._idle.pop()
            except IndexError:
                kept = None
            if kept is not None:
                try:
                    return self._exchange(kept, target, headers, self._time_left(deadline))
                except _STALE:
                    pass  # the server closed it while idle: reconnect once
            return self._exchange(self._new_connection(), target, headers, self._time_left(deadline))
        finally:
            self._gate.release()

    def _exchange(self, conn: HTTPConnection, target: str, headers: dict, timeout: float):
        try:
            conn.timeout = timeout  # for the connect, when it is new
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
            conn.request("GET", target, headers=headers)
            response = conn.getresponse()
            body = response.read()
        except BaseException:
            conn.close()
            raise
        # A response that says it will close has already closed the socket;
        # the connection reconnects on its next request.
        self._idle.append(conn)
        return response.status, response.msg, body

    def _get(self, query: str) -> bytes:
        deadline = getattr(self._batch, "deadline", None)
        if deadline is None:
            deadline = time.monotonic() + self.deadline
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

    def execute(self, rewrite: Rewrite, limit: int = DEFAULT_LIMIT) -> tuple[Snippet, ...]:
        body = self._get(rewrite.as_query())
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
        order, its snippets or the exception it raised. Every rewrite of the
        batch must finish within ``self.deadline`` seconds of ``started``, a
        ``time.monotonic()`` instant (default: now). Every worker thread has
        ended when this returns."""
        deadline = (time.monotonic() if started is None else started) + self.deadline
        with ThreadPoolExecutor(max_workers=min(len(rewrites), self.max_in_flight) or 1) as pool:
            futures = [pool.submit(self._execute_by, deadline, rewrite, limit) for rewrite in rewrites]
        return [future.exception() or future.result() for future in futures]

    def _execute_by(self, deadline: float, rewrite: Rewrite, limit: int) -> tuple[Snippet, ...]:
        # A worker thread ends with its batch, so its deadline goes with it.
        self._batch.deadline = deadline
        return self.execute(rewrite, limit)

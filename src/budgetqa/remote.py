"""HTTP client for a remote search backend.

One GET per rewrite, query serialized as quoted phrases and bare AND terms.
Transient failures (connection errors, 5xx and 429) are retried with
exponential backoff, or after the wait a numeric ``Retry-After`` header asks
for, capped at the request timeout. A failure that survives all attempts
surfaces as RetryableError and a response that cannot be parsed as
ProviderError. Both are per-rewrite conditions: callers treat them as a
failed query, not as a failed question.

``execute_many`` sends a batch of rewrites concurrently, each through
``execute`` on a worker thread that ends with the batch, and returns every
outcome in submission order. The provider's ``max_in_flight`` semaphore is
the only cap on concurrent requests.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import requests
from requests.adapters import HTTPAdapter

from .errors import ProviderError, RetryableError
from .rewrite import Rewrite
from .search import DEFAULT_LIMIT, Snippet

MAX_ATTEMPTS = 3


def _retry_after(response: requests.Response, cap: float) -> float | None:
    """Seconds a numeric ``Retry-After`` header asks to wait, at most ``cap``;
    None when the header is absent, an HTTP date or not a valid number."""
    try:
        seconds = float(response.headers.get("Retry-After", ""))
    except ValueError:
        return None
    if not seconds >= 0:  # negative or NaN
        return None
    return min(seconds, cap)


class RemoteProvider:
    """SearchProvider talking to an HTTP endpoint.

    The endpoint is expected to answer GET requests carrying the query in a
    single parameter (default ``q``) with a JSON body that is either a list
    of result objects or an object holding that list under ``results_key``.
    Each result object must carry the summary text under ``summary_key``.

    A semaphore caps concurrent in-flight requests to bound backend load.
    One ``requests.Session`` is shared by every thread that executes through
    the provider (``execute_many``'s workers, or an evaluation's jobs). That
    is safe: urllib3's connection pool is thread-safe and no cookies are
    used. The pool keeps up to ``max_in_flight`` connections per host, so
    none is discarded when that many requests are in flight.
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
        self.endpoint = endpoint
        self.query_param = query_param
        self.results_key = results_key
        self.summary_key = summary_key
        self.token = token
        self.backoff = backoff
        self.timeout = timeout
        self.max_in_flight = max_in_flight
        self._gate = threading.Semaphore(max_in_flight)
        self._session = requests.Session()
        adapter = HTTPAdapter(pool_maxsize=max_in_flight)
        self._session.mount("http://", adapter)
        self._session.mount("https://", adapter)

    def _get(self, query: str) -> requests.Response:
        headers = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        last_exc: Exception | None = None
        asked_wait: float | None = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                backoff = self.backoff * (2 ** (attempt - 1))
                time.sleep(backoff if asked_wait is None else asked_wait)
            asked_wait = None
            try:
                with self._gate:
                    response = self._session.get(
                        self.endpoint,
                        params={self.query_param: query},
                        headers=headers,
                        timeout=self.timeout,
                    )
            except requests.RequestException as exc:
                last_exc = exc
                continue
            if response.status_code == 429 or response.status_code >= 500:
                last_exc = RetryableError(f"HTTP {response.status_code}")
                asked_wait = _retry_after(response, self.timeout)
                continue
            if response.status_code >= 400:
                raise ProviderError(f"HTTP {response.status_code} from backend")
            return response
        raise RetryableError(f"backend failed after {MAX_ATTEMPTS} attempts: {last_exc}")

    def execute(self, rewrite: Rewrite, limit: int = DEFAULT_LIMIT) -> tuple[Snippet, ...]:
        response = self._get(rewrite.as_query())
        try:
            payload = response.json()
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
        self, rewrites: Sequence[Rewrite], limit: int = DEFAULT_LIMIT
    ) -> list[tuple[Snippet, ...] | BaseException]:
        """``execute`` each rewrite concurrently; per rewrite, in submission
        order, its snippets or the exception it raised. Every worker thread
        has ended when this returns."""
        with ThreadPoolExecutor(max_workers=min(len(rewrites), self.max_in_flight) or 1) as pool:
            futures = [pool.submit(self.execute, rewrite, limit) for rewrite in rewrites]
        return [future.exception() or future.result() for future in futures]

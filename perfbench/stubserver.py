"""Stub search backend for the ask_remote workload.

Serves, over HTTP/1.1 keep-alive, the snippets that ``OfflineProvider``
returns for every rewrite of the ask corpora. Corpus ``i`` is generated
with seed ``seed + 1 + i`` and answers at ``/c/<i>/search?q=<query>``,
because the query string alone does not say which corpus it belongs to.

Each search request waits a fixed service delay. The first attempt of a
fixed, hash-seeded share of distinct queries gets a transient 503; later
attempts succeed. At most ``MAX_CONCURRENT`` requests are served at a time.

  GET  /counts  -> {"attempts", "faults", "unknown"}
  POST /reset   -> clears the counts and the first-attempt memory

Run as a script it builds its tables, prints ``ready <port>`` on stdout and
serves until terminated or until its stdin closes:

  python3 perfbench/stubserver.py --seed 0 --corpora 3 --questions 440
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

MAX_CONCURRENT = 2
DELAY_S = 0.020
FAULT_SHARE = 0.02


def is_fault(seed: int, corpus: int, query: str, share: float) -> bool:
    """Whether the first attempt of this query gets a 503. Depends only on
    its arguments, so the pattern is the same in every run."""
    digest = hashlib.sha256(f"{seed}\0{corpus}\0{query}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") < share * 2**64


def build_tables(seed: int, corpora: int, questions: int) -> list[dict[str, bytes]]:
    """Per corpus, the JSON body for the query string of every rewrite."""
    from budgetqa.bench import generate_benchmark
    from budgetqa.rewrite import Question, generate_rewrites
    from budgetqa.search import DEFAULT_LIMIT, OfflineProvider, build_index

    tables = []
    for i in range(corpora):
        bench = generate_benchmark(questions, seed=seed + 1 + i)
        provider = OfflineProvider(build_index(bench.corpus))
        table: dict[str, bytes] = {}
        for item in bench.items:
            for rewrite in generate_rewrites(Question.from_text(item.question)):
                rows = [
                    {"summary": s.text, "id": s.source_doc}
                    for s in provider.execute(rewrite, DEFAULT_LIMIT)
                ]
                body = json.dumps({"results": rows}).encode("utf-8")
                query = rewrite.as_query()
                if table.setdefault(query, body) != body:
                    raise RuntimeError(f"query {query!r} has two different result lists")
        tables.append(table)
    return tables


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, tables, *, seed: int, delay: float, fault_share: float):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.tables = tables
        self.seed = seed
        self.delay = delay
        self.fault_share = fault_share
        self.gate = threading.BoundedSemaphore(MAX_CONCURRENT)
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.seen: set[tuple[int, str]] = set()
            self.counts = {"attempts": 0, "faults": 0, "unknown": 0}

    def answer(self, corpus: int, query: str) -> tuple[int, bytes]:
        with self.lock:
            self.counts["attempts"] += 1
            key = (corpus, query)
            first = key not in self.seen
            self.seen.add(key)
            body = self.tables[corpus].get(query) if 0 <= corpus < len(self.tables) else None
            if body is None:
                self.counts["unknown"] += 1
                return 404, b'{"error": "unknown query"}'
            if first and is_fault(self.seed, corpus, query, self.fault_share):
                self.counts["faults"] += 1
                return 503, b'{"error": "transient"}'
        return 200, body


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive
    disable_nagle_algorithm = True  # else delayed ACKs add ~40 ms per request

    def _send(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        url = urlsplit(self.path)
        if url.path == "/counts":
            with self.server.lock:
                body = json.dumps(self.server.counts).encode("utf-8")
            self._send(200, body)
            return
        parts = url.path.strip("/").split("/")
        if len(parts) != 3 or parts[0] != "c" or parts[2] != "search" or not parts[1].isdigit():
            self._send(404, b'{"error": "no such path"}')
            return
        query = parse_qs(url.query).get("q", [""])[0]
        with self.server.gate:
            time.sleep(self.server.delay)
            status, body = self.server.answer(int(parts[1]), query)
            self._send(status, body)

    def do_POST(self):
        if urlsplit(self.path).path != "/reset":
            self._send(404, b'{"error": "no such path"}')
            return
        self.server.reset()
        self._send(200, b"{}")

    def log_message(self, *args):
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--corpora", type=int, required=True)
    parser.add_argument("--questions", type=int, required=True)
    args = parser.parse_args()

    # Exit when the parent closes stdin or dies, even while building tables.
    threading.Thread(target=lambda: (sys.stdin.read(), os._exit(0)), daemon=True).start()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tables = build_tables(args.seed, args.corpora, args.questions)
    server = StubServer(tables, seed=args.seed, delay=DELAY_S, fault_share=FAULT_SHARE)
    print(f"ready {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

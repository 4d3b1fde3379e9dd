"""Loopback chat-completions stub for the benchmark, run as its own process.

    python3 bench/stub.py --table TABLE.json --seed N

Prints the port it listens on (127.0.0.1) as its first line of output, then
serves until its standard input closes, so it also ends when its parent
does. Answers and faults follow bench/answers.py. Besides POST
.../chat/completions it serves POST /_reset, which clears the fault and
counter state before each workload iteration, and GET /_stats.

Nagle's algorithm is off and every response goes out in one write: otherwise
delayed-ACK stalls (~40 ms) on the client's keep-alive connections would be
measured instead of the client.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from answers import AnswerRule, target_question

LATENCY_S = 0.002
REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 429: "Too Many Requests",
           503: "Service Unavailable"}


class Endpoint:
    """Fault state and server-side counters, reset before every iteration."""

    def __init__(self, rule: AnswerRule):
        self.rule = rule
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        with self.lock:
            self.faulted: set[str] = set()
            self.seen: dict[str, int] = {}
            self.failed_at: dict[str, float] = {}
            self.status: dict[int, int] = {}
            self.service_ms: list[float] = []
            self.in_flight = 0
            self.max_in_flight = 0
            self.retries = 0
            self.backoff_wait_s = 0.0

    def begin(self, question: str) -> int:
        """Count the request and decide its status."""
        now = time.monotonic()
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            if self.seen.get(question):
                self.retries += 1
            self.seen[question] = self.seen.get(question, 0) + 1
            if question in self.failed_at:
                self.backoff_wait_s += now - self.failed_at.pop(question)
            if question not in self.rule.instance_of:
                return 400
            if self.rule.instance_of[question] in self.rule.failing_ids:
                return 503
            for status, once in ((503, self.rule.once_503), (429, self.rule.once_429)):
                if question in once and question not in self.faulted:
                    self.faulted.add(question)
                    return status
            return 200

    def end(self, question: str, status: int, started: float):
        done = time.monotonic()
        with self.lock:
            self.in_flight -= 1
            self.status[status] = self.status.get(status, 0) + 1
            self.service_ms.append(1000 * (done - started))
            if status != 200:
                self.failed_at[question] = done

    def stats(self) -> dict:
        with self.lock:
            requests = sum(self.status.values())
            ms = sorted(self.service_ms)
            return {
                "requests": requests,
                "status_200": self.status.get(200, 0),
                "status_429": self.status.get(429, 0),
                "status_503": self.status.get(503, 0),
                "status_other": requests - sum(self.status.get(s, 0) for s in (200, 429, 503)),
                "retries": self.retries,
                "useful_ratio": self.status.get(200, 0) / requests if requests else 0.0,
                "service_ms.p50": statistics.median(ms) if ms else 0.0,
                "service_ms.p99": ms[math.ceil(0.99 * len(ms)) - 1] if ms else 0.0,
                "max_in_flight": self.max_in_flight,
                "backoff_wait_s": self.backoff_wait_s,
            }


def make_handler(endpoint: Endpoint):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, format, *args):
            pass

        def _send(self, status: int, payload: dict, extra: str = ""):
            body = json.dumps(payload).encode("utf-8")
            head = (f"HTTP/1.1 {status} {REASONS[status]}\r\n"
                    f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
                    f"{extra}\r\n").encode("ascii")
            self.wfile.write(head + body)

        def do_GET(self):
            if self.path == "/_stats":
                self._send(200, endpoint.stats())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/_reset":
                endpoint.reset()
                self._send(200, {})
                return
            if not self.path.endswith("/chat/completions"):
                self._send(404, {"error": "not found"})
                return
            started = time.monotonic()
            prompt = json.loads(body)["messages"][-1]["content"]
            question = target_question(prompt)
            status = endpoint.begin(question)
            time.sleep(LATENCY_S)
            if status == 200:
                content = endpoint.rule.completion[question]
                self._send(200, {"choices": [{"message": {"role": "assistant",
                                                          "content": content}}]})
            elif status == 429:
                self._send(429, {"error": "rate limited"}, "Retry-After: 0\r\n")
            else:
                self._send(status, {"error": REASONS[status]})
            endpoint.end(question, status, started)

    return Handler


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with open(args.table, encoding="utf-8") as fh:
        rule = AnswerRule(json.load(fh), args.seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(Endpoint(rule)))
    server.daemon_threads = True
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())

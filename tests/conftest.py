"""Terminal summary: one verdict line per release criterion.

Aggregates test_acceptance.py results by their c<N> name prefix. A
criterion passes only if every test under it passed; a skip surfaces
as SKIP so an ungated environment is visible, not silently green.
Also a localhost chat-completion server fixture for the HTTP provider
tests.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

CRITERIA = (
    ("c1", "seed-topic sweep hits the per-method variant counts"),
    ("c2", "statistics match independent brute-force oracles"),
    ("c3", "studentized range matches tables; k=2 reduces to t"),
    ("c4", "order and misspelling validators hold under random sweeps"),
    ("c5", "toy pipeline byte-reproducible within the time budget"),
    ("c6", "location-shift invariance; NDCG rank-only dependence"),
    ("c7", "released-data agreement figures reproduce"),
)


def _criterion_of(report) -> str:
    nodeid = getattr(report, "nodeid", "")
    if "test_acceptance.py" not in nodeid:
        return ""
    name = nodeid.rsplit("::", 1)[-1]
    for key, _ in CRITERIA:
        if name.startswith(f"test_{key}_"):
            return key
    return ""


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[str, set[str]] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, ()):
            key = _criterion_of(report)
            if key:
                outcomes.setdefault(key, set()).add(status)
    if not outcomes:
        return
    terminalreporter.section("release criteria")
    for key, label in CRITERIA:
        seen = outcomes.get(key)
        if not seen:
            verdict = "NOT RUN"
        elif seen & {"failed", "error"}:
            verdict = "FAIL"
        elif "passed" in seen:
            verdict = "PASS"
        else:
            verdict = "SKIP"
        terminalreporter.write_line(f"[{key}] {verdict:7s} {label}")


class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        request = SimpleNamespace(path=self.path, headers=self.headers, body=body)
        with self.server.lock:
            self.server.seen.append(request)
        answer = self.server.reply(request)
        status, headers, payload = answer if isinstance(answer, tuple) else _chat_reply(answer)
        try:
            self.send_response(status)
            for key, value in headers.items():
                self.send_header(key, value)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except ConnectionError:
            pass  # the client timed out and closed the connection

    def log_message(self, format, *args):
        pass


def _chat_reply(content) -> tuple:
    """A 200 chat-completion answer whose first choice holds content."""
    body = {"choices": [{"message": {"role": "assistant", "content": content}}]}
    return 200, {"Content-Type": "application/json"}, json.dumps(body).encode("utf-8")


@pytest.fixture
def chat_server():
    """Threaded HTTP server on 127.0.0.1 at a free port.

    Set ``server.reply`` to a function of the request (path, headers,
    body bytes) that returns either the message content of a 200
    chat-completion answer or a raw (status, headers dict, body bytes).
    Every POST is kept, in arrival order, in ``server.seen``.
    ``server.url`` is the chat endpoint.
    """
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.seen = []
    server.reply = lambda request: (500, {}, b"no reply set")
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    # a short poll interval, so shutdown returns quickly
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()

"""Localhost chat-completion endpoint that answers like the mock provider.

Each POST carries `{"messages": [{"content": prompt}]}` and gets back
`{"choices": [{"message": {"content": text}}]}`, where `text` is what
`MockProvider.complete(prompt)` returns. Every response is held until a
fixed service time has passed since the request arrived, which stands in
for endpoint latency. Connections are served by a fixed-size thread
pool, so clients that overlap calls beyond that bound queue for it.
"""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

SERVICE_S = 0.002
HANDLER_THREADS = 4


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 30

    def do_POST(self):
        stub = self.server.stub
        start = time.perf_counter()
        stub._enter()
        try:
            try:
                length = int(self.headers.get("Content-Length", "0"))
                prompt = json.loads(self.rfile.read(length))["messages"][0]["content"]
                text = stub.provider.complete(prompt)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self._reply(400, {"error": repr(exc)})
                return
            remaining = stub.service_s - (time.perf_counter() - start)
            if remaining > 0:
                time.sleep(remaining)
            self._reply(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})
        finally:
            stub._leave(time.perf_counter() - start)

    def _reply(self, status: int, body: dict) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):
        pass


class _PooledServer(HTTPServer):
    """HTTPServer whose connections run on a bounded thread pool."""

    def __init__(self, stub):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.stub = stub
        self.pool = ThreadPoolExecutor(max_workers=HANDLER_THREADS)

    def process_request(self, request, client_address):
        self.stub._accepted()
        self.pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)


class ProviderStub:
    """Start with `with ProviderStub(provider) as stub:`; `stub.url` is the endpoint."""

    def __init__(self, provider, service_s: float = SERVICE_S):
        self.provider = provider
        self.service_s = service_s
        self._lock = threading.Lock()
        self._counts = {"requests": 0, "connections": 0, "handler_s": 0.0, "concurrency_peak": 0}
        self._in_flight = 0
        self._server = None
        self._thread = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def counts(self) -> dict:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts = dict.fromkeys(self._counts, 0)
            self._counts["handler_s"] = 0.0

    def __enter__(self):
        self._server = _PooledServer(self)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()
        self._server.pool.shutdown(wait=True)

    def _accepted(self) -> None:
        with self._lock:
            self._counts["connections"] += 1

    def _enter(self) -> None:
        with self._lock:
            self._in_flight += 1
            self._counts["requests"] += 1
            self._counts["concurrency_peak"] = max(self._counts["concurrency_peak"], self._in_flight)

    def _leave(self, elapsed: float) -> None:
        with self._lock:
            self._in_flight -= 1
            self._counts["handler_s"] += elapsed

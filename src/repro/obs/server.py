"""AdminServer — stdlib ``http.server`` endpoints for live observability.

A small embeddable admin plane with zero dependencies beyond the standard
library.  It serves:

=====================  ========================================================
``GET /``              endpoint index (JSON)
``GET /metrics``       Prometheus text 0.0.4 exposition of every registered
                       snapshot provider, plus SLO gauges
``GET /healthz``       liveness — typed :class:`~repro.obs.health.HealthReport`
                       JSON, 200/503
``GET /readyz``        readiness — same shape, stricter checks
``GET /traces``        retained-trace summaries + store stats (``?limit=N``)
``GET /traces/<id>``   one full trace as its span-tree JSON
``GET /slo``           objectives, windowed SLI values, burn rates (JSON)
=====================  ========================================================

The server is a :class:`~http.server.ThreadingHTTPServer` whose accept
loop runs on a daemon thread, so it embeds cleanly in the thread-based
serving stack: ``start()`` binds the socket before it returns
(``port=0`` picks an ephemeral port, exposed as ``server.port``),
``stop()`` shuts the loop down without waiting for open connections.
Every provider is a quick snapshot call, and each connection is one
request/response (HTTP/1.0), which is all a scraper needs.

It is wired up for you by ``ExplanationService`` when
``ServiceConfig(admin_port=...)`` is set, or standalone via
``repro-trace serve``.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence
from urllib.parse import parse_qs, urlsplit

from repro.obs.promtext import merged_exposition

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.health import HealthReport
    from repro.obs.slo import SLOTracker
    from repro.obs.store import Trace, TraceStore

#: Content type of the Prometheus text exposition format 0.0.4.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: How often the accept loop checks for :meth:`AdminServer.stop`, which
#: therefore returns within this many seconds.
_POLL_SECONDS = 0.05


def _trace_summary(trace: "Trace") -> dict[str, Any]:
    attributes = trace.root.attributes
    return {
        "trace_id": trace.trace_id,
        "name": trace.name,
        "duration_ms": round(trace.duration_seconds * 1000.0, 3),
        "span_count": len(trace.spans),
        "status": attributes.get("status"),
        "rejected_reason": attributes.get("rejected_reason"),
        "sampled": attributes.get("sampled"),
        "partial": bool(attributes.get("sampled_partial", False)),
    }


class _Handler(BaseHTTPRequestHandler):
    """Answers every method through :meth:`AdminServer._route`."""

    server: "_HTTPServer"
    timeout = 10.0  # seconds; a client that sends no request is hung up on

    def __getattr__(self, name: str) -> Any:
        # http.server dispatches to do_<METHOD>; route them all, so a
        # non-GET gets the router's 405 rather than the stdlib's 501.
        if name.startswith("do_"):
            return self._respond
        raise AttributeError(name)

    def _respond(self) -> None:
        try:
            status, content_type, body = self.server.admin._route(self.command, self.path)
        except Exception as exc:  # noqa: BLE001 - always answer the scraper
            status, content_type = 500, JSON_CONTENT_TYPE
            body = json.dumps({"error": f"{type(exc).__name__}: {exc}"})
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: Any) -> None:
        pass  # scrapes are not worth a stderr line each


class _HTTPServer(ThreadingHTTPServer):
    # Handler threads are daemons; stop() must not wait on a slow client.
    block_on_close = False

    def __init__(self, admin: "AdminServer"):
        self.admin = admin
        super().__init__((admin.host, admin.port), _Handler)

    def server_bind(self) -> None:
        # Skip HTTPServer.server_bind's reverse-DNS lookup of the host.
        socketserver.TCPServer.server_bind(self)

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A scraper that hangs up or stalls is not worth a traceback.
        if not isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
            super().handle_error(request, client_address)


class AdminServer:
    """Embeddable HTTP server for the observability endpoints."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        snapshot_providers: Sequence[Callable[[], Mapping[str, Any]]] = (),
        health: "Callable[[], HealthReport] | None" = None,
        ready: "Callable[[], HealthReport] | None" = None,
        store_provider: "Callable[[], TraceStore | None] | None" = None,
        slo: "SLOTracker | None" = None,
    ):
        self.host = host
        #: Requested port; replaced by the bound port after :meth:`start`.
        self.port = port
        self.snapshot_providers = tuple(snapshot_providers)
        self.health = health
        self.ready = ready
        self.store_provider = store_provider
        self.slo = slo
        self._httpd: _HTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -------------------------------------------------------------- lifecycle
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "AdminServer":
        """Bind the socket and serve from a daemon thread; returns self."""
        if self.running:
            raise RuntimeError("admin server is already running")
        try:
            self._httpd = _HTTPServer(self)
        except OSError as exc:  # port in use, bad host
            raise RuntimeError(f"admin server failed to bind {self.host}:{self.port}") from exc
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            args=(_POLL_SECONDS,),
            name="obs-admin-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and join the accept-loop thread (idempotent)."""
        httpd, thread = self._httpd, self._thread
        self._httpd = self._thread = None
        if httpd is not None and thread is not None:
            httpd.shutdown()
            httpd.server_close()
            thread.join()

    def __enter__(self) -> "AdminServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ---------------------------------------------------------------- routing
    def _route(self, method: str, target: str) -> tuple[int, str, str]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        if method != "GET":
            return 405, JSON_CONTENT_TYPE, json.dumps({"error": f"method {method} not allowed"})
        if path == "/":
            return 200, JSON_CONTENT_TYPE, json.dumps(
                {"endpoints": ["/metrics", "/healthz", "/readyz", "/traces", "/traces/<trace_id>", "/slo"]}
            )
        if path == "/metrics":
            return 200, PROMETHEUS_CONTENT_TYPE, self._metrics_text()
        if path == "/healthz":
            return self._health_response(self.health)
        if path == "/readyz":
            return self._health_response(self.ready or self.health)
        if path == "/traces":
            return self._traces_response(query)
        if path.startswith("/traces/"):
            return self._trace_response(path[len("/traces/"):])
        if path == "/slo":
            return self._slo_response()
        return 404, JSON_CONTENT_TYPE, json.dumps({"error": f"no such endpoint: {path}"})

    def _merged_snapshot(self) -> dict[str, Any]:
        merged: dict[str, Any] = {}
        for provider in self.snapshot_providers:
            merged.update(provider())
        return merged

    def _metrics_text(self) -> str:
        snapshots: list[Mapping[str, Any]] = [self._merged_snapshot()]
        if self.slo is not None:
            # Scrape-driven sampling: every /metrics hit is also an SLO
            # observation, so burn rates track the scrape cadence.
            snapshots.append(self.slo.snapshot(snapshots[0]))
        return merged_exposition(*snapshots)

    def _health_response(
        self, provider: "Callable[[], HealthReport] | None"
    ) -> tuple[int, str, str]:
        if provider is None:
            return 200, JSON_CONTENT_TYPE, json.dumps({"ok": True, "checks": []})
        report = provider()
        return (
            200 if report.ok else 503,
            JSON_CONTENT_TYPE,
            json.dumps(report.to_dict()),
        )

    def _store(self) -> "TraceStore | None":
        return self.store_provider() if self.store_provider is not None else None

    def _traces_response(self, query: Mapping[str, list[str]]) -> tuple[int, str, str]:
        store = self._store()
        if store is None:
            return 404, JSON_CONTENT_TYPE, json.dumps({"error": "no trace store attached"})
        try:
            limit = max(1, int(query.get("limit", ["50"])[0]))
        except ValueError:
            limit = 50
        body = {
            "stats": store.stats(),
            "slowest": [_trace_summary(trace) for trace in store.slowest(limit)],
            "recent": [_trace_summary(trace) for trace in store.recent(limit)],
        }
        return 200, JSON_CONTENT_TYPE, json.dumps(body)

    def _trace_response(self, trace_id: str) -> tuple[int, str, str]:
        store = self._store()
        if store is None:
            return 404, JSON_CONTENT_TYPE, json.dumps({"error": "no trace store attached"})
        trace = store.get(trace_id)
        if trace is None:
            return 404, JSON_CONTENT_TYPE, json.dumps({"error": f"trace {trace_id} not retained"})
        return 200, JSON_CONTENT_TYPE, json.dumps(trace.to_dict(), default=str)

    def _slo_response(self) -> tuple[int, str, str]:
        if self.slo is None:
            return 404, JSON_CONTENT_TYPE, json.dumps({"error": "no SLO tracker attached"})
        evaluation = self.slo.evaluate(self._merged_snapshot())
        return 200, JSON_CONTENT_TYPE, json.dumps(evaluation, default=str)

"""Stdlib HTTP sidecar exposing the service's metrics registry.

``repro serve --metrics-port N`` starts this next to the TCP front
door, so any Prometheus scraper — or plain ``curl`` — can read the
live registry without speaking the JSON-lines protocol:

* ``GET /metrics`` — Prometheus text exposition (format 0.0.4);
* ``GET /metrics.json`` — the same registry as the ``metrics`` wire
  verb's JSON snapshot;
* ``GET /healthz`` — liveness (``503`` once the service drained, or
  when its engine loop died).

The server is a daemon-threaded :class:`~http.server.ThreadingHTTPServer`
serving read-only snapshots from threads of its own; it never waits
for the serving thread (the registry is internally locked), so a
scrape can never stall the simulation.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = ["MetricsSidecar"]

#: Content type mandated by the Prometheus exposition format 0.0.4.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    # The owning sidecar injects itself on the server object.
    server_version = "repro-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        service = self.server.repro_service
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = service.render_metrics().encode("utf-8")
            self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
        elif path == "/metrics.json":
            body = (
                json.dumps(service.metrics_snapshot(), sort_keys=True)
                + "\n"
            ).encode("utf-8")
            self._reply(200, "application/json", body)
        elif path == "/healthz":
            drained = service._drained.is_set()
            ok = not drained and service.failed is None
            status = 200 if ok else 503
            body = (
                json.dumps(
                    {
                        "ok": ok,
                        "draining": service.draining,
                        "drained": drained,
                    }
                )
                + "\n"
            ).encode("utf-8")
            self._reply(status, "application/json", body)
        else:
            self._reply(
                404, "text/plain; charset=utf-8", b"not found\n"
            )

    def _reply(self, status: int, ctype: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        pass  # scrapes must not spam the server's stdout


class MetricsSidecar:
    """Lifecycle wrapper around the sidecar HTTP server."""

    def __init__(self, service, host: str, port: int) -> None:
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.repro_service = service
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-sidecar",
            daemon=True,
        )

    def start(self) -> "MetricsSidecar":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

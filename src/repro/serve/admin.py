"""Embedded HTTP ops surface for a running serving tier.

A stdlib-only (:mod:`http.server`) admin endpoint over either tier of
:class:`~repro.serve.service.ServingFrontEnd`, served from a daemon
thread so it never competes with the batching worker:

* ``GET /healthz``  — liveness: 200 while the batching worker runs;
* ``GET /readyz``   — readiness: 200 only once the model is warmed
  (Kubernetes-style split — alive-but-warming returns 503 here);
* ``GET /metrics``  — Prometheus text exposition of the service's
  registry (``serve_requests_total``, latency quantiles, …);
* ``GET /metrics.json`` — the same snapshot as one JSON document;
* ``GET /debug/requests`` — the flight recorder, newest first;
  ``?id=req-N`` retrieves one request by the ID its
  :class:`~repro.serve.types.PredictionResult` carried, ``?limit=K``
  caps the listing, ``?reason=drift`` (or ``slow``/``timeout``/…)
  keeps only entries captured for that reason;
* ``GET /shards``   — per-shard worker status (generation, pid,
  liveness, inflight) when the bound service is a sharded tier;
* ``GET /model``    — the live model: version, handle generation,
  bank summary, shadow report when a candidate is attached;
* ``GET /drift``    — the drift monitor: reference meta, live sketch
  summaries, per-column PSI and the alert state (404 while off);
* ``POST /swap``    — hot-swap the served model (body:
  ``{"version": "v2"}`` against the service's registry, or
  ``{"path": "model.npz"}``). The **only** mutating route, and it is
  restricted to loopback peers regardless of the bind host;
* ``GET /``         — route index.

Every GET route is read-only and the server binds loopback by default.
It observes the service — it never touches the prediction path, so
predictions are bitwise identical with the admin server on or off
(pinned by ``tests/test_serve_admin.py``).
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..obs.export import PROMETHEUS_CONTENT_TYPE, to_json, to_prometheus

__all__ = ["AdminServer"]

_log = logging.getLogger("repro.serve.admin")

_ROUTES = {
    "/healthz": "liveness (batching worker running)",
    "/readyz": "readiness (model warmed)",
    "/metrics": "Prometheus text exposition",
    "/metrics.json": "metrics snapshot as JSON",
    "/debug/requests": "flight recorder (?id=req-N, ?limit=K, ?reason=slow|"
    "timeout|error|late|invalid|overload|shadow-disagree|drift)",
    "/shards": "per-shard worker status (sharded tiers only)",
    "/model": "live model version, generation and shadow report",
    "/drift": "drift monitor: reference meta, live sketches, per-column PSI, "
    "alert state",
    "/swap": 'POST {"version": ...} or {"path": ...} — hot-swap (loopback only)',
}

#: Every reason a flight entry can carry; ``?reason=`` filters are
#: validated against this set so a typo gets a 400 naming the options
#: instead of a silently empty listing.
_FLIGHT_REASONS = frozenset(
    {
        "slow",
        "timeout",
        "error",
        "late",
        "invalid",
        "overload",
        "shadow-disagree",
        "drift",
    }
)

#: Peers allowed to hit the mutating ``POST /swap`` route. The check is
#: on the *connecting* address, so even an admin server deliberately
#: bound to 0.0.0.0 never accepts a swap from off-host.
_LOOPBACK_PEERS = ("127.0.0.1", "::1", "::ffff:127.0.0.1")


class _AdminHandler(BaseHTTPRequestHandler):
    """Routes one GET; the bound service hangs off the server object."""

    server_version = "rpm-admin/1.0"

    # -- plumbing --------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _log.debug("%s %s", self.address_string(), format % args)

    def _respond(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, status: int, payload) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n"
        self._respond(status, body, "application/json; charset=utf-8")

    # -- routes ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        service = self.server.service  # type: ignore[attr-defined]
        try:
            if parsed.path == "/":
                self._json(200, {"routes": _ROUTES})
            elif parsed.path == "/healthz":
                alive = service.running
                self._json(200 if alive else 503, {"status": "ok" if alive else "down"})
            elif parsed.path == "/readyz":
                ready = service.ready
                self._json(
                    200 if ready else 503,
                    {"status": "ready" if ready else "warming"},
                )
            elif parsed.path == "/metrics":
                body = to_prometheus(service.metrics).encode()
                self._respond(200, body, PROMETHEUS_CONTENT_TYPE)
            elif parsed.path == "/metrics.json":
                body = to_json(service.metrics, indent=2).encode() + b"\n"
                self._respond(200, body, "application/json; charset=utf-8")
            elif parsed.path == "/debug/requests":
                self._debug_requests(service, query)
            elif parsed.path == "/shards":
                # Duck-typed: only sharded tiers expose shard_states().
                shard_states = getattr(service, "shard_states", None)
                if shard_states is None:
                    self._json(
                        404,
                        {"error": "this service is single-process (no shards)"},
                    )
                else:
                    self._json(200, {"shards": shard_states()})
            elif parsed.path == "/model":
                self._json(200, service.describe_model())
            elif parsed.path == "/drift":
                payload = service.describe_drift()
                if payload is None:
                    self._json(
                        404,
                        {
                            "error": "drift monitoring is not enabled "
                            "(serve with --drift / attach_drift)"
                        },
                    )
                else:
                    self._json(200, payload)
            else:
                self._json(404, {"error": f"no route {parsed.path!r}", "routes": _ROUTES})
        except Exception as exc:  # never kill the handler thread
            _log.exception("admin request failed: %s %s", self.path, exc)
            try:
                self._json(500, {"error": f"{type(exc).__name__}: {exc}"})
            except OSError:
                pass

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        parsed = urlparse(self.path)
        service = self.server.service  # type: ignore[attr-defined]
        try:
            if parsed.path != "/swap":
                self._json(
                    404, {"error": f"no POST route {parsed.path!r}", "routes": _ROUTES}
                )
                return
            if self.client_address[0] not in _LOOPBACK_PEERS:
                self._json(
                    403,
                    {"error": "POST /swap is restricted to loopback peers"},
                )
                return
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b"{}"
            try:
                body = json.loads(raw or b"{}")
            except ValueError:
                self._json(400, {"error": "request body must be JSON"})
                return
            target = body.get("version") or body.get("path")
            if not target:
                self._json(
                    400,
                    {"error": 'body must carry {"version": ...} or {"path": ...}'},
                )
                return
            try:
                installed = service.swap(target)
            except Exception as exc:
                # A refused swap (unknown version, failed integrity
                # check, gated promotion) leaves the old model serving.
                self._json(409, {"error": f"{type(exc).__name__}: {exc}"})
                return
            self._json(
                200, {"swapped_to": installed, "model": service.describe_model()}
            )
        except Exception as exc:  # never kill the handler thread
            _log.exception("admin request failed: %s %s", self.path, exc)
            try:
                self._json(500, {"error": f"{type(exc).__name__}: {exc}"})
            except OSError:
                pass

    def _debug_requests(self, service, query: dict) -> None:
        flight = service.flight
        request_id = query.get("id", [None])[0]
        if request_id is not None:
            entry = flight.find(request_id)
            if entry is None:
                self._json(
                    404,
                    {
                        "error": f"request {request_id!r} not in the flight recorder",
                        "hint": "only recent slow/error/timeout requests are retained",
                    },
                )
            else:
                self._json(200, entry.as_record())
            return
        limit = None
        if "limit" in query:
            try:
                limit = max(0, int(query["limit"][0]))
            except ValueError:
                self._json(400, {"error": "limit must be an integer"})
                return
        reason = query.get("reason", [None])[0]
        if reason is not None and reason not in _FLIGHT_REASONS:
            self._json(
                400,
                {
                    "error": f"unknown reason {reason!r}",
                    "reasons": sorted(_FLIGHT_REASONS),
                },
            )
            return
        payload = {
            "capacity": flight.capacity,
            "recorded_total": flight.total_recorded,
            "entries": flight.records(limit=limit, reason=reason),
        }
        if reason is not None:
            payload["reason"] = reason
        self._json(200, payload)


class AdminServer:
    """Lifecycle wrapper around the threaded admin HTTP server.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` / :meth:`url` — tests and multi-instance deployments
    rely on this). The server runs on a daemon thread; :meth:`stop` is
    idempotent and blocks until the thread exits.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self._requested_port = int(port)
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def start(self) -> "AdminServer":
        if self._server is not None:
            return self
        server = ThreadingHTTPServer((self.host, self._requested_port), _AdminHandler)
        server.daemon_threads = True
        server.service = self.service  # type: ignore[attr-defined]
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, name="rpm-serve-admin", daemon=True
        )
        self._thread.start()
        _log.info("admin endpoint listening", extra={"url": self.url()})
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._server = None

    def __enter__(self) -> "AdminServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

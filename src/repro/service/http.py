"""HTTP/JSON front door for the repair service (stdlib only).

Thin by design: every route is a JSON view over
:class:`~repro.service.daemon.RepairServiceDaemon`, served by a
:class:`http.server.ThreadingHTTPServer` — no framework, no new
dependencies.  Endpoints:

========================  ==================================================
``POST /sessions``        Submit a run.  Body: ``{"config": {...}}`` with a
                          ``RepairConfig`` wire, and an optional
                          ``"tenant"``: 1–64 characters of
                          ``[A-Za-z0-9_.-]`` (else ``"default"``).  Returns
                          202 with ``{"id", "tenant", "state"}``.
``GET /sessions``         All sessions (submission order), summary rows.
``GET /sessions/<id>``    One session: status plus the ranked report wire.
                          With ``?wait=S`` the request is a long poll: it
                          answers once the session is terminal, or after
                          ``min(S, MAX_WAIT_SECONDS)`` seconds, or when
                          the daemon stops — terminal or not.
``GET /sessions/<id>/events``  The session's event stream as JSONL; with
                          ``?follow=1`` the response streams until the
                          session is terminal or the daemon stops.  A
                          retried session's rerun follows its abandoned
                          attempt from a second ``session_started``.
``GET /metrics``          The daemon's registry as Prometheus text.
``GET /healthz``          Drain state, the pool's fleet view (workers
                          connected / booting, respawns pending), session
                          totals and per-tenant queue depth + oldest age.
========================  ==================================================

Errors: 400 for malformed bodies, configs or tenants, a bad
``Content-Length`` or a ``?wait=`` that is not a finite, non-negative
number, 413 for a body over :data:`MAX_BODY_BYTES`, 404 for unknown
sessions (before any waiting) or paths, 503 while the daemon is draining.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Tuple
from urllib.parse import parse_qs, urlsplit

from ..api.config import ConfigError
from ..obs.metrics import prometheus_text
from .daemon import RepairServiceDaemon, ServiceError, ServiceUnavailable

#: What a tenant may be: it becomes a metric label and a ``/healthz`` key.
TENANT_PATTERN = re.compile(r"[A-Za-z0-9_.-]{1,64}")

#: Largest ``POST /sessions`` body read; a config wire is a few KiB.
MAX_BODY_BYTES = 1 << 20

#: Longest a request blocks on the daemon: a ``?wait=`` long poll, and
#: each quiet stretch of a ``?follow=1`` stream.
MAX_WAIT_SECONDS = 30.0


class ServiceHTTPServer(ThreadingHTTPServer):
    """The front door: one of these per daemon.

    Each request runs on a daemon thread, which the server remembers until
    it finishes: :meth:`stop` waits for them, so a long poll that the
    daemon's stop released still writes its whole body before the process
    exits.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: RepairServiceDaemon, quiet: bool = True):
        super().__init__(address, _ServiceRequestHandler)
        self.service = service
        self.quiet = quiet
        self._handlers: List[threading.Thread] = []

    def process_request(self, request, client_address):
        # ThreadingMixIn's own bookkeeping joins without a bound in
        # server_close(); this one keeps the threads still running.
        handler = threading.Thread(target=self.process_request_thread,
                                   args=(request, client_address),
                                   daemon=True)
        self._handlers = [thread for thread in self._handlers
                          if thread.is_alive()] + [handler]
        handler.start()

    def stop(self, grace: float) -> int:
        """Drain within ``grace`` seconds: stop accepting, stop the daemon
        (which answers every held long poll and follow stream), wait what
        is left of the grace for the handlers to write those answers, and
        close the socket.  Called while another thread serves; returns how
        many handlers are still running (0 unless a client stalls)."""
        deadline = time.monotonic() + max(0.0, grace)
        self.shutdown()
        self.service.stop(grace=grace)
        for handler in self._handlers:
            handler.join(max(0.0, deadline - time.monotonic()))
        self.server_close()
        return sum(handler.is_alive() for handler in self._handlers)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    # HTTP/1.0: connection close delimits the ?follow=1 stream, so no
    # chunked-encoding machinery is needed.
    protocol_version = "HTTP/1.0"

    def log_message(self, fmt, *args):   # noqa: N802 — stdlib naming
        if not getattr(self.server, "quiet", True):
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    # -- plumbing -----------------------------------------------------------

    def _send_json(self, status: int, payload) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    # -- routes -------------------------------------------------------------

    def do_GET(self):                    # noqa: N802 — stdlib naming
        service: RepairServiceDaemon = self.server.service
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        query = parse_qs(split.query, keep_blank_values=True)
        try:
            if parts == ["metrics"]:
                self._send_text(200,
                                prometheus_text(service.metrics_snapshot()))
            elif parts == ["healthz"]:
                self._send_json(200, service.status())
            elif parts == ["sessions"]:
                self._send_json(200, {"sessions": service.sessions()})
            elif len(parts) == 2 and parts[0] == "sessions":
                if "wait" in query:
                    raw = query["wait"][0]
                    try:
                        seconds = float(raw)
                    except ValueError:
                        seconds = math.nan
                    if not 0.0 <= seconds < math.inf:
                        self._error(400, f"?wait= must be a finite, "
                                         f"non-negative number of seconds, "
                                         f"not {raw!r}")
                        return
                    try:
                        service.wait(parts[1], min(seconds, MAX_WAIT_SECONDS))
                    except (TimeoutError, ServiceError):
                        pass             # not terminal: answer as it stands
                self._send_json(200, service.session_wire(parts[1]))
            elif (len(parts) == 3 and parts[0] == "sessions"
                  and parts[2] == "events"):
                follow = query.get("follow", ["0"])[0] not in ("0", "")
                self._stream_events(service, parts[1], follow)
            else:
                self._error(404, f"no such route: {split.path}")
        except KeyError:
            self._error(404, f"no such session: {parts[1]}")
        except (BrokenPipeError, ConnectionResetError):
            pass                         # client went away mid-response

    def do_POST(self):                   # noqa: N802 — stdlib naming
        service: RepairServiceDaemon = self.server.service
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        if parts != ["sessions"]:
            self._error(404, f"no such route: {split.path}")
            return
        if split.query or "X-Repro-Tenant" in self.headers:
            # The tenant rides in the body only; elsewhere it is refused,
            # not silently filed under "default".
            self._error(400, 'the tenant goes in the body\'s "tenant" key, '
                             'not in the query or a header')
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self._error(400, "Content-Length must be a non-negative integer")
            return
        if length > MAX_BODY_BYTES:
            self._error(413, f"body of {length} bytes exceeds the "
                             f"{MAX_BODY_BYTES}-byte limit")
            return
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._error(400, f"body is not valid JSON: {exc}")
            return
        if not (isinstance(payload, dict) and "config" in payload
                and set(payload) <= {"config", "tenant"}):
            self._error(400, 'body must be a JSON object, the envelope '
                             '{"config": {...}, "tenant": ...} ("tenant" '
                             'optional)')
            return
        tenant = payload.get("tenant", "default")
        if not (isinstance(tenant, str) and TENANT_PATTERN.fullmatch(tenant)):
            self._error(400, "tenant must be 1-64 characters of "
                             "[A-Za-z0-9_.-]")
            return
        try:
            session_id = service.submit(payload["config"], tenant=tenant)
        except ServiceUnavailable as exc:
            self._error(503, str(exc))
            return
        except ConfigError as exc:
            self._error(400, f"bad repair config: {exc}")
            return
        self._send_json(202, {"id": session_id, "tenant": tenant,
                              "state": "queued"})

    def _stream_events(self, service: RepairServiceDaemon,
                       session_id: str, follow: bool) -> None:
        # Raises KeyError for unknown ids before any bytes are written.
        generation, events, ended = service.events_since(session_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        offset = 0
        while True:
            for wire in events:
                line = json.dumps(wire, sort_keys=True, default=str) + "\n"
                self.wfile.write(line.encode("utf-8"))
            offset += len(events)
            self.wfile.flush()
            if ended or not follow:
                return
            seen = generation
            generation, events, ended = service.events_since(
                session_id, offset, seen, timeout=MAX_WAIT_SECONDS)
            if generation != seen:
                offset = 0               # a requeue: the rerun starts over

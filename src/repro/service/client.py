"""A tiny urllib client for the repair service HTTP front door.

Backs the ``repro submit`` / ``repro status`` CLI subcommands and the
service tests; stdlib only, like the server.
"""

from __future__ import annotations

import json
import time as _time
from typing import Dict, List, Optional
from urllib import error as _urlerror
from urllib import request as _urlrequest

from ..api.config import RepairConfig


class ClientError(RuntimeError):
    """An HTTP error from the service, with its status and body."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """Talk to a ``repro serve`` front door at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing -----------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Optional[Dict] = None,
                 headers: Optional[Dict[str, str]] = None) -> bytes:
        data = (json.dumps(payload, sort_keys=True).encode("utf-8")
                if payload is not None else None)
        request = _urlrequest.Request(self.base_url + path, data=data,
                                      method=method)
        request.add_header("Content-Type", "application/json")
        for key, value in (headers or {}).items():
            request.add_header(key, value)
        try:
            with _urlrequest.urlopen(request, timeout=self.timeout) as resp:
                return resp.read()
        except _urlerror.HTTPError as exc:
            body = exc.read().decode("utf-8", "replace")
            try:
                message = json.loads(body).get("error", body)
            except (json.JSONDecodeError, AttributeError):
                message = body
            raise ClientError(exc.code, message) from exc

    def _json(self, method: str, path: str,
              payload: Optional[Dict] = None,
              headers: Optional[Dict[str, str]] = None) -> Dict:
        return json.loads(self._request(method, path, payload=payload,
                                        headers=headers))

    # -- API ----------------------------------------------------------------

    def submit(self, config, tenant: Optional[str] = None) -> Dict:
        """POST a config (``RepairConfig`` or wire dict); returns the
        ``{"id", "tenant", "state"}`` acknowledgement."""
        if isinstance(config, RepairConfig):
            config = config.to_wire()
        payload: Dict[str, object] = {"config": config}
        if tenant is not None:
            payload["tenant"] = tenant
        return self._json("POST", "/sessions", payload=payload)

    def sessions(self) -> List[Dict]:
        return self._json("GET", "/sessions")["sessions"]

    def session(self, session_id: str) -> Dict:
        return self._json("GET", f"/sessions/{session_id}")

    def events(self, session_id: str, follow: bool = False) -> List[Dict]:
        """The session's event wires; ``follow=True`` reads the
        ``?follow=1`` stream to its end (the session terminal)."""
        raw = self._request("GET", f"/sessions/{session_id}/events"
                                   + ("?follow=1" if follow else ""))
        return [json.loads(line)
                for line in raw.decode("utf-8").splitlines() if line.strip()]

    def metrics_text(self) -> str:
        return self._request("GET", "/metrics").decode("utf-8")

    def health(self) -> Dict:
        return self._json("GET", "/healthz")

    def wait(self, session_id: str, timeout: float = 300.0,
             poll: float = 0.2) -> Dict:
        """Long-poll until the session is terminal; returns its full wire.

        Each ``GET /sessions/<id>?wait=`` asks the server to hold it for
        the time left, at most half the socket timeout (so the socket
        never times out first); the server caps it too.  A session that
        ends within one long poll costs one request.  ``poll`` is the
        pause before asking again after one that came back non-terminal.
        """
        deadline = _time.monotonic() + timeout
        while True:
            hold = min(max(0.0, deadline - _time.monotonic()),
                       self.timeout / 2)
            wire = self._json("GET",
                              f"/sessions/{session_id}?wait={hold:.3f}")
            if wire.get("state") in ("done", "failed"):
                return wire
            if _time.monotonic() > deadline:
                raise TimeoutError(
                    f"session {session_id} still {wire.get('state')!r} "
                    f"after {timeout}s")
            _time.sleep(poll)

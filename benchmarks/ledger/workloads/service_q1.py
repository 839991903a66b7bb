"""``service_q1`` — paper-sized Q1 through the ``repro serve`` daemon."""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from .base import Op, Runner

NAME = "service_q1"
WHY = ("two tenants submit paper-sized Q1 back-to-back over HTTP: daemon "
       "dispatch, config/report JSON wires and warm worker caches do the "
       "work that differs from cli_paper; the repair itself is the same Q1")
#: Checked against the Q1 golden of the CLI workload: same config.
GOLDEN = "cli_paper"
LABEL = "Q1"
PARALLEL = True
WORKERS = 2
CLIENTS = 2
#: ``ServiceClient.wait`` defaults to a 0.2 s poll, which would quantise
#: every latency of a 0.1 s session.
POLL_SECONDS = 0.01
OP_TIMEOUT_SECONDS = 60.0
START_TIMEOUT_SECONDS = 60.0
DRAIN_TIMEOUT_SECONDS = 30.0


def inputs(seed: int, smoke: bool) -> Dict[str, object]:
    rng = random.Random(seed)
    # Which tenant client 0 speaks for on its i-th session; client 1
    # always takes the other one, so both tenants stay loaded.
    return {"tenants": [rng.choice("ab") for _ in range(1024)],
            "max_candidates": 14,
            "probe_sessions": 6 if smoke else 240}


@dataclass
class SessionSample:
    """Client-side timestamps of one session plus its final wire."""

    start: float
    submitted: float
    end: float
    polls: int = 0
    #: The terminal session wire (``None`` = the session failed).
    wire: Optional[Dict] = None
    error: str = ""


class ServiceHarness:
    """A ``python -m repro serve`` child: start, talk to, drain, reap."""

    def __init__(self, workers: int = WORKERS):
        self.workers = workers
        self.process: Optional[subprocess.Popen] = None
        self.url = ""
        self.start_seconds = 0.0

    def start(self) -> None:
        """Returns once ``/healthz`` shows every worker connected."""
        from repro.service.client import ClientError, ServiceClient
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(self.workers), "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=os.environ)
        banner = self.process.stdout.readline()
        if "HTTP on " not in banner:
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.url = banner.split("HTTP on ", 1)[1].split()[0]
        client = ServiceClient(self.url)
        deadline = started + START_TIMEOUT_SECONDS
        while True:
            try:
                if client.health()["workers_connected"] >= self.workers:
                    break
            except (ClientError, OSError):
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve: workers never connected")
            time.sleep(0.01)
        self.start_seconds = time.perf_counter() - started

    def client(self):
        from repro.service.client import ServiceClient

        class CountingClient(ServiceClient):
            polls = 0

            def session(self, session_id):
                self.polls += 1
                return super().session(session_id)

        return CountingClient(self.url)

    def run_session(self, client, config_wire: Dict, tenant: str
                    ) -> SessionSample:
        """Submit one config and hold its terminal session wire; whatever
        goes wrong fails the session, not the caller."""
        polls_before = client.polls
        start = submitted = time.perf_counter()
        try:
            ack = client.submit(config_wire, tenant=tenant)
            submitted = time.perf_counter()
            wire = client.wait(ack["id"], timeout=OP_TIMEOUT_SECONDS,
                               poll=POLL_SECONDS)
            if wire.get("state") != "done" or not wire.get("report"):
                raise RuntimeError(f"session {ack['id']} ended "
                                   f"{wire.get('state')}: {wire.get('error')}")
        except Exception as exc:         # noqa: BLE001 — op boundary
            return SessionSample(start, submitted, time.perf_counter(),
                                 error=repr(exc))
        return SessionSample(start, submitted, time.perf_counter(),
                             client.polls - polls_before, wire)

    def run_clients(self, config_wire: Dict, seconds: float, min_each: int,
                    tenant_of=lambda client, index: "ab"[client % 2]
                    ) -> List[SessionSample]:
        """Closed loop: ``CLIENTS`` threads, each submitting back-to-back
        until ``seconds`` have passed and it ran ``min_each`` sessions."""
        samples: List[SessionSample] = []
        lock = threading.Lock()
        started = time.perf_counter()

        def client_loop(client_index: int) -> None:
            client = self.client()
            done = 0
            while done < min_each or time.perf_counter() - started < seconds:
                sample = self.run_session(client, config_wire,
                                          tenant_of(client_index, done))
                done += 1
                with lock:
                    samples.append(sample)

        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sorted(samples, key=lambda sample: sample.start)

    def stop(self) -> None:
        """SIGTERM-drain and reap; the daemon must exit 0 and take its
        workers with it."""
        if self.process is None:
            return
        process, self.process = self.process, None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=DRAIN_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise RuntimeError("repro serve did not drain on SIGTERM")
        finally:
            process.stdout.close()
        if code != 0:
            raise RuntimeError(f"repro serve exited {code}")


class ServiceRunner(Runner):
    """Closed loop with ``CLIENTS`` client threads, one tenant each."""

    def __init__(self, knobs: Dict[str, object]):
        from repro.api import RepairConfig
        self.tenants = knobs["tenants"]
        self.service_probe_sessions = knobs["probe_sessions"]
        self.config = RepairConfig.for_scenario(
            "Q1", max_candidates=knobs["max_candidates"]).to_wire()
        self.harness = ServiceHarness()
        self._serial_client = None

    own_label = LABEL

    def probe_configs(self):
        return self.config, self.config

    def setup(self) -> None:
        self.harness.start()
        self._serial_client = self.harness.client()
        # One discarded op per worker, so both hold a warm scenario.
        self.run_slice(0.0, CLIENTS, 0)

    def _tenant(self, client_index: int, session_index: int) -> str:
        drawn = self.tenants[session_index % len(self.tenants)]
        return drawn if client_index == 0 else "ab"[drawn == "a"]

    @staticmethod
    def _op(sample: SessionSample) -> Op:
        return Op(LABEL, sample.start, sample.end, error=sample.error,
                  wire=sample.wire["report"] if sample.wire else None)

    def run_op(self, index: int) -> Op:
        return self._op(self.harness.run_session(
            self._serial_client, self.config, self._tenant(0, index)))

    def run_slice(self, seconds: float, min_ops: int, first: int) -> List[Op]:
        samples = self.harness.run_clients(
            self.config, seconds, -(-min_ops // CLIENTS),
            lambda client, index: self._tenant(client, first + index))
        return [self._op(sample) for sample in samples]

    def teardown(self) -> None:
        self.harness.stop()


def runner(knobs: Dict[str, object]) -> ServiceRunner:
    return ServiceRunner(knobs)

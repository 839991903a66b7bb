"""Graceful shutdown: drain, requeue, never strand a process.

The ISSUE 10 satellite contract: ``repro serve`` and the worker main
handle SIGTERM/SIGINT by draining — in-flight sessions are requeued
with no attempt charged, event sinks are flushed, and every child
process exits cleanly.  Plus the regression for the old failure mode
where a terminal Ctrl-C killed the fleet's children out from under the
parent mid-job.
"""

import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.api import RepairConfig
from repro.distrib import FaultAction, FaultPlan
from repro.distrib.pool import recv_frame
from repro.service import ServiceError, ServiceUnavailable

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


def child_env():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (REPO_SRC if not existing
                         else REPO_SRC + os.pathsep + existing)
    return env


class TestDaemonStop:
    def test_stop_requeues_in_flight_without_charging_attempts(self, fleet):
        # The only worker hangs forever on its first session; stop() must
        # not wait it out — the session goes back to the queue, partial
        # events discarded, attempts untouched (the operator interrupted
        # it, not a fault).
        plan = FaultPlan(actions=(
            FaultAction(kind="hang", worker=0, after_items=0, seconds=120),))
        daemon, server, _client = fleet(workers=1, fault_plan=plan)
        config = RepairConfig.for_scenario("Q1", max_candidates=4)
        session_id = daemon.submit(config, tenant="ops")
        record = daemon.get(session_id)
        deadline = time.monotonic() + 60
        while record.state == "queued":
            assert time.monotonic() < deadline, "session never dispatched"
            time.sleep(0.01)
        daemon.stop(grace=0.3)
        assert record.state == "queued"
        assert record.attempts == 0
        assert record.events == []
        with pytest.raises(ServiceError):
            daemon.wait(session_id, timeout=1.0)

    def test_stop_releases_long_polls_and_follow_streams(self, fleet):
        # No worker: the session stays queued, so a long poll and a
        # follow stream both hang on the daemon until stop() answers
        # them — with the wire as it stands, and an ended stream.
        daemon, _server, client = fleet(workers=0)
        session_id = daemon.submit(RepairConfig.for_scenario("Q1"),
                                   tenant="ops")
        answers = {}
        readers = [
            threading.Thread(target=lambda: answers.setdefault(
                "wire", client._json("GET",
                                     f"/sessions/{session_id}?wait=60"))),
            threading.Thread(target=lambda: answers.setdefault(
                "events", client.events(session_id, follow=True)))]
        for reader in readers:
            reader.start()
        time.sleep(0.5)
        assert all(reader.is_alive() for reader in readers)
        stopped = time.monotonic()
        daemon.stop(grace=0.3)
        for reader in readers:
            reader.join(timeout=30)
        assert not any(reader.is_alive() for reader in readers)
        assert time.monotonic() - stopped < 10
        assert answers["wire"]["state"] == "queued"
        assert answers["events"] == []

    def test_front_door_stop_waits_for_a_released_long_poll(self, fleet):
        # The drain ``repro serve`` runs on SIGTERM.  stop() releases the
        # held long poll, whose handler still has its answer to write
        # (slowed down here); the drain returns only once it is written,
        # so the process cannot exit under a half-sent body.
        daemon, server, client = fleet(workers=0)
        session_id = daemon.submit(RepairConfig.for_scenario("Q1"),
                                   tenant="ops")
        held = threading.Event()
        wait = daemon.wait

        def slow_to_answer(*args, **kwargs):
            held.set()
            try:
                return wait(*args, **kwargs)
            finally:
                time.sleep(0.3)

        daemon.wait = slow_to_answer
        answers = {}
        reader = threading.Thread(target=lambda: answers.setdefault(
            "wire", client._json("GET", f"/sessions/{session_id}?wait=60")))
        reader.start()
        assert held.wait(timeout=30), "the long poll never reached the daemon"
        assert server.stop(grace=5.0) == 0      # no handler left running
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert answers["wire"]["id"] == session_id
        assert answers["wire"]["state"] == "queued"

    def test_draining_daemon_rejects_submissions(self, fleet):
        daemon, _server, _client = fleet(workers=0)
        daemon.stop(grace=0.0)
        with pytest.raises(ServiceUnavailable):
            daemon.submit(RepairConfig.for_scenario("Q1"))

    def test_stop_terminates_the_local_fleet(self, fleet):
        daemon, _server, _client = fleet(workers=2)
        deadline = time.monotonic() + 30
        while daemon.status()["workers_connected"] < 2:
            assert time.monotonic() < deadline, "fleet never connected"
            time.sleep(0.05)
        processes = daemon._pool.processes
        assert len(processes) == 2
        daemon.stop(grace=1.0)
        assert all(p.poll() is not None for p in processes)


class TestWorkerSignals:
    def test_idle_worker_exits_cleanly_on_sigterm(self):
        # A worker blocked in recv between jobs must exit 0 on SIGTERM,
        # not strand until the pool closes its end of the socket.
        ours, theirs = socket.socketpair()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.distrib.worker",
             "--fd", str(theirs.fileno())],
            env=child_env(), pass_fds=(theirs.fileno(),))
        theirs.close()
        try:
            ours.settimeout(30)
            assert recv_frame(ours) == {"type": "hello"}
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
            ours.close()

    def test_spawn_children_survive_a_terminal_sigint(self):
        # Regression: a terminal Ctrl-C delivers SIGINT to the whole
        # foreground process group; fleet children that died to it
        # stranded the parent transport mid-job.  The pool launches its
        # workers in their own session, so the interrupt never reaches
        # them — the parent owns fleet shutdown.  Run in a throwaway
        # session: the SIGINT goes to *that* group, not to pytest's.
        script = textwrap.dedent("""
            import os, signal
            from repro.backtest import Backtester
            from repro.distrib import Scheduler, Transport
            from repro.repair import ChangeConstant, RepairCandidate
            from repro.scenarios import build_scenario

            signal.signal(signal.SIGINT, lambda *_: None)  # parent drains
            transport = Transport("spawn", workers=1)
            pool = transport._pool
            pool.start()
            with pool.changed:            # the worker's hello registration
                assert pool.changed.wait_for(lambda: pool.links, timeout=60)
            (child,) = pool.processes
            assert os.getpgid(child.pid) != os.getpgid(0)
            os.killpg(os.getpgid(0), signal.SIGINT)
            # The same process, never respawned, still serves a job.
            scenario = build_scenario("Q1")
            candidate = RepairCandidate(
                edits=(ChangeConstant("r7", 0, "right", 2, 3),), cost=1.1,
                description="r7: Swi==2 -> Swi==3")
            report = Backtester(scenario).evaluate_all(
                [candidate], scheduler=Scheduler(transport=transport))
            assert len(report.results) == 1
            assert not transport.last_fault_stats.any()
            assert pool.processes == [child] and child.poll() is None
            transport.close()
            assert child.returncode == 0  # left on the shutdown frame
        """)
        done = subprocess.run([sys.executable, "-c", script],
                              env=child_env(), start_new_session=True,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestServeProcess:
    def test_repro_serve_drains_and_exits_zero_on_sigterm(self, tmp_path):
        events_log = tmp_path / "events.jsonl"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--workers", "1",
             "--events", str(events_log)],
            env=child_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = process.stdout.readline()
            assert "repro serve: HTTP on http://" in line
            url = line.split("HTTP on ", 1)[1].split()[0]

            # One full session through the real HTTP front door, so the
            # drain below also flushes a non-empty event log.
            from repro.service import ServiceClient
            client = ServiceClient(url)
            ack = client.submit(
                RepairConfig.for_scenario("Q1", max_candidates=4))
            wire = client.wait(ack["id"], timeout=120)
            assert wire["state"] == "done", wire.get("error")

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
            output = process.stdout.read()
            assert "repro serve: draining" in output
            assert "repro serve: stopped" in output
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()
        # The --events JSONL log was flushed on shutdown and holds the
        # session's full stream.
        lines = [l for l in events_log.read_text().splitlines() if l.strip()]
        assert any('"session_finished"' in l for l in lines)

    def test_sigterm_answers_an_outstanding_long_poll_within_the_grace(
            self, tmp_path):
        # The one worker hangs 1.5 s in the first session, so the second
        # stays queued and a 60 s long poll on it is still held when
        # SIGTERM arrives: the drain lets the first finish, answers the
        # poll with the queued wire, and the process exits 0 within its
        # --grace.
        grace = 5.0
        plan = tmp_path / "plan.json"
        plan.write_text(FaultPlan(actions=(FaultAction(
            kind="hang", worker=0, after_items=0, seconds=1.5),)).to_json())
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1", "--fault-plan", str(plan),
             "--grace", str(grace), "--quiet"],
            env=child_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = process.stdout.readline()
            assert "repro serve: HTTP on http://" in line
            url = line.split("HTTP on ", 1)[1].split()[0]
            from repro.service import ServiceClient
            client = ServiceClient(url)
            config = RepairConfig.for_scenario("Q1", max_candidates=4)
            client.submit(config)
            ack = client.submit(config)
            answer = {}
            poller = threading.Thread(target=lambda: answer.update(
                client._json("GET", f"/sessions/{ack['id']}?wait=60")))
            poller.start()
            time.sleep(0.5)
            assert poller.is_alive()
            signalled = time.monotonic()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
            assert time.monotonic() - signalled < grace
            poller.join(timeout=30)
            assert not poller.is_alive()
            assert answer["state"] == "queued"
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()

    def test_repro_serve_exits_zero_on_sigint(self):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--workers", "1"],
            env=child_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = process.stdout.readline()
            assert "repro serve: HTTP on" in line
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()


def worker_pids():
    """Pids of the running processes that run the worker main."""
    found = set()
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")
        except OSError:
            continue
        if b"repro.distrib.worker" in argv:
            found.add(int(entry))
    return found


def serve(*args):
    """``repro serve`` with ``args``, run to its exit; a worker it left
    running counts as ``leftover``."""
    before = worker_pids()
    done = subprocess.run([sys.executable, "-m", "repro", "serve", *args],
                          env=child_env(), capture_output=True, text=True,
                          timeout=60)
    return done, worker_pids() - before


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_repro_serve_on_a_busy_port_exits_2_and_leaves_no_worker():
    # The port already taken: one line on stderr, exit 2, and no worker
    # launched to find the daemon gone.
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        done, leftover = serve("--workers", "1", "--port", str(port))
    assert done.returncode == 2, done.stderr
    assert done.stderr.count("\n") == 1, done.stderr
    assert done.stderr.startswith("repro serve: cannot listen on "
                                  f"127.0.0.1:{port}: "), done.stderr
    assert "Traceback" not in done.stderr
    assert leftover == set()


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
@pytest.mark.parametrize("flag, value, message", [
    ("--workers", "0", "--workers must be >= 1, not 0"),
    ("--workers", "-3", "--workers must be >= 1, not -3"),
    ("--port", "70000", "--port must be within [0, 65535], not 70000"),
    ("--port", "-1", "--port must be within [0, 65535], not -1"),
], ids=["workers-0", "workers--3", "port-70000", "port--1"])
def test_repro_serve_refuses_bad_numbers_with_exit_2(flag, value, message):
    # Refused before anything binds or launches: a daemon without
    # workers would queue sessions forever, a port out of range was an
    # OverflowError traceback from bind.
    done, leftover = serve("--workers", "1", "--port", "0", flag, value)
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"repro serve: {message}\n"
    assert leftover == set()

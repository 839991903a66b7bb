"""A session borrows the fleet: spawn sessions of one process share workers.

``Scheduler.from_config`` (hence every ``RepairSession`` with
``transport="spawn"``) takes the process's idle fleet when it has the same
shape — transport name, worker count, transport options — and
``Scheduler.close`` parks it again.  What must hold:

* reports stay a pure function of (config, scenario): a session on a warm
  fleet equals the serial session, minus ``timings``, also when its scenario
  misses the workers' runtime caches;
* a process keeps one idle fleet, whatever the shapes of its sessions and
  also after sessions that ran at once, and never hands one fleet to two
  borrowers;
* a chaos fleet (a ``fault_plan`` armed) is never parked, nor one whose
  last job needed recovery or raised before it finished;
* the idle fleet dies with its process, and a forked child starts with none.
"""

import collections
import json
import os
import subprocess
import sys
import threading
import time

import pytest

import repro.distrib.coordinator as coordinator
from repro.api import RepairConfig, RepairSession
from repro.backtest import replay
from repro.distrib import (FaultStats, Scheduler, Transport, WorkerPool,
                           close_parked_fleets)
from repro.repair import reset_candidate_ids

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")
BIGGER = {"repetitions": 2}


def q1(params=None, **knobs):
    return RepairConfig.for_scenario("Q1", params=params, max_candidates=6,
                                     **knobs)


def spawn(params=None, **knobs):
    return q1(params, transport="spawn", workers=2, **knobs)


def report_wire(config, reset=True):
    """The session's report wire without its wall-clock ``timings``."""
    if reset:
        # Tags come from a process-global counter (see the ledger's
        # run_session): restart it so that reports compare whole.
        reset_candidate_ids()
    wire = RepairSession(config).run().to_wire()
    wire.pop("timings")
    return wire


def untagged(wire):
    """Sessions on two threads draw tags from one counter at once."""
    return dict(wire, results=[{k: v for k, v in row.items() if k != "tag"}
                               for row in wire["results"]])


def parked():
    return list(coordinator._PARKED.values())


def worker_pids(transport):
    return sorted(process.pid for process in transport._pool.processes)


@pytest.fixture(scope="module")
def serial():
    return {"q1": report_wire(q1()), "bigger": report_wire(q1(BIGGER))}


@pytest.fixture(autouse=True)
def empty_table():
    close_parked_fleets()
    yield
    close_parked_fleets()


def test_three_sessions_run_on_the_same_two_workers(serial):
    pids = []
    for _ in range(3):
        assert report_wire(spawn()) == serial["q1"]
        (transport,) = parked()
        pids.append(worker_pids(transport))
    assert len(pids[0]) == 2
    assert pids == [pids[0]] * 3


def test_a_runtime_cache_miss_on_a_parked_fleet_matches_serial(serial):
    assert report_wire(spawn()) == serial["q1"]
    (first,) = parked()
    assert report_wire(spawn(BIGGER)) == serial["bigger"]
    assert parked() == [first]
    assert report_wire(spawn()) == serial["q1"]
    assert parked() == [first]


def test_sessions_at_once_each_get_a_fleet_and_one_stays_parked(serial):
    wires, errors = [], []

    def session():
        try:
            wires.append(report_wire(spawn(), reset=False))
        except Exception as exc:         # noqa: BLE001 — reported below
            errors.append(exc)

    threads = [threading.Thread(target=session) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert [untagged(w) for w in wires] == [untagged(serial["q1"])] * 2
    assert len(parked()) <= 1


def test_a_fleet_with_a_fault_plan_is_not_parked(serial):
    plan = {"seed": 0, "actions": []}
    config = spawn(transport_options={"fault_plan": plan})
    assert report_wire(config) == serial["q1"]
    assert parked() == []
    assert report_wire(config) == serial["q1"]
    assert parked() == []


def test_a_fleet_that_needed_recovery_is_closed_not_parked(serial):
    assert report_wire(spawn()) == serial["q1"]
    scheduler = Scheduler.from_config(spawn())
    transport = scheduler.transport
    assert parked() == [] and transport._pool.running
    transport.last_fault_stats = FaultStats(worker_restarts=1)
    scheduler.close()
    assert parked() == [] and not transport._pool.running


def test_a_fleet_whose_job_raised_is_closed_not_parked(monkeypatch):
    """An outcome decode that raises mid-job leaves items running on the
    workers: the fleet is closed and its workers reaped, not handed to the
    next borrower with a stale job still on it."""
    monkeypatch.setattr(replay, "PARALLEL_MIN_SECONDS", 0.0)
    pids = []
    launch = WorkerPool._launch_worker

    def recorded_launch(pool):
        launch(pool)
        pids.append(pool.processes[-1].pid)

    def failing_decode(cls, wire):
        raise RuntimeError("outcome decode failed")

    monkeypatch.setattr(WorkerPool, "_launch_worker", recorded_launch)
    monkeypatch.setattr(coordinator, "decode", failing_decode)
    with pytest.raises(RuntimeError, match="outcome decode failed"):
        RepairSession(q1(workers=2)).run()
    assert parked() == []
    assert len(pids) == 2
    assert not any(_alive(pid) for pid in pids)


def test_a_process_keeps_one_idle_fleet_whatever_its_shape(serial):
    assert report_wire(spawn()) == serial["q1"]
    (two_workers,) = parked()
    assert report_wire(q1(transport="spawn", workers=1)) == serial["q1"]
    (one_worker,) = parked()
    assert one_worker is not two_workers
    assert not two_workers._pool.running and one_worker._pool.running
    assert len(worker_pids(one_worker)) == 1


def test_the_table_hands_a_fleet_to_one_borrower_at_a_time(monkeypatch):
    """Eight threads borrow and park in a loop, with a thread switch forced
    every microsecond: no transport is ever held by two schedulers at once,
    and each one built ends up parked or closed exactly once."""
    closed = collections.Counter()
    monkeypatch.setattr(Transport, "reusable", lambda self: True)
    monkeypatch.setattr(Transport, "close",
                        lambda self: closed.update([id(self)]))
    held, built, errors = set(), {}, []
    guard = threading.Lock()

    def churn():
        try:
            for _ in range(200):
                scheduler = Scheduler.borrow("inprocess", workers=2)
                transport = scheduler.transport
                with guard:
                    if transport in held:
                        raise AssertionError("one fleet, two borrowers")
                    held.add(transport)
                    built[id(transport)] = transport
                with guard:
                    held.discard(transport)
                scheduler.close()
        except Exception as exc:         # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    left = parked()
    assert len(left) == 1
    assert {key: closed[key] for key in built} == {
        key: 0 if transport in left else 1
        for key, transport in built.items()}


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_idle_workers_exit_with_their_process():
    code = (
        "import json\n"
        "from repro.api import RepairConfig, RepairSession\n"
        "from repro.distrib import coordinator\n"
        "config = RepairConfig.for_scenario('Q1', max_candidates=6, "
        "transport='spawn', workers=2)\n"
        "RepairSession(config).run()\n"
        "RepairSession(config).run()\n"
        "(transport,) = coordinator._PARKED.values()\n"
        "print(json.dumps([p.pid for p in transport._pool.processes]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    pids = json.loads(done.stdout.strip().splitlines()[-1])
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    while any(_alive(pid) for pid in pids):
        assert time.monotonic() < deadline, [p for p in pids if _alive(p)]
        time.sleep(0.05)


def test_a_forked_child_sees_an_empty_table():
    sentinel = object()
    coordinator._PARKED["sentinel"] = sentinel
    try:
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:                     # the child: report, never return
            try:
                os.write(write, str(len(coordinator._PARKED)).encode())
            finally:
                os._exit(0)
        os.close(write)
        seen = os.read(read, 16)
        os.close(read)
        os.waitpid(pid, 0)
        assert seen == b"0"
        assert coordinator._PARKED["sentinel"] is sentinel
    finally:
        coordinator._PARKED.pop("sentinel", None)

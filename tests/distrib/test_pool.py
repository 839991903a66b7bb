"""The worker pool on its own: a fake dispatch policy and a stub worker.

No scenario is built and no backtester runs here.  A ``FakePolicy``
hands out numbered items and logs every hook the pool calls; a
``StubWorker`` is one end of a socketpair whose other end the pool
adopts (``WorkerPool.adopt``), speaking (or abusing) the frame protocol
with no process behind it.  The few tests that need a process the pool
itself launched use the real worker main, idle or killed by a fault plan
before it evaluates anything.

Covered: the frame sequence, every failure reason, the one retry rule up
to quarantine, deadline severing, budgeted backoff respawn with fresh
worker ids, restartable close, one thread per worker — and the hardening
contract: an oversize or a garbage frame gets a typed error or a clean
drop, never a traceback or a hang, and frames are JSON, so a pickle is
garbage.
"""

import json
import os
import pickle
import signal
import socket
import struct
import threading
import time
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import RepairConfig
from repro.distrib import (DispatchPolicy, FaultAction, FaultPlan,
                           FrameError, PoolJob, Transport, WorkItem,
                           WorkerPool)
from repro.distrib import faults
from repro.distrib.pool import MAX_FRAME_BYTES, recv_frame, send_frame
from repro.service import RepairJob, RepairServiceDaemon

#: Appended to by :func:`_explode` — the visible side effect of unpickling
#: a hostile payload.
DETONATED = []


def _explode(tag):
    DETONATED.append(tag)
    return {"type": "hello", "pid": None}


class Hostile:
    """Pickles to a call of :func:`_explode`: loading it leaves a mark."""

    def __reduce__(self):
        return (_explode, ("boom",))


def framed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


HOSTILE_FRAME = framed(pickle.dumps(Hostile()))


class FakePolicy(DispatchPolicy):
    """Numbered items from one job; every hook is logged and wakes
    :meth:`wait_for`."""

    def __init__(self, items=0, deadline=None, wire=None):
        self.job = PoolJob("job-1", wire or {"kind": "stub"})
        self.pending = deque(WorkItem(i, 0, {"n": i}, deadline)
                             for i in range(items))
        self.requeue_retries = True
        self.log = []
        self._seen = threading.Condition()

    def _note(self, *entry):
        with self._seen:
            self.log.append(entry)
            self._seen.notify_all()

    def wait_for(self, predicate, timeout=30.0):
        with self._seen:
            assert self._seen.wait_for(predicate, timeout), self.log

    def logged(self, hook):
        return [entry for entry in self.log if entry[0] == hook]

    def assign(self, link):
        if self.pending and link.failed_job != self.job.key:
            return self.job
        return None

    def next_item(self, link, job):
        return self.pending.popleft() if self.pending else None

    def result(self, job, item, outcome):
        self._note("result", item.index, outcome)

    def event(self, job, wire):
        self._note("event", wire)

    def retry(self, job, item, reason, detail):
        if self.requeue_retries:
            self.pending.append(item)
        self._note("retry", item.index, item.attempts, reason)

    def quarantine(self, job, item, quarantined):
        self._note("quarantine", quarantined)

    def unstarted(self, job, item):
        if item is not None:
            self.pending.appendleft(item)
        self._note("unstarted", item and item.index)

    def setup_failed(self, link, job, detail):
        self._note("setup_failed", link.worker_id, detail)


class StubWorker:
    """A worker played by hand, honest or not: the pool adopts the other
    end of its socketpair, with no process behind it."""

    def __init__(self, pool, hello=True):
        self.sock, theirs = socket.socketpair()
        self.sock.settimeout(30)
        pool.adopt(theirs)
        if hello:
            self.send(type="hello")

    def send(self, **frame):
        send_frame(self.sock, frame)

    def recv(self):
        return recv_frame(self.sock)

    def take_item(self):
        """Accept the job, ask for an item, return ``(job, item)`` frames."""
        job = self.recv()
        assert job["type"] == "job", job
        self.send(type="next")
        return job, self.recv()

    def dropped(self):
        """Whether the pool closed the connection (EOF or reset)."""
        try:
            return self.sock.recv(1) == b""
        except ConnectionError:
            return True

    def half_close(self):
        """No more bytes will follow (a no-op if the pool already reset)."""
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def close(self):
        self.sock.close()


@pytest.fixture
def make_pool():
    """Factory: ``make_pool(policy, **kwargs)`` -> a started pool that is
    closed at teardown; thread crashes anywhere fail the test."""
    pools, crashes = [], []
    previous = threading.excepthook
    threading.excepthook = lambda args: crashes.append(args)

    def _make(policy, **kwargs):
        kwargs.setdefault("workers", 0)
        pool = WorkerPool(policy, **kwargs).start()
        pools.append(pool)
        return pool

    yield _make
    for pool in pools:
        pool.close()
    threading.excepthook = previous
    assert not crashes, [repr(c.exc_value) for c in crashes]


def wait_registered(pool, count, timeout=60.0):
    with pool.changed:
        assert pool.changed.wait_for(lambda: len(pool.links) >= count,
                                     timeout), pool.status()


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


def feed(data: bytes):
    """``recv_frame`` over a socket that delivers ``data`` and closes."""
    ours, theirs = socket.socketpair()
    try:
        theirs.sendall(data)
        theirs.close()
        ours.settimeout(10)
        return recv_frame(ours)
    finally:
        ours.close()


def test_frames_round_trip():
    ours, theirs = socket.socketpair()
    with ours, theirs:
        send_frame(theirs, {"type": "item", "index": 3, "candidate": None})
        assert recv_frame(ours) == {"type": "item", "index": 3,
                                    "candidate": None}
    assert feed(b"") is None                      # a clean close


@pytest.mark.parametrize("data, complaint", [
    (b"\x00\x00", "truncated frame header"),
    (framed(b"x" * 8)[:-3], "truncated frame payload"),
    (framed(b"\x00" * 16), "undecodable"),
    (framed(pickle.dumps([1, 2, 3])), "undecodable"),
    (framed(b"[1, 2, 3]"), "not a message dict"),
    (struct.pack(">I", MAX_FRAME_BYTES + 1), "exceeds"),
    (struct.pack(">I", 0xFFFFFFFF) + b"tail", "exceeds"),
])
def test_malformed_frames_are_typed_errors(data, complaint):
    with pytest.raises(FrameError, match=complaint):
        feed(data)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
@example(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"\x00" * 8)
@example(framed(b'"a string, not a dict"'))
@example(framed(b"[" * 100_000))                 # nested past the stack
def test_recv_frame_on_arbitrary_bytes(data):
    """A dict, a clean close or a ``FrameError`` — nothing else, and no
    waiting for bytes a length prefix promised but the peer never sent."""
    try:
        message = feed(data)
    except FrameError:
        return
    assert message is None or isinstance(message, dict)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=200)
       | JSON.map(lambda v: framed(json.dumps(v).encode()))
       | st.dictionaries(st.text(max_size=8), JSON, max_size=3).map(
           lambda v: framed(json.dumps(dict(v, type="hello")).encode())))
@example(HOSTILE_FRAME)
@example(b"\xff" * 64 + HOSTILE_FRAME)
@example(framed(b'{"type": "hello", "pid": 7}') + b"\xff" * 8)
def test_a_workers_first_bytes_are_a_hello_or_a_frame_error(fuzz_pool,
                                                            data):
    """Whatever a worker sends first: a JSON hello registers it, and
    anything else — a pickle included — is a counted frame error and a
    closed socket, with nothing unpickled.  No pool thread dies, nothing
    hangs."""
    pool, crashes = fuzz_pool
    try:
        first = feed(data)
    except FrameError:
        first = None
    hello = isinstance(first, dict) and first.get("type") == "hello"
    with pool.changed:
        errors, links = pool.stats.frame_errors, len(pool.links)
    ours, theirs = socket.socketpair()
    pool.adopt(theirs)
    try:
        try:
            ours.sendall(data)
            ours.shutdown(socket.SHUT_WR)
        except OSError:
            pass                                  # the pool hung up first
        with pool.changed:
            assert pool.changed.wait_for(
                lambda: (pool.stats.frame_errors, len(pool.links))
                == (errors + (not hello), links + hello), 30)
    finally:
        ours.close()
    assert DETONATED == [] and not crashes


@pytest.fixture(scope="module")
def fuzz_pool():
    """Registered stubs stay in its links, idle: the policy has no job."""
    crashes = []
    previous = threading.excepthook
    threading.excepthook = lambda args: crashes.append(args)
    pool = WorkerPool(FakePolicy(), workers=0).start()
    del DETONATED[:]
    yield pool, crashes
    pool.close()
    threading.excepthook = previous


# ---------------------------------------------------------------------------
# The frame sequence
# ---------------------------------------------------------------------------


def test_frame_sequence_and_worker_ids(make_pool):
    plan = FaultPlan(actions=(FaultAction(kind="raise", index=9),))
    policy = FakePolicy(items=2)
    pool = make_pool(policy, fault_plan=plan)
    first = StubWorker(pool)
    job, item = first.take_item()
    assert job == {"type": "job", "job": {"kind": "stub"}, "worker_id": 0,
                   "fault": plan.to_wire()}
    assert item == {"type": "item", "index": 0, "candidate": {"n": 0}}
    first.send(type="event", event={"kind": "stage_started"})
    first.send(type="result", index=0, outcome="r0")
    assert first.recv() == {"type": "item", "index": 1,
                            "candidate": {"n": 1}}
    first.send(type="result", index=1, outcome="r1")
    assert first.recv() == {"type": "job_done"}
    policy.wait_for(lambda: len(policy.logged("result")) == 2)
    second = StubWorker(pool)                     # nothing left: stays idle
    wait_registered(pool, 2)
    assert policy.logged("event") == [("event", {"kind": "stage_started"})]
    assert policy.logged("result") == [("result", 0, "r0"),
                                       ("result", 1, "r1")]
    assert pool.status() == {"workers_connected": 2, "workers_booting": 0,
                             "respawns_pending": 0, "restarts_used": 0}
    assert not pool.stats.any()

    pool.close()                                  # idle peers are told
    assert first.recv() == {"type": "shutdown"}
    assert second.recv() == {"type": "shutdown"}
    first.close(), second.close()


# ---------------------------------------------------------------------------
# Failure reasons and the one retry rule
# ---------------------------------------------------------------------------


def _report_error(peer):
    peer.send(type="error", index=0, message="Traceback: boom")


def _vanish(peer):
    peer.close()


def _send_garbage(peer):
    peer.sock.sendall(framed(b"\x00" * 16))


def _send_oversize(peer):
    peer.sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))


def _hang(peer):
    pass                                          # the deadline severs it


@pytest.mark.parametrize("misbehave, reason, frame_errors", [
    (_report_error, "worker-exception", 0),
    (_vanish, "worker-crash", 0),
    (_send_garbage, "frame-error", 1),
    (_send_oversize, "frame-error", 1),
    (_hang, "deadline", 0),
])
def test_failure_reasons(make_pool, misbehave, reason, frame_errors):
    policy = FakePolicy(items=1, deadline=0.3 if reason == "deadline"
                        else None)
    pool = make_pool(policy)
    peer = StubWorker(pool)
    _job, item = peer.take_item()
    assert item["index"] == 0
    misbehave(peer)
    policy.wait_for(lambda: policy.logged("retry"))
    assert policy.logged("retry") == [("retry", 0, 1, reason)]
    assert pool.stats.retries == {reason: 1}
    assert pool.stats.retry_log == [(0, reason, 1)]
    assert pool.stats.frame_errors == frame_errors
    assert pool.stats.worker_restarts == 0        # no process to respawn
    if reason == "worker-exception":
        # The link survives an error frame and is offered the retry.
        assert peer.recv() == {"type": "item", "index": 0,
                               "candidate": {"n": 0}}
    else:
        assert peer.sock.fileno() == -1 or peer.dropped()
    peer.close()


def test_item_out_of_attempts_is_quarantined(make_pool):
    policy = FakePolicy(items=1)
    pool = make_pool(policy)
    peer = StubWorker(pool)
    peer.take_item()
    for _ in range(faults.MAX_ATTEMPTS - 1):
        _report_error(peer)
        assert peer.recv()["type"] == "item"
    _report_error(peer)
    assert peer.recv() == {"type": "job_done"}
    (entry,) = policy.logged("quarantine")
    quarantined = entry[1]
    assert (quarantined.index, quarantined.reason, quarantined.attempts,
            quarantined.detail) == (0, "worker-exception", 3,
                                    "Traceback: boom")
    assert pool.stats.quarantined == 1
    assert pool.stats.retries == {"worker-exception": 2}
    peer.close()


def test_a_bad_link_does_not_disturb_its_neighbour(make_pool):
    policy = FakePolicy(items=2)
    pool = make_pool(policy)
    good, bad = StubWorker(pool), StubWorker(pool)
    _job, good_item = good.take_item()
    _job, bad_item = bad.take_item()
    _send_oversize(bad)
    policy.wait_for(lambda: policy.logged("retry"))
    good.send(type="result", index=good_item["index"], outcome="fine")
    # The survivor is handed the bad link's item next.
    assert good.recv() == {"type": "item", "index": bad_item["index"],
                           "candidate": {"n": bad_item["index"]}}
    assert policy.logged("result") == [("result", good_item["index"],
                                        "fine")]
    assert pool.stats.retries == {"frame-error": 1}
    assert bad.dropped() and len(pool.links) == 1
    good.close(), bad.close()


def test_job_dropped_before_its_first_item_is_uncharged(make_pool):
    policy = FakePolicy(items=1)
    pool = make_pool(policy)
    peer = StubWorker(pool)
    assert peer.recv()["type"] == "job"
    peer.close()                                  # never asked for an item
    policy.wait_for(lambda: policy.logged("unstarted"))
    assert policy.logged("unstarted") == [("unstarted", None)]
    assert not pool.stats.any() and len(policy.pending) == 1


def test_setup_failure_takes_the_link_out_of_the_job(make_pool):
    policy = FakePolicy(items=1)
    pool = make_pool(policy)
    broken = StubWorker(pool)
    assert broken.recv()["type"] == "job"
    broken.send(type="job_error", message="cannot build")
    policy.wait_for(lambda: policy.logged("setup_failed"))
    assert policy.logged("setup_failed") == [("setup_failed", 0,
                                              "cannot build")]
    assert pool.links[0].failed_job == "job-1"
    healthy = StubWorker(pool)
    _job, item = healthy.take_item()              # the item is still there
    assert item["index"] == 0 and not pool.stats.any()
    broken.close(), healthy.close()


# ---------------------------------------------------------------------------
# Launched workers: crash reason, budgeted backoff respawn, fresh ids
# ---------------------------------------------------------------------------


def repair_job_wire():
    """A job the real worker can *accept* without building anything: a
    repair job's scenario is only built once an item is evaluated — and
    the fault plan kills the worker before that."""
    return RepairJob(session_id="s-test",
                     config=RepairConfig.for_scenario("Q1")).to_wire()


def test_local_crash_is_worker_crash_and_respawn_is_budgeted(make_pool,
                                                             monkeypatch):
    monkeypatch.setattr(faults, "RESTART_BUDGET", 1)
    monkeypatch.setattr(faults, "BACKOFF_BASE_SECONDS", 0.3)
    policy = FakePolicy(items=1, wire=repair_job_wire())
    policy.requeue_retries = False                # one attempt is the test
    plan = FaultPlan(actions=(FaultAction(kind="kill", worker=0,
                                          after_items=0),))
    pool = make_pool(policy, workers=1, fault_plan=plan)
    (first,) = pool.processes
    assert os.getpgid(first.pid) != os.getpgid(0)   # its own session
    policy.wait_for(lambda: policy.logged("retry"))
    crashed = time.monotonic()
    assert policy.logged("retry") == [("retry", 0, 1, "worker-crash")]
    # Decided with the retry, launched after the backoff.
    assert pool.stats.worker_restarts == 1
    assert pool.status()["restarts_used"] == 1
    wait_registered(pool, 1)
    assert time.monotonic() - crashed >= 0.3
    (link,) = pool.links
    assert link.worker_id == 1                    # a fresh id: no re-fire
    (second,) = pool.processes
    assert second.pid != first.pid and first.poll() is not None

    # The budget is spent: the next death is reaped, not replaced.
    os.kill(second.pid, signal.SIGKILL)
    with pool.changed:
        assert pool.changed.wait_for(
            lambda: not pool.processes and not pool.links, 30)
    assert pool.status() == {"workers_connected": 0, "workers_booting": 0,
                             "respawns_pending": 0, "restarts_used": 1}
    assert pool.stats.worker_restarts == 1
    assert not pool.restart_budget_left()


def test_unlimited_restarts_keep_healing_with_fresh_ids(make_pool,
                                                        monkeypatch):
    monkeypatch.setattr(faults, "RESTART_BUDGET", 0)     # not consulted
    monkeypatch.setattr(faults, "BACKOFF_BASE_SECONDS", 0.01)
    policy = FakePolicy()
    pool = make_pool(policy, workers=1, unlimited_restarts=True)
    for generation in range(3):
        wait_registered(pool, 1)
        (link,) = pool.links
        assert link.worker_id == generation
        if generation < 2:
            os.kill(link.process.pid, signal.SIGKILL)
            with pool.changed:
                assert pool.changed.wait_for(lambda: link not in pool.links,
                                             30)
    assert pool.stats.worker_restarts == 2
    assert not policy.logged("retry")             # idle deaths charge nothing


def test_a_negative_worker_count_is_refused():
    # Zero is the no-worker seam; below it a transport would wait for
    # workers that never come until its result timeout.
    with pytest.raises(ValueError, match="workers must be >= 0, not -1"):
        WorkerPool(FakePolicy(), workers=-1)


def test_close_reaps_and_leaves_the_pool_restartable(make_pool):
    pool = make_pool(FakePolicy(), workers=2)
    wait_registered(pool, 2)
    processes = pool.processes
    pool.close()
    assert [p.returncode for p in processes] == [0, 0]   # shutdown frames
    assert not pool.running and pool.processes == []
    pool.start()
    wait_registered(pool, 2)
    assert sorted(link.worker_id for link in pool.links) == [0, 1]


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


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_a_fleet_runs_one_thread_per_worker_and_leaves_nothing_behind():
    """A 2-worker ``spawn`` transport and a 2-worker service daemon each
    run three fabric threads — the supervision loop and one link per
    worker, nothing that listens — and after ``close()`` / ``stop()`` no
    fabric thread and no worker process is left."""
    transport = Transport("spawn", workers=2)
    daemon = RepairServiceDaemon(workers=2)
    for pool, start, stop in ((transport._pool, transport._pool.start,
                               transport.close),
                              (daemon._pool, daemon.start, daemon.stop)):
        threads_before = set(threading.enumerate())
        workers_before = worker_pids()
        start()
        with pool.changed:
            assert pool.changed.wait_for(
                lambda: pool.status()["workers_connected"] == 2, 60)
        threads = set(threading.enumerate()) - threads_before
        processes = pool.processes
        assert len(threads) == 3, sorted(t.name for t in threads)
        assert worker_pids() - workers_before == {p.pid for p in processes}
        stop()
        assert not [t for t in threads if t.is_alive()]
        assert all(p.poll() is not None for p in processes)
        assert worker_pids() - workers_before == set()

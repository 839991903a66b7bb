"""The one supervised worker fleet: children, frame protocol, supervision.

Every process-backed execution path — ``Scheduler("spawn" | "socket")``
and the repair service daemon — runs on one :class:`WorkerPool`.  The
pool is the only code that launches, reaps and backoff-respawns worker
processes (``python -m repro.distrib.worker``), speaks the frame
protocol, enforces per-item deadlines, assigns worker ids and applies
:func:`~repro.distrib.faults.retry_or_quarantine`.  *What* runs where is
not its business: a :class:`DispatchPolicy` answers that (the socket
transport's one-job input-order queue, the daemon's per-tenant fair
share, a test's fake).

Each worker is a child of the pool's process on its own
``socket.socketpair()``: the child inherits one end (``--fd N``), the pool
serves the other on one link thread.  Nothing listens, so no process but
the pool's own children can send it a frame.  Wire protocol, per worker
(``>`` worker to pool)::

    > hello
    < job {job, worker_id[, fault]}      policy.assign
    > next | job_error {message}         job_error: policy.setup_failed
    < item {index, candidate}            policy.next_item
    > event {event}                      policy.event (any number)
    > result {index, outcome}            policy.result
      | error {index, message}           -> retry_or_quarantine
    < item ... | job_done
    < shutdown                           on close()

Frames are a 4-byte big-endian length (capped at :data:`MAX_FRAME_BYTES`)
plus a JSON object, never code: a child's bytes are still input from
outside the process.

Failure reasons, exactly: ``worker-exception`` (an ``error`` frame),
``worker-crash`` (the worker's end of the socket went away),
``deadline`` (the pool severed it) and ``frame-error``.  Respawned
workers get fresh worker ids, so positional fault-plan actions never
re-fire on a replacement.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional

from . import faults
from .faults import (FaultPlan, FaultStats, QuarantinedItem,
                     retry_or_quarantine)
from .jobs import DistribError

#: Largest frame payload accepted; the length field alone allows 4 GiB.
MAX_FRAME_BYTES = 64 << 20

#: Supervision tick: bounds crash-detection, deadline and respawn latency.
TICK_SECONDS = 0.2

#: With unlimited restarts, a crash streak (the backoff exponent) resets
#: once the fleet has stayed healthy this long.
_CRASH_STREAK_WINDOW = 10.0


class TransportError(DistribError):
    """A worker or connection failed in a way the fabric cannot hide."""


class FrameError(TransportError):
    """A truncated, oversize or undecodable length-prefixed frame.

    Distinct from a clean close (``recv_frame`` returning ``None``): the
    peer wrote garbage or died mid-frame.  The pool treats it as a lost
    worker — requeue the in-flight item, drop the connection — and counts
    it in ``frame_errors``.
    """


_LENGTH = struct.Struct(">I")


def send_frame(sock: socket.socket, message: Dict) -> None:
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> Optional[Dict]:
    """Read one frame; ``None`` on a cleanly closed connection.

    A connection that closes *mid-frame*, announces more than
    :data:`MAX_FRAME_BYTES`, or delivers a payload that is not a JSON
    object raises :class:`FrameError` instead of masquerading as a clean
    close, so callers can requeue in-flight work and count it.
    """
    header = _recv_upto(sock, _LENGTH.size)
    if not header:
        return None
    if len(header) < _LENGTH.size:
        raise FrameError(f"truncated frame header "
                         f"({len(header)}/{_LENGTH.size} bytes)")
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte cap")
    payload = _recv_upto(sock, length)
    if len(payload) < length:
        raise FrameError(f"truncated frame payload "
                         f"({len(payload)}/{length} bytes)")
    try:
        message = json.loads(payload)
    except (ValueError, RecursionError) as exc:
        raise FrameError(f"undecodable frame payload: {exc!r}") from exc
    if not isinstance(message, dict):
        raise FrameError(f"frame payload is a {type(message).__name__}, "
                         f"not a message dict")
    return message


def _recv_upto(sock: socket.socket, count: int) -> bytes:
    """Read up to ``count`` bytes; shorter only if the peer closed."""
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(count - got)
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


@dataclass
class PoolJob:
    """What an idle link is handed: ``wire`` rides the ``job`` frame, and
    ``key`` is the policy's name for it (``link.failed_job`` holds the key
    of a job whose setup failed on that worker)."""

    key: object
    wire: Dict


@dataclass
class WorkItem:
    """One dispatched unit of a job, tracked while it is in flight."""

    index: int
    #: Failed attempts charged so far.
    attempts: int
    #: Rides the ``item`` frame (a candidate wire, or ``None``).
    candidate: Optional[Dict]
    #: Soft deadline in seconds from dispatch (``None`` = unbounded).
    deadline: Optional[float]
    #: Monotonic dispatch time, set by the pool.
    started: float = 0.0


class DispatchPolicy:
    """What a :class:`WorkerPool` asks of its owner — the seam a test
    replaces with a fake.

    ``result`` and ``event`` are called from the link's thread *without*
    ``pool.lock`` (they may run slow user callbacks); every other hook
    runs with it held and must not block.  The defaults do nothing, so a
    policy overrides only what it schedules.
    """

    def assign(self, link: "WorkerLink") -> Optional[PoolJob]:
        """The job this idle link should serve now (``None`` = wait)."""
        return None

    def next_item(self, link: "WorkerLink",
                  job: PoolJob) -> Optional[WorkItem]:
        """The link's next item of ``job`` (``None`` = ``job_done``)."""
        return None

    def result(self, job: PoolJob, item: WorkItem, outcome) -> None:
        """``item`` came back evaluated."""

    def event(self, job: PoolJob, wire: Dict) -> None:
        """The worker forwarded a session event while serving ``job``."""

    def retry(self, job: PoolJob, item: WorkItem, reason: str,
              detail: str) -> None:
        """``item`` failed and was charged (``item.attempts`` is the new
        count): queue it again."""

    def quarantine(self, job: PoolJob, item: WorkItem,
                   quarantined: QuarantinedItem) -> None:
        """``item`` is out of attempts: deliver the quarantine row."""

    def unstarted(self, job: PoolJob, item: Optional[WorkItem]) -> None:
        """The link went away before the worker began ``item`` (``None``:
        before it asked for one): put it back, no attempt charged."""

    def setup_failed(self, link: "WorkerLink", job: PoolJob,
                     detail: str) -> None:
        """The worker could not build ``job``'s runtime; ``assign`` sees
        ``link.failed_job == job.key`` from now on."""


class WorkerLink(threading.Thread):
    """Pool-side handler: speaks the frame protocol with one worker."""

    def __init__(self, pool: "WorkerPool", sock: socket.socket,
                 process: Optional[subprocess.Popen]):
        super().__init__(daemon=True)
        self.pool = pool
        self.sock = sock
        #: The child process on the other end (``None``: a socket the
        #: pool was handed by :meth:`WorkerPool.adopt` alone).
        self.process = process
        #: Worker ordinal for fault-plan targeting; set once the worker
        #: has said hello.
        self.worker_id: Optional[int] = None
        #: Why the pool is severing this link (``"deadline"``,
        #: ``"frame-error"``); ``None`` means the worker went away itself.
        self.fault_reason: Optional[str] = None
        #: The job being served, and the key of one whose setup failed here.
        self.job: Optional[PoolJob] = None
        self.failed_job: object = None
        #: Set by the pool when it gives up on this link; an idle link
        #: (waiting for a job, not in ``recv``) leaves on seeing it.
        self.severed = False

    def run(self):
        pool = self.pool
        try:
            hello = recv_frame(self.sock)
            if hello is None or hello.get("type") != "hello":
                raise FrameError("expected a hello frame")
            pool._register(self)
            while True:
                job = pool._await_job(self)
                if job is None:
                    try:
                        send_frame(self.sock, {"type": "shutdown"})
                    except OSError:
                        pass
                    return
                frame = {"type": "job", "job": job.wire,
                         "worker_id": self.worker_id}
                if pool.fault_plan is not None:
                    frame["fault"] = pool.fault_plan.to_wire()
                send_frame(self.sock, frame)
                self._serve_job(job)
        except FrameError:
            # Account it, then treat the worker as lost (the in-flight
            # item is retried by _link_lost).
            pool._frame_error(self)
        except (OSError, EOFError):
            pass
        finally:
            pool._link_lost(self)
            try:
                self.sock.close()
            except OSError:
                pass

    def _serve_job(self, job: PoolJob) -> None:
        pool = self.pool
        while True:
            message = recv_frame(self.sock)
            if message is None:
                raise EOFError
            kind = message.get("type")
            if kind == "event":
                pool.policy.event(job, message.get("event") or {})
                continue
            if kind == "result":
                pool._item_done(self, job, message.get("outcome"))
            elif kind == "error":
                pool._item_failed(self, job, message.get("message", ""))
            elif kind == "job_error":
                pool._setup_failed(self, job, message.get("message", ""))
                return                   # the worker already left the job
            elif kind != "next":
                continue
            item = pool._claim_item(self, job)
            if item is None:
                send_frame(self.sock, {"type": "job_done"})
                return
            try:
                send_frame(self.sock, {"type": "item", "index": item.index,
                                       "candidate": item.candidate})
            except OSError:
                # The worker died between its last frame and our send:
                # the claimed item never started.
                pool._unclaim_item(self, job)
                raise


class WorkerPool:
    """A supervised fleet of ``workers`` worker processes.

    Each is a child on its own socketpair, in its own session, so a
    terminal Ctrl-C never reaches it; it exits when the pool closes or its
    process dies.  A dead worker is respawned after
    :func:`~repro.distrib.faults.backoff`, within
    :data:`~repro.distrib.faults.RESTART_BUDGET` per job unless
    ``unlimited_restarts`` (a long-lived service heals forever; a crash
    streak only lengthens the backoff).  ``workers=0`` launches none: the
    owner drives the policy by hand or hands the pool sockets through
    :meth:`adopt`.  ``fault_plan`` and ``stats`` are plain attributes: an
    owner may swap them between jobs.
    """

    def __init__(self, policy: DispatchPolicy, workers: int = 2,
                 fault_plan=None, unlimited_restarts: bool = False):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, not {workers}")
        self.policy = policy
        self.workers = workers
        self.fault_plan = FaultPlan.coerce(fault_plan)
        self.unlimited_restarts = unlimited_restarts
        #: Recovery counters; every charge and respawn lands here.
        self.stats = FaultStats()
        #: Guards all pool state and is shared with the policy; ``changed``
        #: is notified whenever a waiter (an idle link, a blocked
        #: ``run_job``, ``daemon.wait``) may have something new to see.
        self.lock = threading.RLock()
        self.changed = threading.Condition(self.lock)
        #: Links whose worker said hello, in registration order.
        self.links: List[WorkerLink] = []
        self._supervisor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._shutdown = False
        #: Every link thread still running, registered or not.
        self._adopted: List[WorkerLink] = []
        self._processes: List[subprocess.Popen] = []
        self._in_flight: Dict[WorkerLink, WorkItem] = {}
        self._next_worker_id = 0
        self._restarts_used = 0
        self._last_crash = 0.0
        self._respawn_at: List[float] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "WorkerPool":
        with self.lock:
            if self._supervisor is not None:
                return self
            self._stop = stop = threading.Event()
            self._supervisor = threading.Thread(
                target=self._supervise_loop, args=(stop,), daemon=True)
            self._supervisor.start()
            for _ in range(self.workers):
                self._launch_worker()
        return self

    @property
    def running(self) -> bool:
        """Started and not closed since."""
        return self._supervisor is not None

    @property
    def processes(self) -> List[subprocess.Popen]:
        """The worker processes not yet reaped."""
        with self.lock:
            return list(self._processes)

    def _launch_worker(self) -> None:
        ours, theirs = socket.socketpair()
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_dir if not existing
                             else src_dir + os.pathsep + existing)
        try:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.distrib.worker",
                 "--fd", str(theirs.fileno())],
                env=env, pass_fds=(theirs.fileno(),), start_new_session=True)
        finally:
            # Only the child may hold its end: then its death is our EOF.
            theirs.close()
        self._processes.append(process)
        self.adopt(ours, process)

    def adopt(self, sock: socket.socket,
              process: Optional[subprocess.Popen] = None) -> WorkerLink:
        """Serve ``sock`` as one worker's link; ``process`` is the child on
        its other end, if the pool launched one."""
        link = WorkerLink(self, sock, process)
        with self.lock:
            self._adopted.append(link)
        link.start()
        return link

    def close(self) -> None:
        """Shut the fleet down and return to a restartable state.

        Idle workers get a ``shutdown`` frame.  Work still in flight is
        work nobody waits for any more: it is dropped without a policy
        callback (no attempt charged), its link severed and its process
        killed.  Workers that never got as far as hello are terminated.
        """
        with self.lock:
            if self._supervisor is None:
                return
            supervisor, self._supervisor = self._supervisor, None
            self._shutdown = True
            self._stop.set()
            idle = {link.process for link in self.links
                    if link not in self._in_flight}
            for link in self._adopted:
                if link in self._in_flight or link.worker_id is None:
                    self._sever(link)
            for process in self._processes:
                if process not in idle:
                    process.terminate()
            for link in self._in_flight:
                self._kill_process(link)  # mid-item: SIGTERM is deferred
            self._in_flight.clear()
            threads = [supervisor] + self._adopted
            self._adopted = []
            processes, self._processes = self._processes, []
            self.changed.notify_all()
        for process in processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        for thread in threads:
            thread.join(timeout=10)
        with self.lock:
            self._shutdown = False
            self.links = []
            self._next_worker_id = 0
            self._restarts_used = 0
            self._respawn_at = []

    # -- inspection ---------------------------------------------------------

    def status(self) -> Dict[str, int]:
        """Fleet view: connected / booting workers, queued respawns."""
        with self.lock:
            connected = {link.process for link in self.links}
            return {
                "workers_connected": len(self.links),
                "workers_booting": sum(
                    1 for p in self._processes
                    if p.poll() is None and p not in connected),
                "respawns_pending": len(self._respawn_at),
                "restarts_used": self._restarts_used,
            }

    def can_serve(self, job_key) -> bool:
        """Whether the fleet can still make progress on the job (call
        with ``lock`` held): an item is in flight, a respawn is queued or
        still affordable, or some worker whose setup for ``job_key`` did
        not fail is connected, or one is still booting."""
        if self._in_flight or self._respawn_at or self.restart_budget_left():
            return True
        return (any(link.failed_job != job_key for link in self.links)
                or self.status()["workers_booting"] > 0)

    def restart_budget_left(self) -> bool:
        """Whether a dead worker would still be respawned."""
        return (self.unlimited_restarts
                or self._restarts_used < faults.RESTART_BUDGET)

    def begin_job(self, stats: FaultStats) -> None:
        """A new accounting epoch: fresh counters, fresh restart budget."""
        with self.lock:
            self.stats = stats
            self._restarts_used = 0

    # -- the one retry rule -------------------------------------------------

    def fail_item(self, job: PoolJob, item: WorkItem, reason: str,
                  detail: str) -> None:
        """Charge ``item`` an attempt and hand the verdict to the policy
        (call with ``lock`` held)."""
        item.attempts, quarantined = retry_or_quarantine(
            self.stats, item.index, item.attempts, reason, detail)
        if quarantined is None:
            self.policy.retry(job, item, reason, detail)
        else:
            self.policy.quarantine(job, item, quarantined)
        self.changed.notify_all()

    # -- callbacks from link threads ----------------------------------------

    def _register(self, link: WorkerLink) -> None:
        with self.lock:
            link.worker_id = self._next_worker_id
            self._next_worker_id += 1
            self.links.append(link)
            self.changed.notify_all()

    def _await_job(self, link: WorkerLink) -> Optional[PoolJob]:
        """Block until the policy has a job for this link (or shutdown)."""
        with self.lock:
            while not self._shutdown:
                if link.severed:
                    raise EOFError
                job = self.policy.assign(link)
                if job is not None:
                    link.job = job
                    return job
                self.changed.wait(timeout=1.0)
            return None

    def _claim_item(self, link: WorkerLink,
                    job: PoolJob) -> Optional[WorkItem]:
        with self.lock:
            item = None if self._shutdown else self.policy.next_item(link, job)
            if item is None:
                link.job = None
            else:
                item.started = _time.monotonic()
                self._in_flight[link] = item
            return item

    def _unclaim_item(self, link: WorkerLink, job: PoolJob) -> None:
        with self.lock:
            item = self._in_flight.pop(link, None)
            if item is not None:
                self.policy.unstarted(job, item)
                self.changed.notify_all()

    def _item_done(self, link: WorkerLink, job: PoolJob, outcome) -> None:
        with self.lock:
            item = self._in_flight.pop(link, None)
        if item is not None:
            self.policy.result(job, item, outcome)

    def _item_failed(self, link: WorkerLink, job: PoolJob,
                     detail: str) -> None:
        with self.lock:
            item = self._in_flight.pop(link, None)
            if item is not None:
                self.fail_item(job, item, "worker-exception", detail)

    def _setup_failed(self, link: WorkerLink, job: PoolJob,
                      detail: str) -> None:
        with self.lock:
            link.failed_job = job.key
            link.job = None
            self.policy.setup_failed(link, job, detail)
            self.changed.notify_all()

    def _frame_error(self, link: WorkerLink) -> None:
        with self.lock:
            if self._shutdown:
                return                   # close() tore the socket down
            self.stats.frame_errors += 1
            if link.fault_reason is None:
                link.fault_reason = "frame-error"
            self.changed.notify_all()

    def _link_lost(self, link: WorkerLink) -> None:
        with self.lock:
            if link in self._adopted:
                self._adopted.remove(link)
            if link not in self.links:
                return                   # never registered: nothing to undo
            self.links.remove(link)
            item = self._in_flight.pop(link, None)
            job, link.job = link.job, None
            if self._shutdown:
                return
            if self._kill_process(link):
                # A worker without its socket is finished (it exits on
                # EOF).  Making that certain now decides the respawn in the
                # same critical section as the retry below, not a
                # supervision tick later.
                self._supervise_locked(_time.monotonic())
            if item is not None:
                self.fail_item(job, item, link.fault_reason or "worker-crash",
                               "worker process died")
            elif job is not None:
                self.policy.unstarted(job, None)
            self.changed.notify_all()

    # -- supervision --------------------------------------------------------

    def _sever(self, link: WorkerLink) -> None:
        """Make the link's thread leave — its ``recv`` fails, or its idle
        wait sees the flag — and run the lost-link path, which kills the
        worker process."""
        link.severed = True
        try:
            link.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _kill_process(self, link: WorkerLink) -> bool:
        """SIGKILL and reap the worker process behind ``link``, if it is
        not reaped yet; no grace — it is wedged, or evaluating work nobody
        waits for."""
        if link.process not in self._processes:
            return False
        link.process.kill()
        link.process.wait()
        return True

    def _supervise_loop(self, stop: threading.Event) -> None:
        while not stop.wait(TICK_SECONDS):
            with self.lock:
                if not stop.is_set():
                    self._supervise_locked(_time.monotonic())

    def _supervise_locked(self, now: float) -> None:
        """The one supervision routine: soft deadlines, reaping, and
        budgeted respawn with capped exponential backoff.

        ``stats.worker_restarts`` counts respawns when they are *decided*
        (the budget is charged then); the launch follows after the backoff
        unless the pool closes first.
        """
        for link, item in self._in_flight.items():
            if (item.deadline and link.fault_reason is None
                    and now - item.started > item.deadline):
                # The link's recv fails, and the item is retried with
                # reason "deadline".
                link.fault_reason = "deadline"
                self._sever(link)
        reaped = [p for p in self._processes if p.poll() is not None]
        for process in reaped:
            self._processes.remove(process)
            for link in self.links:
                if link.process is process:
                    self._sever(link)    # an idle link cannot see the EOF
            if self.unlimited_restarts:
                if now - self._last_crash > _CRASH_STREAK_WINDOW:
                    self._restarts_used = 0
            elif not self.restart_budget_left():
                continue
            self._last_crash = now
            self._respawn_at.append(
                now + faults.backoff(self._restarts_used))
            self._restarts_used += 1
            self.stats.worker_restarts += 1
        due = [t for t in self._respawn_at if t <= now]
        for t in due:
            self._respawn_at.remove(t)
            self._launch_worker()
        if reaped or due:
            self.changed.notify_all()

"""The one supervised worker fleet: listener, frame protocol, supervision.

Every process-backed execution path — ``Scheduler("spawn" | "socket")``
and the repair service daemon — runs on one :class:`WorkerPool`.  The
pool is the only code that listens and accepts, launches, reaps and
backoff-respawns local ``repro-worker`` subprocesses, speaks the frame
protocol, enforces per-item deadlines, assigns worker ids and applies
:func:`~repro.distrib.faults.retry_or_quarantine`.  *What* runs where is
not its business: a :class:`DispatchPolicy` answers that (the socket
transport's one-job input-order queue, the daemon's per-tenant fair
share, a test's fake).

Wire protocol, one connection per worker (``>`` worker to pool)::

    > <token bytes>                      raw, compared before any decode
    > hello {pid}
    < job {job, worker_id[, fault]}      policy.assign
    > next | job_error {message}         job_error: policy.setup_failed
    < item {index, candidate}            policy.next_item
    > event {event}                      policy.event (any number)
    > result {index, outcome}            policy.result
      | error {index, message}           -> retry_or_quarantine
    < item ... | job_done
    < shutdown                           on close()

Frames are a 4-byte big-endian length (capped at :data:`MAX_FRAME_BYTES`)
plus a JSON object; the token is random per pool, or :data:`TOKEN_ENV`
from the environment when set.  What that does and does not protect is
the "Security note" of :mod:`repro.distrib.transport`.

Failure reasons, exactly: ``worker-exception`` (an ``error`` frame),
``worker-crash`` (the connection of a worker process *this pool
launched* went away), ``disconnect`` (a remote peer went away),
``deadline`` (the pool severed it) and ``frame-error``.  Respawned
workers get fresh worker ids, so positional fault-plan actions never
re-fire on a replacement.
"""

from __future__ import annotations

import hmac
import json
import os
import secrets
import socket
import struct
import subprocess
import sys
import threading
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from . import faults
from .faults import (FaultPlan, FaultStats, QuarantinedItem,
                     retry_or_quarantine)
from .jobs import DistribError

#: Environment variable carrying the fleet token (a deployment credential:
#: set it on the coordinator *and* on hand-started remote workers).
TOKEN_ENV = "REPRO_WORKER_TOKEN"

#: Largest frame payload accepted; the length field alone allows 4 GiB.
MAX_FRAME_BYTES = 64 << 20

#: A connected peer has this long to present its token and hello.
_HANDSHAKE_SECONDS = 10.0

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
    peer wrote garbage or died mid-frame.  The pool treats it as a
    disconnect — requeue the in-flight item, drop the connection — and
    counts it in ``frame_errors``.
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

    def __init__(self, pool: "WorkerPool", sock: socket.socket):
        super().__init__(daemon=True)
        self.pool = pool
        self.sock = sock
        #: Worker ordinal for fault-plan targeting; set once the peer has
        #: presented the token and said hello.
        self.worker_id: Optional[int] = None
        #: PID from the hello frame: tells a local worker from a remote
        #: peer, and which process to kill on a deadline breach.
        self.pid: Optional[int] = None
        #: Why the pool is severing this link (``"deadline"``,
        #: ``"frame-error"``); ``None`` means the peer went away itself.
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
            if not self._handshake():
                return
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
        except (OSError, EOFError, FrameError):
            pass
        finally:
            pool._link_lost(self)
            try:
                self.sock.close()
            except OSError:
                pass

    def _handshake(self) -> bool:
        """Token, then hello.  The token is compared as raw bytes, so an
        unauthenticated peer's bytes are never decoded."""
        expected = self.pool.token.encode("utf-8")
        try:
            self.sock.settimeout(_HANDSHAKE_SECONDS)
            presented = _recv_upto(self.sock, len(expected))
            if not hmac.compare_digest(presented, expected):
                raise FrameError("missing or wrong worker token")
            hello = recv_frame(self.sock)
            if hello is None or hello.get("type") != "hello":
                raise FrameError("expected a hello frame")
            self.sock.settimeout(None)
        except (OSError, FrameError):
            self.pool._frame_error(self)
            return False
        pid = hello.get("pid")
        self.pid = pid if isinstance(pid, int) else None
        return True

    def _serve_job(self, job: PoolJob) -> None:
        pool = self.pool
        while True:
            try:
                message = recv_frame(self.sock)
            except FrameError:
                # Account it, then treat the connection as lost (the
                # in-flight item is retried by _link_lost).
                pool._frame_error(self)
                raise
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
    """A supervised fleet of ``repro-worker`` connections.

    ``workers`` local worker subprocesses are launched (each in its own
    session, so a terminal Ctrl-C never reaches them; they exit when the
    pool closes or its process dies) unless ``spawn_workers=False`` —
    then point remote workers at :attr:`address` with :data:`TOKEN_ENV`
    set to :attr:`token`.  A dead local worker is respawned after
    :func:`~repro.distrib.faults.backoff`, within
    :data:`~repro.distrib.faults.RESTART_BUDGET` per job unless
    ``unlimited_restarts`` (a long-lived service heals forever; a crash
    streak only lengthens the backoff).  ``fault_plan`` and ``stats`` are
    plain attributes: an owner may swap them between jobs.
    """

    def __init__(self, policy: DispatchPolicy, workers: int = 2,
                 host: str = "127.0.0.1", port: int = 0,
                 spawn_workers: bool = True, fault_plan=None,
                 unlimited_restarts: bool = False):
        if spawn_workers and workers < 1:
            raise ValueError("workers must be >= 1 when spawning locally")
        self.policy = policy
        self.workers = workers
        self.host = host
        self.port = port
        self.spawn_workers = spawn_workers
        self.fault_plan = FaultPlan.coerce(fault_plan)
        self.unlimited_restarts = unlimited_restarts
        self.token = os.environ.get(TOKEN_ENV) or secrets.token_hex(32)
        #: Recovery counters; every charge and respawn lands here.
        self.stats = FaultStats()
        #: Guards all pool state and is shared with the policy; ``changed``
        #: is notified whenever a waiter (an idle link, a blocked
        #: ``run_job``, ``daemon.wait``) may have something new to see.
        self.lock = threading.RLock()
        self.changed = threading.Condition(self.lock)
        #: Registered (token + hello) links, in registration order.
        self.links: List[WorkerLink] = []
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._shutdown = False
        self._service_threads: List[threading.Thread] = []
        #: Every accepted connection, registered or still shaking hands.
        self._accepted: List[WorkerLink] = []
        self._processes: List[subprocess.Popen] = []
        self._local_pids: Set[int] = set()
        self._in_flight: Dict[WorkerLink, WorkItem] = {}
        self._next_worker_id = 0
        self._restarts_used = 0
        self._last_crash = 0.0
        self._respawn_at: List[float] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "WorkerPool":
        with self.lock:
            if self._listener is not None:
                return self
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(16)
            self._listener = listener
            self._stop = stop = threading.Event()
            self._service_threads = [
                threading.Thread(target=self._accept_loop,
                                 args=(listener, stop), daemon=True),
                threading.Thread(target=self._supervise_loop, args=(stop,),
                                 daemon=True)]
            for thread in self._service_threads:
                thread.start()
            if self.spawn_workers:
                for _ in range(self.workers):
                    self._launch_worker()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) workers connect to (starts the pool if needed)."""
        self.start()
        return self._listener.getsockname()[:2]

    @property
    def running(self) -> bool:
        """Started and not closed since."""
        return self._listener is not None

    @property
    def processes(self) -> List[subprocess.Popen]:
        """The local worker processes not yet reaped."""
        with self.lock:
            return list(self._processes)

    def _launch_worker(self) -> None:
        host, port = self._listener.getsockname()[:2]
        if host == "0.0.0.0":
            host = "127.0.0.1"
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_dir if not existing
                             else src_dir + os.pathsep + existing)
        env[TOKEN_ENV] = self.token
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.distrib.worker",
             "--connect", f"{host}:{port}"],
            env=env, start_new_session=True)
        self._processes.append(process)
        self._local_pids.add(process.pid)

    def _accept_loop(self, listener: socket.socket,
                     stop: threading.Event) -> None:
        while True:
            try:
                sock, _addr = listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            link = WorkerLink(self, sock)
            with self.lock:
                if stop.is_set():
                    sock.close()
                    return
                self._accepted.append(link)
            link.start()

    def close(self) -> None:
        """Shut the fleet down and return to a restartable state.

        Idle workers get a ``shutdown`` frame.  Work still in flight is
        work nobody waits for any more: it is dropped without a policy
        callback (no attempt charged), its link severed and its local
        process killed.  Local workers that never got as far as hello are
        terminated rather than left to find the port closed.
        """
        with self.lock:
            if self._listener is None:
                return
            listener, self._listener = self._listener, None
            self._shutdown = True
            self._stop.set()
            idle = {link.pid for link in self.links
                    if link not in self._in_flight}
            for link in self._accepted:
                if link in self._in_flight or link.worker_id is None:
                    self._sever(link)
            for process in self._processes:
                if process.pid not in idle:
                    process.terminate()
            for link in self._in_flight:
                self._kill_local(link)   # mid-item: SIGTERM would be deferred
            self._in_flight.clear()
            threads = self._service_threads + self._accepted
            self._service_threads, self._accepted = [], []
            processes, self._processes = self._processes, []
            self.changed.notify_all()
        try:
            listener.shutdown(socket.SHUT_RDWR)   # wakes the blocked accept
        except OSError:
            pass
        listener.close()
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
            self._local_pids = set()
            self._next_worker_id = 0
            self._restarts_used = 0
            self._respawn_at = []

    # -- inspection ---------------------------------------------------------

    def status(self) -> Dict[str, int]:
        """Fleet view: connected / booting workers, queued respawns."""
        with self.lock:
            connected = {link.pid for link in self.links}
            return {
                "workers_connected": len(self.links),
                "workers_booting": sum(
                    1 for p in self._processes
                    if p.poll() is None and p.pid not in connected),
                "respawns_pending": len(self._respawn_at),
                "restarts_used": self._restarts_used,
            }

    def can_serve(self, job_key) -> bool:
        """Whether the fleet can still make progress on the job (call
        with ``lock`` held): an item is in flight, a respawn is queued or
        still affordable, or some worker whose setup for ``job_key`` did
        not fail is connected, or a local one is still booting."""
        if self._in_flight or self._respawn_at or self.restart_budget_left():
            return True
        return (any(link.failed_job != job_key for link in self.links)
                or self.status()["workers_booting"] > 0)

    def restart_budget_left(self) -> bool:
        """Whether a dead local worker would still be respawned."""
        return self.spawn_workers and (
            self.unlimited_restarts
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
            if link in self._accepted:
                self._accepted.remove(link)
            if link not in self.links:
                return                   # never registered: nothing to undo
            self.links.remove(link)
            item = self._in_flight.pop(link, None)
            job, link.job = link.job, None
            if self._shutdown:
                return
            local = link.pid in self._local_pids
            if self._kill_local(link):
                # A local worker without its connection is finished (it
                # exits on EOF).  Making that certain now decides the
                # respawn in the same critical section as the retry below,
                # not a supervision tick later.
                self._supervise_locked(_time.monotonic())
            if item is not None:
                self.fail_item(job, item, link.fault_reason
                               or ("worker-crash" if local else "disconnect"),
                               "worker process died" if local
                               else "worker connection lost")
            elif job is not None:
                self.policy.unstarted(job, None)
            self.changed.notify_all()

    # -- supervision --------------------------------------------------------

    def _sever(self, link: WorkerLink) -> None:
        """Make the link's thread leave — its ``recv`` fails, or its idle
        wait sees the flag — and run the lost-link path, which kills the
        worker process if it is ours."""
        link.severed = True
        try:
            link.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _kill_local(self, link: WorkerLink) -> bool:
        """SIGKILL and reap the local worker process behind ``link``, if
        there is one; no grace — it is wedged, or evaluating work nobody
        waits for."""
        for process in self._processes:
            if process.pid == link.pid:
                process.kill()
                process.wait()
                return True
        return False

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
                if link.pid == process.pid:
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

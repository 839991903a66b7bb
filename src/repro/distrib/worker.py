"""``repro-worker`` — the one worker main: serve a coordinator's jobs.

Run one (or many, across machines) against a listening
:class:`~repro.distrib.pool.WorkerPool` — a ``spawn``/``socket``
transport or the repair service daemon, which launch their local workers
exactly this way::

    REPRO_WORKER_TOKEN=<pool token> python -m repro.distrib.worker --connect HOST:PORT

The worker presents the token (raw bytes, read from the environment; the
pool sets it for workers it launches) and then speaks the pool's
length-prefixed frame protocol (see :mod:`repro.distrib.pool`): it
receives a job — a backtest *header* (scenario spec + backtester
configuration + candidate count; the candidate wires arrive with each
dispatched item, so the worker only ever holds the candidates it
evaluates) or a whole repair run — builds its runtime, then pulls items
one at a time and streams results back until the coordinator says
``job_done``.  A :class:`RuntimeCache` persists across jobs, so repeated
jobs on the same scenario skip the scenario/backtester rebuild.
It then waits for the next job; ``shutdown`` (or a closed connection) ends
the process.  Frames are JSON: a coordinator can make a worker replay
scenarios, never run code of its choosing.

When the coordinator ships a :class:`~repro.distrib.faults.FaultPlan` with
the job frame, the worker arms a :class:`FaultInjector` against its
assigned ``worker_id`` — the one fault-injection mapping, whichever
transport name built the pool: ``kill`` exits the process, ``hang`` and
``delay_result`` sleep, ``drop_result`` swallows the result frame (the
deadline recovers it), ``corrupt_frame``/``truncate_frame`` write a
broken frame and die.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import time as _time
import traceback
from typing import Optional

from .faults import FaultInjector, FaultPlan
from .jobs import RuntimeCache, build_runtime
from .pool import _LENGTH, TOKEN_ENV, FrameError, recv_frame, send_frame


class GracefulShutdown:
    """SIGTERM/SIGINT policy for a worker process: drain, don't strand.

    An idle worker (blocked in ``recv`` between jobs or items) exits
    immediately; a busy one finishes the item it is evaluating, delivers
    the result frame, and exits before taking more work.  Either way the
    coordinator sees a clean close and requeues nothing that was already
    delivered — a Ctrl-C against a worker fleet therefore loses no
    completed work and never wedges the coordinator.
    """

    def __init__(self):
        self.requested = False
        self.busy = False

    def install(self) -> "GracefulShutdown":
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, self._handle)
            except (ValueError, OSError):  # non-main thread / exotic platform
                pass
        return self

    def _handle(self, signum, frame) -> None:
        self.requested = True
        if not self.busy:
            # Idle: the pending recv would otherwise be retried by PEP 475;
            # raising here unwinds it (socket closed by the context manager).
            raise SystemExit(0)

    def checkpoint(self) -> None:
        """Exit if a drain was requested while we were busy."""
        if self.requested:
            raise SystemExit(0)


def _tamper_result_frame(sock: socket.socket, action) -> None:
    """Emit a deliberately broken frame, then die.

    ``corrupt_frame`` sends a well-formed length prefix over an
    undecodable payload; ``truncate_frame`` promises more payload bytes
    than it delivers and closes mid-frame.  Either way the coordinator
    must requeue the in-flight item and count a frame error, and this
    process is beyond saving.
    """
    try:
        if action.kind == "corrupt_frame":
            sock.sendall(_LENGTH.pack(16) + b"\x00" * 16)
        else:                            # truncate_frame
            sock.sendall(_LENGTH.pack(1 << 20) + b"partial")
    except OSError:
        pass
    os._exit(1)


def _serve_job(sock: socket.socket, job_wire, cache: RuntimeCache,
               injector: Optional[FaultInjector],
               shutdown: GracefulShutdown) -> None:
    try:
        runtime = build_runtime(job_wire, cache=cache)
    except BaseException:                # noqa: BLE001 — report and bail out
        send_frame(sock, {"type": "job_error",
                          "message": traceback.format_exc()})
        return
    if hasattr(runtime, "set_event_sink"):
        # Repair runtimes stream SessionEvents back between protocol
        # frames: same thread, same socket, so frames never interleave.
        runtime.set_event_sink(
            lambda wire: send_frame(sock, {"type": "event", "event": wire}))
    send_frame(sock, {"type": "next"})
    while True:
        message = recv_frame(sock)
        if message is None:
            raise ConnectionError("coordinator closed mid-job")
        kind = message.get("type")
        if kind == "job_done":
            return
        if kind != "item":
            continue
        index = message["index"]
        shutdown.busy = True
        try:
            if injector is not None:
                injector.before_item(index)
            outcome = runtime.evaluate(index,
                                       candidate_wire=message.get("candidate"))
        except SystemExit:
            raise
        except BaseException:            # noqa: BLE001
            send_frame(sock, {"type": "error", "index": index,
                              "message": traceback.format_exc()})
            shutdown.busy = False
            shutdown.checkpoint()
            continue
        action = (injector.result_action(index)
                  if injector is not None else None)
        fault = action.kind if action is not None else None
        if fault == "delay_result":
            _time.sleep(action.seconds)
        elif fault in ("corrupt_frame", "truncate_frame"):
            _tamper_result_frame(sock, action)
        if fault != "drop_result":       # swallowed: the deadline recovers it
            send_frame(sock, {"type": "result", "index": index,
                              "outcome": outcome})
        shutdown.busy = False
        # Drain point: the finished item's result is delivered; a
        # pending SIGTERM/SIGINT now exits instead of pulling more.
        shutdown.checkpoint()


def serve(host: str, port: int, shutdown: GracefulShutdown) -> None:
    """Connect to a coordinator and process jobs until shutdown."""
    cache = RuntimeCache()
    injector: Optional[FaultInjector] = None
    armed_wire = None
    greeted = False
    with socket.create_connection((host, port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(os.environ.get(TOKEN_ENV, "").encode("utf-8"))
        send_frame(sock, {"type": "hello", "pid": os.getpid()})
        while True:
            shutdown.checkpoint()
            try:
                message = recv_frame(sock)
            except ConnectionResetError:
                if greeted:
                    raise
                message = None
            if message is None and not greeted:
                # A pool that accepted us says ``shutdown`` before it goes.
                raise ConnectionError(
                    f"coordinator closed the connection without a frame "
                    f"(wrong or missing {TOKEN_ENV}?)")
            greeted = True
            if message is None or message.get("type") == "shutdown":
                return
            if message.get("type") == "job":
                fault_wire = message.get("fault")
                if fault_wire != armed_wire:
                    # One injector per plan (the worker id is fixed for
                    # the connection): its one-shot bookkeeping must
                    # persist across jobs, not re-arm with every job frame.
                    armed_wire = fault_wire
                    injector = (FaultInjector(
                        FaultPlan.from_wire(fault_wire),
                        worker_id=int(message.get("worker_id", 0)))
                        if fault_wire else None)
                _serve_job(sock, message["job"], cache, injector, shutdown)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker", description=__doc__.splitlines()[0])
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator socket to pull candidates from")
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"--connect expects HOST:PORT, got {args.connect!r}")
    shutdown = GracefulShutdown().install()
    try:
        serve(host, int(port), shutdown)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ConnectionError, OSError, FrameError) as exc:
        if shutdown.requested:
            return 0                     # drain raced the socket teardown
        print(f"repro-worker: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The one worker main: serve the jobs of the pool that launched it.

A :class:`~repro.distrib.pool.WorkerPool` — behind a ``spawn``/``socket``
transport or the repair service daemon — launches each worker as its own
child on one end of a socketpair::

    python -m repro.distrib.worker --fd N

The worker says hello and then speaks the pool's length-prefixed frame
protocol (see :mod:`repro.distrib.pool`) on that descriptor: it
receives a job — a backtest *header* (scenario spec + backtester
configuration + candidate count; the candidate wires arrive with each
dispatched item, so the worker only ever holds the candidates it
evaluates) or a whole repair run — builds its runtime, then pulls items
one at a time and streams results back until the pool says
``job_done``.  A :class:`RuntimeCache` persists across jobs, so repeated
jobs on the same scenario skip the scenario/backtester rebuild.
It then waits for the next job; ``shutdown`` (or the pool's end closing)
ends the process.  Frames are JSON: the pool can make a worker replay
scenarios, never run code of its choosing.

When the pool ships a :class:`~repro.distrib.faults.FaultPlan` with
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
from .pool import _LENGTH, FrameError, recv_frame, send_frame


class GracefulShutdown:
    """SIGTERM/SIGINT policy for a worker process: drain, don't strand.

    An idle worker (blocked in ``recv`` between jobs or items) exits
    immediately; a busy one finishes the item it is evaluating, delivers
    the result frame, and exits before taking more work.  Either way the
    pool sees a clean close and requeues nothing that was already
    delivered — a Ctrl-C against a worker fleet therefore loses no
    completed work and never wedges the pool.
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
    than it delivers and closes mid-frame.  Either way the pool
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
            raise ConnectionError("pool closed mid-job")
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


def serve(sock: socket.socket, shutdown: GracefulShutdown) -> None:
    """Say hello on ``sock`` and process jobs until shutdown."""
    cache = RuntimeCache()
    injector: Optional[FaultInjector] = None
    armed_wire = None
    with sock:
        send_frame(sock, {"type": "hello"})
        while True:
            shutdown.checkpoint()
            message = recv_frame(sock)
            if message is None or message.get("type") == "shutdown":
                return
            if message.get("type") == "job":
                fault_wire = message.get("fault")
                if fault_wire != armed_wire:
                    # One injector per plan (the worker id is fixed for
                    # the process): its one-shot bookkeeping must persist
                    # across jobs, not re-arm with every job frame.
                    armed_wire = fault_wire
                    injector = (FaultInjector(
                        FaultPlan.from_wire(fault_wire),
                        worker_id=int(message.get("worker_id", 0)))
                        if fault_wire else None)
                _serve_job(sock, message["job"], cache, injector, shutdown)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distrib.worker",
        description=__doc__.splitlines()[0])
    parser.add_argument("--fd", required=True, type=int, metavar="N",
                        help="inherited descriptor of the pool's socketpair")
    args = parser.parse_args(argv)
    shutdown = GracefulShutdown().install()
    try:
        serve(socket.socket(fileno=args.fd), shutdown)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ConnectionError, OSError, FrameError) as exc:
        if shutdown.requested:
            return 0                     # drain raced the socket teardown
        print(f"repro.distrib.worker: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

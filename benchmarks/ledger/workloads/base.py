"""What every workload module provides, and the in-process session runner.

A workload module exposes ``NAME``, ``WHY``, ``GOLDEN`` (the expected/
file its reports are checked against), ``inputs(seed, smoke)`` — every
seed-dependent choice as one JSON-able dict, so the program under test
receives only generated configs — and ``runner(inputs)``.

A module whose ops keep more than one core busy also sets ``PARALLEL =
True``, which makes the host-speed reference sample every core.

A runner lives in the workload's own child process.  ``setup()`` is
everything before the first timed op (imports, scenario registration,
fleet or daemon start, one discarded warm-up op); ``run_slice()`` runs
ops back-to-back, closed loop, for about a second — the driver samples
the host-speed reference between slices; ``teardown()`` always runs.  GC
stays on and nothing sleeps between ops: users run that way.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class Op:
    """One repair request, submitted and waited for."""

    #: Key of the op's golden in the workload's expected/ file.
    label: str
    start: float
    end: float
    #: The report wire the user holds at the end (``None`` = op failed).
    wire: Optional[Dict] = None
    #: Why the op failed: exception, timeout, non-2xx, quarantine.
    error: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Runner:
    """Serial closed-loop runner; subclasses implement :meth:`run_op`."""

    #: Golden label of the reports the workload's own config produces.
    own_label: str
    #: A timed window ends on a multiple of this many ops.
    ops_per_batch = 1

    def probe_configs(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        """``(own, wire_safe)`` config wires for the traced run: the
        config whose layers are probed, and a serial config that a fresh
        worker process can rebuild (registered scenarios only), which the
        fabric and service probes use."""
        raise NotImplementedError

    def setup(self) -> None:
        self.run_op(-1)                  # warm-up, discarded

    def run_op(self, index: int) -> Op:
        raise NotImplementedError

    def run_traced_op(self, tracer, index: int) -> Op:
        """The same op under spans (default: one span around the op)."""
        with tracer.span("ledger.op", op=index):
            return self.run_op(index)

    def run_slice(self, seconds: float, min_ops: int, first: int) -> List[Op]:
        """Ops ``first``, ``first + 1``, ... until ``seconds`` have passed
        and ``min_ops`` ops were run."""
        ops: List[Op] = []
        started = time.perf_counter()
        while (len(ops) < min_ops
               or time.perf_counter() - started < seconds):
            ops.append(self.run_op(first + len(ops)))
        return ops

    def teardown(self) -> None:
        pass


def timed_op(label: str, call) -> Op:
    """Run ``call()`` (returning a report wire) as one op; an exception
    fails the op, not the run."""
    start = time.perf_counter()
    try:
        wire = call()
        return Op(label, start, time.perf_counter(), wire=wire)
    except Exception:                    # noqa: BLE001 — op boundary
        return Op(label, start, time.perf_counter(),
                  error=traceback.format_exc(limit=4))


def serial_config(config_wire: Dict[str, object]) -> Dict[str, object]:
    """``config_wire`` with scheduling stripped: the serial in-process
    run every fabric and service report must equal."""
    wire = dict(config_wire)
    wire.update(transport=None, workers=1, transport_options={})
    return wire


STAGES = ("diagnose", "generate", "backtest", "rank")


def run_session(config_wire: Dict[str, object]):
    """One whole ``RepairSession`` from a config wire; returns
    ``(session, report)``."""
    from repro.api import RepairSession
    from repro.repair import reset_candidate_ids
    # Candidate tags come from a process-global counter; restarting it
    # keeps every report a pure function of its config.
    reset_candidate_ids()
    session = RepairSession.from_wire(config_wire)
    return session, session.run()


def staged_session(tracer, config_wire: Dict[str, object], op: int):
    """The same session run stage by stage under spans, timed from the
    outside through ``session.run(until=...)`` (the Fig 9a breakdown)."""
    from repro.api import RepairSession
    from repro.repair import reset_candidate_ids
    reset_candidate_ids()
    with tracer.span("api.session", op=op):
        session = RepairSession.from_wire(config_wire)
        report = None
        for stage in STAGES:
            with tracer.span(f"api.{stage}"):
                report = session.run(until=stage)
    return session, report


class SessionRunner(Runner):
    """Ops are in-process ``RepairSession`` runs of one config."""

    def __init__(self, label: str, config_wire: Dict[str, object],
                 wire_safe: Optional[Dict[str, object]] = None):
        self.label = label
        self.config = config_wire
        self.wire_safe = (wire_safe if wire_safe is not None
                          else serial_config(config_wire))

    @property
    def own_label(self) -> str:
        return self.label

    def probe_configs(self):
        return self.config, self.wire_safe

    def golden_configs(self) -> Dict[str, Dict[str, object]]:
        return {self.label: serial_config(self.config)}

    def run_op(self, index: int) -> Op:
        return timed_op(
            self.label, lambda: run_session(self.config)[1].to_wire())

    def run_traced_op(self, tracer, index: int) -> Op:
        return timed_op(
            self.label,
            lambda: staged_session(tracer, self.config, index)[1].to_wire())

"""Section 5.4: what recording costs, and that it changes nothing.

The paper's runtime records the control-plane conversation and a packet
log of about 120 bytes per packet.  Recording must be transparent: a
replay through the recorder (:class:`RecordingController` with a
:class:`HistoricalLog`, the simulator logging every ingress packet) must
give the same :class:`TrafficStats` as the bare controller — a repair's
Diagnose relies on it, since its one recorded run is also the backtest
baseline.  On Q1 the storage is pinned per packet, and so is the recorder's
cost in Python calls into ``repro/`` (what a garbage collection runs inside
the window is left out): one per packet (``record_packet``), two per
PacketIn (the recorder's ``handle_packet_in`` and ``record_packet_in``), one
per control message and one for ``on_start`` — counted against a bare
replay that walks the same packets: the recorder reports ``version =
None``, so its replay remembers no packet's fate across a PacketIn, and
the bare controller is put behind a pass-through that reports ``None`` too.
Against the plain bare replay, which does remember them, that is a
recording/bare ratio of 1.52 on CPython 3.11 (8.7 against 5.7 calls per
packet).  The recorder's calls are the same as when the ratio was 1.10
(26.0 against 23.7); the bare replay's fell, when a PacketIn stopped paying
for schema re-checks, double hashing and a re-sorted FlowEntry per event,
again when ``run_trace`` became the one hop loop (no ``inject`` and
``_forward`` per packet) and the control messages became plain values, and
again when a repeated packet whose misses the empty-response memo answers
stopped being walked.
"""

import os
import sys

import pytest

import repro
from repro.scenarios import SCENARIO_BUILDERS, build_scenario
from repro.sdn.controller import Controller, RecordingController
from repro.sdn.log import LOG_ENTRY_BYTES, HistoricalLog
from repro.sdn.network import NetworkSimulator

#: Recording/bare Python calls into ``repro/`` of one replay of Q1's trace,
#: pinned on CPython 3.11 to two decimals (1.10 while the bare replay made
#: 23.7 calls per packet; 1.16 until ``NDTuple`` hashed and compared in C,
#: 1.23 until the hop loop and the messages got cheaper, and 1.34 until a
#: replay remembered each packet's fate while the controller's ``version``
#: stood still: each made the bare replay cheaper and the recorder's calls
#: no fewer).
PINNED_Q1_CALL_RATIO = 1.52
REPRO_PACKAGE = os.path.dirname(repro.__file__)


class Unversioned(Controller):
    """A pass-through that reports ``version = None``, as the recorder
    does, so a bare replay behind it walks the packets the recorder's
    replay walks (the simulator remembers no fate across a PacketIn of an
    unversioned controller).  It lives in ``tests/``: its own calls are not
    calls into ``repro/``."""

    def __init__(self, inner):
        self.inner = inner

    def on_start(self, network):
        return self.inner.on_start(network)

    def handle_packet_in(self, event):
        return self.inner.handle_packet_in(event)


def _replays(scenario, unversioned=False):
    """(bare simulator, recording simulator, log), not yet run; with
    ``unversioned``, the bare controller reports ``version = None``."""
    controller = scenario.build_controller()
    bare = NetworkSimulator(scenario.build_topology(),
                            Unversioned(controller) if unversioned
                            else controller,
                            require_packet_out=scenario.require_packet_out,
                            record_ingress=False)
    log = HistoricalLog()
    recording = NetworkSimulator(
        scenario.build_topology(),
        RecordingController(scenario.build_controller(), log=log), log=log,
        require_packet_out=scenario.require_packet_out)
    return bare, recording, log


def _python_calls(call):
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and REPRO_PACKAGE in frame.f_code.co_filename:
            calls += 1

    sys.setprofile(profiler)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_recording_is_transparent(name):
    scenario = build_scenario(name)
    trace = scenario.trace()
    bare, recording, log = _replays(scenario)
    assert bare.run_trace(trace) == recording.run_trace(trace)
    assert len(log) == len(trace)
    assert log.packet_in_events == recording.controller.packet_ins
    assert len(log.packet_in_events) == recording.stats.packet_in_count


def test_the_q1_log_stores_120_bytes_per_packet():
    scenario = build_scenario("Q1")
    trace = scenario.trace()
    _, recording, log = _replays(scenario)
    recording.run_trace(trace)
    assert log.storage_bytes() == LOG_ENTRY_BYTES * len(trace) == 120 * 234


def _q1_calls(unversioned=False):
    """(bare, recording) Python calls of one replay of Q1's trace, after a
    warm-up replay (plan cache, memoised getters), and the recording log."""
    scenario = build_scenario("Q1")
    trace = scenario.trace()
    for simulator in _replays(scenario)[:2]:
        simulator.run_trace(trace)
    bare, recording, log = _replays(scenario, unversioned)
    return (_python_calls(lambda: bare.run_trace(trace)),
            _python_calls(lambda: recording.run_trace(trace)), log)


def test_the_recorders_calls_are_its_records():
    """Against a bare replay that walks the same packets: the recorder's
    own ``version`` is ``None``, so its replay remembers no fate across a
    PacketIn, and a bare replay behind :class:`Unversioned` does neither."""
    bare, recording, log = _q1_calls(unversioned=True)
    assert recording - bare == (len(log) + 2 * len(log.packet_in_events)
                                + len(log.control_messages) + 1)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="Python calls are pinned on CPython 3.11")
def test_the_q1_recording_call_ratio_is_pinned():
    bare, recording, _ = _q1_calls()
    assert round(recording / bare, 2) == PINNED_Q1_CALL_RATIO, (
        f"recording/bare calls into repro/ on Q1: {recording}/{bare} = "
        f"{recording / bare:.4f}, pinned {PINNED_Q1_CALL_RATIO}")

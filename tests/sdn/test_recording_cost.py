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
per control message and one for ``on_start``.  On CPython 3.11 that is a
recording/bare ratio of 1.34 (9.3 against 6.9 calls per packet).  The
recorder's calls are the same as when the ratio was 1.10 (26.0 against
23.7); the bare replay's fell, when a PacketIn stopped paying for schema
re-checks, double hashing and a re-sorted FlowEntry per event, and again
when ``run_trace`` became the one hop loop (no ``inject`` and ``_forward``
per packet) and the control messages became plain values.
"""

import os
import sys

import pytest

import repro
from repro.scenarios import SCENARIO_BUILDERS, build_scenario
from repro.sdn.controller import RecordingController
from repro.sdn.log import LOG_ENTRY_BYTES, HistoricalLog
from repro.sdn.network import NetworkSimulator

#: Recording/bare Python calls into ``repro/`` of one replay of Q1's trace,
#: pinned on CPython 3.11 to two decimals (1.10 while the bare replay made
#: 23.7 calls per packet; 1.16 until ``NDTuple`` hashed and compared in C,
#: and 1.23 until the hop loop and the messages got cheaper: each made the
#: bare replay cheaper and the recorder's calls no fewer).
PINNED_Q1_CALL_RATIO = 1.34
REPRO_PACKAGE = os.path.dirname(repro.__file__)


def _replays(scenario):
    """(bare simulator, recording simulator, log), not yet run."""
    bare = NetworkSimulator(scenario.build_topology(),
                            scenario.build_controller(),
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


def _q1_calls():
    """(bare, recording) Python calls of one replay of Q1's trace, after a
    warm-up replay (plan cache, memoised getters), and the recording log."""
    scenario = build_scenario("Q1")
    trace = scenario.trace()
    for simulator in _replays(scenario)[:2]:
        simulator.run_trace(trace)
    bare, recording, log = _replays(scenario)
    return (_python_calls(lambda: bare.run_trace(trace)),
            _python_calls(lambda: recording.run_trace(trace)), log)


def test_the_recorders_calls_are_its_records():
    bare, recording, log = _q1_calls()
    assert recording - bare == (len(log) + 2 * len(log.packet_in_events)
                                + len(log.control_messages) + 1)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="Python calls are pinned on CPython 3.11")
def test_the_q1_recording_call_ratio_is_pinned():
    bare, recording, _ = _q1_calls()
    assert round(recording / bare, 2) == PINNED_Q1_CALL_RATIO, (
        f"recording/bare calls into repro/ on Q1: {recording}/{bare} = "
        f"{recording / bare:.4f}, pinned {PINNED_Q1_CALL_RATIO}")

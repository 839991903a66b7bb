"""What a result frame carries per packet.

A worker answers every dispatched candidate with a JSON frame holding the
``ShardOutcome`` wire (:mod:`repro.wire`).  Its ``TrafficStats`` keep one
int per replayed trace packet — the receiving host's id, or ``DROPPED`` —
so a frame grows by a few bytes a packet and decoding it builds no
``Packet``.  Packets still cross process boundaries elsewhere (scenario
traces, rebuilt from a ``ScenarioSpec``): one is its constructor arguments,
and ``header_values`` — the tuple every lookup reads — is derived data,
recomputed on construction.
"""

import copy
import dataclasses
import socket
import sys

from repro.backtest import Backtester
from repro.backtest.replay import ShardOutcome
from repro.distrib.pool import recv_frame, send_frame
from repro.meta import MetaProvenanceExplorer
from repro.scenarios import build_q1
from repro.sdn.packets import Packet
from repro.wire import decode, encode

#: Bytes of the first candidate's result frame when every packet rode it
#: as a pickled record holding its ``Packet`` (10,932 bytes for Q1's
#: 234-packet trace, 126,286 for the 2,940 packets of ``trace_heavy``),
#: and the ceiling now that each is one int in a JSON frame (1,177 and
#: 9,304 bytes when this was written; pickled, the same outcome took 1,018
#: and 6,443).
PARENT_OUTCOME_BYTES = {"Q1": 10_932, "trace_heavy": 126_286}
OUTCOME_BYTES_CEILING = {"Q1": 1_400, "trace_heavy": 10_500}
#: Q1's parameters in the ``trace_heavy`` ledger workload (seed 0).
TRACE_HEAVY_PARAMS = {"s1_clients": 48, "s4_clients": 16, "repetitions": 10}
TRACE_PACKETS = {"Q1": 234, "trace_heavy": 2_940}


def test_a_packet_round_trips_as_its_constructor_arguments():
    defaulted = Packet(src_ip=7, dst_ip=9, src_port=4000, dst_port=80)
    explicit = Packet(src_ip=7, dst_ip=9, dst_port=53, proto="udp",
                      src_mac=70, dst_mac=90, size=64)
    for packet in (defaulted, explicit):
        arguments = {field.name: getattr(packet, field.name)
                     for field in dataclasses.fields(Packet) if field.init}
        # The derived tuple is no constructor argument: only the eight are.
        assert list(arguments) == ["src_ip", "dst_ip", "src_port",
                                   "dst_port", "proto", "src_mac", "dst_mac",
                                   "size"]
        for clone in (Packet(**arguments), copy.copy(packet),
                      copy.deepcopy(packet)):
            assert clone == packet and hash(clone) == hash(packet)
            assert clone.size == packet.size
            assert clone.header_values == packet.header_values
            assert clone.header() == packet.header()
    assert defaulted.header_values == (7, 9, 4000, 80, "tcp", 7, 9)
    assert explicit.header_values == (7, 9, 0, 53, "udp", 70, 90)
    assert defaulted.with_fields(dst_port=53).header_values[3] == 53


def _packets_built(call):
    """How many ``Packet`` objects ``call()`` constructs."""
    built = 0
    code = Packet.__post_init__.__code__

    def profiler(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is code:
            built += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return built


def _first_outcome(scenario):
    candidate = MetaProvenanceExplorer(
        scenario.program, scenario.history_index(),
        max_candidates=1).explore_missing(scenario.goal()).candidates[0]
    return Backtester(scenario).evaluate_outcome(candidate)


def _result_frame(outcome):
    """The bytes a worker sends for ``outcome``."""
    ours, theirs = socket.socketpair()
    with ours, theirs:
        send_frame(theirs, {"type": "result", "index": 0,
                            "outcome": encode(outcome)})
        theirs.shutdown(socket.SHUT_WR)
        chunks = iter(lambda: ours.recv(1 << 16), b"")
        return b"".join(chunks)


def _decoded(frame):
    ours, theirs = socket.socketpair()
    with ours, theirs:
        theirs.sendall(frame)
        return decode(ShardOutcome, recv_frame(ours)["outcome"])


def _check_frame(shape, scenario):
    outcome = _first_outcome(scenario)
    stats = outcome.result.stats
    assert len(stats.destinations) == stats.total == TRACE_PACKETS[shape]
    frame = _result_frame(outcome)
    ceiling, parent = OUTCOME_BYTES_CEILING[shape], PARENT_OUTCOME_BYTES[shape]
    assert len(frame) <= ceiling < parent, (
        f"a {shape} result frame is {len(frame)} bytes (ceiling {ceiling}; "
        f"{parent} when every packet rode it as a record)")
    clones = []
    assert _packets_built(lambda: clones.append(_decoded(frame))) == 0
    assert clones[0].result.stats == stats
    assert clones[0].result.ks == outcome.result.ks
    assert clones[0].result.candidate is None     # the coordinator's to add


def test_a_q1_outcome_frame_is_smaller_than_the_parents():
    _check_frame("Q1", build_q1())


def test_a_trace_heavy_outcome_frame_is_smaller_than_the_parents():
    _check_frame("trace_heavy", build_q1(**TRACE_HEAVY_PARAMS))

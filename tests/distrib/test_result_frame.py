"""What a result frame carries per packet.

A worker answers every dispatched candidate with a pickled ``ShardOutcome``
whose ``delivery_records`` hold one ``Packet`` per replayed trace packet, so
the shape a packet pickles in is the size of the frame.  A packet pickles as
its constructor arguments: ``header_values`` — the tuple every lookup reads —
is derived data, recomputed on the other side, and never rides a frame.
"""

import copy
import pickle

from repro.backtest import Backtester
from repro.meta import MetaProvenanceExplorer
from repro.scenarios import build_q1
from repro.sdn.log import DeliveryRecord
from repro.sdn.packets import Packet

#: ``len(pickle.dumps(outcome))`` of the first Q1 candidate (234-packet
#: trace) in a fresh interpreter: 18,998 bytes before ``Packet.__reduce__``
#: and the named-tuple ``DeliveryRecord``, 10,932 with them.  Packet ids are
#: process-global integers that pickle in 1 to 4 bytes, so a long test
#: process may add up to ~700 bytes; the ceiling leaves room for that only.
PARENT_Q1_OUTCOME_BYTES = 18_998
Q1_OUTCOME_BYTES_CEILING = 12_000


def test_a_packet_round_trips_as_its_constructor_arguments():
    defaulted = Packet(src_ip=7, dst_ip=9, src_port=4000, dst_port=80)
    explicit = Packet(src_ip=7, dst_ip=9, dst_port=53, proto="udp",
                      src_mac=70, dst_mac=90, size=64)
    for packet in (defaulted, explicit):
        for clone in (pickle.loads(pickle.dumps(packet)),
                      copy.copy(packet), copy.deepcopy(packet)):
            assert clone == packet and hash(clone) == hash(packet)
            assert clone.packet_id == packet.packet_id
            assert clone.size == packet.size
            assert clone.header_values == packet.header_values
            assert clone.header() == packet.header()
    assert defaulted.header_values == (7, 9, 4000, 80, "tcp", 7, 9)
    assert explicit.header_values == (7, 9, 0, 53, "udp", 70, 90)
    # The derived tuple is not in the pickle: only the nine arguments are.
    cls, arguments = explicit.__reduce__()
    assert cls is Packet and cls(*arguments) == explicit
    assert arguments == (7, 9, 0, 53, "udp", 70, 90, 64, explicit.packet_id)
    assert defaulted.with_fields(dst_port=53).header_values[3] == 53


def test_a_delivery_record_round_trips():
    packet = Packet(src_ip=1, dst_ip=2)
    record = DeliveryRecord(5, packet, None, dropped_at=3, path=(1, 3))
    clone = pickle.loads(pickle.dumps(record))
    assert clone == record and type(clone) is DeliveryRecord
    assert not clone.delivered and clone.dropped_at == 3
    assert DeliveryRecord(5, packet, 2).delivered
    assert DeliveryRecord(5, packet, 2) == DeliveryRecord(5, packet, 2, None, ())


def test_a_q1_outcome_frame_is_smaller_than_the_parents():
    scenario = build_q1()
    candidate = MetaProvenanceExplorer(
        scenario.program, scenario.history_index(),
        max_candidates=1).explore_missing(scenario.goal()).candidates[0]
    outcome = Backtester(scenario).evaluate_outcome(candidate)
    assert len(outcome.result.stats.delivery_records) == 234
    frame = pickle.dumps(outcome)
    assert len(frame) <= Q1_OUTCOME_BYTES_CEILING < PARENT_Q1_OUTCOME_BYTES, (
        f"a Q1 result frame is {len(frame)} bytes, pinned at 10,932 "
        f"(ceiling {Q1_OUTCOME_BYTES_CEILING}; {PARENT_Q1_OUTCOME_BYTES} "
        "when every packet carried its __dict__)")
    clone = pickle.loads(frame)
    assert clone.result.stats == outcome.result.stats
    assert clone.result.ks == outcome.result.ks

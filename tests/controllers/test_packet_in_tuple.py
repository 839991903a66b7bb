"""A PacketIn tuple is read out of the packet's value tuple, not a dict.

``FieldMapping.packet_in_tuple_from`` compiles its ``packet_in_fields`` into
one getter over ``Packet.header_values + (in_port or 0, None)``.  The tuple
it builds must be the one the dict did — ``header[name]`` for every field in
order, the ingress port as 0 when there is none — for both registered
mappings over random packets and ports, and a field that is no header field
must stay a ``KeyError`` rather than become a ``None`` column.
"""

import random

import pytest

from repro.controllers import FIELD_MAPPINGS, FieldMapping
from repro.ndlog.tuples import NDTuple
from repro.sdn.controller import PacketInEvent
from repro.sdn.packets import Packet


def dict_built(mapping, switch_id, packet, in_port):
    """``packet_in_tuple_from`` as it was before compiled keys."""
    header = dict(packet.header())
    header["in_port"] = in_port if in_port is not None else 0
    values = ["C", switch_id]
    values.extend(header[name] for name in mapping.packet_in_fields)
    return NDTuple(mapping.packet_in_table, tuple(values))


@pytest.mark.parametrize("name", sorted(FIELD_MAPPINGS))
def test_packet_in_tuple_equals_the_dict_built_one(name):
    mapping = FIELD_MAPPINGS[name]
    rng = random.Random(24)
    for _ in range(300):
        macs = {}
        if rng.random() < 0.5:
            macs = {"src_mac": rng.randint(1, 300), "dst_mac": rng.randint(1, 300)}
        packet = Packet(src_ip=rng.randint(1, 300), dst_ip=rng.randint(1, 300),
                        src_port=rng.randint(0, 65535),
                        dst_port=rng.choice([53, 80, rng.randint(0, 65535)]),
                        proto=rng.choice(["tcp", "udp", "icmp"]), **macs)
        switch_id = rng.randint(1, 9)
        in_port = rng.choice([None, 0, rng.randint(1, 48)])
        expected = dict_built(mapping, switch_id, packet, in_port)
        built = mapping.packet_in_tuple_from(switch_id, packet, in_port)
        assert built == expected and hash(built) == hash(expected)
        assert built.values == expected.values
        assert mapping.packet_in_tuple(
            PacketInEvent(switch_id, packet, in_port=in_port)) == expected
    assert mapping.packet_in_tuple_from(3, packet).values[:2] == ("C", 3)


def test_an_unknown_packet_in_field_is_still_a_key_error():
    mapping = FieldMapping(packet_in_fields=("dst_port", "vlan"))
    packet = Packet(src_ip=1, dst_ip=2, dst_port=80)
    for _ in range(2):          # not cached into something that answers
        with pytest.raises(KeyError, match="vlan"):
            mapping.packet_in_tuple_from(1, packet, 4)
        with pytest.raises(KeyError, match="vlan"):
            mapping.packet_in_tuple(PacketInEvent(1, packet, in_port=4))


def test_in_port_column_is_zero_without_an_ingress_port():
    mapping = FieldMapping(packet_in_fields=("in_port", "dst_port"))
    packet = Packet(src_ip=1, dst_ip=2, dst_port=80)
    assert mapping.packet_in_tuple_from(1, packet).values == ("C", 1, 0, 80)
    assert mapping.packet_in_tuple_from(1, packet, 7).values == ("C", 1, 7, 80)
    assert FieldMapping(packet_in_fields=()).packet_in_tuple_from(
        2, packet).values == ("C", 2)

"""The exact-match-signature index behind ``FlowTable.lookup``.

Lookups must stay semantically identical to the original linear scan:
highest priority wins, ties go to the entry installed first, ``*`` values
and absent fields are wildcards.  The table keeps its index in step
with every ``install`` and ``clear``; a randomized cross-check pits it
against a list model (the install it replaced, verbatim) under a reference
linear scan, and hand-written cases pin the orderings no report golden
exercises: a re-installed duplicate moves to the back, and equal-priority
wildcard entries win in install order.

The table and ``FlowEntry.matches`` both read a packet through compiled
positions of ``Packet.header_values``; the reference scan must not share that
mechanism, so it matches names against ``Packet.header()`` — the public dict
— itself.  The cross-check also drives what only the compiled path could get
wrong: MAC fields set and defaulted to the IPs, ``in_port=None``, ``*``
values on every field, and an entry built without ``FlowEntry.create`` whose
match names no header field (it reads ``None``, as ``header.get`` does).
"""

import random

from repro.sdn.packets import Packet
from repro.sdn.switch import FlowEntry, FlowTable


class ListModel:
    """The list-backed table ``FlowTable`` replaced: ``install`` verbatim
    (filter out the equal identity, append), no index at all."""

    def __init__(self):
        self._entries = []

    def install(self, entry):
        self._entries = [
            existing for existing in self._entries
            if not (existing.match == entry.match
                    and existing.priority == entry.priority
                    and existing.out_port == entry.out_port)
        ]
        self._entries.append(entry)
        return entry

    def clear(self):
        self._entries.clear()

    def entries(self):
        return list(self._entries)


def dict_matches(entry, packet, in_port=None):
    """``FlowEntry.matches`` as it was before compiled keys: names against
    the public header dict."""
    header = packet.header()
    header["in_port"] = in_port
    return all(value == "*" or header.get(name) == value
               for name, value in entry.match)


def linear_lookup(table, packet, in_port=None):
    """The pre-index reference semantics, verbatim."""
    best = None
    for entry in table.entries():
        if not dict_matches(entry, packet, in_port):
            continue
        if best is None or entry.priority > best.priority:
            best = entry
    return best


def test_exact_match_hit_and_miss():
    table = FlowTable()
    entry = table.install(FlowEntry.create({"src_ip": 7, "dst_port": 80},
                                           out_port=2))
    assert table.lookup(Packet(src_ip=7, dst_ip=99, dst_port=80)) is entry
    assert table.lookup(Packet(src_ip=8, dst_ip=99, dst_port=80)) is None
    assert table.lookup(Packet(src_ip=7, dst_ip=99, dst_port=53)) is None


def test_priority_wins_and_ties_go_to_first_installed():
    table = FlowTable()
    low = table.install(FlowEntry.create({"src_ip": 1}, out_port=1,
                                         priority=1))
    first = table.install(FlowEntry.create({"src_ip": 1}, out_port=2,
                                           priority=5))
    table.install(FlowEntry.create({"src_ip": 1}, out_port=3, priority=5))
    packet = Packet(src_ip=1, dst_ip=2)
    assert table.lookup(packet) is first
    # A duplicate of ``first`` goes to the back of the tie-break ...
    table.install(FlowEntry.create({"src_ip": 1}, out_port=2, priority=5))
    assert table.lookup(packet).out_port == 3
    # ... and a cleared table answers from what is installed afterwards.
    table.clear()
    assert table.lookup(packet) is None
    assert table.install(low) is low
    assert table.lookup(packet) is low


def test_wildcard_value_entries_still_match():
    table = FlowTable()
    wild = table.install(FlowEntry.create({"src_ip": "*", "dst_port": 80},
                                          out_port=9, priority=2))
    exact = table.install(FlowEntry.create({"src_ip": 3, "dst_port": 80},
                                           out_port=1, priority=4))
    assert table.lookup(Packet(src_ip=5, dst_ip=9, dst_port=80)) is wild
    assert table.lookup(Packet(src_ip=3, dst_ip=9, dst_port=80)) is exact


def test_in_port_is_indexable():
    table = FlowTable()
    entry = table.install(FlowEntry.create({"in_port": 4, "dst_port": 80},
                                           out_port=1))
    packet = Packet(src_ip=1, dst_ip=2, dst_port=80)
    assert table.lookup(packet, in_port=4) is entry
    assert table.lookup(packet, in_port=5) is None
    assert table.lookup(packet) is None


def test_clear_invalidates_index():
    table = FlowTable()
    table.install(FlowEntry.create({"src_ip": 1}, out_port=1))
    table.install(FlowEntry.create({"src_ip": "*", "dst_ip": 2}, out_port=1))
    packet = Packet(src_ip=1, dst_ip=2)
    assert table.lookup(packet) is not None
    table.clear()
    assert table.lookup(packet) is None
    assert len(table) == 0
    assert table.entries() == [] and list(table) == []


def test_reinstalled_duplicate_is_a_new_object_at_the_back():
    table = FlowTable()
    a = table.install(FlowEntry.create({"dst_port": 80}, out_port=1,
                                       priority=5))
    b = table.install(FlowEntry.create({"dst_port": 80}, out_port=2,
                                       priority=5))
    packet = Packet(src_ip=1, dst_ip=2, dst_port=80)
    assert table.lookup(packet) is a
    a_again = table.install(FlowEntry.create({"dst_port": 80}, out_port=1,
                                             priority=5))
    assert a_again is not a
    assert table.lookup(packet) is b
    assert len(table) == 2
    assert [id(e) for e in table.entries()] == [id(b), id(a_again)]
    assert [id(e) for e in table] == [id(b), id(a_again)]


def test_equal_priority_wildcards_resolve_in_install_order():
    """Q4's shape: two equal-priority ``*`` entries live in the residual
    list, and whichever was installed first forwards the packet."""
    def wild(out_port):
        return FlowEntry.create({"src_ip": "*", "dst_port": 80},
                                out_port=out_port, priority=3)

    def exact():
        return FlowEntry.create({"src_ip": 9, "dst_port": 53}, out_port=7,
                                priority=3)

    packet = Packet(src_ip=4, dst_ip=2, dst_port=80)
    table = FlowTable()
    first = table.install(wild(1))
    table.install(exact())
    table.install(wild(2))
    assert table.lookup(packet) is first
    assert [e.out_port for e in table.entries()] == [1, 7, 2]
    # The other way round after a clear: order is install order, not port
    # order, hash order or what the table held before.
    table.clear()
    first = table.install(wild(2))
    table.install(exact())
    table.install(wild(1))
    assert table.lookup(packet) is first
    assert [e.out_port for e in table.entries()] == [2, 7, 1]


def test_randomized_cross_check_against_linear_scan():
    rng = random.Random(1702)
    fields = ["src_ip", "dst_ip", "src_port", "dst_port", "proto", "in_port",
              "src_mac", "dst_mac"]
    table, model = FlowTable(), ListModel()
    counts = {"install": 0, "duplicate": 0, "clear": 0, "no_such_field": 0,
              "mac_set": 0, "mac_defaulted": 0, "no_in_port": 0,
              "residual_hit": 0}
    for step in range(400):
        action = rng.random()
        entry = None                      # this step only looks up
        if action < 0.45 or len(table) == 0:
            match = {}
            for field in rng.sample(fields, rng.randint(0, 3)):
                if field == "proto":
                    match[field] = rng.choice(["tcp", "udp", "*"])
                else:
                    match[field] = rng.choice([rng.randint(1, 5), "*"])
            entry = FlowEntry.create(match, out_port=rng.randint(1, 4),
                                     priority=rng.randint(1, 3))
            if rng.random() < 0.1:
                # ``create`` refuses unknown names; the constructor does not.
                # Such a field reads None: only a None value (or ``*``)
                # matches it.
                stray = ("vlan", rng.choice([None, None, 7, "*"]))
                entry = FlowEntry(match=tuple(sorted(entry.match + (stray,))),
                                  out_port=entry.out_port,
                                  priority=entry.priority)
                counts["no_such_field"] += 1
            counts["install"] += 1
        elif action < 0.70:
            # Same match/priority/out_port as a live entry, a new object.
            old = rng.choice(model.entries())
            entry = FlowEntry(match=old.match, out_port=old.out_port,
                              priority=old.priority)
            counts["duplicate"] += 1
        elif action < 0.73:
            table.clear()
            model.clear()
            counts["clear"] += 1
        if entry is not None:
            assert table.install(entry) is model.install(entry)
        # After every step the table is the model: same objects, same order.
        expected = model.entries()
        assert len(table) == len(expected)
        assert [id(e) for e in table.entries()] == [id(e) for e in expected]
        assert [id(e) for e in table] == [id(e) for e in expected]
        macs = {}
        if rng.random() < 0.5:
            macs = {"src_mac": rng.randint(1, 5), "dst_mac": rng.randint(1, 5)}
        packet = Packet(src_ip=rng.randint(1, 5), dst_ip=rng.randint(1, 5),
                        src_port=rng.randint(1, 5),
                        dst_port=rng.randint(1, 5),
                        proto=rng.choice(["tcp", "udp"]), **macs)
        counts["mac_set" if macs else "mac_defaulted"] += 1
        assert packet.header()["src_mac"] == macs.get("src_mac",
                                                      packet.src_ip)
        in_port = rng.choice([None, rng.randint(1, 5)])
        counts["no_in_port"] += in_port is None
        found = table.lookup(packet, in_port)
        assert found is linear_lookup(model, packet, in_port)
        if found is not None:
            assert found.matches(packet, in_port)
            counts["residual_hit"] += "*" in dict(found.match).values()
        for entry in expected:
            assert entry.matches(packet, in_port) \
                == dict_matches(entry, packet, in_port)
    assert min(counts.values()) >= 5, counts


def test_a_match_on_no_header_field_reads_none():
    packet = Packet(src_ip=1, dst_ip=2, dst_port=80)
    table = FlowTable()
    never = table.install(FlowEntry(match=(("dst_port", 80), ("vlan", 7)),
                                    out_port=1, priority=9))
    only_none = table.install(FlowEntry(match=(("vlan", None),), out_port=2))
    assert not never.matches(packet) and only_none.matches(packet)
    assert table.lookup(packet) is only_none
    starred = table.install(FlowEntry(match=(("vlan", "*"),), out_port=3,
                                      priority=5))
    assert table.lookup(packet) is starred

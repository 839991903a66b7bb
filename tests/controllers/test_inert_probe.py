"""Unit tests for the static PacketIn inertness probe.

The probe must mirror the engine's trigger prefilter exactly: ``True``
(inert) only when every rule occurrence is ruled out by a constant
mismatch, an intra-atom variable conflict, or a definitively-false
single-variable selection — and its verdicts must agree with what the
engine actually derives.
"""

from repro.controllers.batching import PacketInInertProbe
from repro.ndlog import Engine, make_tuple, parse_program

PROGRAM_TEXT = """
g1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
g2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 3, Hdr < 100, Prt := 2.
g3 Mirror(@C,Hdr) :- PacketIn(@C,Swi,Hdr), Config(@C,Hdr).
"""


def test_guard_rejections_prove_inertness():
    program = parse_program(PROGRAM_TEXT)
    probe = PacketInInertProbe(program, "PacketIn")
    # Swi=5 fails g1/g2's equality guards; g3 has no guard, so the Hdr
    # value must be joinable -> probe cannot rule g3 out: not inert.
    assert not probe.inert(("C", 5, 80))
    no_g3 = parse_program("""
g1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
g2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 3, Hdr < 100, Prt := 2.
""")
    probe = PacketInInertProbe(no_g3, "PacketIn")
    assert probe.inert(("C", 5, 80))         # no rule's guards pass
    assert probe.inert(("C", 2, 53))         # g1: Hdr!=80, g2: Swi!=3
    assert not probe.inert(("C", 2, 80))     # g1 may fire
    assert not probe.inert(("C", 3, 53))     # g2 may fire
    assert probe.inert(("C", 3, 200))        # g2: Hdr<100 fails


def test_conflicting_repeated_variables_rule_out():
    program = parse_program(
        "d1 Seen(@C,X) :- PacketIn(@C,X,X).")
    probe = PacketInInertProbe(program, "PacketIn")
    assert probe.inert(("C", 1, 2))
    assert not probe.inert(("C", 2, 2))


def test_verdicts_are_sound_against_the_engine():
    """Whenever the probe says inert, a live insertion derives nothing."""
    program = parse_program(PROGRAM_TEXT)
    probe = PacketInInertProbe(program, "PacketIn")
    engine = Engine(program)
    engine.insert(make_tuple("Config", "C", 80))
    for swi in range(1, 6):
        for hdr in (53, 80, 150):
            tup = make_tuple("PacketIn", "C", swi, hdr)
            derived = engine.insert(tup)
            for head in derived:
                engine.consume(head)
            engine.consume(tup)
            if probe.inert(tup.values):
                assert derived == [], (swi, hdr)


def test_arity_mismatch_is_inert():
    program = parse_program(PROGRAM_TEXT)
    probe = PacketInInertProbe(program, "PacketIn")
    assert probe.inert(("C", 1))

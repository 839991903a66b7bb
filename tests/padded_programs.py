"""Large programs for the "costs the same on 8 rules as on 250" tests.

A scenario's program plus policies for switches its topology does not have:
the ledger's ``program_heavy`` shape (Fig 10), with fixed switch ids.  The
pad rules never fire on the scenario's trace, so the repairs and verdicts
must equal the unpadded scenario's.
"""

from repro.ndlog import parse_program


def padded_source(scenario, total_rules):
    """The scenario's program text plus pad rules up to ``total_rules``."""
    pads = total_rules - len(parse_program(scenario.program_source))
    return scenario.program_source + "".join(
        f"pad{index} FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), "
        f"Swi == {1000 + index}, Hdr == 80, Prt := 1.\n"
        for index in range(pads))


def padded_program(scenario, total_rules):
    """The scenario's program padded to ``total_rules`` rules."""
    return parse_program(padded_source(scenario, total_rules))

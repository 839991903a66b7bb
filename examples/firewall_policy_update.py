#!/usr/bin/env python3
"""Scenario Q3: repairing a stale firewall white-list, step by step.

A load-balancing app offloaded some clients onto a route whose firewall
white-list was never updated; the offloaded client's HTTP requests are
silently dropped.  This example drives the session one step at a time
(``session.run(until=...)``) to show what each step leaves on the
session: the exploration statistics after Generate,
the meta provenance tree behind the chosen repair, and why the overly
permissive candidates (which would also admit a blocked source) are
rejected at Backtest.

Run with::

    python examples/firewall_policy_update.py
"""

from repro.api import RepairConfig, RepairSession
from repro.backtest import format_table


def main():
    config = RepairConfig.for_scenario("Q3", max_candidates=14)
    session = RepairSession(config)
    scenario = session.scenario
    print(f"Scenario: {scenario.description}")
    print(f"Symptom:  {scenario.symptom.description}\n")
    print("Firewall program:")
    print(scenario.program.to_ndlog())

    # Steps 1+2: history lookups, then candidate extraction.  The session
    # stops after `generate`; its exploration is inspectable and the later
    # steps have not paid their cost yet.
    session.run(until="generate")
    exploration = session.exploration
    print("Exploration statistics (after the `generate` stage):")
    stats = exploration.stats
    print(f"  work items processed : {stats.work_items_processed}")
    print(f"  history lookups      : {stats.history_lookups}")
    print(f"  solver invocations   : {stats.solver_invocations}")
    print(f"  candidates generated : {stats.candidates_generated}\n")

    # Steps 3+4: resume exactly where the session stopped — `diagnose`
    # and `generate` are not recomputed.
    report = session.run()

    print("Backtest results (Table 6b of the paper):")
    print(format_table(report.backtest.results))
    print()

    suggestion = report.suggestions()[0]
    print(f"Suggested repair: {suggestion.candidate.description}")
    tree = suggestion.candidate.tree
    if tree is not None:
        print("Meta provenance tree behind it:")
        print(tree.to_text())


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repairing a Pyretic-style policy program (Section 5.8 of the paper).

The same copy-and-paste bug as Q1, but the controller is written in the
NetCore-style policy DSL: a ``match(switch=2, dst_port=80)[fwd(2)]`` branch
was copied for the new backup server and the switch id was never updated.

The policy repairer has its own candidate generator and backtest loop, so
this example drives them directly: the scenario generates candidate
policies, then replays each on the simulated network and judges it by the
same KS test as the NDlog pipeline.

Run with::

    python examples/policy_dsl_repair.py
"""

from repro.scenarios.other_languages import PolicyQ1Scenario


def main():
    scenario = PolicyQ1Scenario()
    policy = scenario.baseline_program()
    print("Buggy policy program:")
    print(f"  {policy.describe()}\n")

    candidates = scenario.generate_candidates()
    print(f"The repairer generated {len(candidates)} candidates:")
    for candidate in candidates:
        print(f"  [cost {candidate.cost:.1f}] {candidate.description}")
    print()

    report = scenario.backtest(candidates)
    print("Backtest verdicts (the Pyretic column of Table 3):")
    for result in report.results:
        verdict = "accepted" if result.accepted else "rejected"
        print(f"  {verdict:9s} KS={result.ks_statistic:.4f}  {result.description}")
    print()
    print(f"Table 3 entry for Q1 / Pyretic: "
          f"{report.generated} generated / {report.accepted} passed")


if __name__ == "__main__":
    main()

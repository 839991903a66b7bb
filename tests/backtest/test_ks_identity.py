"""``compare_traffic`` reads the simulator's counters, not a sample list.

The KS acceptance test compares the destination of every replayed packet
under the base program and under a candidate.  ``Counter`` of that
per-packet sample is, by construction, ``delivered_per_host`` plus
``{-1: dropped}`` with ``n = total`` — counters the simulator keeps anyway —
so ``compare_traffic`` computes the statistic from those.  Same sorted
values, same float additions: the result must equal ``ks_two_sample`` over
the two sample lists **bit for bit** (``==`` on the floats, no tolerance), on
every default Q1–Q5 result and on drawn lists of destinations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RepairConfig, RepairSession
from repro.backtest import EarlyAbortPolicy, compare_traffic
from repro.sdn.network import DROPPED, TrafficStats

from ks_reference import ks_two_sample


def by_samples(before, after):
    return ks_two_sample(before.destinations, after.destinations)


def assert_counters_describe_the_destinations(stats):
    samples = stats.destinations
    assert stats.total == len(samples)
    assert stats.dropped == samples.count(-1)
    assert stats.delivered_per_host == {
        host: samples.count(host) for host in set(samples) - {-1}}


SCENARIOS = ["Q1", "Q2", "Q3", "Q4", "Q5"]


def assert_the_two_computations_agree(backtest):
    assert_counters_describe_the_destinations(backtest.baseline)
    assert backtest.results
    for result in backtest.results:
        assert_counters_describe_the_destinations(result.stats)
        from_counters = compare_traffic(backtest.baseline, result.stats)
        assert from_counters == by_samples(backtest.baseline, result.stats)
        if result.ks is not None:
            assert result.ks == from_counters


@pytest.mark.parametrize("name", SCENARIOS)
def test_the_two_computations_agree_on_every_result(name):
    assert_the_two_computations_agree(
        RepairSession(RepairConfig.for_scenario(name)).run().backtest)


@pytest.mark.parametrize("name", SCENARIOS)
def test_the_two_computations_agree_under_an_abort_policy(name):
    """Under an abort policy the trace replays in pieces cut at the check
    points, and an aborted candidate's statistics describe a prefix."""
    config = RepairConfig.for_scenario(
        name, max_packet_in_growth=1.5,
        abort=EarlyAbortPolicy(check_every=8, min_fraction=0.1))
    assert_the_two_computations_agree(RepairSession(config).run().backtest)


def stats_of(destinations):
    """What ``NetworkSimulator.run_trace`` leaves behind for these fates
    (a host id, or ``DROPPED``)."""
    stats = TrafficStats()
    for host in destinations:
        stats.total += 1
        stats.destinations.append(host)
        if host == DROPPED:
            stats.dropped += 1
        else:
            stats.delivered_per_host[host] = \
                stats.delivered_per_host.get(host, 0) + 1
    return stats


destinations = st.lists(st.one_of(st.just(DROPPED), st.integers(0, 6)),
                        max_size=80)


@given(destinations, destinations)
@settings(max_examples=200, deadline=None)
def test_the_two_computations_agree_on_drawn_record_lists(before, after):
    before, after = stats_of(before), stats_of(after)
    result = compare_traffic(before, after)
    reference = by_samples(before, after)
    assert result == reference
    assert (result.statistic, result.sample_sizes) == (
        reference.statistic, reference.sample_sizes)

"""Events are built only when someone hears them.

A producer asks the bus whether it is listening — it has a subscriber or
keeps a history — before it builds an event, so a quiet ``repro repair``
(whose bus keeps no history) builds none and never loads the event classes.
A subscriber attached after the session is built, but before it runs, hears
the stream every listening bus heard before events were built on demand.
"""

import hashlib
import json

import pytest

from repro.api import RepairConfig, RepairSession
from repro.bus import EventBus
from repro.ndlog.plan import PLAN_CACHE

#: sha256 of Q1@14's event stream (each event's wire, ``elapsed_seconds``
#: dropped, as one ``json.dumps(..., sort_keys=True)`` list) on a cold plan
#: cache, serially and on the in-process fabric, as the session published
#: it when it built every event whether or not anyone listened: 39 events
#: each, from ``session_started`` through 14 ``candidate_found``, 14
#: ``backtest_progress``, 2 ``candidate_vetoed`` and ``warm_engine_stats``
#: to ``session_finished``.
STREAM_SHA256 = {
    "serial":
        "b68897eb41323fabf15e7ae172873149d3c4aae90a2300ca9c4ee78bf33b8974",
    "inprocess-fabric":
        "cad219f500a8b199810952e45ded7900775c851bca95abe982a9631734101ed4",
}

CONFIGS = {
    "serial": RepairConfig.for_scenario("Q1", max_candidates=14),
    "inprocess-fabric": RepairConfig.for_scenario(
        "Q1", max_candidates=14, workers=2, transport="inprocess"),
}


class CountingBus(EventBus):
    """A bus that counts what it is handed."""

    emitted = 0

    def emit(self, event):
        self.emitted += 1
        super().emit(event)


def stream_digest(events):
    wires = [event.to_wire() for event in events]
    for wire in wires:
        wire.pop("elapsed_seconds", None)
    return hashlib.sha256(
        json.dumps(wires, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_bus_nobody_hears_is_handed_no_event(name):
    bus = CountingBus(keep_history=False)
    report = RepairSession(CONFIGS[name], events=bus).run()
    assert report.suggestions() and bus.emitted == 0


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_subscriber_attached_after_the_session_hears_the_whole_stream(
        name):
    bus = EventBus(keep_history=False)
    session = RepairSession(CONFIGS[name], events=bus)
    heard = []
    bus.subscribe(heard.append)
    PLAN_CACHE.clear()
    session.run()
    assert stream_digest(heard) == STREAM_SHA256[name]
    # A bus that keeps its history hears the same.
    remembering = RepairSession(CONFIGS[name])
    PLAN_CACHE.clear()
    remembering.run()
    assert stream_digest(remembering.events.history) == STREAM_SHA256[name]


def test_listening_is_a_subscriber_or_a_history():
    assert EventBus().listening
    quiet = EventBus(keep_history=False)
    assert not quiet.listening
    quiet.subscribe(lambda event: None)
    assert quiet.listening

"""The repair service end-to-end: HTTP parity, endpoints, chaos.

Acceptance contract (ISSUE 10): repair sessions submitted over HTTP for
Q1–Q5 return ranked reports **bit-identical** to in-process
``RepairSession`` runs (modulo the wall-clock ``timings`` key), and a
:class:`FaultPlan` kill-one-worker chaos run through the daemon matches
the fault-free verdicts.
"""

import http.client
import json
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.api import RepairConfig, RepairSession
from repro.distrib import FaultAction, FaultPlan
from repro.repair import reset_candidate_ids
from repro.service import ClientError, ServiceClient
from repro.service import http as service_http
from repro.service import daemon as service_daemon
from repro.service.http import MAX_BODY_BYTES

from conftest import report_minus_timings

SCENARIOS = ("Q1", "Q2", "Q3", "Q4", "Q5")


def reference_report(config):
    """In-process run with fresh candidate numbering (= a worker's view)."""
    reset_candidate_ids()
    return report_minus_timings(RepairSession(config).run().to_wire())


class CountingClient(ServiceClient):
    """Counts HTTP requests, and overrides ``session`` with one parameter
    the way the ledger's service client does."""

    requests = 0
    sessions_asked = 0

    def _request(self, *args, **kwargs):
        self.requests += 1
        return super()._request(*args, **kwargs)

    def session(self, session_id):
        self.sessions_asked += 1
        return super().session(session_id)


class TestHTTPParity:
    def test_q1_to_q5_reports_bit_identical(self, fleet):
        _daemon, _server, client = fleet(workers=2)
        configs = {name: RepairConfig.for_scenario(name, max_candidates=4)
                   for name in SCENARIOS}
        references = {name: reference_report(config)
                      for name, config in configs.items()}
        acks = {name: client.submit(config, tenant="parity")
                for name, config in configs.items()}
        for name, ack in acks.items():
            wire = client.wait(ack["id"], timeout=120)
            assert wire["state"] == "done", wire.get("error")
            assert wire["scenario"] == name
            assert report_minus_timings(wire["report"]) == references[name]
            assert set(wire["stage_seconds"]) == {
                "diagnose", "generate", "backtest", "rank"}

    def test_second_submission_still_bit_identical(self, fleet):
        # The long-lived-worker regression: the N-th session on a warm
        # worker must produce the same bytes as the first.
        _daemon, _server, client = fleet(workers=1)
        config = RepairConfig.for_scenario("Q1", max_candidates=4)
        reference = reference_report(config)
        for _ in range(2):
            ack = client.submit(config)
            wire = client.wait(ack["id"], timeout=120)
            assert wire["state"] == "done", wire.get("error")
            assert report_minus_timings(wire["report"]) == reference

    def test_event_stream_is_complete_and_ordered(self, fleet):
        # Followed live from submission, the ?follow=1 stream is the
        # stored stream, and it ends when the session does.
        _daemon, _server, client = fleet(workers=1)
        ack = client.submit(RepairConfig.for_scenario("Q1",
                                                      max_candidates=4))
        followed = client.events(ack["id"], follow=True)
        assert client.wait(ack["id"], timeout=120)["state"] == "done"
        events = client.events(ack["id"])
        assert followed == events
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "session_started"
        assert kinds[-1] == "session_finished"
        # Stage events nest: every stage_started is later closed.
        open_stages = []
        for event in events:
            if event["kind"] == "stage_started":
                open_stages.append(event["stage"])
            elif event["kind"] == "stage_finished":
                assert open_stages.pop() == event["stage"]
        assert not open_stages


class TestEndpoints:
    def test_healthz_and_sessions_listing(self, fleet):
        daemon, _server, client = fleet(workers=1)
        health = client.health()
        assert health["state"] == "serving"
        assert health["workers_connected"] >= 0
        ack = client.submit(RepairConfig.for_scenario("Q1",
                                                      max_candidates=4),
                            tenant="alice")
        client.wait(ack["id"], timeout=120)
        rows = client.sessions()
        assert [row["id"] for row in rows] == [ack["id"]]
        assert rows[0]["tenant"] == "alice"
        assert rows[0]["state"] == "done"
        assert daemon.get(ack["id"]).attempts == 0

    def test_only_the_newest_finished_sessions_are_kept(self, fleet,
                                                        monkeypatch):
        # The policy hooks driven by hand (no worker): four sessions finish
        # one after the other while a fifth stays queued.
        monkeypatch.setattr(service_daemon, "MAX_FINISHED_SESSIONS", 2)
        daemon, _server, client = fleet(workers=0)
        config = RepairConfig.for_scenario("Q1")
        finished = [daemon.submit(config) for _ in range(4)]
        queued = daemon.submit(config)
        for session_id in finished:
            job = daemon.assign(SimpleNamespace(worker_id=0))
            assert job.key.session_id == session_id
            daemon.result(job, None, {"report": {"ok": True}})
        rows = client.sessions()
        assert [row["id"] for row in rows] == finished[2:] + [queued]
        assert [row["state"] for row in rows] == ["done", "done", "queued"]
        for evicted in finished[:2]:
            with pytest.raises(ClientError) as excinfo:
                client.session(evicted)
            assert excinfo.value.status == 404
        assert client.session(finished[3])["report"] == {"ok": True}
        assert client.health()["sessions_total"] == 5

    def test_healthz_reports_fleet_and_tenant_queues(self, fleet):
        # What is the daemon doing right now?  The pool's fleet view plus
        # per-tenant queue depth and the age of the longest-waiting
        # session — here with no worker at all, so everything queues.
        _daemon, _server, client = fleet(workers=0)
        config = RepairConfig.for_scenario("Q1", max_candidates=4)
        for tenant in ("alice", "alice", "bob"):
            client.submit(config, tenant=tenant)
        health = client.health()
        assert {key: health[key] for key in (
            "state", "workers_connected", "workers_booting",
            "respawns_pending", "restarts_used", "sessions_total",
            "sessions_queued", "sessions_running")} == {
                "state": "serving", "workers_connected": 0,
                "workers_booting": 0, "respawns_pending": 0,
                "restarts_used": 0, "sessions_total": 3,
                "sessions_queued": 3, "sessions_running": 0}
        assert {t: row["queued"] for t, row in health["tenants"].items()} \
            == {"alice": 2, "bob": 1}
        ages = {t: row["oldest_queued_age_s"]
                for t, row in health["tenants"].items()}
        assert ages["alice"] >= ages["bob"] >= 0.0     # alice queued first

    def test_metrics_exposes_service_counters(self, fleet):
        _daemon, _server, client = fleet(workers=1)
        ack = client.submit(RepairConfig.for_scenario("Q1",
                                                      max_candidates=4),
                            tenant="alice")
        client.wait(ack["id"], timeout=120)
        text = client.metrics_text()
        assert 'service_sessions_submitted{tenant="alice"} 1' in text
        assert 'service_sessions_finished{state="done",tenant="alice"} 1' \
            in text or \
            'service_sessions_finished{tenant="alice",state="done"} 1' in text
        assert "service_workers_connected" in text

    def test_a_hostile_tenant_cannot_inject_metric_lines(self, fleet):
        # The tenant comes from the request body and is a label value on
        # /metrics: one that is no plain name is refused at the door, and
        # no sample line is written for it.
        _daemon, _server, client = fleet(workers=0)
        with pytest.raises(ClientError) as excinfo:
            client.submit(RepairConfig.for_scenario("Q1", max_candidates=4),
                          tenant='a"}\nservice_fake 1\n')
        assert excinfo.value.status == 400
        lines = client.metrics_text().splitlines()
        assert not any(line.startswith(("service_sessions_submitted{",
                                        "service_fake")) for line in lines)

    @pytest.mark.parametrize("envelope, path, headers", [
        ({"tenant": ["a"]}, "/sessions", None),
        ({"tenant": 7}, "/sessions", None),
        ({"tenant": ""}, "/sessions", None),
        ({"tenant": "t" * 65}, "/sessions", None),
        ({}, "/sessions", {"X-Repro-Tenant": "hdr"}),
        ({}, "/sessions?tenant=qry", None),
        (None, "/sessions", None)],
        ids=["list", "int", "empty", "65 characters", "header only",
             "query only", "bare body"])
    def test_a_tenant_outside_the_envelope_or_its_alphabet_is_400(
            self, fleet, envelope, path, headers):
        daemon, _server, client = fleet(workers=0)
        config = RepairConfig.for_scenario("Q1", max_candidates=4).to_wire()
        payload = config if envelope is None else {"config": config,
                                                   **envelope}
        with pytest.raises(ClientError) as excinfo:
            client._json("POST", path, payload=payload, headers=headers)
        assert excinfo.value.status == 400
        assert daemon.status()["sessions_total"] == 0

    def test_the_ack_echoes_the_recorded_tenant(self, fleet):
        daemon, _server, client = fleet(workers=0)
        config = RepairConfig.for_scenario("Q1", max_candidates=4)
        for tenant, recorded in (("team-a_1.x", "team-a_1.x"),
                                 ("t" * 64, "t" * 64), (None, "default")):
            ack = client.submit(config, tenant=tenant)
            assert ack["tenant"] == daemon.get(ack["id"]).tenant == recorded

    def test_unknown_session_is_404(self, fleet):
        _daemon, _server, client = fleet(workers=0)
        with pytest.raises(ClientError) as excinfo:
            client.session("s-9999")
        assert excinfo.value.status == 404
        with pytest.raises(ClientError) as excinfo:
            client.events("s-9999")
        assert excinfo.value.status == 404

    def test_unknown_session_long_poll_is_404_without_waiting(self, fleet):
        _daemon, _server, client = fleet(workers=0)
        started = time.monotonic()
        with pytest.raises(ClientError) as excinfo:
            client._request("GET", "/sessions/s-9999?wait=20")
        assert excinfo.value.status == 404
        assert time.monotonic() - started < 10

    @pytest.mark.parametrize("value", [
        "", "soon", "-1", "-1e-9", "nan", "inf", "-inf", "1e999"])
    def test_bad_wait_is_400_naming_the_parameter(self, fleet, value):
        daemon, _server, client = fleet(workers=0)
        session_id = daemon.submit(RepairConfig.for_scenario("Q1"))
        with pytest.raises(ClientError) as excinfo:
            client._request("GET", f"/sessions/{session_id}?wait={value}")
        assert excinfo.value.status == 400
        assert "?wait=" in str(excinfo.value)

    def test_long_poll_answers_non_terminal_and_is_capped(self, fleet,
                                                          monkeypatch):
        # No worker: the session stays queued.  A long poll holds the
        # request for what it asked, then answers with the wire as it
        # stands; what it may ask is capped by MAX_WAIT_SECONDS.
        daemon, _server, client = fleet(workers=0)
        session_id = daemon.submit(RepairConfig.for_scenario("Q1"))
        started = time.monotonic()
        wire = client._json("GET", f"/sessions/{session_id}?wait=0.3")
        assert time.monotonic() - started >= 0.3
        assert (wire["id"], wire["state"]) == (session_id, "queued")
        monkeypatch.setattr(service_http, "MAX_WAIT_SECONDS", 0.05)
        started = time.monotonic()
        wire = client._json("GET", f"/sessions/{session_id}?wait=1000")
        assert time.monotonic() - started < 10
        assert wire["state"] == "queued"

    def test_unknown_route_is_404(self, fleet):
        _daemon, _server, client = fleet(workers=0)
        with pytest.raises(ClientError) as excinfo:
            client._request("GET", "/frobnicate")
        assert excinfo.value.status == 404

    def test_bad_submissions_are_400(self, fleet):
        _daemon, _server, client = fleet(workers=0)
        with pytest.raises(ClientError) as excinfo:
            client._request("POST", "/sessions", payload=None,
                            headers={"Content-Length": "0"})
        assert excinfo.value.status == 400
        with pytest.raises(ClientError) as excinfo:
            client.submit({"scenario": {"name": "Q1"}, "bogus_knob": 1})
        assert excinfo.value.status == 400
        assert "bogus_knob" in str(excinfo.value)
        # A mistyped knob is refused at the door, not retried to quarantine
        # by a worker that trips over ``"2" > 1``.
        with pytest.raises(ClientError) as excinfo:
            client.submit({"scenario": {"name": "Q1"}, "workers": "2"})
        assert excinfo.value.status == 400
        assert "'workers' must be an integer" in str(excinfo.value)
        # So is a count out of range: ``trace_limit=-5`` would judge Q1 on
        # a silently truncated trace.
        with pytest.raises(ClientError) as excinfo:
            client.submit({"scenario": {"name": "Q1"}, "trace_limit": -5})
        assert excinfo.value.status == 400
        assert "bad repair config: config trace_limit must be >= 1" in \
            str(excinfo.value)
        # And a scenario spec its builder cannot take: a worker would raise
        # building it, on every attempt, until quarantine.
        with pytest.raises(ClientError) as excinfo:
            client.submit({"scenario": {"name": "Q1",
                                        "params": {"bogus": 1}}})
        assert excinfo.value.status == 400
        assert "bad repair config: scenario Q1 has no parameter 'bogus'" in \
            str(excinfo.value)
        # Or a size outside its builder's range: ten million clients would
        # be built by a worker, and 150 give two hosts one id.
        with pytest.raises(ClientError) as excinfo:
            client.submit({"scenario": {"name": "Q1",
                                        "params": {"s1_clients": 150}}})
        assert excinfo.value.status == 400
        assert ("bad repair config: scenario Q1 parameter 's1_clients' must "
                "be within [2, 100], not 150") in str(excinfo.value)
        # And a transport no fleet has: a worker would size none.
        with pytest.raises(ClientError) as excinfo:
            client.submit({"scenario": {"name": "Q1"}, "transport": "bogus"})
        assert excinfo.value.status == 400
        assert ("bad repair config: config transport must be one of "
                "['inprocess', 'spawn', 'socket'] or null, not 'bogus'") in \
            str(excinfo.value)
        with pytest.raises(ClientError) as excinfo:
            client._json("POST", "/sessions",
                         payload={"config": {}, "tenant": "x", "oops": 1})
        assert excinfo.value.status == 400
        assert "envelope" in str(excinfo.value)

    @pytest.mark.parametrize("config, problem", [
        ({"fault_tolerance": {"max_attempts": 1000000000,
                              "job_deadline": -1.0}},
         "unknown config keys: ['fault_tolerance']"),
        ({"transport_options": {"fault_policy": {"job_deadline": -1.0}}},
         "unknown config transport_options keys: ['fault_policy']"),
        ({"transport_options": {"fault_plan": {"actions": [
            {"kind": "explode"}]}}},
         "config transport_options 'fault_plan': unknown fault kind")],
        ids=["fault_tolerance", "fault_policy", "fault_plan"])
    def test_a_tenant_cannot_set_the_fleets_fault_rule(self, fleet, config,
                                                       problem):
        # The retry and deadline rule is the fleet's, shared by every
        # tenant: a config that tries to set it is refused at the door and
        # queues nothing (one such POST once kept the fleet killing and
        # respawning a session's worker at every supervision tick).
        daemon, _server, client = fleet(workers=0)
        with pytest.raises(ClientError) as excinfo:
            client.submit({"scenario": {"name": "Q1"}, **config})
        assert excinfo.value.status == 400
        assert f"bad repair config: {problem}" in str(excinfo.value)
        assert daemon.sessions() == []
        assert daemon.status()["sessions_total"] == 0

    @pytest.mark.parametrize("length, status", [
        ("nope", 400), ("-5", 400), ("1.5", 400),
        (str(MAX_BODY_BYTES + 1), 413), (str(1 << 40), 413)])
    def test_bad_content_length_is_refused_unread(self, fleet, length,
                                                  status):
        # The declared length is judged before a byte of body is read: a
        # 1 TiB claim costs the server nothing, and nothing is queued.
        daemon, server, _client = fleet(workers=0)
        connection = http.client.HTTPConnection(*server.server_address[:2],
                                                timeout=30)
        try:
            connection.putrequest("POST", "/sessions")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == status
            assert "error" in json.loads(response.read())
        finally:
            connection.close()
        assert daemon.sessions() == []

    def test_body_at_the_limit_is_still_parsed(self, fleet):
        _daemon, server, _client = fleet(workers=0)
        body = b" " * (MAX_BODY_BYTES - 2) + b"[]"
        connection = http.client.HTTPConnection(*server.server_address[:2],
                                                timeout=30)
        try:
            connection.request("POST", "/sessions", body=body)
            response = connection.getresponse()
            assert response.status == 400          # read, parsed, not a dict
            assert "JSON object" in json.loads(response.read())["error"]
        finally:
            connection.close()


class TestLongPoll:
    def test_a_session_that_ends_within_one_long_poll_costs_one_get(
            self, fleet):
        # ServiceClient.wait never calls session(), so a subclass that
        # overrides it with one parameter (the ledger's) still waits.
        _daemon, server, _client = fleet(workers=1)
        client = CountingClient(server.url)
        ack = client.submit(RepairConfig.for_scenario("Q1",
                                                      max_candidates=4))
        client.requests = 0
        wire = client.wait(ack["id"], timeout=120)
        assert wire["state"] == "done", wire.get("error")
        assert client.requests == 1
        assert client.sessions_asked == 0

    def test_a_session_longer_than_the_cap_completes_through_reasks(
            self, fleet, monkeypatch):
        monkeypatch.setattr(service_http, "MAX_WAIT_SECONDS", 0.05)
        plan = FaultPlan(actions=(FaultAction(
            kind="delay_result", worker=0, after_items=0, seconds=0.5),))
        config = RepairConfig.for_scenario("Q1", max_candidates=4)
        _daemon, server, _client = fleet(workers=1, fault_plan=plan)
        client = CountingClient(server.url)
        ack = client.submit(config)
        client.requests = 0
        wire = client.wait(ack["id"], timeout=120, poll=0.01)
        assert wire["state"] == "done", wire.get("error")
        assert report_minus_timings(wire["report"]) == \
            reference_report(config)
        assert client.requests > 1

    def test_an_event_wakes_a_blocked_follower(self, fleet):
        daemon, _server, _client = fleet(workers=0)
        session_id = daemon.submit(RepairConfig.for_scenario("Q1"))
        job = daemon.assign(SimpleNamespace(worker_id=0))
        generation, events, ended = daemon.events_since(session_id)
        assert (events, ended) == ([], False)
        started = {"kind": "session_started"}
        timer = threading.Timer(0.2, daemon.event, (job, started))
        timer.start()
        since = time.monotonic()
        answer = daemon.events_since(session_id, 0, generation, timeout=30)
        timer.join(timeout=10)
        assert answer == (generation, [started], False)
        assert time.monotonic() - since < 10

    def test_followers_and_long_polls_under_requeue_churn(self, fleet):
        # The policy hooks driven by hand (no worker): five attempts of
        # one session, the first four requeued part-way, while six
        # followers and three long polls hang on the daemon's condition
        # with a 10 µs switch interval.  Each requeue lands together with
        # the rerun's first events, past where the abandoned attempt
        # stopped, so a follower wakes to a rerun already ahead of its
        # offset.  No follower may splice two attempts — each piece of its
        # stream, cut at session_started, is a prefix of one attempt, in
        # attempt order, and the last is the whole final attempt — and
        # every long poll gets the done wire.
        ticks = 60
        stops = [10, 20, 30, 40, ticks + 2]    # events out per attempt
        daemon, _server, client = fleet(workers=0)
        session_id = daemon.submit(RepairConfig.for_scenario("Q1"))
        record = daemon.get(session_id)
        expected = [[{"kind": "session_started", "attempt": a}]
                    + [{"kind": "tick", "attempt": a, "i": i}
                       for i in range(ticks)]
                    + [{"kind": "session_finished", "attempt": a}]
                    for a in range(len(stops))]
        streams, wires = [], []
        readers = (
            [threading.Thread(target=lambda: streams.append(
                client.events(session_id, follow=True))) for _ in range(6)]
            + [threading.Thread(target=lambda: wires.append(
                client.wait(session_id, timeout=60, poll=0.0)))
               for _ in range(3)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            job = daemon.assign(SimpleNamespace(worker_id=0))
            shown = 0
            for attempt, stop in enumerate(stops):
                if attempt:
                    shown = stops[attempt - 1] + 5
                    with daemon._lock:
                        daemon._requeue_locked(record)
                        job = daemon.assign(
                            SimpleNamespace(worker_id=attempt))
                        for wire in expected[attempt][:shown]:
                            daemon.event(job, wire)
                for wire in expected[attempt][shown:stop]:
                    daemon.event(job, wire)
                    time.sleep(0)
            daemon.result(job, None, {"report": {"ok": True}})
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert client.events(session_id) == expected[-1]
        assert [wire["state"] for wire in wires] == ["done"] * 3
        assert len(streams) == 6
        for stream in streams:
            starts = [i for i, wire in enumerate(stream)
                      if wire["kind"] == "session_started"]
            assert starts[0] == 0
            pieces = [stream[a:b] for a, b in zip(starts,
                                                  starts[1:] + [None])]
            seen = [piece[0]["attempt"] for piece in pieces]
            assert seen == sorted(set(seen))
            for piece in pieces:
                assert piece == expected[piece[0]["attempt"]][:len(piece)]
            assert pieces[-1] == expected[-1]


class TestChaos:
    def test_killed_worker_session_retries_bit_identical(self, fleet):
        # Worker 0 dies the moment it starts the job; the daemon requeues
        # the session, respawns the worker (fresh worker id, so the
        # positional fault does not re-fire), and the retry's report is
        # byte-for-byte the fault-free one.
        config = RepairConfig.for_scenario("Q1", max_candidates=4)
        reference = reference_report(config)
        plan = FaultPlan(actions=(
            FaultAction(kind="kill", worker=0, after_items=0),))
        daemon, _server, client = fleet(workers=1, fault_plan=plan)
        ack = client.submit(config, tenant="chaos")
        wire = client.wait(ack["id"], timeout=120)
        assert wire["state"] == "done", wire.get("error")
        assert wire["attempts"] == 1
        assert report_minus_timings(wire["report"]) == reference
        assert daemon.fault_stats.total_retries >= 1
        # The retry discarded the partial stream: one clean run remains.
        kinds = [event["kind"] for event in client.events(ack["id"])]
        assert kinds.count("session_started") == 1
        assert kinds[-1] == "session_finished"

    def test_hung_worker_hits_deadline_and_retries(self, fleet,
                                                   monkeypatch):
        # A session deadline severs a hung worker; the respawned one
        # reruns the session to the fault-free verdict.
        monkeypatch.setattr(service_daemon, "SESSION_DEADLINE_SECONDS", 2.0)
        config = RepairConfig.for_scenario("Q1", max_candidates=4)
        reference = reference_report(config)
        plan = FaultPlan(actions=(
            FaultAction(kind="hang", worker=0, after_items=0, seconds=60),))
        daemon, _server, client = fleet(workers=1, fault_plan=plan)
        ack = client.submit(config)
        wire = client.wait(ack["id"], timeout=120)
        assert wire["state"] == "done", wire.get("error")
        assert wire["attempts"] == 1
        assert report_minus_timings(wire["report"]) == reference

    def test_follow_stream_of_a_retried_session_restarts_at_the_rerun(
            self, fleet, monkeypatch):
        # The first attempt runs to its end but its result is swallowed;
        # the deadline requeues the session, which discards the stored
        # stream.  A follower that read the whole first attempt must not
        # carry its offset into the rerun: it sees the rerun from its own
        # session_started, and that tail is the stored (clean) stream.
        monkeypatch.setattr(service_daemon, "SESSION_DEADLINE_SECONDS", 2.0)
        config = RepairConfig.for_scenario("Q1", max_candidates=4)
        plan = FaultPlan(actions=(
            FaultAction(kind="drop_result", worker=0, after_items=0),))
        _daemon, _server, client = fleet(workers=1, fault_plan=plan)
        ack = client.submit(config, tenant="chaos")
        followed = client.events(ack["id"], follow=True)
        wire = client.wait(ack["id"], timeout=120)
        assert wire["state"] == "done", wire.get("error")
        assert wire["attempts"] == 1
        kinds = [event["kind"] for event in followed]
        assert kinds[0] == "session_started"
        assert kinds.count("session_started") == 2
        rerun = kinds.index("session_started", 1)
        assert kinds[rerun - 1] == "session_finished"   # attempt 1, whole
        assert followed[rerun:] == client.events(ack["id"])

    def test_poisoned_session_quarantines(self, fleet):
        # A session that fails on every attempt is quarantined with the
        # fabric's error shape, and the service stays up for the next one.
        config = RepairConfig.for_scenario("Q1", max_candidates=4)
        plan = FaultPlan(actions=(
            FaultAction(kind="poison", index=0),))
        daemon, _server, client = fleet(workers=1, fault_plan=plan)
        ack = client.submit(config, tenant="chaos")
        wire = client.wait(ack["id"], timeout=120)
        assert wire["state"] == "failed"
        assert wire["error"] == "quarantined(worker-exception) after 3 attempts"
        assert daemon.fault_stats.quarantined == 1
        health = client.health()
        assert health["state"] == "serving"

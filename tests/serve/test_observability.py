"""The incident loop end to end: traceparent, exemplars, flight dumps.

Covers the serving-side observability wiring as one story: a client
mints a W3C trace id, the server adopts it, the tail sampler decides
whether the trace is evidence, the flight recorder holds it, the
latency windows carry it back out as a metric exemplar, and the
access log stamps the same id on the audit trail.  Auto-dump triggers
(breaker-open, watchdog-hard) are exercised against real component
wiring, not mocks of our own code.
"""

import json
import types
import urllib.error
import urllib.request

import pytest

from repro.obs.export import parse_prometheus_text, prometheus_sample_exemplar
from repro.obs.tracecontext import new_trace_id, parse_traceparent
from repro.resilience.retry import RetryPolicy
from repro.serve import (
    LoadgenConfig,
    ReproServer,
    ServeClient,
    ServeConfig,
    run_loadgen,
)


def http_get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


@pytest.fixture(scope="module")
def server(movie_nalix, tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-serve")
    config = ServeConfig(
        port=0, max_inflight=8,
        audit_path=str(root / "access.jsonl"),
        head_sample_rate=1.0,  # retain everything: exemplars always ride
        dump_dir=str(root / "dumps"),
        min_dump_interval=0.0,
    )
    with ReproServer(nalix=movie_nalix, config=config) as instance:
        yield instance


class TestTraceparentPropagation:
    def test_client_reuses_one_traceparent_across_retries(self):
        calls = []

        def transport(url, body, headers, timeout):
            calls.append(dict(headers))
            if len(calls) < 3:
                return 500, {}, json.dumps({"retryable": True}).encode()
            return 200, {}, b"{}"

        client = ServeClient(
            "http://test", transport=transport,
            retry_policy=RetryPolicy(max_attempts=3, jitter=False,
                                     base_backoff=0.0),
            sleep=lambda _s: None,
        )
        outcome = client.query("find all titles")
        assert outcome.ok and outcome.attempts == 3
        headers = {call["traceparent"] for call in calls}
        assert len(headers) == 1  # one trace id per *logical* request
        parsed = parse_traceparent(headers.pop())
        assert parsed is not None
        assert parsed[0] == outcome.trace_id

    def test_distinct_requests_get_distinct_trace_ids(self):
        def transport(url, body, headers, timeout):
            return 200, {}, b"{}"

        client = ServeClient("http://test", transport=transport)
        first = client.query("q one")
        second = client.query("q two")
        assert first.trace_id != second.trace_id

    def test_server_adopts_the_client_trace_id(self, server):
        client = ServeClient(server.url)
        outcome = client.query("find all titles")
        assert outcome.ok
        assert outcome.body["trace_id"] == outcome.trace_id
        assert outcome.headers["X-Repro-Trace-Id"] == outcome.trace_id

    def test_server_mints_when_header_is_absent_or_invalid(self, server):
        status, headers, body = http_get(
            server.url + "/query?q=find+all+titles"
        )
        assert status == 200
        minted = json.loads(body)["trace_id"]
        assert len(minted) == 32 and int(minted, 16) >= 0

        status, _, body = http_get(
            server.url + "/query?q=find+all+titles",
            headers={"traceparent": "garbage-header"},
        )
        assert status == 200
        assert len(json.loads(body)["trace_id"]) == 32

    def test_audit_log_carries_the_trace_id(self, server):
        client = ServeClient(server.url)
        outcome = client.query("find all titles")
        rows = [
            json.loads(line)
            for line in open(server.config.audit_path)
            if line.strip()
        ]
        matching = [
            row for row in rows
            if row.get("trace_id") == outcome.trace_id
        ]
        assert len(matching) == 1
        assert matching[0]["endpoint"] == "/query"


class TestExemplarRoundTrip:
    def test_metrics_exemplar_resolves_to_a_recorded_trace(self, server):
        client = ServeClient(server.url)
        for _ in range(3):
            assert client.query("find all titles").ok
        _, _, body = http_get(server.url + "/metrics")
        metrics = parse_prometheus_text(body.decode("utf-8"))
        found = prometheus_sample_exemplar(
            metrics, "repro_window_endpoint:_query_seconds"
        )
        assert found is not None
        exemplar_labels, value = found
        trace_id = exemplar_labels["trace_id"]
        assert value >= 0.0
        # The exemplar is only exported when the recorder kept the
        # trace, so it must resolve.
        record = server.recorder.get(trace_id)
        assert record is not None
        assert record.endpoint == "/query"

    def test_slo_gauges_are_exposed(self, server):
        ServeClient(server.url).query("find all titles")
        _, _, body = http_get(server.url + "/metrics")
        text = body.decode("utf-8")
        assert "repro_slo_burn_rate" in text
        assert "repro_slo_error_budget_remaining" in text
        assert "repro_slo_fast_burn_alert" in text

    def test_statusz_surfaces_the_incident_loop(self, server):
        ServeClient(server.url).query("find all titles")
        _, _, body = http_get(server.url + "/statusz")
        document = json.loads(body)
        assert document["recorder"]["count"] >= 1
        assert document["sampler"]["seen"]["healthy"] >= 1
        names = {entry["name"] for entry in document["slo"]}
        assert names == {"availability-query", "latency-query"}
        assert document["inflight_requests"] == []


class TestFlightRecorderEndpoint:
    def test_bundle_holds_retained_records(self, server):
        client = ServeClient(server.url)
        outcome = client.query("find all titles")
        _, _, body = http_get(server.url + "/debugz/flightrecorder")
        bundle = json.loads(body)
        assert bundle["snapshot"]["count"] >= 1
        ids = {record["trace_id"] for record in bundle["records"]}
        assert outcome.trace_id in ids

    def test_chrome_format(self, server):
        ServeClient(server.url).query("find all titles")
        _, _, body = http_get(
            server.url + "/debugz/flightrecorder?format=chrome"
        )
        document = json.loads(body)
        assert document["traceEvents"]

    def test_jsonl_format(self, server):
        ServeClient(server.url).query("find all titles")
        _, headers, body = http_get(
            server.url + "/debugz/flightrecorder?format=jsonl"
        )
        assert "ndjson" in headers["Content-Type"]
        for line in body.decode("utf-8").strip().splitlines():
            assert "trace_id" in json.loads(line)

    def test_dump_param_writes_a_bundle(self, server):
        ServeClient(server.url).query("find all titles")
        status, _, body = http_get(
            server.url + "/debugz/flightrecorder?dump=1"
        )
        assert status == 200
        document = json.loads(body)
        assert document["dumped"] is True
        assert "debugz" in document["prefix"]

    def test_404_when_recorder_disabled(self, movie_nalix):
        config = ServeConfig(port=0, recorder=False)
        with ReproServer(nalix=movie_nalix, config=config) as instance:
            status, _, body = http_get(
                instance.url + "/debugz/flightrecorder"
            )
        assert status == 404
        assert json.loads(body)["error"] == "recorder-disabled"


class TestAutoDump:
    def _quiet_server(self, movie_nalix, tmp_path, **overrides):
        config = ServeConfig(
            port=0, dump_dir=str(tmp_path), min_dump_interval=0.0,
            **overrides,
        )
        return ReproServer(nalix=movie_nalix, config=config)

    def test_breaker_open_dumps_the_recorder(self, movie_nalix, tmp_path):
        server = self._quiet_server(
            movie_nalix, tmp_path,
            breaker_min_samples=2, breaker_threshold=0.5,
        )
        server.recorder.record("a" * 32, reason="error")
        for _ in range(4):
            server.breakers.record("internal")
        dumps = list(tmp_path.glob("flightrecorder-*-breaker-open-*"))
        assert dumps, "breaker open should trigger an auto-dump"

    def test_watchdog_hard_expiry_dumps_the_recorder(
            self, movie_nalix, tmp_path):
        server = self._quiet_server(movie_nalix, tmp_path)
        entry = types.SimpleNamespace(request_id="r00000042")
        server._watchdog_event("expired", entry)
        dumps = list(tmp_path.glob("flightrecorder-*watchdog-hard*"))
        assert dumps
        # A soft "stuck" event is not incident-grade: no dump.
        before = len(list(tmp_path.glob("flightrecorder-*")))
        server._watchdog_event("stuck", entry)
        assert len(list(tmp_path.glob("flightrecorder-*"))) == before

    def test_dump_event_lands_in_the_audit_log(
            self, movie_nalix, tmp_path):
        server = self._quiet_server(
            movie_nalix, tmp_path / "dumps",
            audit_path=str(tmp_path / "audit.jsonl"),
        )
        (tmp_path / "dumps").mkdir(exist_ok=True)
        assert server.trigger_dump("chaos-drill") is not None
        rows = [json.loads(line) for line in open(tmp_path / "audit.jsonl")]
        events = [row for row in rows
                  if row.get("event") == "flightrecorder-dump"]
        assert events and events[0]["reason"] == "chaos-drill"


class FakeResult:
    def __init__(self, status="ok", error_class=None,
                 sentence="find all titles"):
        self.status = status
        self.error_class = error_class
        self.sentence = sentence
        self.trace = None


class TestRecordOutcome:
    @pytest.fixture()
    def quiet(self, movie_nalix):
        config = ServeConfig(port=0, head_sample_rate=0.0)
        return ReproServer(nalix=movie_nalix, config=config)

    def test_failures_are_always_retained(self, quiet):
        retained = quiet.record_outcome(
            "/query", "t1",
            FakeResult(status="failed", error_class="internal"),
            seconds=0.1, http_status=500, trace_id="a" * 32,
        )
        assert retained is True
        assert quiet.recorder.get("a" * 32).reason == "error"

    def test_healthy_head_rate_zero_is_dropped(self, quiet):
        retained = quiet.record_outcome(
            "/query", "t1", FakeResult(), seconds=0.01,
            http_status=200, trace_id="b" * 32,
        )
        assert retained is False
        assert quiet.recorder.get("b" * 32) is None
        # The latency window still observed — just without an exemplar.
        assert quiet.window.quantiles("endpoint:/query")["count"] == 1

    def test_slo_engine_sees_every_request(self, quiet):
        quiet.record_outcome("/query", "t1", FakeResult(), seconds=0.01,
                             http_status=200, trace_id=new_trace_id())
        quiet.record_outcome(
            "/query", "t1",
            FakeResult(status="failed", error_class="internal"),
            seconds=0.01, http_status=500, trace_id=new_trace_id(),
        )
        entry = quiet.slo.snapshot()[0]
        window = entry["windows"]["fast"]
        assert window["good"] == 1
        assert window["bad"] == 1


@pytest.mark.chaos
class TestEvidenceUnderChaos:
    """Injected faults under concurrent retrying load: the evidence
    loop keeps every error-class trace, within its byte budget."""

    def test_errors_retained_within_the_byte_budget(self, movie_database):
        config = ServeConfig(
            port=0, max_inflight=8,
            # Exceptions take the degradation ladder; the 0.3s stalls
            # go stuck and recover; the 1.2s stalls are force-expired
            # (a classified 504 the client retries).
            fault_plan=["evaluate:p=0.1,seed=11",
                        "evaluate:p=0.1,delay=0.3,seed=12",
                        "evaluate:p=0.05,delay=1.2,seed=13"],
            watchdog_soft=0.2, watchdog_hard=0.9, watchdog_interval=0.02,
            # Small enough that the ring must evict during the run.
            recorder_max_bytes=16 * 1024,
        )
        # A pipeline of its own: the server arms the fault plan on it.
        with ReproServer(database=movie_database, config=config) as server:
            report = run_loadgen(LoadgenConfig(
                server.url, concurrency=8, requests=60, retries=2,
                task_mix=["find all titles",
                          "Return the title of every movie directed "
                          "by Ron Howard."],
            ))
            sampler = server.sampler.snapshot()
            recorder = server.recorder.snapshot()
            watchdog = server.watchdog.snapshot()

        assert report.availability >= 0.99
        assert report.unclassified_5xx == 0
        assert report.transport_errors == 0
        assert watchdog["stuck_total"] > 0
        assert watchdog["recovered_total"] + watchdog["expired_total"] > 0
        # Every error-class trace is evidence; none may be dropped.
        assert sampler["seen"]["error"] > 0
        assert sampler["retention"]["error"] == 1.0
        if sampler["seen"]["slow"]:
            assert sampler["retention"]["slow"] >= 0.95
        # Healthy traffic stays head-sampled: the rate plus warm-up
        # slack, never more.
        assert sampler["seen"]["healthy"] > 0
        assert (sampler["retention"]["healthy"]
                <= sampler["head_rate"] + 0.05)
        assert recorder["retained_total"] > 0
        assert recorder["bytes"] <= recorder["max_bytes"]

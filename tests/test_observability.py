"""The metrics registry, /metrics exposition, /health additions,
request-ID propagation, query EXPLAIN, and structured logging."""

import io
import json
import logging
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.exceptions import ProtocolError
from repro.obs.logs import (
    JsonFormatter,
    KeyValueFormatter,
    configure_logging,
    get_logger,
    log_event,
)
from repro.obs.metrics import (
    MetricsRegistry,
    histogram_quantile,
    parse_exposition,
)
from repro.server.client import OnexClient
from repro.server.http import OnexHttpServer
from repro.server.protocol import Request, Response
from repro.server.service import OnexService

LOAD_PARAMS = {
    "source": "matters",
    "similarity_threshold": 0.08,
    "min_length": 4,
    "max_length": 6,
    "years": 12,
    "min_years": 8,
}


class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "jobs")
        c.inc(op="a")
        c.inc(2.0, op="a")
        c.inc(op="b")
        assert c.value(op="a") == 3.0
        assert c.value(op="b") == 1.0
        assert c.total() == 4.0

    def test_get_or_create_is_idempotent_but_kind_safe(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "x")
        assert reg.counter("x_total", "x") is c
        with pytest.raises(ValueError):
            reg.gauge("x_total", "x")

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "d")
        g.set(5.0)
        g.dec(2.0)
        g.inc()
        assert g.value() == 4.0

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_ms", "l", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        snap = h.snapshot()
        counts = dict(snap["buckets"])
        assert counts[1.0] == 1
        assert counts[10.0] == 2
        assert counts[100.0] == 3
        assert counts[float("inf")] == 4
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(555.5)

    def test_render_parse_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", "ops").inc(3.0, op="k_best")
        reg.gauge("temp", "t").set(1.5, zone="a b")
        reg.histogram("ms", "m", buckets=(1.0,)).observe(0.5)
        parsed = parse_exposition(reg.render())
        assert parsed["ops_total"][(("op", "k_best"),)] == 3.0
        assert parsed["temp"][(("zone", "a b"),)] == 1.5
        assert parsed["ms_count"][()] == 1.0
        assert parsed["ms_sum"][()] == 0.5
        assert (("le", "1.0"),) in parsed["ms_bucket"] or (
            ("le", "1"),
        ) in parsed["ms_bucket"]

    def test_quantile_interpolates_and_clamps(self):
        buckets = [(1.0, 10.0), (10.0, 20.0), (float("inf"), 20.0)]
        assert histogram_quantile(buckets, 0.25) == pytest.approx(0.5)
        assert histogram_quantile(buckets, 1.0) == 10.0  # +Inf clamps
        assert histogram_quantile([], 0.5) != histogram_quantile([], 0.5)  # NaN


@pytest.fixture(scope="module")
def server():
    service = OnexService()
    with OnexHttpServer(service) as srv:
        client = OnexClient(srv.url)
        client.call("load_dataset", LOAD_PARAMS)
        yield srv


class TestMetricsEndpoint:
    def test_scrape_is_parseable_prometheus_text(self, server):
        client = OnexClient(server.url)
        text = client.scrape_metrics()
        parsed = parse_exposition(text)
        # Every subsystem the PR instruments shows up in one scrape.
        assert "onex_queries_total" in parsed or "onex_server_requests_total" in parsed
        assert "onex_builds_total" in parsed
        assert "onex_server_uptime_seconds" in parsed
        assert parsed["onex_server_info"][(("version", repro.__version__),)] == 1.0
        assert "# HELP" in text and "# TYPE" in text

    def test_counters_are_monotone_across_requests(self, server):
        client = OnexClient(server.url)
        before = parse_exposition(client.scrape_metrics())

        def one_request(_):
            OnexClient(server.url).call(
                "k_best",
                {"dataset": "MATTERS-sim", "query": [0.2, 0.5, 0.3, 0.6], "k": 2},
            )

        with ThreadPoolExecutor(max_workers=4) as clients:
            completed = len(list(clients.map(one_request, range(12))))
        after = parse_exposition(client.scrape_metrics())
        for name, series in before.items():
            if name.endswith(("_total", "_count", "_sum", "_bucket")):
                for key, value in series.items():
                    assert after[name][key] >= value, (name, key)
        # The request counter accounts for the concurrent burst exactly:
        # summed over every (op, code) label it grew by the completions
        # the clients saw, no more (a scrape is not an API request).
        served = sum(after["onex_server_requests_total"].values()) - sum(
            before.get("onex_server_requests_total", {}).values()
        )
        assert served == completed
        assert after["onex_queries_total"]  # the query layer's family too

    def test_assignment_selectivity_counters_move_on_append(self, server):
        client = OnexClient(server.url)

        def scrape():
            parsed = parse_exposition(client.scrape_metrics())
            return [
                sum(parsed.get(f"onex_stream_assign_{kind}_total", {}).values())
                for kind in ("centroids", "evaluated")
            ]

        before = scrape()
        series = client.call("describe", {"dataset": "MATTERS-sim"})["series_names"][0]
        summary = client.call(
            "append_points",
            {"dataset": "MATTERS-sim", "series": series, "values": [0.4, 0.5]},
        )
        centroids, evaluated = (a - b for a, b in zip(scrape(), before))
        # Every new window had same-length representatives in scope and
        # the prescreen let at most all of those pairs through.
        assert centroids >= summary["windows"] > 0
        assert 0 <= evaluated <= centroids

    def test_health_reports_version_uptime_fingerprints(self, server):
        health = OnexClient(server.url).health()
        assert health["version"] == repro.__version__
        assert health["uptime_s"] > 0
        fp = health["fingerprints"]["MATTERS-sim"]
        assert isinstance(fp, str) and len(fp) >= 16


class TestRequestIds:
    def test_client_mints_and_server_echoes(self, server):
        client = OnexClient(server.url)
        client.call("list_datasets")
        assert client.last_request_id
        assert client.last_response_request_id == client.last_request_id

    def test_header_matches_envelope(self, server):
        import urllib.request

        body = Request("list_datasets", request_id="abc123").to_json().encode()
        req = urllib.request.Request(
            f"{server.url}/api",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.headers["X-Request-Id"] == "abc123"
            payload = json.loads(resp.read())
        assert payload["request_id"] == "abc123"

    def test_server_mints_when_absent(self, server):
        import urllib.request

        req = urllib.request.Request(
            f"{server.url}/api",
            data=b'{"op": "list_datasets"}',
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            header = resp.headers["X-Request-Id"]
            payload = json.loads(resp.read())
        assert header and payload["request_id"] == header

    def test_service_layer_mints_too(self):
        service = OnexService()
        resp = service.handle(Request("list_datasets"))
        assert resp.ok and resp.request_id

    def test_protocol_rejects_bad_request_id(self):
        with pytest.raises(ProtocolError):
            Request("list_datasets", request_id="")
        with pytest.raises(ProtocolError):
            Request.from_dict({"op": "list_datasets", "request_id": 7})

    def test_response_round_trips_request_id(self):
        resp = Response.success({"x": 1}).with_request_id("rid-1")
        again = Response.from_json(resp.to_json())
        assert again.request_id == "rid-1"


@pytest.fixture(scope="module")
def service():
    svc = OnexService()
    resp = svc.handle(Request("load_dataset", LOAD_PARAMS))
    assert resp.ok, resp.error_message
    return svc


class TestExplain:
    def test_explain_schema_and_identity(self, service):
        params = {
            "dataset": "MATTERS-sim",
            "query": [0.2, 0.5, 0.3, 0.6],
            "k": 3,
        }
        plain = service.handle(Request("k_best", params))
        explained = service.handle(Request("k_best", {**params, "explain": True}))
        assert plain.ok and explained.ok
        assert "explain" not in plain.result
        explain = explained.result["explain"]
        assert explain["request_id"] == explained.request_id
        assert explain["duration_ms"] > 0
        spans = explain["spans"]
        assert spans["name"] == "trace"
        assert spans["children"][0]["name"] == "op.k_best"
        assert isinstance(explain["stats"], dict)
        assert explain["stats"]["rep_dtw_calls"] >= 0
        result_only = {k: v for k, v in explained.result.items() if k != "explain"}
        assert result_only == plain.result

    def test_explain_on_analytics_has_no_stats_block(self, service):
        resp = service.handle(
            Request(
                "sensitivity",
                {
                    "dataset": "MATTERS-sim",
                    "query": [0.2, 0.5, 0.3, 0.6],
                    "thresholds": [0.05, 0.1],
                    "explain": True,
                },
            )
        )
        assert resp.ok, resp.error_message
        explain = resp.result["explain"]
        assert "stats" not in explain
        assert explain["spans"]["children"][0]["name"] == "op.sensitivity"

    def test_explain_on_append_shows_the_assignment_selectivity(self, service):
        series = service.handle(
            Request("describe", {"dataset": "MATTERS-sim"})
        ).result["series_names"][0]
        resp = service.handle(
            Request(
                "append_points",
                {
                    "dataset": "MATTERS-sim",
                    "series": series,
                    "values": [0.4, 0.5],
                    "explain": True,
                },
            )
        )
        assert resp.ok, resp.error_message
        explain = resp.result["explain"]
        assert "stats" not in explain
        op = explain["spans"]["children"][0]
        assert op["name"] == "op.append_points"
        (index,) = [c for c in op["children"] if c["name"] == "stream.index"]
        attrs = index["attrs"]
        assert attrs["points"] == 2
        assert attrs["windows"] == resp.result["windows"] > 0
        assert 0 <= attrs["evaluated"] <= attrs["centroids"]
        assert attrs["centroids"] >= attrs["windows"]

    def test_explain_rejected_where_unsupported(self, service):
        resp = service.handle(
            Request("describe", {"dataset": "MATTERS-sim", "explain": True})
        )
        assert not resp.ok
        assert resp.error_type == "ProtocolError"

    def test_explain_false_is_untraced(self, service):
        resp = service.handle(
            Request(
                "k_best",
                {
                    "dataset": "MATTERS-sim",
                    "query": [0.2, 0.5, 0.3, 0.6],
                    "k": 2,
                    "explain": False,
                },
            )
        )
        assert resp.ok and "explain" not in resp.result


class TestStructuredLogs:
    def _capture(self, json_mode):
        stream = io.StringIO()
        root = configure_logging("debug", json_mode=json_mode, stream=stream)
        return stream, root

    def _reset(self):
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            if not isinstance(handler, logging.NullHandler):
                root.removeHandler(handler)

    def test_json_lines_carry_event_and_fields(self):
        stream, _ = self._capture(json_mode=True)
        try:
            log_event(get_logger("test"), "warning", "unit.event", op="k_best", n=3)
            line = json.loads(stream.getvalue().strip())
            assert line["event"] == "unit.event"
            assert line["op"] == "k_best" and line["n"] == 3
            assert line["level"].lower() == "warning"
            assert line["logger"] == "repro.test"
        finally:
            self._reset()

    def test_keyvalue_format_is_greppable(self):
        stream, _ = self._capture(json_mode=False)
        try:
            log_event(get_logger("test"), "info", "unit.kv", a=1, b="x")
            out = stream.getvalue()
            assert "unit.kv" in out and "a=1" in out and "b=x" in out
        finally:
            self._reset()

    def test_server_lifecycle_events_are_logged(self):
        stream, _ = self._capture(json_mode=True)
        try:
            with OnexHttpServer(OnexService()):
                pass
            events = [
                json.loads(line)["event"]
                for line in stream.getvalue().splitlines()
            ]
            assert "server.started" in events
            assert "server.stopped" in events
            stopped = next(
                json.loads(line)
                for line in stream.getvalue().splitlines()
                if json.loads(line)["event"] == "server.stopped"
            )
            assert stopped["drained"] == 0 and stopped["aborted"] == 0
        finally:
            self._reset()

    def test_formatters_are_exception_safe(self):
        record = logging.LogRecord(
            "repro.t", logging.INFO, __file__, 1, "ev", None, None
        )
        record.onex_fields = {"weird": object()}
        assert "ev" in JsonFormatter().format(record)
        assert "ev" in KeyValueFormatter().format(record)

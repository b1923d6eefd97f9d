"""Integration tests for repro.server.service (the demo's backend)."""

import pytest

from repro.core.base import OnexBase
from repro.server.protocol import Request
from repro.server.service import OnexService


@pytest.fixture(scope="module")
def service():
    svc = OnexService()
    resp = svc.handle(
        Request(
            "load_dataset",
            {
                "source": "matters",
                "similarity_threshold": 0.08,
                "min_length": 4,
                "max_length": 6,
                "years": 12,
                "min_years": 8,
            },
        )
    )
    assert resp.ok, resp.error_message
    return svc


class TestLoading:
    def test_load_reports_compaction(self, service):
        resp = service.handle(Request("list_datasets"))
        assert resp.ok
        assert resp.result["datasets"] == ["MATTERS-sim"]

    def test_load_electricity(self):
        svc = OnexService()
        resp = svc.handle(
            Request(
                "load_dataset",
                {
                    "source": "electricity",
                    "households": 2,
                    "similarity_threshold": 0.06,
                    "min_length": 4,
                    "max_length": 5,
                },
            )
        )
        assert resp.ok
        assert resp.result["dataset"] == "ElectricityLoad-sim"
        assert resp.result["compaction_ratio"] > 1.0

    def test_load_ucr_file(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("1,0.5,0.6,0.7,0.8,0.9,1.0\n2,0.9,0.8,0.7,0.6,0.5,0.4\n")
        svc = OnexService()
        resp = svc.handle(
            Request(
                "load_dataset",
                {"source": f"ucr:{path}", "similarity_threshold": 0.1,
                 "min_length": 3, "max_length": 4},
            )
        )
        assert resp.ok, resp.error_message
        assert resp.result["series"] == 2

    def test_unknown_source(self):
        svc = OnexService()
        resp = svc.handle(Request("load_dataset", {"source": "nasdaq"}))
        assert not resp.ok
        assert resp.error_type == "ProtocolError"

    @pytest.mark.parametrize(
        "params, unknown",
        [
            ({"source": "matters", "years": 10, "similarity_treshold": 0.2},
             "similarity_treshold"),
            ({"source": "matters", "years": 10, "num_workers": 2}, "num_workers"),
            ({"source": "electricity", "years": 12}, "years"),
            ({"source": "ucr:missing.txt", "households": 2}, "households"),
        ],
    )
    def test_unknown_parameters_are_named(self, params, unknown):
        """A misspelt or retired option fails before anything is built,
        instead of silently building at defaults."""
        svc = OnexService()
        resp = svc.handle(Request("load_dataset", params))
        assert not resp.ok
        assert resp.error_type == "ValidationError"
        assert repr(unknown) in resp.error_message
        assert svc.handle(Request("list_datasets")).result["datasets"] == []

    def test_every_parameter_a_load_reads_is_accepted(self):
        svc = OnexService()
        resp = svc.handle(
            Request(
                "load_dataset",
                {
                    "source": "electricity", "seed": 3, "households": 1,
                    "similarity_threshold": 0.1, "min_length": 4,
                    "max_length": 5, "step": 2, "normalize": True,
                    "timeout_ms": 60000, "allow_partial": False,
                },
            )
        )
        assert resp.ok, resp.error_message

    def test_unload(self):
        svc = OnexService()
        svc.handle(
            Request(
                "load_dataset",
                {"source": "electricity", "households": 1,
                 "similarity_threshold": 0.1, "min_length": 4, "max_length": 4},
            )
        )
        resp = svc.handle(Request("unload_dataset", {"dataset": "ElectricityLoad-sim"}))
        assert resp.ok
        assert svc.handle(Request("list_datasets")).result["datasets"] == []


class TestExploration:
    def test_describe(self, service):
        resp = service.handle(Request("describe", {"dataset": "MATTERS-sim"}))
        assert resp.ok
        assert resp.result["series"] == 250
        assert resp.result["groups"] > 0
        assert "MA/GrowthRate" in resp.result["series_names"]

    def test_overview(self, service):
        resp = service.handle(
            Request("overview", {"dataset": "MATTERS-sim", "limit": 5})
        )
        assert resp.ok
        assert resp.result["view"] == "overview"
        assert 1 <= len(resp.result["groups"]) <= 5
        assert resp.result["groups"][0]["intensity"] == 1.0

    def test_query_preview(self, service):
        resp = service.handle(
            Request(
                "query_preview",
                {"dataset": "MATTERS-sim", "series": "MA/GrowthRate",
                 "start": 0, "length": 5},
            )
        )
        assert resp.ok
        assert resp.result["brush"] == {"start": 0, "length": 5}
        assert len(resp.result["selection"]) == 5

    def test_best_match_with_brushed_query(self, service):
        resp = service.handle(
            Request(
                "best_match",
                {
                    "dataset": "MATTERS-sim",
                    "query": {"series": "MA/GrowthRate", "start": 0, "length": 5},
                },
            )
        )
        assert resp.ok, resp.error_message
        payload = resp.result
        assert payload["view"] == "similarity"
        assert payload["distance"] >= 0
        assert payload["connectors"]
        assert len(payload["query"]) == 5

    def test_best_match_with_raw_values(self, service):
        resp = service.handle(
            Request(
                "best_match",
                {"dataset": "MATTERS-sim", "query": [1.0, 1.5, 2.0, 2.5]},
            )
        )
        assert resp.ok
        assert resp.result["match_series"]

    def test_k_best(self, service):
        resp = service.handle(
            Request(
                "k_best",
                {
                    "dataset": "MATTERS-sim",
                    "query": {"series": "CA/GrowthRate", "start": 0, "length": 5},
                    "k": 3,
                },
            )
        )
        assert resp.ok
        matches = resp.result["matches"]
        assert len(matches) == 3
        dists = [m["distance"] for m in matches]
        assert dists == sorted(dists)

    def test_query_batch(self, service):
        queries = [
            {"series": "CA/GrowthRate", "start": 0, "length": 5},
            {"series": "NY/GrowthRate", "start": 2, "length": 5},
            [0.2, 0.4, 0.5, 0.3, 0.1],
        ]
        resp = service.handle(
            Request(
                "query_batch",
                {"dataset": "MATTERS-sim", "queries": queries, "k": 2},
            )
        )
        assert resp.ok, resp.error_message
        results = resp.result["results"]
        assert len(results) == 3
        for entry, query in zip(results, queries):
            assert len(entry["matches"]) == 2
            single = service.handle(
                Request(
                    "k_best",
                    {"dataset": "MATTERS-sim", "query": query, "k": 2},
                )
            )
            assert single.ok
            want = [
                (m["match_series"], m["match_start"], m["distance"])
                for m in single.result["matches"]
            ]
            got = [
                (m["match_series"], m["match_start"], m["distance"])
                for m in entry["matches"]
            ]
            assert got == want

    def test_query_batch_rejects_empty(self, service):
        resp = service.handle(
            Request("query_batch", {"dataset": "MATTERS-sim", "queries": []})
        )
        assert not resp.ok
        assert "non-empty" in resp.error_message

    def test_matches_within(self, service):
        resp = service.handle(
            Request(
                "matches_within",
                {
                    "dataset": "MATTERS-sim",
                    "query": {"series": "NY/GrowthRate", "start": 0, "length": 5},
                    "threshold": 0.03,
                },
            )
        )
        assert resp.ok
        for m in resp.result["matches"]:
            assert m["distance"] <= 0.03 + 1e-12

    def test_seasonal(self, service):
        resp = service.handle(
            Request(
                "seasonal",
                {"dataset": "MATTERS-sim", "series": "MA/GrowthRate",
                 "length": 4, "threshold": 0.08, "step": 1},
            )
        )
        assert resp.ok, resp.error_message
        assert resp.result["view"] == "seasonal"

    def test_thresholds(self, service):
        resp = service.handle(Request("thresholds", {"dataset": "MATTERS-sim", "length": 5}))
        assert resp.ok
        assert resp.result["default"] > 0

    def test_sensitivity(self, service):
        resp = service.handle(
            Request(
                "sensitivity",
                {
                    "dataset": "MATTERS-sim",
                    "query": {"series": "MA/GrowthRate", "start": 0, "length": 5},
                    "thresholds": [0.02, 0.05, 0.1],
                    "verify": True,
                },
            )
        )
        assert resp.ok, resp.error_message
        payload = resp.result
        assert payload["view"] == "sensitivity"
        assert len(payload["certain"]) == 3
        for certain, exact, possible in zip(
            payload["certain"], payload["exact"], payload["possible"]
        ):
            assert certain <= exact <= possible

    @pytest.mark.parametrize(
        "op, params",
        [
            ("seasonal", {"series": "MA/GrowthRate", "length": 4,
                          "remove_level": "no"}),
            ("sensitivity", {"query": [0.2, 0.4, 0.5, 0.3], "thresholds": [0.05],
                             "verify": "false"}),
        ],
    )
    def test_boolean_options_reject_strings(self, service, op, params):
        """A truthy string must not switch on the level removal or the
        verified (more expensive) profile."""
        resp = service.handle(Request(op, {"dataset": "MATTERS-sim", **params}))
        assert not resp.ok
        assert resp.error_type == "ValidationError"
        assert "must be a boolean" in resp.error_message

    def test_add_series_then_query(self):
        svc = OnexService()
        svc.handle(
            Request(
                "load_dataset",
                {"source": "electricity", "households": 1,
                 "similarity_threshold": 0.1, "min_length": 4, "max_length": 5},
            )
        )
        resp = svc.handle(
            Request(
                "add_series",
                {"dataset": "ElectricityLoad-sim", "name": "late-arrival",
                 "values": [12.0, 13.5, 11.0, 12.5, 14.0, 13.0]},
            )
        )
        assert resp.ok, resp.error_message
        assert resp.result["windows"] == (6 - 4 + 1) + (6 - 5 + 1)
        match = svc.handle(
            Request(
                "best_match",
                {"dataset": "ElectricityLoad-sim",
                 "query": {"series": "late-arrival", "start": 0, "length": 5}},
            )
        )
        assert match.ok
        # Fast mode (the service default) guarantees a match within the
        # similarity threshold for an indexed query, not exactness.
        assert match.result["distance"] <= 0.1

    def test_save_base(self, service, tmp_path):
        path = tmp_path / "matters-base"
        request = Request("save_base", {"dataset": "MATTERS-sim", "path": str(path)})
        resp = service.handle(request)
        assert resp.ok, resp.error_message
        assert sorted(f.name for f in path.iterdir()) == ["arrays.bin", "meta.json"]
        fingerprint = service.handle(
            Request("describe", {"dataset": "MATTERS-sim"})
        ).result["structure_fingerprint"]
        assert OnexBase.load(path).structure_fingerprint() == fingerprint
        # A save never replaces an earlier one: the same path is refused
        # with a typed error and the snapshot stays as it was.
        before = (path / "meta.json").read_bytes()
        again = service.handle(request)
        assert not again.ok and again.error_type == "PersistenceError"
        assert (path / "meta.json").read_bytes() == before

    def test_engine_error_becomes_response(self, service):
        resp = service.handle(Request("describe", {"dataset": "missing"}))
        assert not resp.ok
        assert resp.error_type == "DatasetError"

    def test_handle_raw_json(self, service):
        resp = service.handle('{"op": "list_datasets"}')
        assert resp.ok

    def test_handle_malformed_json(self, service):
        resp = service.handle("{broken")
        assert not resp.ok
        assert resp.error_type == "ProtocolError"


class TestStreamOps:
    @pytest.fixture()
    def svc(self):
        svc = OnexService()
        resp = svc.handle(
            Request(
                "load_dataset",
                {"source": "electricity", "households": 1,
                 "similarity_threshold": 0.1, "min_length": 4, "max_length": 6},
            )
        )
        assert resp.ok, resp.error_message
        return svc

    def test_append_points_creates_and_extends(self, svc):
        resp = svc.handle(
            Request(
                "append_points",
                {"dataset": "ElectricityLoad-sim", "series": "live",
                 "values": [10.0, 11.0, 12.0, 11.5]},
            )
        )
        assert resp.ok, resp.error_message
        assert resp.result["points"] == 4
        assert resp.result["windows"] == 1  # the first length-4 window
        resp = svc.handle(
            Request(
                "append_points",
                {"dataset": "ElectricityLoad-sim", "series": "live",
                 "values": [12.5]},
            )
        )
        assert resp.ok
        assert resp.result["total_points"] == 5
        assert resp.result["windows"] == 2  # lengths 4 and 5 complete

    def test_monitor_lifecycle_and_events(self, svc):
        resp = svc.handle(
            Request(
                "register_monitor",
                {"dataset": "ElectricityLoad-sim",
                 "pattern": [10.0, 12.0, 14.0, 12.0, 10.0],
                 "series": "live", "monitor": "ramp"},
            )
        )
        assert resp.ok, resp.error_message
        assert resp.result["monitor"] == "ramp"
        assert resp.result["pattern_length"] == 5
        # Replay the pattern itself: a certain match.
        resp = svc.handle(
            Request(
                "append_points",
                {"dataset": "ElectricityLoad-sim", "series": "live",
                 "values": [10.0, 12.0, 14.0, 12.0, 10.0]},
            )
        )
        assert resp.ok
        assert resp.result["events"], "replaying the pattern must fire events"
        polled = svc.handle(
            Request("poll_events", {"dataset": "ElectricityLoad-sim"})
        )
        assert polled.ok
        assert polled.result["events"]
        assert polled.result["last_seq"] >= len(polled.result["events"])
        assert polled.result["monitors"][0]["monitor"] == "ramp"
        # Incremental polling from the last seen seq returns nothing new.
        last = polled.result["events"][-1]["seq"]
        again = svc.handle(
            Request(
                "poll_events",
                {"dataset": "ElectricityLoad-sim", "since": last},
            )
        )
        assert again.ok
        assert again.result["events"] == []
        resp = svc.handle(
            Request(
                "unregister_monitor",
                {"dataset": "ElectricityLoad-sim", "monitor": "ramp"},
            )
        )
        assert resp.ok
        resp = svc.handle(
            Request(
                "unregister_monitor",
                {"dataset": "ElectricityLoad-sim", "monitor": "ramp"},
            )
        )
        assert not resp.ok
        assert resp.error_type == "DatasetError"

    def test_register_monitor_with_brushed_pattern(self, svc):
        resp = svc.handle(
            Request(
                "register_monitor",
                {"dataset": "ElectricityLoad-sim",
                 "pattern": {"series": "household-0", "start": 3, "length": 6},
                 "epsilon": 2.5},
            )
        )
        assert resp.ok, resp.error_message
        assert resp.result["pattern_length"] == 6
        assert resp.result["epsilon"] == 2.5

    def test_append_points_unknown_dataset_fails(self, svc):
        resp = svc.handle(
            Request(
                "append_points",
                {"dataset": "ghost", "series": "x", "values": [1.0]},
            )
        )
        assert not resp.ok
        assert resp.error_type == "DatasetError"


class TestStreamReadPath:
    def test_poll_before_any_streaming_is_empty_and_side_effect_free(self):
        svc = OnexService()
        svc.handle(
            Request(
                "load_dataset",
                {"source": "electricity", "households": 1,
                 "similarity_threshold": 0.1, "min_length": 4, "max_length": 5},
            )
        )
        resp = svc.handle(
            Request("poll_events", {"dataset": "ElectricityLoad-sim"})
        )
        assert resp.ok, resp.error_message
        assert resp.result == {
            "events": [], "last_seq": 0, "monitors": [], "dropped": 0
        }
        # The read did not create the stream machinery.
        entry = svc.engine._entry("ElectricityLoad-sim")
        assert entry.ingestor is None

    def test_flush_monitors_op(self):
        svc = OnexService()
        svc.handle(
            Request(
                "load_dataset",
                {"source": "electricity", "households": 1,
                 "similarity_threshold": 0.1, "min_length": 4, "max_length": 6},
            )
        )
        resp = svc.handle(
            Request("flush_monitors", {"dataset": "ElectricityLoad-sim"})
        )
        assert resp.ok
        assert resp.result == {"events": []}
        svc.handle(
            Request(
                "register_monitor",
                {"dataset": "ElectricityLoad-sim",
                 "pattern": [10.0, 12.0, 14.0, 12.0, 10.0], "series": "live",
                 "epsilon": 0.3},
            )
        )
        svc.handle(
            Request(
                "append_points",
                {"dataset": "ElectricityLoad-sim", "series": "live",
                 "values": [10.0, 12.0, 14.0, 12.0, 10.0]},
            )
        )
        resp = svc.handle(
            Request("flush_monitors", {"dataset": "ElectricityLoad-sim"})
        )
        assert resp.ok
        assert resp.result["events"], "tail match must flush"
        assert resp.result["events"][-1]["kind"] == "match"


class TestUnexpectedErrorGuard:
    """Regression: a handler bug must return a structured failure, not
    propagate and sever the connection mid-request."""

    def test_unexpected_exception_becomes_internal_error(self, service):
        def exploding_handler(params):
            raise AttributeError("handler bug")

        original = service._op_describe
        service._op_describe = exploding_handler
        try:
            resp = service.handle(
                Request("describe", {"dataset": "MATTERS-sim"})
            )
        finally:
            service._op_describe = original
        assert not resp.ok
        assert resp.error_type == "InternalError"
        assert "AttributeError" in resp.error_message
        assert "handler bug" in resp.error_message

    def test_numpy_style_exception_becomes_internal_error(self, service):
        import numpy as np

        def exploding_handler(params):
            with np.errstate(divide="raise"):
                return np.float64(1.0) / np.float64(0.0)

        original = service._op_describe
        service._op_describe = exploding_handler
        try:
            resp = service.handle(
                Request("describe", {"dataset": "MATTERS-sim"})
            )
        finally:
            service._op_describe = original
        assert not resp.ok
        assert resp.error_type == "InternalError"
        assert "FloatingPointError" in resp.error_message

    def test_contract_errors_keep_their_own_type(self, service):
        resp = service.handle(Request("describe", {"dataset": "missing"}))
        assert not resp.ok
        assert resp.error_type == "DatasetError"


@pytest.mark.parametrize("mode", ["exact", "fast"])
def test_served_requests_run_no_scalar_dp(monkeypatch, mode):
    """The three cascade drivers, ``query_batch`` and ``sensitivity`` get
    their warping paths from the batched kernel: the scalar row-scan DP
    (``dtw_cost_matrix``, the one thing ``dtw_path`` stands on) never runs."""
    from repro.core.config import QueryConfig
    from repro.distances import dtw

    def forbidden(*args, **kwargs):
        raise AssertionError("scalar dtw_cost_matrix ran on a served request")

    monkeypatch.setattr(dtw, "dtw_cost_matrix", forbidden)
    svc = OnexService(QueryConfig(mode=mode))
    loaded = svc.handle(
        Request(
            "load_dataset",
            {"source": "matters", "similarity_threshold": 0.08, "min_length": 4,
             "max_length": 6, "years": 12, "min_years": 8},
        )
    )
    assert loaded.ok, loaded.error_message
    brushed = {"series": "MA/GrowthRate", "start": 1, "length": 5}
    values = [0.2, 0.4, 0.5, 0.3, 0.1, 0.2]
    requests = [
        ("best_match", {"query": brushed}),
        ("k_best", {"query": values, "k": 3}),
        ("matches_within", {"query": brushed, "threshold": 0.05}),
        ("query_batch", {"queries": [brushed, values], "k": 2}),
        ("sensitivity", {"query": brushed, "thresholds": [0.02, 0.05, 0.1], "verify": True}),
    ]
    for op, params in requests:
        resp = svc.handle(Request(op, {"dataset": "MATTERS-sim", **params}))
        assert resp.ok, (op, resp.error_message)
    matches = svc.handle(
        Request("k_best", {"dataset": "MATTERS-sim", "query": values, "k": 3})
    ).result["matches"]
    assert all(m["connectors"][0] == [0, 0] for m in matches)

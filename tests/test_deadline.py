"""Deadline & cancellation tests: the cooperative budget layer end to end.

Three families of guarantees:

- **Control-flow purity** — a search with an ample budget is bit-identical
  to the same search with no deadline at all (Hypothesis property);
- **Coverage** — armed with a ``sleep`` fault at each chunk boundary, the
  matching cascade stage observes the expiry and raises a structured
  :class:`DeadlineExceeded` carrying stage/progress/best (or degrades to
  flagged partial results when ``allow_partial`` is set and something was
  verified);
- **Protocol surface** — ``timeout_ms``/``allow_partial`` validate in the
  service layer and the error envelope carries the details payload.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.query as query_module
from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.deadline import CancellationToken, Deadline
from repro.core.engine import OnexEngine
from repro.core.query import QueryProcessor
from repro.core.seasonal import find_seasonal_patterns
from repro.core.sensitivity import similarity_profile
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.exceptions import DeadlineExceeded, ValidationError
from repro.server.protocol import Request
from repro.server.service import OnexService
from repro.testing import faults

finite_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@pytest.fixture(autouse=True)
def clean_registry():
    faults.disarm_all()
    yield
    faults.disarm_all()


@pytest.fixture(scope="module")
def base():
    rng = np.random.default_rng(61)
    arrays = [rng.normal(size=n).cumsum() for n in (30, 28, 26, 32)]
    dataset = TimeSeriesDataset.from_arrays(arrays, name="deadline-walks")
    b = OnexBase(
        dataset, BuildConfig(similarity_threshold=0.1, min_length=4, max_length=6)
    )
    b.build()
    return b


def cancel_on_refine_unit(monkeypatch, nth: int) -> CancellationToken:
    """A token cancelled when ``query.refine_unit`` fires for the *nth* time.

    Expiry by count, not by clock: the checks before that failpoint pass
    and the one right after it fires, however loaded the runner is.
    """
    token = CancellationToken()
    fired = []

    def fire(point, **ctx):
        if point == "query.refine_unit":
            fired.append(point)
            if len(fired) == nth:
                token.cancel()

    monkeypatch.setattr(faults, "fire", fire)
    return token


def _as_tuples(matches):
    return [
        (m.ref, m.distance, m.raw_distance, m.path, m.exact) for m in matches
    ]


class TestDeadlineObject:
    def test_validation(self):
        for bad in (0, -1, float("inf"), float("nan"), True, "50"):
            with pytest.raises(ValidationError):
                Deadline(bad)

    def test_no_budget_never_expires(self):
        d = Deadline()
        assert not d.expired
        assert d.remaining_ms() == float("inf")
        d.check("anywhere")  # no-op

    def test_check_reports_stage_and_progress(self):
        d = Deadline.after(0.001)
        import time

        time.sleep(0.002)
        with pytest.raises(DeadlineExceeded) as excinfo:
            d.check("some stage", {"done": 3})
        err = excinfo.value
        assert err.stage == "some stage"
        assert err.progress == {"done": 3}
        assert err.details() == {
            "stage": "some stage",
            "progress": {"done": 3},
            "best": None,
        }
        assert "some stage" in str(err)

    def test_token_cancels_unbounded_deadline(self):
        token = CancellationToken()
        d = Deadline(token=token)
        assert not d.expired
        token.cancel()
        assert d.expired
        with pytest.raises(DeadlineExceeded, match="cancelled"):
            d.check("scan")

    def test_processor_rejects_non_deadline(self, base):
        with pytest.raises(ValidationError, match="Deadline"):
            QueryProcessor(base).best_match([0.1, 0.2, 0.3, 0.4], deadline=50)


class TestAmpleBudgetIdentity:
    """A deadline that never fires must never change a result."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(finite_floats, min_size=4, max_size=6))
    def test_k_best_identical(self, base, q):
        ample = Deadline.after(120_000, allow_partial=True)
        for mode in ("fast", "exact"):
            processor = QueryProcessor(base, QueryConfig(mode=mode))
            got = processor.k_best_matches(q, 3, deadline=ample)
            want = processor.k_best_matches(q, 3)
            assert _as_tuples(got) == _as_tuples(want)
            assert all(m.exact for m in got)

    def test_batch_identical(self, base):
        rng = np.random.default_rng(62)
        queries = [rng.uniform(size=5) for _ in range(4)]
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        got = processor.batch_matches(
            queries, 3, deadline=Deadline.after(120_000, allow_partial=True)
        )
        want = processor.batch_matches(queries, 3)
        assert [_as_tuples(m) for m in got] == [_as_tuples(m) for m in want]

    def test_matches_within_identical(self, base):
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        q = np.linspace(0.2, 0.8, 5)
        got = processor.matches_within(q, 0.1, deadline=Deadline.after(120_000))
        want = processor.matches_within(q, 0.1)
        assert _as_tuples(got) == _as_tuples(want)


class TestDeadlineFiresPerStage:
    """A slow chunk boundary is observed by that stage's check."""

    def _expect(self, excinfo, stage):
        err = excinfo.value
        assert err.stage == stage
        assert isinstance(err.progress, dict) and err.progress

    def test_exact_representative_cascade(self, base):
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        with faults.inject("query.rep_chunk", "sleep", seconds=0.05):
            with pytest.raises(DeadlineExceeded) as excinfo:
                processor.k_best_matches(
                    [0.1, 0.4, 0.2, 0.5], 3, deadline=Deadline.after(1.0)
                )
        self._expect(excinfo, "representative cascade")

    def test_fast_representative_ranking(self, base):
        processor = QueryProcessor(base, QueryConfig(mode="fast"))
        with faults.inject("query.rep_chunk", "sleep", seconds=0.05):
            with pytest.raises(DeadlineExceeded) as excinfo:
                processor.best_match(
                    [0.1, 0.4, 0.2, 0.5], deadline=Deadline.after(1.0)
                )
        self._expect(excinfo, "representative ranking")

    def test_member_refinement(self, base):
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        with faults.inject("query.refine_unit", "sleep", seconds=0.3):
            with pytest.raises(DeadlineExceeded) as excinfo:
                processor.k_best_matches(
                    [0.1, 0.4, 0.2, 0.5], 3, deadline=Deadline.after(200.0)
                )
        self._expect(excinfo, "member refinement")

    def test_batch_raises_its_first_query_s_stage(self, base):
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        with faults.inject("query.rep_chunk", "sleep", seconds=0.05):
            with pytest.raises(DeadlineExceeded) as excinfo:
                processor.batch_matches(
                    [[0.1, 0.4, 0.2, 0.5], [0.5, 0.2, 0.4, 0.1]],
                    2,
                    deadline=Deadline.after(1.0),
                )
        self._expect(excinfo, "representative cascade")

    def test_threshold_scan(self, base):
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        with faults.inject("query.refine_unit", "sleep", seconds=0.05):
            with pytest.raises(DeadlineExceeded) as excinfo:
                processor.matches_within(
                    [0.1, 0.4, 0.2, 0.5], 0.2, deadline=Deadline.after(1.0)
                )
        self._expect(excinfo, "threshold scan")

    def test_seasonal_group_scan(self):
        series = TimeSeries("periodic", np.tile(np.sin(np.linspace(0, 6, 8)), 5))
        with faults.inject("seasonal.group", "sleep", seconds=0.05):
            with pytest.raises(DeadlineExceeded) as excinfo:
                find_seasonal_patterns(
                    series, 8, 0.5, deadline=Deadline.after(1.0)
                )
        self._expect(excinfo, "seasonal group scan")

    def test_seasonal_pair_verification(self):
        # The failpoint and the check fire once per group, before the
        # group's one paired kernel call.
        series = TimeSeries("periodic", np.tile(np.sin(np.linspace(0, 6, 8)), 8))
        with faults.inject("seasonal.pair_chunk", "sleep", seconds=0.3):
            with pytest.raises(DeadlineExceeded) as excinfo:
                find_seasonal_patterns(
                    series, 8, 0.5, deadline=Deadline.after(200.0)
                )
        self._expect(excinfo, "seasonal pair verification")

    @pytest.mark.parametrize("allow_partial", [False, True])
    def test_sensitivity_always_raises(self, base, allow_partial):
        """A subset of buckets would misreport counts: no partial mode."""
        with faults.inject("sensitivity.bucket", "sleep", seconds=0.05):
            with pytest.raises(DeadlineExceeded) as excinfo:
                similarity_profile(
                    base,
                    [0.1, 0.4, 0.2, 0.5],
                    [0.05, 0.1],
                    deadline=Deadline.after(1.0, allow_partial=allow_partial),
                )
        self._expect(excinfo, "sensitivity profile")

    def test_build_deadline_registers_nothing(self):
        engine = OnexEngine()
        rng = np.random.default_rng(63)
        dataset = TimeSeriesDataset.from_arrays(
            [rng.normal(size=20).cumsum() for _ in range(3)], name="slow-build"
        )
        with faults.inject("build.merge", "sleep", seconds=0.05):
            with pytest.raises(DeadlineExceeded) as excinfo:
                engine.load_dataset(
                    dataset,
                    similarity_threshold=0.2,
                    min_length=4,
                    max_length=6,
                    deadline=Deadline.after(1.0),
                )
        assert excinfo.value.stage == "base build"
        assert engine.dataset_names == []  # no partially built dataset

    def test_stream_monitor_raises(self):
        engine = OnexEngine()
        rng = np.random.default_rng(64)
        dataset = TimeSeriesDataset.from_arrays(
            [rng.normal(size=20).cumsum() for _ in range(2)], name="live"
        )
        engine.load_dataset(
            dataset, similarity_threshold=0.2, min_length=4, max_length=4
        )
        engine.register_monitor("live", [0.1, 0.5, 0.2, 0.6], series="feed")
        with faults.inject("stream.step", "sleep", seconds=0.05):
            with pytest.raises(DeadlineExceeded) as excinfo:
                engine.append_points(
                    "live",
                    "feed",
                    [0.1, 0.5, 0.2, 0.6, 0.3, 0.7],
                    deadline=Deadline.after(1.0),
                )
        assert excinfo.value.stage == "stream window scan"


class TestPartialResults:
    def test_nothing_verified_raises_even_with_allow_partial(self, base):
        """Partial mode never fabricates: an empty heap still errors."""
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        with faults.inject("query.rep_chunk", "sleep", seconds=0.05):
            with pytest.raises(DeadlineExceeded) as excinfo:
                processor.k_best_matches(
                    [0.1, 0.4, 0.2, 0.5],
                    3,
                    deadline=Deadline.after(1.0, allow_partial=True),
                )
        assert excinfo.value.best is None

    def test_k_best_degrades_to_verified_partial(self, base):
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        with faults.inject("query.refine_unit", "sleep", seconds=0.1):
            matches = processor.k_best_matches(
                [0.1, 0.4, 0.2, 0.5],
                3,
                deadline=Deadline.after(150.0, allow_partial=True),
            )
        assert matches and all(not m.exact for m in matches)
        assert processor.last_stats.partial_results >= 1
        # Partial distances are still true DTW distances: each returned
        # match appears in the exhaustive result set with the same distance.
        full = {
            m.ref: m.distance
            for m in processor.matches_within([0.1, 0.4, 0.2, 0.5], 100.0)
        }
        for m in matches:
            assert full[m.ref] == m.distance

    def test_batch_degrades_per_query(self, base, monkeypatch):
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        queries = [[0.1, 0.4, 0.2, 0.5], [0.5, 0.2, 0.4, 0.1]]
        token = cancel_on_refine_unit(monkeypatch, 2)
        results = processor.batch_matches(
            queries,
            2,
            deadline=Deadline(token=token, allow_partial=True),
        )
        # The first query's second drain found the budget spent; the
        # second query never verified anything.
        first, second = results
        assert first and all(not m.exact for m in first)
        assert second == []
        assert processor.last_stats.partial_results == 1

    def test_batch_with_nothing_verified_raises(self, base):
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        with faults.inject("query.rep_chunk", "sleep", seconds=0.05):
            with pytest.raises(DeadlineExceeded):
                processor.batch_matches(
                    [[0.1, 0.4, 0.2, 0.5], [0.5, 0.2, 0.4, 0.1]],
                    2,
                    deadline=Deadline.after(1.0, allow_partial=True),
                )

    def test_matches_within_flags_partial(self, monkeypatch):
        # Lengths 4-6 verify as one chunk and 7-8 as the next; the scan's
        # deadline boundary is the chunk, so the budget is spent at the
        # second one and the first chunk's (complete) matches come back.
        rng = np.random.default_rng(61)
        arrays = [rng.normal(size=n).cumsum() for n in (30, 28, 26, 32)]
        wide = OnexBase(
            TimeSeriesDataset.from_arrays(arrays, name="deadline-walks"),
            BuildConfig(similarity_threshold=0.1, min_length=4, max_length=8),
        )
        wide.build()
        processor = QueryProcessor(wide, QueryConfig(mode="exact"))
        full = processor.matches_within([0.1, 0.4, 0.2, 0.5], 10.0)
        path_calls = []
        path_batch = query_module.dtw_path_batch

        def counting(x, rows, **kwargs):
            path_calls.append(len(rows))
            return path_batch(x, rows, **kwargs)

        monkeypatch.setattr(query_module, "dtw_path_batch", counting)
        token = cancel_on_refine_unit(monkeypatch, 2)
        matches = processor.matches_within(
            [0.1, 0.4, 0.2, 0.5],
            10.0,
            deadline=Deadline(token=token, allow_partial=True),
        )
        assert matches and all(not m.exact for m in matches)
        assert [(m.ref, m.distance, m.path) for m in matches] == [
            (m.ref, m.distance, m.path) for m in full if m.length <= 6
        ]
        assert processor.last_stats.partial_results == 1
        # Paths are traced once, for the answer that is returned ...
        assert path_calls == [len(matches)]
        # ... and a deadline that raises never pays for a traceback.
        with pytest.raises(DeadlineExceeded):
            processor.matches_within(
                [0.1, 0.4, 0.2, 0.5],
                10.0,
                deadline=Deadline(token=cancel_on_refine_unit(monkeypatch, 2)),
            )
        assert path_calls == [len(matches)]

    def test_seasonal_returns_verified_prefix(self):
        series = TimeSeries("periodic", np.tile(np.sin(np.linspace(0, 6, 8)), 5))
        full = find_seasonal_patterns(series, 8, 0.5)
        with faults.inject("seasonal.group", "sleep", seconds=0.1):
            partial = find_seasonal_patterns(
                series, 8, 0.5, deadline=Deadline.after(150.0, allow_partial=True)
            )
        assert len(partial) <= len(full)
        # Whatever is reported is fully verified — it appears in the
        # complete run with identical occurrence sets.
        full_keys = {p.starts for p in full}
        for pattern in partial:
            assert pattern.starts in full_keys


class TestServiceDeadlines:
    @pytest.fixture(scope="class")
    def service(self):
        svc = OnexService(QueryConfig(mode="exact"))
        resp = svc.handle(
            Request(
                "load_dataset",
                {"source": "electricity", "households": 2,
                 "similarity_threshold": 0.1, "min_length": 4, "max_length": 5},
            )
        )
        assert resp.ok, resp.error_message
        return svc

    def test_invalid_timeout_rejected(self, service):
        for bad in ("soon", -5, 0, True):
            resp = service.handle(
                Request(
                    "best_match",
                    {"dataset": "ElectricityLoad-sim",
                     "query": [0.1, 0.2, 0.3, 0.4], "timeout_ms": bad},
                )
            )
            assert not resp.ok
            assert resp.error_type == "ValidationError"

    def test_invalid_allow_partial_rejected(self, service):
        resp = service.handle(
            Request(
                "best_match",
                {"dataset": "ElectricityLoad-sim",
                 "query": [0.1, 0.2, 0.3, 0.4],
                 "timeout_ms": 1000, "allow_partial": "yes"},
            )
        )
        assert not resp.ok
        assert resp.error_type == "ValidationError"

    def test_deadline_error_carries_details(self, service):
        with faults.inject("query.rep_chunk", "sleep", seconds=0.05):
            resp = service.handle(
                Request(
                    "best_match",
                    {"dataset": "ElectricityLoad-sim",
                     "query": [0.1, 0.2, 0.3, 0.4], "timeout_ms": 1},
                )
            )
        assert not resp.ok
        assert resp.error_type == "DeadlineExceeded"
        assert resp.error_details is not None
        assert set(resp.error_details) == {"stage", "progress", "best"}
        assert resp.error_details["stage"] == "representative cascade"
        # The envelope survives a JSON round trip with details intact.
        from repro.server.protocol import Response

        rebuilt = Response.from_json(resp.to_json())
        assert rebuilt.error_details == resp.error_details

    def test_partial_over_protocol(self, service, monkeypatch):
        # The service builds its own deadline from ``timeout_ms``; hang the
        # counting token on it so the first query's second drain is where
        # it expires.
        token = cancel_on_refine_unit(monkeypatch, 2)
        after = Deadline.after
        monkeypatch.setattr(
            Deadline,
            "after",
            classmethod(lambda cls, ms, **kw: after(ms, token=token, **kw)),
        )
        resp = service.handle(
            Request(
                "query_batch",
                {"dataset": "ElectricityLoad-sim",
                 "queries": [[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]],
                 "k": 2, "timeout_ms": 120_000, "allow_partial": True},
            )
        )
        assert resp.ok, resp.error_message
        payloads = [
            m for entry in resp.result["results"] for m in entry["matches"]
        ]
        # Whatever a query cut short had verified comes back flagged.
        assert payloads and all(m["exact"] is False for m in payloads)

    def test_ample_request_marks_exact(self, service):
        resp = service.handle(
            Request(
                "best_match",
                {"dataset": "ElectricityLoad-sim",
                 "query": [0.1, 0.2, 0.3, 0.4], "timeout_ms": 120_000},
            )
        )
        assert resp.ok
        assert resp.result["exact"] is True

    def test_default_timeout_applies(self):
        svc = OnexService(QueryConfig(mode="exact"), default_timeout_ms=1.0)
        resp = svc.handle(
            Request(
                "load_dataset",
                {"source": "electricity", "households": 1,
                 "similarity_threshold": 0.1, "min_length": 4, "max_length": 4,
                 "timeout_ms": 120_000},  # explicit budget wins for the load
            )
        )
        assert resp.ok, resp.error_message
        with faults.inject("query.rep_chunk", "sleep", seconds=0.05):
            resp = svc.handle(
                Request(
                    "best_match",
                    {"dataset": "ElectricityLoad-sim",
                     "query": [0.1, 0.2, 0.3, 0.4]},
                )
            )
        assert not resp.ok
        assert resp.error_type == "DeadlineExceeded"

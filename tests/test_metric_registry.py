"""The pluggable distance registry (DESIGN.md §9).

Covers the registry surface (lookup, closed name set, validation at
every boundary), the metric axioms every registered metric must satisfy
(Hypothesis), agreement between each metric's batch kernel and its pair
kernel, and exactness of the registry scan against a naive full scan —
in particular for the metrics that ship *without* a lower-bound family
(derivative_dtw, weighted_dtw), whose only correctness guarantee is the
brute-force-verified scan itself.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import QueryConfig
from repro.core.engine import OnexEngine
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.distances.registry import REGISTRY, MetricSpec, get_metric, registered_metrics
from repro.exceptions import ValidationError
from repro.server.protocol import Request
from repro.server.service import OnexService

EXPECTED_METRICS = (
    "chebyshev",
    "cityblock",
    "derivative_dtw",
    "dtw",
    "euclidean",
    "weighted_dtw",
)

# 32-bit width keeps every generated magnitude above ~1e-38: squared
# differences then never underflow float64, which would make the Lp
# kernels report exactly 0.0 for distinct points (Hypothesis found
# |x - y| ~ 1e-193, whose square is subnormal-flushed to zero) and
# break the strict-separation axiom below for reasons that are float
# representation, not metric math.
finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, width=32
)


def seq(min_size=4, max_size=12):
    return st.lists(finite_floats, min_size=min_size, max_size=max_size)


def pair_of_equal_length():
    return st.integers(min_value=4, max_value=12).flatmap(
        lambda n: st.tuples(
            st.lists(finite_floats, min_size=n, max_size=n),
            st.lists(finite_floats, min_size=n, max_size=n),
        )
    )


class TestRegistrySurface:
    def test_registered_names(self):
        assert registered_metrics() == EXPECTED_METRICS

    def test_contains_and_len(self):
        assert "dtw" in REGISTRY
        assert "nope" not in REGISTRY
        assert len(REGISTRY) == len(EXPECTED_METRICS)

    def test_get_metric_returns_spec(self):
        spec = get_metric("euclidean")
        assert isinstance(spec, MetricSpec)
        assert spec.name == "euclidean"
        assert spec.batch is not None
        assert spec.lower_bound is not None

    def test_unknown_metric_lists_registered(self):
        with pytest.raises(ValidationError, match="unknown metric"):
            get_metric("manhattan")
        try:
            get_metric("manhattan")
        except ValidationError as exc:
            for name in EXPECTED_METRICS:
                assert name in str(exc)

    def test_elastic_and_multivariate_flags(self):
        assert get_metric("dtw").elastic
        assert get_metric("derivative_dtw").elastic
        assert not get_metric("euclidean").elastic
        assert not get_metric("weighted_dtw").multivariate
        assert get_metric("cityblock").multivariate

    def test_keys_are_spec_names(self):
        assert all(spec.name == name for name, spec in REGISTRY.items())

    def test_the_metric_set_is_closed(self):
        with pytest.raises(TypeError):
            REGISTRY["mine"] = get_metric("dtw")

    def test_non_string_metric_rejected(self):
        with pytest.raises(ValidationError, match="must be a string"):
            get_metric(["dtw"])

    def test_query_config_validates_metric(self):
        QueryConfig(metric="chebyshev")  # ok
        with pytest.raises(ValidationError, match="unknown metric"):
            QueryConfig(metric="bogus")


class TestMetricAxioms:
    """Non-negativity, symmetry, identity for every registered metric."""

    @pytest.mark.parametrize("name", EXPECTED_METRICS)
    @settings(max_examples=60, deadline=None)
    @given(free=st.tuples(seq(), seq()), equal=pair_of_equal_length())
    # Raw DTW 3.0 both ways, but the tie-broken optimal paths have 6 and
    # 7 steps: normalised 0.5 one way, 3/7 the other.
    @example(
        free=([0.0, 0.0, -1.0, 0.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0, 0.0]),
        equal=([0.0] * 4, [0.0] * 4),
    )
    def test_non_negative_and_symmetric(self, name, free, equal):
        """The raw cost is symmetric for every metric.  The normalised
        value is too for the lock-step metrics; the elastic ones divide
        by the length of a warping path chosen by a tie-break (diagonal,
        vertical, horizontal) that is not operand-symmetric, so among
        equal-cost optimal paths ``pair(x, y)`` and ``pair(y, x)`` may
        trace paths of different lengths (see ``dtw_path``)."""
        spec = get_metric(name)
        x, y = (np.asarray(v, dtype=np.float64) for v in (free if spec.elastic else equal))
        raw_xy, norm_xy = spec.pair(x, y, None)
        raw_yx, norm_yx = spec.pair(y, x, None)
        assert raw_xy >= 0.0 and norm_xy >= 0.0 and norm_yx >= 0.0
        assert math.isclose(raw_xy, raw_yx, rel_tol=1e-9, abs_tol=1e-9)
        if not spec.elastic:
            assert math.isclose(norm_xy, norm_yx, rel_tol=1e-9, abs_tol=1e-9)

    @pytest.mark.parametrize("name", EXPECTED_METRICS)
    @settings(max_examples=60, deadline=None)
    @given(xs=seq())
    def test_identity_of_indiscernibles(self, name, xs):
        spec = get_metric(name)
        x = np.asarray(xs, dtype=np.float64)
        raw, norm = spec.pair(x, x, None)
        assert math.isclose(raw, 0.0, abs_tol=1e-9)
        assert math.isclose(norm, 0.0, abs_tol=1e-9)

    @pytest.mark.parametrize("name", ("euclidean", "cityblock", "chebyshev"))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_strict_metrics_separate_points(self, name, data):
        """For the Lp metrics, zero distance implies equal sequences
        (DTW variants are deliberately only pseudo-metrics)."""
        spec = get_metric(name)
        xs, ys = data.draw(pair_of_equal_length())
        x = np.asarray(xs, dtype=np.float64)
        y = np.asarray(ys, dtype=np.float64)
        raw, _ = spec.pair(x, y, None)
        if raw == 0.0:
            assert np.array_equal(x, y)

    @pytest.mark.parametrize(
        "name", ("euclidean", "cityblock", "chebyshev", "dtw")
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batch_kernel_matches_pair(self, name, data):
        spec = get_metric(name)
        n = data.draw(st.integers(min_value=4, max_value=10))
        q = np.asarray(
            data.draw(st.lists(finite_floats, min_size=n, max_size=n)),
            dtype=np.float64,
        )
        rows = np.asarray(
            [
                data.draw(st.lists(finite_floats, min_size=n, max_size=n))
                for _ in range(data.draw(st.integers(1, 4)))
            ],
            dtype=np.float64,
        )
        raws, norms = spec.batch(q, rows, n, 1, None)
        for i, row in enumerate(rows):
            raw, norm = spec.pair(q, row, None)
            assert math.isclose(raws[i], raw, rel_tol=1e-9, abs_tol=1e-9)
            assert math.isclose(norms[i], norm, rel_tol=1e-9, abs_tol=1e-9)


def _small_engine(seed=11):
    rng = np.random.default_rng(seed)
    series = [TimeSeries(f"s{i}", rng.normal(size=30)) for i in range(5)]
    dataset = TimeSeriesDataset(series, name=f"axioms-{seed}")
    engine = OnexEngine()
    engine.load_dataset(dataset, min_length=8, max_length=10)
    return engine, dataset


def _naive_best(engine, name, metric, q):
    """Full scan with the metric's own pair kernel — the ground truth."""
    base = engine.base(name)
    spec = get_metric(metric)
    qarr = np.asarray(q, dtype=np.float64)
    best = math.inf
    for bucket in base.buckets():
        if not spec.elastic and bucket.length != qarr.shape[0]:
            continue
        for group in bucket.groups:
            for ref in group.members:
                _, norm = spec.pair(qarr, base.dataset.values(ref), None)
                best = min(best, norm)
    return best


class TestScanExactness:
    """Registry-scan answers equal a naive per-member scan.

    This is the only correctness gate for derivative_dtw / weighted_dtw,
    which have no lower-bound family; for the Lp metrics it additionally
    proves the group-bound pruning never drops the optimum.
    """

    @pytest.mark.parametrize(
        "metric",
        ("euclidean", "cityblock", "chebyshev", "derivative_dtw", "weighted_dtw"),
    )
    def test_best_match_equals_naive_scan(self, metric):
        engine, dataset = _small_engine()
        rng = np.random.default_rng(7)
        for _ in range(3):
            q = rng.normal(size=9)
            # Queries are normalised into the base's value space before
            # the scan; mirror that for the naive reference.
            base = engine.base(dataset.name)
            lo, hi = base.normalization_bounds
            qn = (np.asarray(q) - lo) / (hi - lo)
            match = engine.best_match(dataset.name, q, metric=metric)
            naive = _naive_best(engine, dataset.name, metric, qn)
            assert math.isclose(match.distance, naive, rel_tol=1e-9, abs_tol=1e-9)

    def test_weighted_dtw_pair_honours_the_window(self):
        # Peaks three steps apart: free warping aligns them at no cost; a
        # zero radius forces the diagonal, w(0) * sum |x - y| = w(0) * 10.
        spec = get_metric("weighted_dtw")
        x = np.array([0.0, 0, 0, 5, 0, 0, 0, 0])
        y = np.array([0.0, 0, 0, 0, 0, 0, 5, 0])
        assert spec.pair(x, y, None) == (0.0, 0.0)
        raw, norm = spec.pair(x, y, 0)
        assert raw == pytest.approx(10.0 / (1.0 + math.exp(0.05 * 4.0)))
        assert norm == raw / 8

    @pytest.mark.parametrize("metric", ("euclidean", "derivative_dtw"))
    def test_matches_within_equals_naive_scan(self, metric):
        engine, dataset = _small_engine(seed=23)
        rng = np.random.default_rng(3)
        q = rng.normal(size=9)
        base = engine.base(dataset.name)
        lo, hi = base.normalization_bounds
        qn = (np.asarray(q) - lo) / (hi - lo)
        threshold = 0.25
        matches = engine.matches_within(dataset.name, q, threshold, metric=metric)
        spec = get_metric(metric)
        expected = 0
        for bucket in base.buckets():
            if not spec.elastic and bucket.length != 9:
                continue
            for group in bucket.groups:
                for ref in group.members:
                    _, norm = spec.pair(qn, base.dataset.values(ref), None)
                    if norm <= threshold:
                        expected += 1
        assert len(matches) == expected
        assert all(m.distance <= threshold for m in matches)
        assert all(m.exact for m in matches)

    def test_kbest_is_sorted_and_consistent_across_modes(self):
        engine_fast = OnexEngine(QueryConfig(mode="fast"))
        engine_exact = OnexEngine(QueryConfig(mode="exact"))
        rng = np.random.default_rng(31)
        series = [TimeSeries(f"s{i}", rng.normal(size=30)) for i in range(5)]
        for eng in (engine_fast, engine_exact):
            eng.load_dataset(
                TimeSeriesDataset(list(series), name="modes"),
                min_length=8,
                max_length=10,
            )
        q = rng.normal(size=9)
        fast = engine_fast.k_best_matches("modes", q, 5, metric="cityblock")
        exact = engine_exact.k_best_matches("modes", q, 5, metric="cityblock")
        # The metric scan is exact in either mode: identical answers.
        assert [m.distance for m in fast] == [m.distance for m in exact]
        assert [m.ref for m in fast] == [m.ref for m in exact]
        dists = [m.distance for m in fast]
        assert dists == sorted(dists)


class TestServiceBoundary:
    def _service(self):
        service = OnexService()
        resp = service.handle(
            Request("load_dataset", {"source": "matters", "years": 10, "min_years": 8})
        )
        assert resp.ok, resp.error_message
        return service, resp.result["dataset"]

    def test_metric_option_accepted(self):
        service, name = self._service()
        query = {
            "series": service.engine.base(name).dataset.names[0],
            "start": 0,
            "length": 8,
        }
        resp = service.handle(
            Request(
                "k_best",
                {"dataset": name, "query": query, "k": 2, "metric": "euclidean"},
            )
        )
        assert resp.ok, resp.error_message
        assert len(resp.result["matches"]) == 2

    def test_unknown_metric_is_validation_error(self):
        service, name = self._service()
        query = {
            "series": service.engine.base(name).dataset.names[0],
            "start": 0,
            "length": 8,
        }
        for op, extra in (
            ("best_match", {}),
            ("k_best", {"k": 1}),
            ("matches_within", {"threshold": 0.5}),
        ):
            resp = service.handle(
                Request(
                    op,
                    {"dataset": name, "query": query, "metric": "bogus", **extra},
                )
            )
            assert not resp.ok
            assert resp.error_type == "ValidationError"
            assert "unknown metric" in resp.error_message

    def test_query_counter_carries_metric_label(self):
        from repro.obs.metrics import REGISTRY as METRICS

        service, name = self._service()
        query = {
            "series": service.engine.base(name).dataset.names[0],
            "start": 0,
            "length": 8,
        }
        resp = service.handle(
            Request(
                "best_match",
                {"dataset": name, "query": query, "metric": "chebyshev"},
            )
        )
        assert resp.ok, resp.error_message
        exposition = METRICS.render()
        assert 'metric="chebyshev"' in exposition

"""The span tracer: structure, the disabled fast path, and the
trace-on/off identity property (tracing is pure observation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.query import QueryProcessor
from repro.core.seasonal import find_seasonal_patterns
from repro.data.matters import build_matters_collection
from repro.obs.trace import (
    NULL_SPAN,
    current_trace,
    new_request_id,
    span,
    tracing,
)


class TestSpanTree:
    def test_nested_spans_build_a_tree(self):
        with tracing("req-1") as trace:
            with span("outer", k=3):
                with span("inner.a", n=1):
                    pass
                with span("inner.b"):
                    pass
        tree = trace.as_dict()
        assert tree["name"] == "trace"
        (outer,) = tree["children"]
        assert outer["name"] == "outer"
        assert outer["attrs"] == {"k": 3}
        assert [c["name"] for c in outer["children"]] == ["inner.a", "inner.b"]
        assert len(list(trace.spans())) == 3  # outer + the two inner spans

    def test_durations_are_recorded_and_nested(self):
        with tracing("req-2") as trace:
            with span("outer"):
                with span("inner"):
                    pass
        outer = trace.as_dict()["children"][0]
        inner = outer["children"][0]
        assert outer["duration_ms"] >= inner["duration_ms"] >= 0.0
        assert trace.root.duration_ms >= outer["duration_ms"]

    def test_add_sums_numeric_attrs(self):
        with tracing("req-3") as trace:
            with span("work") as sp:
                sp.add(calls=2)
                sp.add(calls=3, label="x")
        node = trace.as_dict()["children"][0]
        assert node["attrs"] == {"calls": 5, "label": "x"}

    def test_early_return_still_closes_span(self):
        def helper():
            with span("early"):
                return 7

        with tracing("req-4") as trace:
            assert helper() == 7
        assert trace.as_dict()["children"][0]["name"] == "early"

    def test_exception_inside_span_propagates_and_closes(self):
        with tracing("req-5") as trace:
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("x")
        node = trace.as_dict()["children"][0]
        assert node["duration_ms"] is not None


class TestDisabledPath:
    def test_span_without_trace_is_the_null_singleton(self):
        assert current_trace() is None
        assert span("anything", k=1) is NULL_SPAN
        with span("anything") as sp:
            sp.add(ignored=1)  # must be a silent no-op
        assert span("again") is NULL_SPAN

    def test_tracing_restores_previous_state(self):
        assert current_trace() is None
        with tracing("outer-req") as outer:
            assert current_trace() is outer
            with tracing("inner-req") as inner:
                assert current_trace() is inner
            assert current_trace() is outer
        assert current_trace() is None
        assert span("after") is NULL_SPAN

    def test_request_ids_are_unique_hex(self):
        ids = {new_request_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)


@pytest.fixture(scope="module")
def small_base():
    dataset = build_matters_collection(
        indicators=("GrowthRate",), years=12, min_years=8, seed=7
    )
    base = OnexBase(
        dataset,
        BuildConfig(similarity_threshold=0.1, min_length=4, max_length=6),
    )
    base.build()
    return base


def _matches(processor, q, k, threshold):
    return (
        [(m.ref, m.distance) for m in processor.k_best_matches(q, k=k, normalize=False)],
        (m := processor.best_match(q, normalize=False)) and (m.ref, m.distance),
        [
            (m.ref, m.distance)
            for m in processor.matches_within(q, threshold, normalize=False)
        ],
    )


class TestTraceIdentity:
    """Tracing must never change an answer — the EXPLAIN guarantee."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=4,
            max_size=6,
        ),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.02, max_value=0.3),
        st.sampled_from(["fast", "exact"]),
    )
    def test_query_family_identical_on_and_off(
        self, small_base, values, k, threshold, mode
    ):
        processor = QueryProcessor(small_base, QueryConfig(mode=mode))
        q = np.asarray(values)
        untraced = _matches(processor, q, k, threshold)
        with tracing("prop") as trace:
            traced = _matches(processor, q, k, threshold)
        assert traced == untraced
        assert len(list(trace.spans())) > 1  # the cascade actually emitted spans

    def test_seasonal_identical_on_and_off(self, small_base):
        series = small_base.dataset[0]
        plain = find_seasonal_patterns(series, 5, 0.15)
        with tracing("seasonal"):
            traced = find_seasonal_patterns(series, 5, 0.15)
        assert [
            (p.max_pairwise_dtw, [s.start for s in p.segments]) for p in plain
        ] == [
            (p.max_pairwise_dtw, [s.start for s in p.segments]) for p in traced
        ]

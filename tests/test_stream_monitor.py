"""Tests for live pattern monitoring (repro.stream.monitor / spring_online).

Exactness contracts: the vectorised online SPRING matcher reports the
same matches as the brute-force reference implementation, monitors' SPRING
events match a reference replay of the normalised stream, and window
events match a brute-force scan of every completed pattern-length window.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.spring import SpringMatcher
from repro.core.base import OnexBase
from repro.core.config import BuildConfig
from repro.core.engine import OnexEngine
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.distances.dtw import dtw_distance
from repro.exceptions import DatasetError, ValidationError
from repro.stream import MonitorRegistry, OnlineSpringMatcher, StreamIngestor
from repro.stream import monitor as monitor_module


def make_base(normalize=False, st_value=0.25, seed=41):
    rng = np.random.default_rng(seed)
    ds = TimeSeriesDataset.from_arrays(
        [rng.normal(size=20).cumsum() for _ in range(2)], name="mon-base"
    )
    base = OnexBase(
        ds,
        BuildConfig(
            similarity_threshold=st_value, min_length=4, max_length=7,
            normalize=normalize,
        ),
    )
    base.build()
    return base


def assert_same_matches(got, want):
    assert [(m.start, m.end) for m in got] == [(w.start, w.end) for w in want]
    for m, w in zip(got, want):
        assert m.distance == pytest.approx(w.distance, abs=1e-9)


class TestOnlineSpringMatcher:
    def test_matches_reference_on_planted_patterns(self):
        rng = np.random.default_rng(1)
        pattern = np.sin(np.linspace(0, 3, 16))
        stream = np.concatenate(
            [
                rng.normal(scale=0.3, size=50),
                pattern + rng.normal(scale=0.05, size=16),
                rng.normal(scale=0.3, size=30),
                pattern,
                rng.normal(scale=0.3, size=20),
            ]
        )
        for epsilon in (0.8, 2.0, 6.0):
            ref = SpringMatcher(pattern, epsilon)
            vec = OnlineSpringMatcher(pattern, epsilon)
            assert_same_matches(
                vec.extend(stream) + vec.finish(),
                ref.extend(stream) + ref.finish(),
            )

    # Dyadic grid values: every ground cost and partial sum is exactly
    # representable, so the vectorised form's reassociated additions give
    # bit-identical DP values and the equivalence is exact.  (On arbitrary
    # floats the two associations can differ by an ulp, which on an *exact
    # tie* of two candidate boundaries may pick the other, equally good,
    # report — see the spring_online module docstring.)
    grid = st.integers(min_value=-64, max_value=64).map(lambda n: n / 32.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(grid, min_size=2, max_size=10),
        st.lists(grid, min_size=1, max_size=60),
        st.integers(min_value=1, max_value=160).map(lambda n: n / 32.0),
    )
    def test_property_equivalent_to_reference(self, pattern, stream, epsilon):
        ref = SpringMatcher(pattern, epsilon)
        vec = OnlineSpringMatcher(pattern, epsilon)
        got = vec.extend(stream) + vec.finish()
        want = ref.extend(stream) + ref.finish()
        assert [(m.start, m.end, m.distance) for m in got] == [
            (w.start, w.end, w.distance) for w in want
        ]

    def test_validation(self):
        with pytest.raises(ValidationError):
            OnlineSpringMatcher([1.0], 1.0)
        with pytest.raises(ValidationError):
            OnlineSpringMatcher([1.0, 2.0], 0.0)
        matcher = OnlineSpringMatcher([1.0, 2.0], 1.0)
        with pytest.raises(ValidationError):
            matcher.append(float("nan"))

    def test_counters(self):
        matcher = OnlineSpringMatcher([0.0, 1.0, 0.0], 1.0)
        assert matcher.pattern_length == 3
        assert matcher.epsilon == 1.0
        matcher.extend([0.1, 0.2])
        assert matcher.samples_seen == 2


class TestPatternMonitor:
    def test_spring_events_match_reference_replay(self):
        base = make_base()
        ing = StreamIngestor(base)
        pattern = base.dataset[0].values[2:8]
        monitor = ing.registry.register(pattern, epsilon=1.2, series="live")
        rng = np.random.default_rng(2)
        values = np.concatenate(
            [rng.normal(size=30).cumsum(), pattern, rng.normal(size=20).cumsum()]
        )
        events = []
        for i in range(0, len(values), 5):
            events += ing.append_points("live", values[i : i + 5])["events"]
        spring_events = [e for e in events if e["kind"] == "match"]
        ref = SpringMatcher(pattern, 1.2)
        want = ref.extend(base.dataset["live"].values)
        assert [(e["start"], e["end"]) for e in spring_events] == [
            (w.start, w.end) for w in want
        ]
        for e, w in zip(spring_events, want):
            assert e["distance"] == pytest.approx(w.distance, abs=1e-9)
        assert monitor.describe()["windows_checked"] > 0

    @pytest.mark.usefixtures("kernel_backend")
    @pytest.mark.parametrize("added", [0, 36])
    def test_window_events_match_brute_force_window_scan(self, added):
        """Every window an append completes is checked against the
        normalised series: 4-point appends to a new series, or a series
        added whole (*added* points) and then one chunk completing many
        windows, the first of them starting in the added points."""
        base = make_base(normalize=True)
        ing = StreamIngestor(base)
        pattern = base.dataset[1].values[5:11]
        epsilon = 0.4
        monitor = ing.registry.register(pattern, epsilon=epsilon, series="live")
        rng = np.random.default_rng(9)
        raw = base.raw_dataset[1].values
        values = np.concatenate(
            [rng.normal(size=30).cumsum(), raw[5:11], raw[3:14] + 0.01]
        )
        events = []
        if added:
            base.add_series(TimeSeries("live", values[:added]))
            events = ing.append_points("live", values[added:])["events"]
        else:
            for i in range(0, len(values), 4):
                events += ing.append_points("live", values[i : i + 4])["events"]
        got = [
            (e["start"], e["end"], e["distance"])
            for e in events
            if e["kind"] == "window"
        ]
        live = base.dataset["live"].values
        m = len(pattern)
        want = [
            (s, s + m - 1, dtw_distance(pattern, live[s : s + m]))
            for s in range(max(added - m + 1, 0), len(live) - m + 1)
        ]
        assert got == [w for w in want if w[2] <= epsilon]
        assert 2 <= len(got) < len(want)
        assert monitor.describe()["windows_checked"] == len(want)

    def test_far_pattern_emits_no_window_events(self):
        base = make_base()
        ing = StreamIngestor(base)
        # A pattern far outside the data's range: no window is within
        # epsilon, yet every pattern-length window is still checked.
        pattern = np.full(6, 1e3)
        monitor = ing.registry.register(pattern, epsilon=0.5, series="live")
        rng = np.random.default_rng(4)
        for v in rng.normal(size=25).cumsum():
            ing.append_points("live", [v])
        assert monitor.describe()["windows_checked"] == 25 - 6 + 1
        assert monitor.describe()["windows_pruned"] == 0
        assert all(e.kind != "window" for e in ing.registry.poll())

    def test_monitor_scoped_to_one_series(self):
        base = make_base()
        ing = StreamIngestor(base)
        pattern = base.dataset[0].values[:5]
        ing.registry.register(pattern, epsilon=5.0, series="only-this")
        ing.append_points("other", np.asarray(pattern, dtype=float))
        assert ing.registry.poll() == []
        ing.append_points("only-this", np.asarray(pattern, dtype=float))
        assert any(e.series == "only-this" for e in ing.registry.poll())

    def test_unscoped_monitor_watches_every_live_series(self):
        base = make_base()
        ing = StreamIngestor(base)
        pattern = base.dataset[0].values[:5]
        ing.registry.register(pattern, epsilon=5.0)
        ing.append_points("a", np.asarray(pattern, dtype=float))
        ing.append_points("b", np.asarray(pattern, dtype=float))
        series_seen = {e.series for e in ing.registry.poll()}
        assert {"a", "b"} <= series_seen


class TestMonitorRegistry:
    def test_sequence_numbers_strictly_increase(self):
        base = make_base()
        ing = StreamIngestor(base)
        ing.registry.register(base.dataset[0].values[:5], epsilon=5.0)
        rng = np.random.default_rng(5)
        for v in rng.normal(size=20).cumsum():
            ing.append_points("live", [v])
        events = ing.registry.poll()
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        # SPRING matches of one monitor+series arrive in stream order.
        spring = [e for e in events if e.kind == "match"]
        assert [e.start for e in spring] == sorted(e.start for e in spring)

    def test_poll_since_and_limit(self):
        base = make_base()
        ing = StreamIngestor(base)
        ing.registry.register(base.dataset[0].values[:5], epsilon=50.0)
        rng = np.random.default_rng(6)
        for v in rng.normal(size=15).cumsum():
            ing.append_points("live", [v])
        events = ing.registry.poll()
        assert len(events) >= 2
        tail = ing.registry.poll(since=events[0].seq)
        assert [e.seq for e in tail] == [e.seq for e in events[1:]]
        assert len(ing.registry.poll(limit=1)) == 1
        assert ing.registry.poll(since=events[-1].seq) == []

    def test_bounded_buffer_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "_MAX_EVENTS", 5)
        base = make_base()
        ing = StreamIngestor(base)
        registry = ing.registry
        registry.register(base.dataset[0].values[:5], epsilon=100.0)
        rng = np.random.default_rng(7)
        for v in rng.normal(size=30).cumsum():
            ing.append_points("live", [v])
        events = registry.poll()
        assert len(events) == 5
        assert registry.dropped > 0
        assert events[-1].seq == registry.last_seq

    def test_register_unregister(self):
        base = make_base()
        registry = MonitorRegistry(base)
        m1 = registry.register(base.dataset[0].values[:5], epsilon=1.0)
        m2 = registry.register(base.dataset[0].values[:5], epsilon=1.0, name="x")
        assert registry.monitor_names == sorted([m1.name, "x"])
        with pytest.raises(DatasetError, match="duplicate"):
            registry.register(base.dataset[0].values[:5], epsilon=1.0, name="x")
        registry.unregister("x")
        assert "x" not in registry.monitor_names
        with pytest.raises(DatasetError, match="no monitor"):
            registry.unregister("x")
        with pytest.raises(DatasetError, match="no monitor"):
            registry.monitor("ghost")
        assert m2.name == "x"

    def test_pattern_length_outside_index_still_streams(self):
        base = make_base()  # lengths 4..7
        ing = StreamIngestor(base)
        pattern = np.sin(np.linspace(0, 2, 12))  # length 12: no bucket
        ing.registry.register(pattern, epsilon=2.0, series="live")
        rng = np.random.default_rng(8)
        events = []
        for i in range(0, 40, 5):
            chunk = np.concatenate([pattern, rng.normal(size=3)])[:5]
            events += ing.append_points("live", chunk)["events"]
        assert all(e["kind"] == "match" for e in events)


def test_register_rejects_non_finite_epsilon():
    """A bad epsilon must fail at registration, not poison later appends."""
    base = make_base()
    registry = MonitorRegistry(base)
    for bad in (float("inf"), float("nan"), 0.0, -1.0):
        with pytest.raises(ValidationError):
            registry.register(base.dataset[0].values[:5], epsilon=bad)
    assert registry.monitor_names == []


def test_restore_accepts_a_snapshot_with_prefilter_counters():
    """A checkpoint written before the representative prefilter
    went still carries ``windows_pruned`` and ``rep_dtw_calls`` per
    monitor; recovery restores from it and drops them."""
    base = make_base()
    pattern = base.dataset[0].values[:5]
    old = {
        "name": "old",
        "pattern": [float(v) for v in pattern],
        "epsilon": 5.0,
        "series": "live",
        "windows_checked": 40,
        "windows_pruned": 31,
        "rep_dtw_calls": 7,
    }
    engine = OnexEngine()
    engine.restore_dataset(base, monitors=[old], event_seq=3)
    monitor = engine.stream_registry(base.raw_dataset.name).monitor("old")
    assert monitor.describe()["windows_checked"] == 40
    assert monitor.describe()["windows_pruned"] == 0
    events = engine.append_points(base.raw_dataset.name, "live", pattern)["events"]
    assert events and events[0]["seq"] == 4
    assert monitor.snapshot() == {
        key: old[key] for key in ("name", "pattern", "epsilon", "series")
    } | {"windows_checked": monitor.windows_checked}


def test_flush_reports_tail_candidate():
    """A match ending on the stream's final sample surfaces via flush."""
    base = make_base()
    ing = StreamIngestor(base)
    pattern = base.dataset[0].values[2:8]
    ing.registry.register(pattern, epsilon=0.5, series="live")
    rng = np.random.default_rng(21)
    # Noise, then the pattern exactly at the tail: the distance-0 match
    # ends on the last appended sample and stays deferred.
    ing.append_points("live", rng.normal(size=20).cumsum())
    ing.append_points("live", np.asarray(pattern, dtype=float))
    before = [e for e in ing.registry.poll() if e.kind == "match"]
    flushed = ing.registry.flush()
    tail = [e for e in flushed if e.kind == "match"]
    assert tail, "flush must report the pending tail candidate"
    assert tail[-1].end == len(base.dataset["live"].values) - 1
    assert tail[-1].distance == pytest.approx(0.0, abs=1e-9)
    assert all(e.end < tail[-1].start for e in before)
    # Flushed events land in the ordered feed like any other.
    polled = [e for e in ing.registry.poll() if e.kind == "match"]
    assert polled[-1].seq == tail[-1].seq
    # Idempotent once drained.
    assert ing.registry.flush() == []

"""Multivariate (multi-channel) series through the full vertical.

The memory layout contract (DESIGN.md §9): a ``(length, channels)``
window is stored channel-flattened in C order, so every clustering,
radius, persistence, and fingerprint path operates on plain rows of
width ``length * channels``; only the distance kernels restore the
channel shape.  These tests pin that contract end to end — data layer,
base build, query exactness against a naive scan, streaming appends,
persistence (v5 archives plus the v4 backward-compatibility path), and
the boundaries that must reject what multivariate mode cannot answer.
"""

import math

import numpy as np
import pytest

from repro.core.base import OnexBase
from repro.core.config import BuildConfig
from repro.core.engine import OnexEngine
from repro.core.sensitivity import similarity_profile
from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.data.windows import window_matrix, window_view
from repro.distances.registry import get_metric
from repro.exceptions import PersistenceError, ValidationError
from repro.stream.ingest import StreamIngestor


def _mv_dataset(seed=2, n_series=5, length=36, channels=2, name=None):
    rng = np.random.default_rng(seed)
    series = [
        TimeSeries(f"s{i}", rng.normal(size=(length, channels)))
        for i in range(n_series)
    ]
    return TimeSeriesDataset(series, name=name or f"mv-{seed}-{channels}")


def _build(dataset, min_length=8, max_length=10, st=0.25):
    base = OnexBase(
        dataset,
        BuildConfig(
            similarity_threshold=st,
            min_length=min_length,
            max_length=max_length,
        ),
    )
    base.build()
    return base


class TestDataLayer:
    def test_dataset_channels(self):
        ds = _mv_dataset(channels=3)
        assert ds.channels == 3
        assert ds.describe()["channels"] == 3

    def test_mixed_channel_counts_rejected(self):
        ds = TimeSeriesDataset(name="mixed")
        ds.add(TimeSeries("a", np.zeros((10, 2)) + 1.0))
        with pytest.raises(ValidationError, match="channel"):
            ds.add(TimeSeries("b", np.ones(10)))

    def test_window_view_is_3d_strided(self):
        values = np.arange(24.0).reshape(8, 3)
        view = window_view(values, length=4, step=2)
        assert view.shape == (3, 4, 3)
        assert not view.flags.writeable
        assert np.array_equal(view[1], values[2:6])
        # A strided view, not a copy.
        assert view.base is not None

    def test_window_matrix_flattens_channels(self):
        values = np.arange(20.0).reshape(10, 2)
        matrix, counts = window_matrix([values], length=4, step=1)
        assert matrix.shape == (7, 8)
        assert np.array_equal(matrix[2], values[2:6].reshape(-1))
        assert counts.tolist() == [7]


class TestBaseBuildAndQuery:
    def test_build_validates_and_fingerprints(self):
        ds = _mv_dataset()
        base = _build(ds)
        base.validate()  # radius invariants hold on flattened rows
        assert base.channels == 2
        fp1 = base.structure_fingerprint()
        base2 = _build(_mv_dataset())
        assert fp1 == base2.structure_fingerprint()

    @pytest.mark.parametrize(
        "metric, channels", [("dtw", 2), ("dtw", 3), ("derivative_dtw", 2)]
    )
    def test_default_dtw_matches_naive_scan(self, metric, channels):
        ds = _mv_dataset(seed=9, channels=channels)
        engine = OnexEngine()
        engine.load_dataset(ds, min_length=8, max_length=10)
        rng = np.random.default_rng(1)
        spec = get_metric(metric)
        base = engine.base(ds.name)
        lo, hi = base.normalization_bounds
        for _ in range(2):
            q = rng.normal(size=(9, channels))
            qn = (q - lo) / (hi - lo)
            match = engine.best_match(ds.name, q, metric=metric)
            best = math.inf
            for bucket in base.buckets():
                for group in bucket.groups:
                    for ref in group.members:
                        _, norm = spec.pair(qn, base.dataset.values(ref), None)
                        best = min(best, norm)
            assert math.isclose(match.distance, best, rel_tol=1e-9, abs_tol=1e-9)

    @pytest.mark.usefixtures("kernel_backend")
    @pytest.mark.parametrize("window", [None, 1])
    def test_derivative_dtw_batch_equals_pair(self, window):
        spec = get_metric("derivative_dtw")
        rng = np.random.default_rng(12)
        q, rows = rng.normal(size=(9, 2)), rng.normal(size=(70, 10, 2))
        raws, norms = spec.batch(q.ravel(), rows.reshape(70, -1), 10, 2, window)
        for k, row in enumerate(rows):
            assert (raws[k], norms[k]) == spec.pair(q, row, window)

    @pytest.mark.parametrize("metric", ("euclidean", "cityblock", "chebyshev"))
    def test_lp_metrics_match_naive_scan(self, metric):
        ds = _mv_dataset(seed=13)
        engine = OnexEngine()
        engine.load_dataset(ds, min_length=8, max_length=10)
        base = engine.base(ds.name)
        lo, hi = base.normalization_bounds
        spec = get_metric(metric)
        q = np.random.default_rng(4).normal(size=(9, 2))
        qn = (q - lo) / (hi - lo)
        match = engine.best_match(ds.name, q, metric=metric)
        best = math.inf
        for bucket in base.buckets():
            if bucket.length != 9:
                continue
            for group in bucket.groups:
                for ref in group.members:
                    _, norm = spec.pair(qn, base.dataset.values(ref), None)
                    best = min(best, norm)
        assert math.isclose(match.distance, best, rel_tol=1e-9, abs_tol=1e-9)

    def test_univariate_query_shape_rejected(self):
        ds = _mv_dataset(seed=5)
        engine = OnexEngine()
        engine.load_dataset(ds, min_length=8, max_length=10)
        with pytest.raises(ValidationError):
            engine.best_match(ds.name, np.zeros(9) + 0.5)

    def test_weighted_dtw_rejected_on_multivariate(self):
        ds = _mv_dataset(seed=6)
        engine = OnexEngine()
        engine.load_dataset(ds, min_length=8, max_length=10)
        with pytest.raises(ValidationError, match="univariate"):
            engine.best_match(
                ds.name, np.zeros((9, 2)) + 0.5, metric="weighted_dtw"
            )

    def test_similarity_profile_rejected_on_multivariate(self):
        """Multichannel queries resolve like any query, but the profile's
        path bounds are univariate: a typed error, whatever the query."""
        base = _build(_mv_dataset(seed=7))
        for query in (np.zeros((9, 2)) + 0.5, SubsequenceRef(0, 0, 9)):
            with pytest.raises(ValidationError, match="univariate"):
                similarity_profile(base, query, [0.1, 0.2])

    def test_add_series_indexes_multichannel(self):
        ds = _mv_dataset(seed=8)
        base = _build(ds)
        groups_before = base.stats.groups
        rng = np.random.default_rng(42)
        out = base.add_series(TimeSeries("fresh", rng.normal(size=(20, 2))))
        assert out["windows"] > 0
        assert base.stats.groups >= groups_before
        base.validate()


class TestStreaming:
    def test_append_rebuild_equivalence(self):
        """Appended multichannel points answer like a from-scratch build."""
        rng = np.random.default_rng(17)
        history = [rng.normal(size=(30, 2)) for _ in range(4)]
        extra = rng.normal(size=(12, 2))

        streamed = TimeSeriesDataset(
            [TimeSeries(f"s{i}", v) for i, v in enumerate(history)],
            name="stream-mv",
        )
        base = _build(streamed, min_length=8, max_length=9)
        ingestor = StreamIngestor(base)
        summary = ingestor.append_points("s0", extra)
        assert summary["points"] == 12
        assert summary["windows"] > 0

        full = TimeSeriesDataset(
            [
                TimeSeries("s0", np.concatenate([history[0], extra])),
                *[TimeSeries(f"s{i}", history[i]) for i in range(1, 4)],
            ],
            name="rebuild-mv",
        )
        rebuilt = _build(full, min_length=8, max_length=9)
        # Same indexed window population (group shapes may differ).
        assert base.stats.subsequences == rebuilt.stats.subsequences
        base.validate()

    def test_wrong_channel_chunk_rejected(self):
        ds = _mv_dataset(seed=19)
        base = _build(ds)
        ingestor = StreamIngestor(base)
        with pytest.raises(ValidationError, match="2-channel"):
            ingestor.append_points("s0", [1.0, 2.0, 3.0])

    def test_monitor_registration_rejected(self):
        ds = _mv_dataset(seed=20)
        base = _build(ds)
        ingestor = StreamIngestor(base)
        with pytest.raises(ValidationError, match="univariate"):
            ingestor.registry.register(np.zeros(8) + 0.1, 1.0)


class TestPersistence:
    def test_v5_roundtrip_preserves_answers(self, tmp_path):
        ds = _mv_dataset(seed=21)
        base = _build(ds)
        path = tmp_path / "mv-base"
        base.save(path)
        loaded = OnexBase.load(path)
        assert loaded.channels == 2
        assert (
            loaded.structure_fingerprint() == base.structure_fingerprint()
        )
        from repro.core.query import QueryProcessor

        q = np.random.default_rng(2).normal(size=(9, 2))
        a = QueryProcessor(base).best_match(q)
        b = QueryProcessor(loaded).best_match(q)
        assert a.distance == b.distance and a.ref == b.ref

    def test_channel_mismatch_rejected_on_load(self, tmp_path):
        """The channel count rides in the snapshot; one that disagrees
        with the stored row widths is refused."""
        import json

        from repro.core.mmap_layout import _meta_digest

        ds = _mv_dataset(seed=22)
        base = _build(ds)
        path = tmp_path / "mv-base"
        base.save(path)
        meta = json.loads((path / "meta.json").read_text())
        assert meta["channels"] == 2
        meta["channels"] = 1
        meta["meta_sha256"] = _meta_digest(meta)
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(PersistenceError, match="shape"):
            OnexBase.load(path)


class TestCheckpointRecovery:
    def test_multichannel_state_survives_recovery(self, tmp_path):
        """WAL + checkpoint carry channel metadata through recovery."""
        from repro.durability import DurabilityManager

        ds = _mv_dataset(seed=27)
        base = _build(ds)
        handle, _ = DurabilityManager(tmp_path).attach(ds.name)
        handle.checkpoint(base)
        restored, _, _ = handle.restore([])
        handle.close()
        assert restored.raw_dataset.channels == 2
        assert restored.channels == 2
        assert (
            restored.structure_fingerprint() == base.structure_fingerprint()
        )

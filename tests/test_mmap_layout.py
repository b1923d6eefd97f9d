"""The one on-disk layout of a base (``repro.core.mmap_layout``).

Durable saves and pool epochs share it; ``OnexBase.save``/``load``
round-trip the whole mutable state.  The pool's zero-copy contract: a snapshot loads as views of one
write-protected memory map (cold start is a single ``mmap``, page-cache
shared across forked workers), queries against the attached base are
bit-identical to the original, and every mutation path raises
``ReadOnlyBaseError`` instead of corrupting sibling processes.
"""

import json

import numpy as np
import pytest

from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.engine import OnexEngine
from repro.core.mmap_layout import (
    clean_stale_snapshots,
    load_base_snapshot,
    save_base_snapshot,
)
from repro.core.persist import sha256_file
from repro.core.query import QueryProcessor
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.exceptions import PersistenceError, ReadOnlyBaseError
from repro.stream import StreamIngestor


@pytest.fixture(scope="module")
def built_base():
    rng = np.random.default_rng(7)
    dataset = TimeSeriesDataset(
        [TimeSeries(f"s{i}", rng.normal(size=64).cumsum()) for i in range(5)],
        name="mmap-toy",
    )
    engine = OnexEngine(QueryConfig())
    engine.load_dataset(
        dataset,
        similarity_threshold=0.3,
        min_length=10,
        max_length=14,
        step=2,
    )
    return engine.base("mmap-toy")


@pytest.fixture()
def snapshot(built_base, tmp_path):
    return save_base_snapshot(built_base, tmp_path / "epoch-1")


class TestRoundTrip:
    def test_structure_fingerprint_survives(self, built_base, snapshot):
        base, meta = load_base_snapshot(snapshot, verify=True)
        assert meta["structure_fingerprint"] == built_base.structure_fingerprint()
        assert base.structure_fingerprint() == built_base.structure_fingerprint()

    def test_queries_bit_identical(self, built_base, snapshot):
        attached, _ = load_base_snapshot(snapshot)
        rng = np.random.default_rng(3)
        query = rng.normal(size=12).cumsum()
        for mode in ("fast", "exact"):
            original = QueryProcessor(built_base, QueryConfig(mode=mode))
            mapped = QueryProcessor(attached, QueryConfig(mode=mode))
            a = original.k_best_matches(query, 3)
            b = mapped.k_best_matches(query, 3)
            assert [(m.series_name, m.start) for m in a] == [
                (m.series_name, m.start) for m in b
            ]
            assert [m.distance for m in a] == [m.distance for m in b]

    def test_arrays_are_write_protected_memmaps(self, snapshot):
        base, _ = load_base_snapshot(snapshot)
        length = base.lengths[0]
        bucket = base.bucket(length)
        matrix = bucket.stacked_member_matrix()

        def backing(array):
            while array.base is not None and not isinstance(array, np.memmap):
                array = array.base
            return array

        # Views of the one mapped arrays.bin, not copies of it.
        assert isinstance(backing(matrix), np.memmap)
        assert backing(matrix) is backing(bucket.centroids)
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0  # write-protected: raises, never corrupts

    def test_stats_and_meta_survive(self, built_base, snapshot):
        base, meta = load_base_snapshot(snapshot)
        assert base.stats.subsequences == built_base.stats.subsequences
        assert base.stats.groups == built_base.stats.groups
        assert list(base.lengths) == list(built_base.lengths)
        assert meta["dataset"]["name"] == "mmap-toy"


class TestReadOnlyGates:
    def test_mutations_raise_read_only(self, snapshot):
        base, _ = load_base_snapshot(snapshot)
        assert base.read_only
        with pytest.raises(ReadOnlyBaseError):
            base.add_series(TimeSeries("nope", np.arange(30.0)))

    def test_materialised_copy_is_writable(self, snapshot):
        base, _ = load_base_snapshot(snapshot, mmap_mode=None)
        assert not base.read_only
        rng = np.random.default_rng(11)
        summary = base.add_series(
            TimeSeries("grown", rng.normal(size=40).cumsum())
        )
        assert summary["windows"] > 0


class TestDurabilityOfWrites:
    def test_refuses_existing_directory(self, built_base, tmp_path):
        target = tmp_path / "epoch-1"
        save_base_snapshot(built_base, target)
        with pytest.raises(PersistenceError):
            save_base_snapshot(built_base, target)

    def test_verify_detects_tampering(self, built_base, tmp_path):
        path = save_base_snapshot(built_base, tmp_path / "epoch-1")
        length = built_base.lengths[0]
        meta = json.loads((path / "meta.json").read_text())
        _, _, offset = meta["arrays"][f"len{length}_centroids"]
        blob = np.memmap(path / "arrays.bin", dtype=np.uint8, mode="r+")
        blob[offset : offset + 8].view(np.float64)[0] += 1.0
        blob.flush()
        del blob
        with pytest.raises(PersistenceError):
            load_base_snapshot(path, verify=True)
        # Without verify the mmap open stays cheap and trusting.
        base, _ = load_base_snapshot(path, verify=False)
        assert base.read_only

    def test_format_version_checked(self, built_base, tmp_path):
        path = save_base_snapshot(built_base, tmp_path / "epoch-1")
        meta = json.loads((path / "meta.json").read_text())
        meta["format"] = 999
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(PersistenceError):
            load_base_snapshot(path)


class TestDurableRoundTrip:
    """``OnexBase.save`` / ``load`` over the same layout: the whole
    mutable state — rows appended after the build included — survives,
    twice, and the loaded base keeps growing."""

    @staticmethod
    def grown_base():
        rng = np.random.default_rng(19)
        dataset = TimeSeriesDataset(
            [TimeSeries(f"s{i}", rng.normal(size=40).cumsum()) for i in range(4)],
            name="grown",
        )
        base = OnexBase(
            dataset,
            BuildConfig(similarity_threshold=0.2, min_length=6, max_length=9),
        )
        base.build()
        # Wider than the build-time bounds, so the saved bounds differ
        # from the collection's current extremes.
        base.add_series(TimeSeries("wide", 10.0 * rng.normal(size=30).cumsum()))
        ingestor = StreamIngestor(base)
        for chunk in np.split(rng.normal(size=24).cumsum(), 6):
            ingestor.append_points("live", chunk)
        ingestor.append_points("s1", rng.normal(size=5))
        assert any(b._row_group is not None for b in base.buckets())
        return base, rng

    @staticmethod
    def answers(base, queries):
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        return [
            [(m.distance, m.ref) for m in processor.k_best_matches(q, 4)]
            for q in queries
        ]

    def test_save_load_append_save_load(self, tmp_path):
        base, rng = self.grown_base()
        queries = [rng.normal(size=n).cumsum() for n in (6, 8, 11)]
        base.save(tmp_path / "first")
        loaded = OnexBase.load(tmp_path / "first")
        assert not loaded.read_only
        assert loaded.structure_fingerprint() == base.structure_fingerprint()
        assert loaded.normalization_bounds == base.normalization_bounds
        assert loaded.normalization_bounds != loaded.raw_dataset.global_bounds()
        assert loaded.stats.per_length == base.stats.per_length
        assert loaded.raw_dataset.names == base.raw_dataset.names
        assert self.answers(loaded, queries) == self.answers(base, queries)
        loaded.validate()

        # Both keep growing, identically.
        tail = rng.normal(size=7).cumsum()
        extra = TimeSeries("late", rng.normal(size=20).cumsum())
        for target in (base, loaded):
            summary = StreamIngestor(target).append_points("live", tail)
            assert summary["windows"] > 0
            target.add_series(extra)
        assert loaded.structure_fingerprint() == base.structure_fingerprint()

        loaded.save(tmp_path / "second")
        again = OnexBase.load(tmp_path / "second")
        assert again.structure_fingerprint() == base.structure_fingerprint()
        assert self.answers(again, queries) == self.answers(base, queries)
        again.validate()

    def test_durable_snapshot_attaches_read_only(self, tmp_path):
        base, rng = self.grown_base()
        queries = [rng.normal(size=n).cumsum() for n in (7, 9)]
        base.save(tmp_path / "saved")
        attached, meta = load_base_snapshot(tmp_path / "saved", mmap_mode="r", verify=True)
        assert attached.read_only and meta["arrays_sha256"]
        assert attached.structure_fingerprint() == base.structure_fingerprint()
        assert self.answers(attached, queries) == self.answers(base, queries)

    def test_durable_write_records_the_file_hashes(self, built_base, tmp_path):
        digests = built_base.save(tmp_path / "saved")
        assert digests == {
            name: sha256_file(tmp_path / "saved" / name)
            for name in ("arrays.bin", "meta.json")
        }
        meta = json.loads((tmp_path / "saved" / "meta.json").read_text())
        assert meta["arrays_sha256"] == digests["arrays.bin"]
        # An epoch is the same layout, unhashed.
        epoch = save_base_snapshot(built_base, tmp_path / "epoch-1")
        assert json.loads((epoch / "meta.json").read_text())["arrays_sha256"] is None
        assert (epoch / "arrays.bin").read_bytes() == (
            tmp_path / "saved" / "arrays.bin"
        ).read_bytes()


    def test_only_what_is_not_derivable_is_stored(self, tmp_path):
        """The directory names the dataset's series and six arrays per
        length — nothing computed from a centroid row — and a loaded base
        writes the same bytes back."""
        base, _ = self.grown_base()
        base.rep_table  # built or not, never written
        base.save(tmp_path / "first")
        meta = json.loads((tmp_path / "first" / "meta.json").read_text())
        series = range(len(base.raw_dataset))
        per_length = (
            "members", "offsets", "member_matrix", "centroids", "ed_radii", "cheb_radii",
        )  # fmt: skip
        assert set(meta["arrays"]) == (
            {f"raw_{i}" for i in series}
            | {f"norm_{i}" for i in series}
            | {f"len{n}_{name}" for n in base.lengths for name in per_length}
        )
        nbytes = sum(
            np.dtype(dtype).itemsize * int(np.prod(shape))
            for dtype, shape, _ in meta["arrays"].values()
        )
        size = (tmp_path / "first" / "arrays.bin").stat().st_size
        assert nbytes <= size < nbytes + 64 * len(meta["arrays"])
        OnexBase.load(tmp_path / "first").save(tmp_path / "second")
        assert (tmp_path / "second" / "arrays.bin").read_bytes() == (
            tmp_path / "first" / "arrays.bin"
        ).read_bytes()


class TestStaleSweep:
    def test_removes_tmp_debris_and_every_epoch(self, tmp_path):
        root = tmp_path / "snaps"
        ds = root / "toy-abc123"
        for name in ("epoch-1", "epoch-2", "epoch-3", "epoch-4.tmp"):
            (ds / name).mkdir(parents=True)
            (ds / name / "meta.json").write_text("{}")
        (ds / "manifest.json").write_text("{}")
        (root / "other.tmp").mkdir()
        removed = clean_stale_snapshots(root)
        removed_names = {p.rsplit("/", 1)[-1] for p in removed}
        assert removed_names == {
            "epoch-1", "epoch-2", "epoch-3", "epoch-4.tmp", "other.tmp"
        }  # fmt: skip
        assert [p.name for p in ds.iterdir()] == ["manifest.json"]

    def test_missing_root_is_noop(self, tmp_path):
        assert clean_stale_snapshots(tmp_path / "absent") == []

"""Build-pool crash recovery, interrupted builds and crash-safe persistence.

A killed pool worker must cost its shard a serial retry, never the
build — and the retried base must be bit-identical to a serial build
(the clustering is deterministic).  A build a deadline cuts short
publishes nothing, and a pooled one stops without running its queued
shards first.  On the persistence side, a torn
write mid-``save`` must leave the previously saved archive untouched
and loadable: the temp-file + fsync + ``os.replace`` protocol never
exposes a half-written file under the real path.
"""

import time

import numpy as np
import pytest

from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.deadline import Deadline
from repro.core.query import QueryProcessor
from repro.data.dataset import TimeSeriesDataset
from repro.exceptions import (
    BuildWorkerError,
    DeadlineExceeded,
    NotBuiltError,
    PersistenceError,
)
from repro.testing import faults


@pytest.fixture(autouse=True)
def clean_registry():
    faults.disarm_all()
    yield
    faults.disarm_all()


def _dataset() -> TimeSeriesDataset:
    rng = np.random.default_rng(43)
    return TimeSeriesDataset.from_arrays(
        [rng.normal(size=n).cumsum() for n in (40, 36, 44)], name="resil"
    )


def _config(**overrides) -> BuildConfig:
    options = {
        "similarity_threshold": 0.1,
        "min_length": 4,
        "max_length": 8,
        "num_workers": 1,
    }
    options.update(overrides)
    return BuildConfig(**options)


class TestWorkerCrashRecovery:
    def test_killed_worker_recovers_bit_identically(self):
        """A worker killed mid-shard loses the shard, not the build."""
        dataset = _dataset()
        serial = OnexBase(dataset, _config())
        serial.build()

        # The pool forks, so workers inherit the armed fault; the pid
        # guard makes the parent's own fires (serial retries) pass
        # through while any worker that reaches the failpoint dies.
        faults.arm("build.shard", "kill-worker")
        recovered = OnexBase(dataset, _config(num_workers=2))
        stats = recovered.build()
        faults.disarm_all()

        assert recovered.build_shard_retries >= 1
        assert recovered.structure_fingerprint() == serial.structure_fingerprint()
        assert stats.subsequences == serial.stats.subsequences
        assert stats.groups == serial.stats.groups

    def test_retries_reset_between_builds(self):
        dataset = _dataset()
        base = OnexBase(dataset, _config(num_workers=2))
        with faults.inject("build.shard", "kill-worker"):
            base.build()
        assert base.build_shard_retries >= 1
        base.build()
        assert base.build_shard_retries == 0

    def test_double_failure_raises_build_worker_error(self):
        """When the serial retry fails too, the build fails loudly."""
        base = OnexBase(_dataset(), _config(num_workers=2))
        # An unbounded raise fault hits the pool worker AND the parent's
        # serial retry of the same shard.
        with faults.inject("build.shard", "raise"):
            with pytest.raises(BuildWorkerError, match="again on serial retry"):
                base.build()


class TestInterruptedBuild:
    """Shards merge into the build's own table; the base takes it only
    once every shard has merged."""

    def test_interrupted_rebuild_keeps_the_previous_base(self):
        base = OnexBase(_dataset(), _config())
        base.build()
        fingerprint, stats = base.structure_fingerprint(), base.stats
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        query = base.raw_dataset[1].values[5:11]
        answer = processor.k_best_matches(query, 3)
        # The deadline fires after a shard or two have merged.
        with faults.inject("build.merge", "sleep", seconds=0.06):
            with pytest.raises(DeadlineExceeded, match="base build"):
                base.build(Deadline.after(150))
        assert base.structure_fingerprint() == fingerprint
        assert base.stats == stats
        assert processor.k_best_matches(query, 3) == answer
        assert QueryProcessor(base, QueryConfig(mode="exact")).k_best_matches(
            query, 3
        ) == answer

    def test_interrupted_first_build_leaves_the_base_unbuilt(self):
        base = OnexBase(_dataset(), _config())
        with faults.inject("build.merge", "sleep", seconds=0.06):
            with pytest.raises(DeadlineExceeded, match="base build"):
                base.build(Deadline.after(150))
        assert not base.is_built
        with pytest.raises(NotBuiltError):
            base.stats
        with pytest.raises(NotBuiltError):
            QueryProcessor(base)

    def test_pooled_build_deadline_cancels_queued_shards(self):
        """Forked build workers inherit the armed sleep; 13 lengths take
        13 sleeps serially and 7 rounds on two workers.  The deadline
        fires at the first merge, and only the shards already handed to a
        worker still run."""
        shard_s = 0.2
        base = OnexBase(_dataset(), _config(max_length=16, num_workers=2))
        with faults.inject("build.shard", "sleep", seconds=shard_s):
            started = time.perf_counter()
            with pytest.raises(DeadlineExceeded, match="base build"):
                base.build(Deadline.after(50))
            elapsed = time.perf_counter() - started
        assert elapsed < 5 * shard_s
        assert not base.is_built


def _tree_bytes(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


class TestCrashSafeSave:
    """``save`` never touches an earlier save: it writes a ``.tmp``
    sibling of a path that must not exist yet and renames it into place,
    so a crash at any moment leaves earlier saves intact and loadable."""

    def test_torn_write_leaves_previous_archive_loadable(self, tmp_path):
        base = OnexBase(_dataset(), _config())
        base.build()
        first = tmp_path / "base"
        base.save(first)
        good_bytes = _tree_bytes(first)

        with faults.inject("persist.save", "torn-write"):
            with pytest.raises(faults.FaultInjectedError, match="torn write"):
                base.save(tmp_path / "second")

        # The torn temp directory was cleaned up and never became a
        # snapshot; the earlier one still loads byte-for-byte.
        assert list(tmp_path.iterdir()) == [first]
        assert _tree_bytes(first) == good_bytes
        reloaded = OnexBase.load(first)
        assert reloaded.structure_fingerprint() == base.structure_fingerprint()

    def test_save_onto_existing_path_is_refused_untouched(self, tmp_path):
        base = OnexBase(_dataset(), _config())
        base.build()
        path = tmp_path / "base"
        base.save(path)
        good_bytes = _tree_bytes(path)
        with pytest.raises(PersistenceError, match="already exists"):
            base.save(path)
        assert list(tmp_path.iterdir()) == [path]
        assert _tree_bytes(path) == good_bytes

    def test_crash_before_directory_fsync_leaves_complete_save(self, tmp_path):
        """``persist.rename`` fires after the rename, before the parent
        directory fsync: what is visible is a finished, loadable save."""
        base = OnexBase(_dataset(), _config())
        base.build()
        path = tmp_path / "base"
        with faults.inject("persist.rename", "raise"):
            with pytest.raises(faults.FaultInjectedError):
                base.save(path)
        assert list(tmp_path.iterdir()) == [path]
        reloaded = OnexBase.load(path)
        assert reloaded.structure_fingerprint() == base.structure_fingerprint()

    def test_successful_save_leaves_no_temp_file(self, tmp_path):
        base = OnexBase(_dataset(), _config())
        base.build()
        path = tmp_path / "base"
        base.save(path)
        assert list(tmp_path.iterdir()) == [path]
        assert sorted(f.name for f in path.iterdir()) == ["arrays.bin", "meta.json"]

"""Interrupted builds and crash-safe persistence.

A build a deadline cuts short publishes nothing.  On the persistence
side, a torn
write mid-``save`` must leave the previously saved archive untouched
and loadable: the temp-file + fsync + ``os.replace`` protocol never
exposes a half-written file under the real path.
"""

import numpy as np
import pytest

from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.deadline import Deadline
from repro.core.query import QueryProcessor
from repro.data.dataset import TimeSeriesDataset
from repro.exceptions import DeadlineExceeded, NotBuiltError, PersistenceError
from repro.testing import faults


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
    }
    options.update(overrides)
    return BuildConfig(**options)


class TestInterruptedBuild:
    """Series are indexed into the build's own buckets; the base takes
    them only once every series is indexed."""

    def test_interrupted_rebuild_keeps_the_previous_base(self):
        base = OnexBase(_dataset(), _config())
        base.build()
        fingerprint, stats = base.structure_fingerprint(), base.stats
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        query = base.raw_dataset[1].values[5:11]
        answer = processor.k_best_matches(query, 3)
        # The deadline fires after a series or two are indexed.
        with faults.inject("build.series", "sleep", seconds=0.06):
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
        with faults.inject("build.series", "sleep", seconds=0.06):
            with pytest.raises(DeadlineExceeded, match="base build"):
                base.build(Deadline.after(150))
        assert not base.is_built
        with pytest.raises(NotBuiltError):
            base.stats
        with pytest.raises(NotBuiltError):
            QueryProcessor(base)


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

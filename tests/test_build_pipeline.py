"""Tests for the sharded, vectorised base-construction pipeline (PR 5).

Covers the three layers of the rebuild:

- **Extraction** — the strided window kernel (:mod:`repro.data.windows`)
  against the definitional per-ref gather, at unit and non-unit steps.
- **Clustering** — Hypothesis properties that
  :func:`cluster_subsequence_rows` is *bit-identical* with its scan and
  its round evaluation replaced by their private row-at-a-time
  references, that the repair rounds re-establish the strict mean-L1
  radius invariant for every finalized group (including the
  singleton-fallback round at an exhausted budget), and that every
  centroid is its members' sequential row sum over their count.
- **Scheduling** — serial and process-pool builds produce
  structure-fingerprint-identical bases, persist identically, and report
  the per-length telemetry.

Plus the step>1 end-to-end coverage the refinement matrix's row ordering
was missing.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import grouping
from repro.core.base import LengthBuildStats, OnexBase
from repro.core.config import BuildConfig
from repro.core.grouping import cluster_subsequence_rows, cluster_subsequences
from repro.core.query import QueryProcessor
from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.data.windows import (
    rows_to_series_starts,
    window_counts,
    window_matrix,
    window_view,
)
from repro.distances.dtw import dtw_distance
from repro.exceptions import ValidationError

_EPS = 1e-9


def walks(seed, sizes=(20, 16, 24, 12), name="walks"):
    rng = np.random.default_rng(seed)
    return TimeSeriesDataset.from_arrays(
        [rng.normal(size=n).cumsum() for n in sizes], name=name
    )


# ----------------------------------------------------------------------
# Extraction layer
# ----------------------------------------------------------------------


class TestWindowKernel:
    @pytest.mark.parametrize("step", [1, 2, 3, 5])
    def test_subsequence_matrix_matches_per_ref_gather(self, step):
        ds = walks(7)
        for length in (2, 4, 9, 13):
            matrix, refs = ds.subsequence_matrix(length, step=step)
            assert matrix.shape == (len(refs), length)
            for k, ref in enumerate(refs):
                assert np.array_equal(matrix[k], ds.values(ref))

    def test_window_view_rows_are_windows(self):
        values = np.arange(10.0)
        view = window_view(values, 4, step=2)
        assert view.shape == (4, 4)
        for i in range(4):
            assert np.array_equal(view[i], values[2 * i : 2 * i + 4])

    def test_window_view_short_series_empty(self):
        assert window_view(np.arange(3.0), 5).shape == (0, 5)

    def test_window_counts_match_enumeration(self):
        ds = walks(8)
        for length in (3, 12, 25):
            for step in (1, 2, 4):
                counts = window_counts([len(s) for s in ds], length, step)
                expected = [
                    sum(
                        1
                        for r in ds.iter_subsequences(length, step=step)
                        if r.series_index == i
                    )
                    for i in range(len(ds))
                ]
                assert counts.tolist() == expected

    @pytest.mark.parametrize("step", [1, 3])
    def test_rows_to_series_starts_inverts_enumeration(self, step):
        ds = walks(9)
        length = 5
        refs = list(ds.iter_subsequences(length, step=step))
        counts = window_counts([len(s) for s in ds], length, step)
        rows = np.arange(len(refs))
        series, starts = rows_to_series_starts(rows, counts, step)
        assert [
            SubsequenceRef(int(si), int(stt), length)
            for si, stt in zip(series, starts)
        ] == refs


# ----------------------------------------------------------------------
# Clustering layer (Hypothesis properties)
# ----------------------------------------------------------------------


@st.composite
def matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=180))
    length = draw(st.integers(min_value=2, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["walk", "iid", "dupes"]))
    if kind == "walk":
        matrix = rng.normal(size=(rows, length)).cumsum(axis=1)
    elif kind == "iid":
        matrix = rng.uniform(-1, 1, size=(rows, length))
    else:
        # Repeated rows stress the first-of-ties argmin semantics.
        pool = rng.normal(size=(max(2, rows // 4), length))
        matrix = pool[rng.integers(0, pool.shape[0], size=rows)]
    return matrix


@settings(max_examples=60, deadline=None)
@given(
    matrices(),
    st.floats(min_value=0.01, max_value=1.2),
    st.integers(min_value=0, max_value=4),
)
def test_batched_repair_identical_to_reference(matrix, radius, rounds):
    """The one build path == itself with the row-at-a-time scan and the
    per-draft round evaluation substituted (DESIGN.md §1: a witness is a
    test substitution, never an argument)."""
    batched = cluster_subsequence_rows(matrix, radius, max_repair_rounds=rounds)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grouping, "_scan_batched", grouping._scan_reference)
        patch.setattr(grouping, "_evaluate_round", grouping._evaluate_round_reference)
        reference = cluster_subsequence_rows(
            matrix, radius, max_repair_rounds=rounds
        )
    assert len(batched) == len(reference)
    for a, b in zip(batched, reference):
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.centroid, b.centroid)
        assert a.ed_radius == b.ed_radius
        assert a.cheb_radius == b.cheb_radius


@settings(max_examples=60, deadline=None)
@given(
    matrices(),
    st.floats(min_value=0.01, max_value=1.2),
    st.integers(min_value=0, max_value=3),
)
# A draw whose repair keeps conforming cores of three or more rows — where
# the order of a float sum shows.
@example(np.random.default_rng(32).normal(size=(180, 5)).cumsum(axis=1), 0.8, 3)
def test_repair_establishes_radius_invariant(matrix, radius, rounds):
    """After any round budget — including 0, which exercises the
    singleton-fallback path directly — every finalized group strictly
    satisfies the mean-L1 radius invariant and covers every row once,
    and its centroid is, bit for bit, its members' rows summed one at a
    time in member order over their count (what the scatter joins and
    the repair's ``cumsum`` must both reproduce)."""
    groups = cluster_subsequence_rows(matrix, radius, max_repair_rounds=rounds)
    seen = np.concatenate([g.rows for g in groups])
    assert sorted(seen.tolist()) == list(range(matrix.shape[0]))
    for g in groups:
        total = np.zeros(matrix.shape[1])
        for row in matrix[g.rows]:
            total += row
        assert np.array_equal(g.centroid, total / g.rows.size)
        deviations = np.abs(matrix[g.rows] - g.centroid)
        eds = deviations.mean(axis=1)
        assert float(eds.max(initial=0.0)) <= radius + _EPS
        assert float(eds.max(initial=0.0)) <= g.ed_radius + _EPS
        assert float(deviations.max(initial=0.0)) <= g.cheb_radius + _EPS


def test_cluster_subsequences_wrapper_resolves_refs():
    rng = np.random.default_rng(4)
    matrix = rng.normal(size=(40, 6))
    refs = [SubsequenceRef(0, i, 6) for i in range(40)]
    groups = cluster_subsequences(matrix, refs, 0.4)
    rows = cluster_subsequence_rows(matrix, 0.4)
    assert [g.members for g in groups] == [
        tuple(refs[k] for k in rg.rows.tolist()) for rg in rows
    ]


def test_cluster_subsequences_validation_unchanged():
    refs = [SubsequenceRef(0, i, 2) for i in range(3)]
    with pytest.raises(ValidationError, match="2-D"):
        cluster_subsequences(np.zeros(3), refs, 0.5)
    with pytest.raises(ValidationError, match="refs"):
        cluster_subsequences(np.zeros((3, 2)), refs[:2], 0.5)
    with pytest.raises(ValidationError, match="group_radius"):
        cluster_subsequence_rows(np.zeros((3, 2)), 0.0)


# ----------------------------------------------------------------------
# Scheduling layer
# ----------------------------------------------------------------------


BUILD = dict(similarity_threshold=0.1, min_length=4, max_length=8)


def built(dataset, **overrides):
    config = {**BUILD, **overrides}
    base = OnexBase(dataset, BuildConfig(**config))
    base.build()
    return base


class TestParallelBuild:
    def test_worker_counts_build_identical_bases(self):
        serial = built(walks(31))
        process = built(walks(31), num_workers=3)
        assert serial.structure_fingerprint() == process.structure_fingerprint()
        assert serial.stats.subsequences == process.stats.subsequences
        assert serial.stats.groups == process.stats.groups
        assert serial.stats.lengths == process.stats.lengths
        process.validate()

    def test_workers_capped_by_length_count(self):
        # More workers than lengths must not break the deterministic merge.
        base = built(walks(32), num_workers=32)
        assert base.structure_fingerprint() == built(walks(32)).structure_fingerprint()

    def test_parallel_build_saves_and_loads_like_serial(self, tmp_path):
        serial = built(walks(33))
        parallel = built(walks(33), num_workers=3)
        serial.save(tmp_path / "serial")
        parallel.save(tmp_path / "parallel")
        loaded_serial = OnexBase.load(tmp_path / "serial")
        loaded_parallel = OnexBase.load(tmp_path / "parallel")
        assert (
            loaded_serial.structure_fingerprint()
            == loaded_parallel.structure_fingerprint()
            == serial.structure_fingerprint()
        )
        # The snapshots themselves are interchangeable modulo timings.
        assert loaded_parallel.config == loaded_serial.config
        loaded_parallel.validate()

    def test_num_workers_not_persisted(self, tmp_path):
        parallel = built(walks(34), num_workers=4)
        parallel.save(tmp_path / "base")
        loaded = OnexBase.load(tmp_path / "base")
        assert loaded.config.num_workers == 1

    def test_invalid_scheduling_config_rejected(self):
        with pytest.raises(ValidationError, match="num_workers"):
            BuildConfig(similarity_threshold=0.1, min_length=4, max_length=6,
                        num_workers=0)


def assert_counts_are_bucket_sums(base):
    """``base.stats`` is its buckets' counts, length by length and summed."""
    stats, buckets = base.stats, base.buckets()
    assert [(s.length, s.subsequences, s.groups) for s in stats.per_length] == [
        (b.length, b.member_count, b.group_count) for b in buckets
    ]
    assert stats.subsequences == sum(b.member_count for b in buckets)
    assert stats.groups == sum(b.group_count for b in buckets)
    assert stats.lengths == len(buckets)


class TestPerLengthTelemetry:
    def test_breakdown_sums_to_totals(self):
        base = built(walks(41), num_workers=2)
        stats = base.stats
        assert [s.length for s in stats.per_length] == base.lengths
        assert sum(s.subsequences for s in stats.per_length) == stats.subsequences
        assert sum(s.groups for s in stats.per_length) == stats.groups
        assert all(s.seconds >= 0.0 for s in stats.per_length)
        assert_counts_are_bucket_sums(base)

    def test_breakdown_round_trips_through_save(self, tmp_path):
        base = built(walks(42))
        base.save(tmp_path / "base")
        loaded = OnexBase.load(tmp_path / "base")
        assert loaded.stats == base.stats
        assert_counts_are_bucket_sums(loaded)

    def test_incremental_ingestion_updates_breakdown(self):
        from repro.data.timeseries import TimeSeries

        base = built(walks(43))
        before = {s.length: s for s in base.stats.per_length}
        rng = np.random.default_rng(43)
        base.add_series(TimeSeries("extra", rng.normal(size=10).cumsum()))
        after = {s.length: s for s in base.stats.per_length}
        for length in base.lengths:
            added = 10 - length + 1 if length <= 10 else 0
            assert after[length].subsequences == before[length].subsequences + added
            assert after[length].seconds == before[length].seconds
        assert_counts_are_bucket_sums(base)

    def test_appends_and_a_worker_tail_keep_counts_on_the_buckets(self, tmp_path):
        """Points appended past the longest series create lengths the
        build had no window for (0.0 seconds); a read-only attach of the
        snapshot before them reaches the same stats through the tail."""
        from repro.core.mmap_layout import load_base_snapshot, save_base_snapshot
        from repro.stream import StreamIngestor

        base = built(walks(44), max_length=26)
        assert base.lengths[-1] == 24
        worker, _ = load_base_snapshot(
            save_base_snapshot(base, tmp_path / "epoch-1"), mmap_mode="r"
        )
        assert worker.stats == base.stats
        mark = base.mark()
        ingestor = StreamIngestor(base)
        rng = np.random.default_rng(44)
        for name in ("series-2", "series-0", "fresh", "series-2"):
            ingestor.append_points(name, rng.normal(size=3).cumsum())
        seconds = {s.length: s.seconds for s in base.stats.per_length}
        assert base.lengths[-1] == 26 and seconds[25] == seconds[26] == 0.0
        assert_counts_are_bucket_sums(base)
        worker.apply_tail(base.tail(mark))
        assert worker.stats == base.stats
        assert_counts_are_bucket_sums(worker)

    def test_describe_payload_and_cli_formatting(self, capsys):
        from repro.cli import main

        code = main(
            ["describe", "--source", "matters", "--years", "10",
             "--min-years", "6", "--st", "0.15", "--min-length", "4",
             "--max-length", "6", "--build-workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-length build breakdown:" in out
        assert "len   4:" in out

    def test_describe_json_carries_per_length(self, capsys):
        from repro.cli import main

        code = main(
            ["--json", "describe", "--source", "matters", "--years", "10",
             "--min-years", "6", "--st", "0.15", "--min-length", "4",
             "--max-length", "6"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["length"] for e in payload["per_length"]] == [4, 5, 6]
        assert isinstance(payload["per_length"][0]["seconds"], float)
        assert LengthBuildStats(**payload["per_length"][0]).length == 4


# ----------------------------------------------------------------------
# step > 1 end-to-end (build -> query -> save/load)
# ----------------------------------------------------------------------


class TestStridedStep:
    @pytest.fixture(scope="class")
    def strided_base(self):
        return built(walks(55, sizes=(30, 26, 22)), step=3)

    def test_member_matrix_rows_match_refs_in_group_order(self, strided_base):
        for bucket in strided_base.buckets():
            row = 0
            for g_idx, group in enumerate(bucket.groups):
                values = bucket.member_rows(g_idx)
                for m, ref in enumerate(group.members):
                    assert ref.start % 3 == 0
                    assert np.array_equal(
                        values[m], strided_base.dataset.values(ref)
                    )
                    assert np.array_equal(
                        bucket.member_matrix[row],
                        strided_base.dataset.values(ref),
                    )
                    row += 1

    def test_exact_query_hits_true_best_indexed_window(self, strided_base):
        from repro.core.config import QueryConfig

        rng = np.random.default_rng(56)
        query = rng.uniform(size=5)
        processor = QueryProcessor(strided_base, QueryConfig(mode="exact"))
        match = processor.best_match(query, normalize=False)
        # Brute force over exactly the step-grid windows the base indexes.
        best = min(
            (
                dtw_distance(
                    query, strided_base.dataset.values(ref), normalized=True
                ),
                ref,
            )
            for length in strided_base.lengths
            for ref in strided_base.dataset.iter_subsequences(length, step=3)
        )
        assert match.distance == pytest.approx(best[0], abs=1e-9)

    def test_step_survives_save_load_and_queries_identically(
        self, strided_base, tmp_path
    ):
        from repro.core.config import QueryConfig

        path = tmp_path / "strided"
        strided_base.save(path)
        loaded = OnexBase.load(path)
        assert loaded.config.step == 3
        assert (
            loaded.structure_fingerprint()
            == strided_base.structure_fingerprint()
        )
        rng = np.random.default_rng(57)
        query = rng.uniform(size=6)
        a = QueryProcessor(
            strided_base, QueryConfig(mode="exact")
        ).best_match(query, normalize=False)
        b = QueryProcessor(loaded, QueryConfig(mode="exact")).best_match(
            query, normalize=False
        )
        assert a.ref == b.ref and a.distance == pytest.approx(b.distance)

    def test_parallel_strided_build_identical(self):
        serial = built(walks(58, sizes=(30, 26, 22)), step=2)
        parallel = built(
            walks(58, sizes=(30, 26, 22)), step=2, num_workers=3
        )
        assert (
            serial.structure_fingerprint() == parallel.structure_fingerprint()
        )

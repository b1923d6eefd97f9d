"""Tests for base construction: windows, the grouping rule, the build.

- **Extraction** — the strided window kernel (:mod:`repro.data.windows`)
  against the definitional per-ref gather, at unit and non-unit steps.
- **Grouping** — a Hypothesis property that the fixed-representative
  rule (:func:`cluster_subsequence_rows`) covers every row once, keeps
  every member within the radius of its group's seed and records exact
  radii.
- **The build** — its counts are its buckets', it equals a first-series
  build plus ``add_series`` of the rest, and it groups each length as
  :func:`cluster_subsequence_rows` does, on both kernel backends.

Plus the step>1 end-to-end coverage of the member stores' row order.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.base import LengthBuildStats, OnexBase
from repro.core.config import BuildConfig
from repro.core.grouping import cluster_subsequence_rows, cluster_subsequences
from repro.core.mmap_layout import _meta_digest
from repro.core.query import QueryProcessor
from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.data.windows import window_matrix, window_view
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
                matrix, counts = window_matrix([s.values for s in ds], length, step)
                rows, _ = ds.subsequence_matrix(length, step=step)
                assert matrix.shape[0] == rows.shape[0]
                expected = [
                    sum(
                        1
                        for r in ds.iter_subsequences(length, step=step)
                        if r.series_index == i
                    )
                    for i in range(len(ds))
                ]
                assert counts.tolist() == expected


# ----------------------------------------------------------------------
# Grouping rule (Hypothesis property)
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
@given(matrices(), st.floats(min_value=0.01, max_value=1.2))
# A draw where groups of three or more rows form around drifting walks.
@example(np.random.default_rng(32).normal(size=(180, 5)).cumsum(axis=1), 0.8)
def test_seed_rule_establishes_radius_invariant(matrix, radius):
    """Every group strictly satisfies the mean-L1 radius invariant and the
    groups cover every row once, in seed order; each representative is,
    bit for bit, its group's first row, no row seeds a group while an
    earlier seed lies within the radius, and the recorded radii are the
    members' exact maxima."""
    groups = cluster_subsequence_rows(matrix, radius)
    seen = np.concatenate([g.rows for g in groups])
    assert sorted(seen.tolist()) == list(range(matrix.shape[0]))
    firsts = [int(g.rows[0]) for g in groups]
    assert firsts == sorted(firsts)
    for k, g in enumerate(groups):
        assert np.array_equal(g.rows, np.sort(g.rows))
        assert np.array_equal(g.centroid, matrix[g.rows[0]])
        earlier = np.abs(matrix[firsts[:k]] - matrix[firsts[k]]).mean(axis=1)
        assert (earlier > radius - _EPS).all()
        deviations = np.abs(matrix[g.rows] - g.centroid)
        eds = deviations.mean(axis=1)
        assert float(eds.max(initial=0.0)) <= radius + _EPS
        assert float(eds.max(initial=0.0)) <= g.ed_radius + _EPS
        assert float(deviations.max(initial=0.0)) <= g.cheb_radius + _EPS
        assert g.ed_radius == pytest.approx(float(eds.max()), abs=_EPS)
        assert g.cheb_radius == float(deviations.max())


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
# The build
# ----------------------------------------------------------------------


BUILD = dict(similarity_threshold=0.1, min_length=4, max_length=8)


def built(dataset, **overrides):
    config = {**BUILD, **overrides}
    base = OnexBase(dataset, BuildConfig(**config))
    base.build()
    return base


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
        base = built(walks(41))
        stats = base.stats
        assert [s.length for s in stats.per_length] == base.lengths
        assert sum(s.subsequences for s in stats.per_length) == stats.subsequences
        assert sum(s.groups for s in stats.per_length) == stats.groups
        assert stats.build_seconds > 0.0
        assert_counts_are_bucket_sums(base)

    def test_breakdown_round_trips_through_save(self, tmp_path):
        base = built(walks(42))
        base.save(tmp_path / "base")
        loaded = OnexBase.load(tmp_path / "base")
        assert loaded.stats == base.stats
        assert_counts_are_bucket_sums(loaded)

    def test_a_snapshot_with_per_length_seconds_still_loads(self, tmp_path):
        """Writers before the build lost its per-length jobs stored a
        ``seconds`` per length; the reader ignores them."""
        base = built(walks(45))
        base.save(tmp_path / "base")
        meta_path = tmp_path / "base" / "meta.json"
        meta = json.loads(meta_path.read_text())
        for entry in meta["stats"]["per_length"]:
            entry["seconds"] = 0.001
        meta["meta_sha256"] = _meta_digest(meta)
        meta_path.write_text(json.dumps(meta, sort_keys=True))
        loaded = OnexBase.load(tmp_path / "base")
        assert loaded.stats == base.stats
        assert loaded.structure_fingerprint() == base.structure_fingerprint()

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
        assert_counts_are_bucket_sums(base)

    def test_appends_and_a_worker_tail_keep_counts_on_the_buckets(self, tmp_path):
        """Points appended past the longest series create lengths the
        build had no window for; a read-only attach of the snapshot
        before them reaches the same stats through the tail."""
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
        assert base.lengths[-1] == 26
        assert [s.length for s in base.stats.per_length][-2:] == [25, 26]
        assert_counts_are_bucket_sums(base)
        worker.apply_tail(base.tail(mark))
        assert worker.stats == base.stats
        assert_counts_are_bucket_sums(worker)

    def test_describe_payload_and_cli_formatting(self, capsys):
        from repro.cli import main

        code = main(
            ["describe", "--source", "matters", "--years", "10",
             "--min-years", "6", "--st", "0.15", "--min-length", "4",
             "--max-length", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-length breakdown:" in out
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
        assert isinstance(payload["build_seconds"], float)
        assert LengthBuildStats(**payload["per_length"][0]).length == 4


# ----------------------------------------------------------------------
# A build is appends to an empty base
# ----------------------------------------------------------------------


@pytest.mark.usefixtures("kernel_backend")
@pytest.mark.parametrize("threshold, step", [(0.05, 1), (0.4, 1), (1.0, 3)])
def test_a_build_equals_a_first_series_build_plus_add_series(threshold, step):
    """``build()`` over N series is the structure a build over the first
    series reaches by ``add_series`` of the others, bit for bit: the
    fingerprint and every bucket's stores in store order."""
    rng = np.random.default_rng(61)
    arrays = [rng.normal(size=n).cumsum() for n in (26, 18, 31, 9, 22)]
    config = BuildConfig(
        similarity_threshold=threshold,
        min_length=4,
        max_length=12,
        step=step,
        normalize=False,
    )
    whole = OnexBase(TimeSeriesDataset.from_arrays(arrays, name="w"), config)
    whole.build()
    grown = OnexBase(TimeSeriesDataset.from_arrays(arrays[:1], name="w"), config)
    grown.build()
    for k, values in enumerate(arrays[1:], 1):
        grown.add_series(TimeSeries(f"series-{k}", values))
    assert whole.structure_fingerprint() == grown.structure_fingerprint()
    assert whole.lengths == grown.lengths
    for mine, theirs in zip(whole.buckets(), grown.buckets()):
        for name in ("centroids", "ed_radii", "cheb_radii", "member_matrix"):
            assert np.array_equal(getattr(mine, name), getattr(theirs, name))
        for a, b in zip(mine.store_rows(), theirs.store_rows()):
            assert np.array_equal(a, b)
    whole.validate()


@pytest.mark.usefixtures("kernel_backend")
def test_a_build_groups_each_length_as_cluster_subsequence_rows_does():
    """The build and the seasonal miner share one rule: each bucket's
    groups are :func:`cluster_subsequence_rows` of that length's window
    matrix, in seed order — the same seeds, the same members, the same
    radii."""
    dataset = walks(62, sizes=(26, 18, 31, 9))
    base = built(dataset, similarity_threshold=1.6, normalize=False)
    radius = base.config.similarity_threshold / 2
    for bucket in base.buckets():
        matrix, refs = dataset.subsequence_matrix(bucket.length)
        expected = cluster_subsequence_rows(matrix, radius)
        assert bucket.group_count == len(expected)
        for group, rows in zip(bucket.groups, expected):
            assert np.array_equal(group.centroid, rows.centroid)
            assert sorted(group.members) == [refs[k] for k in rows.rows.tolist()]
            assert group.ed_radius == pytest.approx(rows.ed_radius, abs=_EPS)
            assert group.cheb_radius == pytest.approx(rows.cheb_radius, abs=_EPS)


# ----------------------------------------------------------------------
# step > 1 end-to-end (build -> query -> save/load)
# ----------------------------------------------------------------------


class TestStridedStep:
    @pytest.fixture(scope="class")
    def strided_base(self):
        return built(walks(55, sizes=(30, 26, 22)), step=3)

    def test_member_matrix_rows_match_refs_in_store_order(self, strided_base):
        for bucket in strided_base.buckets():
            for g_idx, group in enumerate(bucket.groups):
                values = bucket.member_rows(g_idx)
                for m, ref in enumerate(group.members):
                    assert ref.start % 3 == 0
                    assert np.array_equal(
                        values[m], strided_base.dataset.values(ref)
                    )
            handles, owners = bucket.store_rows()
            for row, ((series, start), owner) in enumerate(
                zip(handles.tolist(), owners.tolist())
            ):
                ref = SubsequenceRef(series, start, bucket.length)
                assert ref in bucket.groups[owner].members
                assert np.array_equal(
                    bucket.member_matrix[row], strided_base.dataset.values(ref)
                )

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

"""Unit and property tests for the batched DTW kernel, on both backends.

Every test here runs once on the compiled kernel and once on the NumPy
one (the ``kernel_backend`` fixture), and both answer to the row-scan
oracle ``dtw_path`` bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.distances import dtw
from repro.distances.bounds import path_multiplicities
from repro.distances.dtw import (
    dtw_cost_matrix,
    dtw_distance_batch,
    dtw_path,
    dtw_path_batch,
)
from repro.exceptions import ValidationError

pytestmark = pytest.mark.usefixtures("kernel_backend")

#: The backend fixture is set once per test, not per Hypothesis example.
per_backend = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
#: Integer-valued draws: most cells tie, and only ties exercise the
#: ``up <= left`` / ``diag <= min(up, left)`` tie-break.
integer_valued = st.integers(min_value=-3, max_value=3).map(float)


def query_and_rows(n_max, m, g_max, n_min=1):
    """``(query, rows)`` whose values are all floats or all integers."""
    return st.sampled_from([finite_floats, integer_valued]).flatmap(
        lambda values: st.tuples(
            st.lists(values, min_size=n_min, max_size=n_max),
            st.lists(
                st.lists(values, min_size=m, max_size=m), min_size=1, max_size=g_max
            ),
        )
    )


class TestBatchKernel:
    def test_matches_row_scan_oracle(self):
        rng = np.random.default_rng(141)
        q = rng.normal(size=9)
        rows = rng.normal(size=(20, 12))
        got, plens = dtw_distance_batch(q, rows, with_path_length=True)
        for k in range(20):
            want = dtw_path(q, rows[k])
            assert got[k] == want.distance
            assert plens[k] == want.path_length

    def test_matches_row_scan_matrix(self):
        rng = np.random.default_rng(142)
        q = rng.normal(size=6)
        rows = rng.normal(size=(5, 8))
        got = dtw_distance_batch(q, rows)
        for k in range(5):
            assert got[k] == pytest.approx(dtw_cost_matrix(q, rows[k])[-1, -1])

    def test_banded(self):
        rng = np.random.default_rng(143)
        q = rng.normal(size=10)
        rows = rng.normal(size=(8, 10))
        for window in (0, 1, 3):
            got, plens = dtw_distance_batch(
                q, rows, window=window, with_path_length=True
            )
            for k in range(8):
                want = dtw_path(q, rows[k], window=window)
                assert got[k] == want.distance
                assert plens[k] == want.path_length

    def test_squared_ground(self):
        rng = np.random.default_rng(144)
        q = rng.normal(size=7)
        rows = rng.normal(size=(4, 9))
        got = dtw_distance_batch(q, rows, ground="squared")
        for k in range(4):
            assert got[k] == dtw_path(q, rows[k], ground="squared").distance

    def test_single_row_and_single_column(self):
        assert dtw_distance_batch([1.0, 2.0], np.array([[1.5]]))[0] == pytest.approx(1.0)
        assert dtw_distance_batch([3.0], np.array([[1.0, 2.0]]))[0] == pytest.approx(3.0)

    def test_empty_batch(self):
        out = dtw_distance_batch([1.0, 2.0], np.empty((0, 5)))
        assert out.shape == (0,)

    def test_identical_rows_zero(self):
        q = np.array([0.5, 1.5, 0.25])
        rows = np.tile(q, (6, 1))
        assert np.allclose(dtw_distance_batch(q, rows), 0.0)

    def test_validation(self):
        with pytest.raises(ValidationError, match="2-D"):
            dtw_distance_batch([1.0], np.zeros(3))
        with pytest.raises(ValidationError, match="column"):
            dtw_distance_batch([1.0], np.empty((2, 0)))
        with pytest.raises(ValidationError, match="NaN"):
            dtw_distance_batch([1.0], np.array([[np.nan]]))


@settings(per_backend, max_examples=100)
@given(query_and_rows(n_max=10, m=4, g_max=6))
def test_batch_agrees_with_oracle_property(stack):
    q, rows = stack
    mat = np.asarray(rows)
    got, plens = dtw_distance_batch(q, mat, with_path_length=True)
    assert np.array_equal(got, dtw_distance_batch(q, mat))
    for k in range(mat.shape[0]):
        want = dtw_path(q, mat[k])
        assert got[k] == want.distance
        assert plens[k] == want.path_length


@settings(per_backend, max_examples=60)
@given(
    query_and_rows(n_max=8, m=6, g_max=4, n_min=2),
    st.integers(min_value=0, max_value=13),
)
def test_batch_banded_property(stack, window):
    q, rows = stack
    mat = np.asarray(rows)
    got, plens = dtw_distance_batch(q, mat, window=window, with_path_length=True)
    assert np.array_equal(got, dtw_distance_batch(q, mat, window=window))
    for k in range(mat.shape[0]):
        want = dtw_path(q, mat[k], window=window)
        assert got[k] == want.distance
        assert plens[k] == want.path_length


#: Quantised values: ties between the three predecessors on most cells.
tied_values = st.integers(min_value=-3, max_value=3).map(lambda v: v / 2)


@st.composite
def ragged_stacks(draw):
    """``(x, padded rows, lengths)``: 1-6 candidates of lengths 1-30."""
    lengths = draw(st.lists(st.integers(1, 30), min_size=1, max_size=6))
    n = draw(st.integers(1, 30))
    paired = draw(st.booleans())
    values = st.lists(tied_values, min_size=n, max_size=n)
    x = draw(st.lists(values, min_size=len(lengths), max_size=len(lengths)) if paired else values)
    width = max(lengths) + draw(st.integers(0, 2))
    rows = np.empty((len(lengths), width))
    for i, m in enumerate(lengths):
        rows[i, :m] = draw(st.lists(tied_values, min_size=m, max_size=m))
    return np.asarray(x), rows, np.asarray(lengths)


class TestRaggedKernel:
    @settings(per_backend, max_examples=120)
    @given(
        stack=ragged_stacks(),
        window=st.sampled_from([None, 0, 1, 3, 8]),
        ground=st.sampled_from(["l1", "squared"]),
        with_path_length=st.booleans(),
    )
    def test_each_row_equals_dtw_path(self, stack, window, ground, with_path_length):
        x, rows, lengths = stack
        # A pad that reached any candidate's corner cell would swamp it
        # (1e150 under the squared ground: its square is still finite).
        pad = 1e150 if ground == "squared" else 1e300
        for i, m in enumerate(lengths):
            rows[i, m:] = pad
        got = dtw_distance_batch(
            x, rows, window=window, ground=ground,
            with_path_length=with_path_length, lengths=lengths,
        )
        dists, plens = got if with_path_length else (got, None)
        for i, m in enumerate(lengths):
            want = dtw_path(
                x[i] if x.ndim == 2 else x, rows[i, :m], window=window, ground=ground
            )
            assert dists[i] == want.distance
            if with_path_length:
                assert plens[i] == want.path_length

    def test_lengths_validation(self):
        rows = np.zeros((3, 4))
        for bad in ([4, 4], [[4, 4, 4]], [4, 0, 4], [4, 5, 4], [4.0, 4.0, 4.0]):
            with pytest.raises(ValidationError, match="lengths"):
                dtw_distance_batch([1.0, 2.0], rows, lengths=bad)
        assert dtw_distance_batch([1.0, 2.0], rows, lengths=[4, 1, 2]).shape == (3,)


#: Quarter steps: most cells tie between two or three predecessors.
quarter_values = st.integers(min_value=-6, max_value=6).map(lambda v: v / 4)


@st.composite
def path_stacks(draw):
    """``(x, padded rows, lengths)``: 1-5 candidates of lengths 1-14."""
    lengths = draw(st.lists(st.integers(1, 14), min_size=1, max_size=5))
    n = draw(st.integers(1, 14))
    x = draw(st.lists(quarter_values, min_size=n, max_size=n))
    rows = np.full((len(lengths), max(lengths) + draw(st.integers(0, 2))), 1e150)
    for i, m in enumerate(lengths):
        rows[i, :m] = draw(st.lists(quarter_values, min_size=m, max_size=m))
    return np.asarray(x), rows, np.asarray(lengths)


class TestPathBatch:
    """`dtw_path_batch` against the scalar oracle, bit for bit."""

    @settings(per_backend, max_examples=120)
    @given(
        stack=path_stacks(),
        window=st.sampled_from([None, *range(9)]),
        ground=st.sampled_from(["l1", "squared"]),
        cell_budget=st.sampled_from([1, 400, 1 << 22]),
    )
    # dtw_path's own worked example of the asymmetric tie-break.
    @example(
        stack=(
            np.array([0.0, 0, -1, 0, 0, 0]),
            np.array([[-1.0, 1, 0, 0, 0]]),
            np.array([5]),
        ),
        window=None,
        ground="l1",
        cell_budget=1 << 22,
    )
    def test_each_row_equals_dtw_path(self, stack, window, ground, cell_budget):
        x, rows, lengths = stack
        # A budget of 1 puts every candidate in its own chunk; 400 splits
        # the larger stacks mid-way.
        with mock.patch.object(dtw, "_PATH_CELL_BUDGET", cell_budget):
            got = dtw_path_batch(
                x, rows, window=window, ground=ground, lengths=lengths
            )
        paths = got.paths()
        on_x = got.multiplicities(0, x.shape[0])
        on_y = got.multiplicities(1, rows.shape[1])
        for c, m in enumerate(lengths):
            want = dtw_path(x, rows[c, :m], window=window, ground=ground)
            assert got.distances[c] == want.distance
            assert got.path_lengths[c] == want.path_length
            assert paths[c] == want.path
            assert on_x[c].tolist() == path_multiplicities(
                want.path, x.shape[0], axis=0
            ).tolist()
            assert on_y[c].tolist() == path_multiplicities(
                want.path, rows.shape[1], axis=1
            ).tolist()

    def test_dense_stack_and_padding_columns(self):
        rng = np.random.default_rng(151)
        q = rng.normal(size=9)
        rows = rng.normal(size=(7, 12))
        got = dtw_path_batch(q, rows, window=2)
        assert got.i.shape == got.j.shape == (7, 9 + 12 - 1)
        for c, path in enumerate(got.paths()):
            want = dtw_path(q, rows[c], window=2)
            assert path == want.path
            assert all(type(v) is int for cell in path for v in cell)
            assert (got.i[c, want.path_length :] == -1).all()
            assert (got.j[c, want.path_length :] == -1).all()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("window", [None, 1])
    @pytest.mark.parametrize("ground, big", [("l1", 1e308), ("squared", 1e155)])
    def test_overflowing_costs_walk_corner_to_origin(self, ground, big, window):
        # Finite inputs whose every cost overflows to inf: each comparison
        # ties and every code reads "diagonal", even on row 0 and column 0.
        x = np.full(3, big)
        rows = np.full((3, 5), -big)
        lengths = np.array([5, 1, 3])
        got = dtw_path_batch(x, rows, window=window, ground=ground, lengths=lengths)
        assert np.isinf(got.distances).all()
        for c, m in enumerate(lengths):
            # Diagonal while it can, then along the edge it reached.
            i, j = 2, m - 1
            want = [(i, j)]
            while (i, j) != (0, 0):
                i, j = (i - 1, j - 1) if i and j else (i - bool(i), j - bool(j))
                want.append((i, j))
            assert got.paths()[c] == tuple(reversed(want))
            assert (got.i[c, len(want) :] == -1).all()
            assert (got.j[c, len(want) :] == -1).all()

    def test_empty_batch(self):
        got = dtw_path_batch([1.0, 2.0], np.empty((0, 5)))
        assert got.paths() == []
        assert got.distances.shape == got.path_lengths.shape == (0,)
        assert got.multiplicities(1, 5).shape == (0, 5)

    def test_validation(self):
        rows = np.zeros((2, 3))
        with pytest.raises(ValidationError, match="1-D"):
            dtw_path_batch(rows, rows)
        with pytest.raises(ValidationError, match="window"):
            dtw_path_batch([1.0], rows, window=-1)
        with pytest.raises(ValidationError, match="ground"):
            dtw_path_batch([1.0], rows, ground="l2")
        with pytest.raises(ValidationError, match="lengths"):
            dtw_path_batch([1.0], rows, lengths=[3, 4])
        got = dtw_path_batch([1.0, 2.0], rows)
        with pytest.raises(ValidationError, match="axis"):
            got.multiplicities(2, 3)
        with pytest.raises(ValidationError, match="out of range"):
            got.multiplicities(1, 2)


@st.composite
def channel_stacks(draw):
    """``(x, rows, lengths)`` at 1, 2, 3 or 9 channels (nine reach the
    pairwise branch of the channel sum): one query or a paired stack, and
    ``lengths`` ``None`` (dense) or ragged.  One channel keeps its axis."""
    channels = draw(st.sampled_from([1, 2, 3, 9]))
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    n = draw(st.integers(1, 8))
    values = draw(st.sampled_from([finite_floats, tied_values]))

    def stack(*shape):  # every value drawn on its own (no fill): sums round
        return arrays(np.float64, shape, elements=values, fill=st.nothing())

    lead = (len(lengths),) if draw(st.booleans()) else ()  # paired
    x = draw(stack(*lead, n, channels))
    rows = draw(stack(len(lengths), max(lengths), channels))
    return x, rows, np.asarray(lengths) if draw(st.booleans()) else None


class TestChannels:
    """``(length, channels)`` windows: the ground is the channel L1 sum."""

    @settings(per_backend, max_examples=100)
    @given(stack=channel_stacks(), window=st.sampled_from([None, 0, 1, 3]))
    def test_each_row_equals_dtw_path(self, stack, window):
        x, rows, lengths = stack
        dists, plens = dtw_distance_batch(
            x, rows, window=window, with_path_length=True, lengths=lengths
        )
        assert np.array_equal(
            dists, dtw_distance_batch(x, rows, window=window, lengths=lengths)
        )
        for c in range(rows.shape[0]):
            m = rows.shape[1] if lengths is None else lengths[c]
            want = dtw_path(x[c] if x.ndim == 3 else x, rows[c, :m], window=window)
            assert dists[c] == want.distance
            assert plens[c] == want.path_length

    def test_validation(self):
        rows = np.zeros((2, 4, 3))
        for query in (np.zeros(4), np.zeros((4, 2)), np.zeros((2, 4, 2))):
            with pytest.raises(ValidationError, match="do not fit"):
                dtw_distance_batch(query, rows)
        with pytest.raises(ValidationError, match="squared"):
            dtw_distance_batch(np.zeros((4, 3)), rows, ground="squared")
        with pytest.raises(ValidationError, match="channel"):
            dtw_path(np.zeros((4, 3)), np.zeros((4, 2)))
        with pytest.raises(ValidationError, match="univariate"):
            dtw_path_batch(np.zeros(4), rows)


class TestCondensedPairwise:
    """Every unique row pair of one stack through one paired-mode call."""

    @staticmethod
    def pairs(rows):
        iu, ju = np.triu_indices(len(rows), k=1)
        return rows[iu], rows[ju]

    def test_matches_scalar_pairs(self):
        rng = np.random.default_rng(171)
        rows = rng.normal(size=(7, 9))
        left, right = self.pairs(rows)
        got = dtw_distance_batch(left, right)
        assert got.shape == (21,)
        for p in range(21):
            assert got[p] == dtw_path(left[p], right[p]).distance

    def test_normalized_matches_dtw_path(self):
        rng = np.random.default_rng(172)
        left, right = self.pairs(rng.normal(size=(6, 8)))
        raws, plens = dtw_distance_batch(left, right, with_path_length=True)
        for p in range(len(left)):
            want = dtw_path(left[p], right[p]).normalized_distance
            assert raws[p] / plens[p] == want

    def test_window(self):
        rng = np.random.default_rng(173)
        left, right = self.pairs(rng.normal(size=(5, 10)))
        got = dtw_distance_batch(left, right, window=2)
        for p in range(len(left)):
            assert got[p] == dtw_path(left[p], right[p], window=2).distance

    def test_fewer_than_two_rows(self):
        assert dtw_distance_batch(*self.pairs(np.zeros((1, 4)))).shape == (0,)
        raws, plens = dtw_distance_batch(
            *self.pairs(np.zeros((0, 4))), with_path_length=True
        )
        assert raws.shape == (0,) and plens.shape == (0,)

    def test_validation(self):
        with pytest.raises(ValidationError, match="2-D"):
            dtw_distance_batch(np.zeros(4), np.zeros(4))
        with pytest.raises(ValidationError, match="non-empty and finite"):
            dtw_distance_batch(*self.pairs(np.array([[0.0, np.nan], [1.0, 2.0]])))

"""Property tests: the batched analytics paths equal the seed scalar paths.

The seasonal / sensitivity rebuild (DESIGN.md §4) keeps the seed scalar
implementations as private same-signature references that no production
code calls; these properties substitute them (DESIGN.md §1: a witness is
a test substitution, never an argument) and assert, over randomised
collections, lengths, windows, and threshold grids and on both DTW
kernels, that the batched paths change *nothing* about the results, only
how fast they arrive.  The
recommender has one sampler, held to the materialised window matrix, and
``base=`` changes nothing but cost.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import seasonal, sensitivity
from repro.core.base import OnexBase
from repro.core.config import BuildConfig
from repro.core.seasonal import find_seasonal_patterns
from repro.core.sensitivity import similarity_profile
from repro.core.threshold import _WindowSampler, recommend_thresholds
from repro.core.validation import as_int_arg, as_optional_int_arg
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.exceptions import ValidationError

#: The ``kernel_backend`` fixture is set once per test, not per example,
#: and each backend runs the full example count.
per_backend = dict(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def walk(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=n).cumsum()


def with_reference(module, production: str, reference: str, call):
    """``call()`` with *module*'s *production* function replaced by its
    private same-signature *reference*."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, production, getattr(module, reference))
        return call()


@pytest.mark.usefixtures("kernel_backend")
class TestSeasonalEquivalence:
    @settings(max_examples=30, **per_backend)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(40, 120),
        length=st.integers(4, 12),
        threshold=st.floats(0.01, 0.3),
        window=st.one_of(st.none(), st.integers(0, 4)),
        step=st.integers(1, 3),
    )
    def test_batched_equals_scalar(self, seed, n, length, threshold, window, step):
        series = TimeSeries("s", walk(seed, n))
        def mine():
            return find_seasonal_patterns(
                series, length, threshold, step=step, window=window
            )

        batched = mine()
        scalar = with_reference(seasonal, "_verify_batched", "_verify_scalar", mine)
        assert len(batched) == len(scalar)
        for a, b in zip(batched, scalar):
            assert a.starts == b.starts
            assert a.length == b.length
            assert a.max_pairwise_dtw == pytest.approx(
                b.max_pairwise_dtw, abs=1e-12
            )

    def test_tied_worst_pairs_drop_as_the_scalar_scan_does(self):
        """Integer steps make equal pairwise distances common; the first
        attaining pair in row-major order decides which occurrence goes."""
        steps = np.random.default_rng(8465).integers(-1, 2, 54)
        series = TimeSeries("s", steps.cumsum().astype(float))

        def mine():
            return find_seasonal_patterns(series, 4, 0.167)

        a = mine()
        b = with_reference(seasonal, "_verify_batched", "_verify_scalar", mine)
        assert [(p.starts, p.max_pairwise_dtw) for p in a] == [
            (p.starts, p.max_pairwise_dtw) for p in b
        ]

    def test_remove_level_and_ed_threshold_equivalence(self):
        series = TimeSeries("s", walk(7, 200))
        for kwargs in (
            dict(remove_level=True),
            dict(ed_threshold=0.4),
            dict(remove_level=True, ed_threshold=0.3, min_occurrences=3),
        ):
            def mine():
                return find_seasonal_patterns(series, 10, 0.1, **kwargs)

            a = mine()
            b = with_reference(seasonal, "_verify_batched", "_verify_scalar", mine)
            assert [(p.starts, p.max_pairwise_dtw) for p in a] == [
                (p.starts, p.max_pairwise_dtw) for p in b
            ]


@pytest.mark.usefixtures("kernel_backend")
class TestSensitivityEquivalence:
    @pytest.fixture(scope="class")
    def base(self):
        dataset = TimeSeriesDataset.from_arrays(
            [walk(151 + k, 24 + 4 * k) for k in range(3)], name="sens"
        )
        b = OnexBase(
            dataset,
            BuildConfig(similarity_threshold=0.1, min_length=5, max_length=7),
        )
        b.build()
        return b

    @settings(max_examples=40, **per_backend)
    @given(
        qseed=st.integers(0, 10_000),
        qlen=st.integers(4, 9),
        grid=st.lists(
            st.floats(0.001, 0.5), min_size=1, max_size=6, unique=True
        ),
        verify=st.booleans(),
        window=st.one_of(st.none(), st.integers(0, 3)),
    )
    def test_batched_equals_scalar(self, base, qseed, qlen, grid, verify, window):
        q = np.random.default_rng(qseed).uniform(size=qlen)

        def profile():
            return similarity_profile(
                base, q, grid, verify=verify, window=window, normalize=False
            )

        batched = profile()
        scalar = with_reference(
            sensitivity, "_profile_batched", "_profile_scalar", profile
        )
        assert batched.candidates == scalar.candidates
        assert batched.thresholds == scalar.thresholds
        for a, b in zip(batched.points, scalar.points):
            assert (a.certain, a.possible, a.exact) == (
                b.certain, b.possible, b.exact
            )


class TestWindowSampler:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        sizes=st.lists(st.integers(2, 14), min_size=1, max_size=5),
        length=st.integers(2, 10),
        channels=st.integers(1, 2),
        normalize=st.booleans(),
    )
    def test_rows_are_the_window_matrix_rows(
        self, seed, sizes, length, channels, normalize
    ):
        """The one sampler, by rank, is bitwise the materialised window
        matrix — ragged collections, series shorter than the window,
        multivariate, normalised or not."""
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(n, channels)).cumsum(axis=0) for n in sizes]
        if channels == 1:
            arrays = [a[:, 0] for a in arrays]
        source = TimeSeriesDataset.from_arrays(arrays, name="ragged")
        if normalize:
            source = source.normalized()
        matrix, refs = source.subsequence_matrix(length)
        sampler = _WindowSampler(source, length)
        assert sampler.total == len(refs)
        if refs:
            idx = rng.integers(0, len(refs), size=3 * len(refs))
            assert np.array_equal(sampler.rows(idx), matrix[idx])


class TestThresholdEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        length=st.integers(2, 20),
        samples=st.integers(10, 500),
        sample_seed=st.integers(0, 50),
    )
    def test_base_sampler_equals_standalone(self, seed, length, samples, sample_seed):
        dataset = TimeSeriesDataset.from_arrays(
            [walk(seed + k, 20 + 3 * k) for k in range(4)], name="walks"
        )
        base = OnexBase(
            dataset,
            BuildConfig(similarity_threshold=0.1, min_length=5, max_length=6),
        )
        base.build()
        via_base = recommend_thresholds(
            dataset, length, samples=samples, seed=sample_seed, base=base
        )
        standalone = recommend_thresholds(
            dataset, length, samples=samples, seed=sample_seed
        )
        assert via_base == standalone

    def test_mismatched_base_falls_back(self):
        """A base over a different collection must not answer the sampling."""
        a = TimeSeriesDataset.from_arrays([walk(1, 30), walk(2, 30)], name="a")
        b = TimeSeriesDataset.from_arrays([walk(3, 30), walk(4, 30)], name="b")
        base_b = OnexBase(
            b, BuildConfig(similarity_threshold=0.1, min_length=5, max_length=6)
        )
        base_b.build()
        assert recommend_thresholds(a, 6, base=base_b) == recommend_thresholds(a, 6)

    def test_unnormalized_base_mismatch_falls_back(self):
        ds = TimeSeriesDataset.from_arrays([walk(5, 30), walk(6, 30)], name="d")
        base = OnexBase(
            ds,
            BuildConfig(
                similarity_threshold=0.1, min_length=5, max_length=6,
                normalize=False,
            ),
        )
        base.build()
        # normalize=True request against an unnormalised base: fallback.
        assert recommend_thresholds(ds, 6, base=base) == recommend_thresholds(ds, 6)
        # matching normalize=False: the base path applies and agrees.
        assert recommend_thresholds(
            ds, 6, normalize=False, base=base
        ) == recommend_thresholds(ds, 6, normalize=False)


class TestAnalyticsArgumentValidation:
    """Regression: array-typed scalars must fail loudly, not with numpy's
    "truth value of an array is ambiguous" deep in the computation."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return TimeSeriesDataset.from_arrays(
            [walk(9, 30), walk(10, 30)], name="v"
        )

    def test_recommend_rejects_non_int_length(self, dataset):
        for bad in (np.arange(3), 8.0, "8", None, True):
            with pytest.raises(ValidationError, match="length must be an integer"):
                recommend_thresholds(dataset, bad)

    def test_recommend_rejects_non_int_samples(self, dataset):
        with pytest.raises(ValidationError, match="samples must be an integer"):
            recommend_thresholds(dataset, 8, samples=np.arange(4))

    def test_seasonal_rejects_non_int_args(self, dataset):
        series = TimeSeries("s", walk(11, 60))
        with pytest.raises(ValidationError, match="length must be an integer"):
            find_seasonal_patterns(series, np.arange(2), 0.1)
        with pytest.raises(ValidationError, match="step must be an integer"):
            find_seasonal_patterns(series, 10, 0.1, step=2.0)
        with pytest.raises(ValidationError, match="window must be an integer"):
            find_seasonal_patterns(series, 10, 0.1, window=np.arange(2))

    def test_sensitivity_rejects_non_int_window(self, dataset):
        base = OnexBase(
            dataset,
            BuildConfig(similarity_threshold=0.1, min_length=5, max_length=6),
        )
        base.build()
        with pytest.raises(ValidationError, match="window must be an integer"):
            similarity_profile(base, walk(12, 6), (0.1,), window=np.arange(2))

    def test_numpy_integers_accepted(self):
        assert as_int_arg(np.int64(5), "x") == 5
        assert as_optional_int_arg(None, "x") is None
        assert as_optional_int_arg(np.int32(3), "x") == 3

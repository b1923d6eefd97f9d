"""Unit tests for repro.data.synthetic generators."""

import numpy as np
import pytest

from repro.data.synthetic import (
    cylinder_bell_funnel,
    noisy_sine,
    planted_motif_series,
    random_walk,
    warped_copy,
)
from repro.distances.dtw import dtw_distance
from repro.exceptions import ValidationError


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda seed: random_walk(50, seed=seed),
            lambda seed: noisy_sine(50, seed=seed),
            lambda seed: cylinder_bell_funnel("bell", 50, seed=seed),
            lambda seed: warped_copy(np.arange(20.0), seed=seed),
        ],
    )
    def test_same_seed_same_output(self, factory):
        assert np.array_equal(factory(7), factory(7))

    def test_different_seed_different_output(self):
        assert not np.array_equal(random_walk(50, seed=1), random_walk(50, seed=2))

    def test_accepts_generator_instance(self):
        rng = np.random.default_rng(3)
        out = random_walk(10, seed=rng)
        assert out.shape == (10,)


class TestShapes:
    def test_random_walk_starts_at_start(self):
        assert random_walk(5, start=3.5, seed=1)[0] == 3.5

    def test_noisy_sine_period(self):
        clean = noisy_sine(100, period=25.0, noise=0.0, seed=0)
        # Zero crossings every half period.
        assert clean[0] == pytest.approx(0.0, abs=1e-9)
        assert clean[25] / max(abs(clean).max(), 1e-9) == pytest.approx(0.0, abs=0.05)

    @pytest.mark.parametrize("kind", ["cylinder", "bell", "funnel"])
    def test_cbf_kinds(self, kind):
        values = cylinder_bell_funnel(kind, 128, seed=5)
        assert values.shape == (128,)
        assert abs(values).max() > 1.0  # the event is visible above noise

    def test_cbf_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            cylinder_bell_funnel("sphere", 64)


class TestPlantedMotifs:
    def test_positions_are_nonoverlapping_and_sorted(self):
        _, positions = planted_motif_series(
            500, motif_length=40, occurrences=5, seed=11
        )
        assert positions == sorted(positions)
        for a, b in zip(positions, positions[1:]):
            assert b - a >= 40

    def test_occurrences_are_mutually_similar_under_dtw(self):
        values, positions = planted_motif_series(
            600, motif_length=50, occurrences=4, noise=0.02, seed=13
        )
        windows = [values[p : p + 50] for p in positions]
        # Compare shapes with the level removed: occurrences ride on a walk.
        windows = [w - w.mean() for w in windows]
        for a in windows:
            for b in windows:
                assert dtw_distance(a, b, normalized=True) < 0.35

    def test_rejects_impossible_packing(self):
        with pytest.raises(ValidationError, match="fit"):
            planted_motif_series(100, motif_length=60, occurrences=2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            planted_motif_series(100, motif_length=1, occurrences=1)
        with pytest.raises(ValidationError):
            planted_motif_series(100, motif_length=10, occurrences=0)


class TestWarpedCopy:
    def test_preserves_length(self):
        values = noisy_sine(80, seed=3)
        out = warped_copy(values, max_stretch=3, seed=4)
        assert out.shape == values.shape

    def test_dtw_close_but_euclidean_far(self):
        values = noisy_sine(100, period=25.0, noise=0.0, seed=5)
        out = warped_copy(values, max_stretch=3, seed=6)
        dtw_n = dtw_distance(values, out, normalized=True)
        ed_n = float(np.abs(values - out).mean())
        assert dtw_n < ed_n  # warping hides from DTW what ED sees

    def test_max_stretch_one_is_identity(self):
        values = np.arange(10.0)
        assert np.array_equal(warped_copy(values, max_stretch=1, seed=0), values)

    def test_rejects_bad_stretch(self):
        with pytest.raises(ValidationError):
            warped_copy([1.0, 2.0], max_stretch=0)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            warped_copy([], max_stretch=2)


class TestValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: random_walk(0),
            lambda: noisy_sine(10, period=0.0),
        ],
    )
    def test_bad_arguments_raise(self, call):
        with pytest.raises(ValidationError):
            call()

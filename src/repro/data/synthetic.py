"""Synthetic signal generators.

Everything here is deterministic given a seed (or an explicit
``numpy.random.Generator``), so tests, examples, and benchmarks are
reproducible.  The generators are the fixtures of the tests and
benchmarks: random walks and noisy sines, a recurring motif planted at
known positions (the seasonal ground truth), and classic shape families
(cylinder–bell–funnel) used to validate shape matching, plus
:func:`warped_copy` which produces time-warped variants — the
misalignment that motivates DTW over ED.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "cylinder_bell_funnel",
    "noisy_sine",
    "planted_motif_series",
    "random_walk",
    "warped_copy",
]


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _check_length(n: int) -> None:
    if n <= 0:
        raise ValidationError(f"length must be positive, got {n}")


def random_walk(n: int, *, start: float = 0.0, step_scale: float = 1.0, seed=None) -> np.ndarray:
    """Gaussian random walk of length *n* starting at *start*."""
    _check_length(n)
    rng = _rng(seed)
    steps = rng.normal(scale=step_scale, size=n)
    steps[0] = 0.0
    return start + np.cumsum(steps)


def noisy_sine(
    n: int,
    *,
    period: float = 20.0,
    amplitude: float = 1.0,
    phase: float = 0.0,
    noise: float = 0.1,
    seed=None,
) -> np.ndarray:
    """Sine wave with additive Gaussian noise."""
    _check_length(n)
    if period <= 0:
        raise ValidationError(f"period must be positive, got {period}")
    rng = _rng(seed)
    t = np.arange(n, dtype=np.float64)
    clean = amplitude * np.sin(2.0 * np.pi * t / period + phase)
    return clean + rng.normal(scale=noise, size=n)


def cylinder_bell_funnel(kind: str, n: int = 128, *, noise: float = 0.1, seed=None) -> np.ndarray:
    """One sample from the classic cylinder–bell–funnel family.

    *kind* is ``"cylinder"``, ``"bell"``, or ``"funnel"``.  Onset and
    duration of the event are randomised as in Saito's original
    formulation; CBF is the standard sanity workload for shape-based
    similarity and is used in our accuracy experiments.
    """
    _check_length(n)
    rng = _rng(seed)
    a = int(rng.integers(int(n * 0.1), int(n * 0.35) + 1))
    b = int(rng.integers(int(n * 0.55), int(n * 0.9) + 1))
    height = 6.0 + rng.normal()
    t = np.arange(n, dtype=np.float64)
    mask = (t >= a) & (t <= b)
    span = max(b - a, 1)
    if kind == "cylinder":
        shape = np.where(mask, height, 0.0)
    elif kind == "bell":
        shape = np.where(mask, height * (t - a) / span, 0.0)
    elif kind == "funnel":
        shape = np.where(mask, height * (b - t) / span, 0.0)
    else:
        raise ValidationError(
            f"kind must be 'cylinder', 'bell' or 'funnel', got {kind!r}"
        )
    return shape + rng.normal(scale=noise, size=n)


def planted_motif_series(
    n: int,
    *,
    motif_length: int,
    occurrences: int,
    noise: float = 0.05,
    background_scale: float = 0.5,
    seed=None,
) -> tuple[np.ndarray, list[int]]:
    """Random-walk background with a recurring motif planted in it.

    Returns ``(values, start_positions)``.  Each occurrence is the same
    smooth motif plus fresh noise, at non-overlapping random positions —
    the ground truth for seasonal/recurring-pattern experiments (Fig. 4).
    """
    _check_length(n)
    if motif_length <= 1:
        raise ValidationError("motif_length must be > 1")
    if occurrences < 1:
        raise ValidationError("occurrences must be >= 1")
    if occurrences * motif_length > n:
        raise ValidationError(
            f"{occurrences} occurrences of length {motif_length} do not fit in {n}"
        )
    rng = _rng(seed)
    values = random_walk(n, step_scale=background_scale, seed=rng)
    # A smooth, distinctive motif: one period of a sine with a kink.
    t = np.linspace(0.0, 2.0 * np.pi, motif_length)
    motif = 3.0 * np.sin(t) + 1.5 * np.sin(3.0 * t)

    # Choose non-overlapping slots by sampling from the gaps left over.
    positions: list[int] = []
    attempts = 0
    while len(positions) < occurrences:
        attempts += 1
        if attempts > 10_000:
            raise ValidationError(
                "could not place non-overlapping motif occurrences; "
                "reduce occurrences or motif_length"
            )
        start = int(rng.integers(0, n - motif_length + 1))
        if all(abs(start - p) >= motif_length for p in positions):
            positions.append(start)
    positions.sort()
    for start in positions:
        local = motif + rng.normal(scale=noise, size=motif_length)
        values[start : start + motif_length] = local + values[start]
    return values, positions


def warped_copy(values, *, max_stretch: int = 2, noise: float = 0.0, seed=None) -> np.ndarray:
    """Random time-warped (locally stretched/compressed) copy of *values*.

    Each input point is repeated between 1 and ``max_stretch`` times, then
    the result is decimated back to roughly the original length.  The copy
    is close to the original under DTW but can be far under pointwise ED —
    exactly the misalignment regime where ONEX's DTW-based exploration
    beats Euclidean systems (used by the E6 accuracy experiment).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("values must be a non-empty 1-D array")
    if max_stretch < 1:
        raise ValidationError("max_stretch must be >= 1")
    rng = _rng(seed)
    repeats = rng.integers(1, max_stretch + 1, size=arr.size)
    stretched = np.repeat(arr, repeats)
    # Resample back to the original length to keep lengths comparable.
    idx = np.linspace(0, stretched.size - 1, arr.size).round().astype(int)
    out = stretched[idx]
    if noise > 0.0:
        out = out + rng.normal(scale=noise, size=out.size)
    return out

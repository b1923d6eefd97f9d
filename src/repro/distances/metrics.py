"""Euclidean-family distances on equal-length sequences.

ONEX (DESIGN.md §2) uses the length-normalised L1 distance as its cheap
"ED" for building similarity groups; the L2 and Chebyshev variants are used
by baselines and by the ED→DTW transfer bounds respectively.

All functions accept anything :func:`numpy.asarray` understands, validate
that the inputs are one-dimensional, equal-length, finite, and non-empty,
and return a Python ``float``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "as_sequence",
    "as_window",
    "chebyshev",
    "euclidean",
    "euclidean_l1",
    "euclidean_l2",
    "normalized_euclidean",
]


def as_sequence(values, *, name: str = "sequence") -> np.ndarray:
    """Validate and convert *values* to a 1-D float64 array.

    Raises :class:`ValidationError` if the input is empty, not 1-D, or
    contains NaN/inf.  Used at every public distance entry point so the
    numeric kernels can assume clean input.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return arr


def as_window(values, *, name: str = "sequence") -> np.ndarray:
    """Like :func:`as_sequence` but also admits 2-D ``(length, channels)``
    multichannel values."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        return as_sequence(arr, name=name)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(
            f"{name} must be a non-empty 1-D or (length, channels) array, "
            f"got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return arr


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    a = as_sequence(x, name="x")
    b = as_sequence(y, name="y")
    if a.shape[0] != b.shape[0]:
        raise ValidationError(
            f"equal lengths required, got {a.shape[0]} and {b.shape[0]}"
        )
    return a, b


def euclidean_l1(x, y) -> float:
    """Sum of absolute pointwise differences (Manhattan distance)."""
    a, b = _pair(x, y)
    return float(np.abs(a - b).sum())


def euclidean_l2(x, y) -> float:
    """Classic Euclidean (L2) distance."""
    a, b = _pair(x, y)
    return float(np.sqrt(((a - b) ** 2).sum()))


def chebyshev(x, y) -> float:
    """Maximum absolute pointwise difference (L-infinity distance)."""
    a, b = _pair(x, y)
    return float(np.abs(a - b).max())


def normalized_euclidean(x, y, *, order: int = 1) -> float:
    """Length-normalised ED — ONEX's similarity-group distance.

    ``order=1`` (default, used throughout the ONEX core) returns
    ``mean(|x_i - y_i|)``; ``order=2`` returns ``sqrt(mean((x_i - y_i)^2))``.
    Length normalisation is what lets a single similarity threshold ``ST``
    apply across subsequence lengths.
    """
    a, b = _pair(x, y)
    if order == 1:
        return float(np.abs(a - b).mean())
    if order == 2:
        return float(np.sqrt(((a - b) ** 2).mean()))
    raise ValidationError(f"order must be 1 or 2, got {order!r}")


def euclidean(x, y, *, order: int = 1, normalized: bool = True) -> float:
    """General entry point for the ED family.

    Parameters
    ----------
    order:
        1 for L1 aggregation, 2 for L2.
    normalized:
        If true (ONEX convention), divide out the length so thresholds are
        comparable across lengths.
    """
    if normalized:
        return normalized_euclidean(x, y, order=order)
    if order == 1:
        return euclidean_l1(x, y)
    if order == 2:
        return euclidean_l2(x, y)
    raise ValidationError(f"order must be 1 or 2, got {order!r}")

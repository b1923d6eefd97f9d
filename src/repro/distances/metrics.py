"""Input validation for every distance entry point, and ONEX's ED.

:func:`as_sequence` (1-D) and :func:`as_window` (1-D or ``(length,
channels)``) turn anything :func:`numpy.asarray` understands into a
finite, non-empty float64 array; every query and every public distance
kernel passes through one of them.  :func:`normalized_euclidean` is the
length-normalised L1 distance ONEX's grouping is defined by (DESIGN.md
§2), the scalar distance E14 hands the k-NN classifier;
the served Lp metrics are the registry's (:mod:`repro.distances.registry`).
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro.exceptions import ValidationError

__all__ = ["as_sequence", "as_window", "normalized_euclidean"]


def as_sequence(values: ArrayLike, *, name: str = "sequence") -> np.ndarray:
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


def as_window(values: ArrayLike, *, name: str = "sequence") -> np.ndarray:
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


#: ``1``: :func:`normalized_euclidean` is the mean absolute difference;
#: ``2``: the root mean square.
_ORDER = 1


def normalized_euclidean(x: ArrayLike, y: ArrayLike) -> float:
    """Length-normalised ED — ONEX's similarity-group distance.

    ``mean(|x_i - y_i|)`` on equal lengths (``sqrt(mean((x_i - y_i)^2))``
    under ``_ORDER = 2``).  Length normalisation is what lets a single
    similarity threshold ``ST`` apply across subsequence lengths.
    """
    a = as_sequence(x, name="x")
    b = as_sequence(y, name="y")
    if a.shape[0] != b.shape[0]:
        raise ValidationError(
            f"equal lengths required, got {a.shape[0]} and {b.shape[0]}"
        )
    if _ORDER == 1:
        return float(np.abs(a - b).mean())
    if _ORDER == 2:
        return float(np.sqrt(((a - b) ** 2).mean()))
    raise ValidationError(f"order must be 1 or 2, got {_ORDER!r}")

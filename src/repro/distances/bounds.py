"""The ED→DTW transfer inequality — ONEX's theoretical foundation.

ONEX builds its similarity groups with the cheap Euclidean distance but
answers queries under DTW.  The bridge (§3.2 of the paper, made precise in
DESIGN.md §2) is a triangle-style inequality: for equal-length sequences
``r`` (a group representative) and ``s`` (a member of its group), and any
query ``q``, let ``P*`` be the optimal warping path of ``(q, r)`` and
``m_j`` the number of path cells touching ``r_j``.  Applying the pointwise
triangle inequality along ``P*``:

    DTW(q, s) <= DTW(q, r) + sum_j m_j * |r_j - s_j|                (upper)

and symmetrically, bounding the unknown optimal ``(q, s)`` path length by
``len(q) + len(s) - 1``:

    DTW(q, s) >= DTW(q, r) - (len(q) + len(s) - 1) * max_j |r_j - s_j|  (lower)

Both hold under a Sakoe–Chiba band as well: ``r`` and ``s`` have one
length, so each optimal banded path of one pair is a banded path of the
other.  :func:`transfer_upper` carries a representative-level match to
every member of its group (the sensitivity profile); :func:`transfer_lower`
lets the query walk and the profile discard whole groups without touching
their members.  Both work in raw cost on arrays; callers divide by their
own path lengths.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["path_multiplicities", "transfer_lower", "transfer_upper"]


def path_multiplicities(
    path: Sequence[tuple[int, int]], length: int, *, axis: int = 1
) -> np.ndarray:
    """Count how many warping-path cells touch each index along *axis*.

    ``axis=1`` (default) counts per index of the second sequence, which is
    the representative in ONEX's usage.
    """
    if axis not in (0, 1):
        raise ValidationError(f"axis must be 0 or 1, got {axis}")
    index = np.asarray(path, dtype=np.int64).reshape(-1, 2)[:, axis]
    outside = index[(index < 0) | (index >= length)]
    if outside.size:
        raise ValidationError(
            f"path index {int(outside[0])} out of range 0..{length - 1}"
        )
    return np.bincount(index, minlength=length)


def transfer_lower(
    dtw_qr: np.ndarray | float,
    query_length: int,
    lengths: np.ndarray | int,
    radii: np.ndarray | float,
) -> np.ndarray:
    """``max(DTW(q, r) - (len(q) + len(s) - 1) * radius, 0)``: a lower
    bound on raw ``DTW(q, s)`` for every ``s`` of length *lengths* within
    Chebyshev distance *radii* of ``r`` (elementwise)."""
    return np.maximum(dtw_qr - (query_length + lengths - 1) * radii, 0.0)


def transfer_upper(
    dtw_qr: np.ndarray | float, gaps: np.ndarray, multiplicities: np.ndarray
) -> np.ndarray:
    """``DTW(q, r) + sum_j m_j * |r_j - s_j|``: an upper bound on raw
    ``DTW(q, s)`` per row of *gaps* (``|r - s|``), with ``m_j`` the
    *multiplicities* of the optimal ``(q, r)`` path on ``r``."""
    return dtw_qr + gaps @ multiplicities

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

The upper bound is what carries a representative-level match to every
member of its group; the lower bound is what lets the query processor
discard whole groups without touching their members.  Both directions are
verified by hypothesis property tests against exact DTW.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro.distances.dtw import DtwResult, dtw_path
from repro.distances.metrics import as_sequence
from repro.exceptions import ValidationError

__all__ = [
    "TransferBound",
    "group_pruning_lower_bound",
    "path_multiplicities",
    "transfer_bounds",
    "transfer_slack",
]


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


def transfer_slack(
    path: Sequence[tuple[int, int]], r: ArrayLike, s: ArrayLike, *, axis: int = 1
) -> float:
    """``sum_j m_j * |r_j - s_j|`` — the slack term of the transfer lemma."""
    rv = as_sequence(r, name="r")
    sv = as_sequence(s, name="s")
    if rv.shape[0] != sv.shape[0]:
        raise ValidationError(
            f"r and s must have equal length, got {rv.shape[0]} and {sv.shape[0]}"
        )
    mult = path_multiplicities(path, rv.shape[0], axis=axis)
    return float((mult * np.abs(rv - sv)).sum())


@dataclass(frozen=True)
class TransferBound:
    """Interval guaranteed to contain ``DTW(q, s)`` for a group member ``s``.

    Produced from one DTW computation against the group representative
    only — no DTW against ``s`` itself is performed.
    """

    dtw_query_rep: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValidationError(
                f"inconsistent bound: lower {self.lower} > upper {self.upper}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


def transfer_bounds(
    q: ArrayLike,
    r: ArrayLike,
    s: ArrayLike,
    *,
    window: int | None = None,
    rep_result: DtwResult | None = None,
) -> TransferBound:
    """Bound ``DTW(q, s)`` using only ``DTW(q, r)`` and ``ED(r, s)``.

    *r* and *s* must be equal length (they share a similarity group).
    *rep_result* may carry a precomputed ``dtw_path(q, r)`` so that one
    representative evaluation serves every member of the group.

    Note the guarantee is for **unconstrained** DTW on ``(q, s)``: the lower
    bound caps the unknown optimal path length at ``len(q) + len(s) - 1``,
    and a *window* only restricts the ``(q, r)`` evaluation.
    """
    qv = as_sequence(q, name="q")
    rv = as_sequence(r, name="r")
    sv = as_sequence(s, name="s")
    if rv.shape[0] != sv.shape[0]:
        raise ValidationError(
            f"r and s must have equal length, got {rv.shape[0]} and {sv.shape[0]}"
        )
    if rep_result is None:
        rep_result = dtw_path(qv, rv, window=window)
    slack = transfer_slack(rep_result.path, rv, sv, axis=1)
    cheb = float(np.abs(rv - sv).max())
    max_path = qv.shape[0] + sv.shape[0] - 1
    lower = max(0.0, rep_result.distance - max_path * cheb)
    upper = rep_result.distance + slack
    return TransferBound(dtw_query_rep=rep_result.distance, lower=lower, upper=upper)


def group_pruning_lower_bound(
    dtw_query_rep: float,
    query_length: int,
    member_length: int,
    chebyshev_radius: float,
) -> float:
    """Lower bound on ``DTW(q, s)`` for **every** member ``s`` of a group.

    *chebyshev_radius* is the maximum ``max_j |r_j - s_j|`` over the group's
    members, which the ONEX base maintains incrementally during
    construction.  If this bound already exceeds the best match found so
    far, the whole group is skipped — the key online-phase optimisation.
    """
    if chebyshev_radius < 0:
        raise ValidationError("chebyshev_radius must be >= 0")
    if query_length <= 0 or member_length <= 0:
        raise ValidationError("lengths must be positive")
    max_path = query_length + member_length - 1
    return max(0.0, dtw_query_rep - max_path * chebyshev_radius)

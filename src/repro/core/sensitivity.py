"""Parameter-sensitivity exploration (§2: "showing the changes in the
similarity between sequences for varying parameters").

Analysts rarely know the right similarity threshold up front; the demo
lets them see how the answer set changes as ``ST`` varies.  Recomputing a
range query per candidate threshold would be wasteful, so ONEX exploits
its own machinery: one batched DTW pass over the group representatives
yields, via the transfer inequality, a **certain** interval and a
**possible** interval of match counts for *every* threshold at once:

- a member is *certainly* within ``ST`` when its transfer upper bound is
  ``<= ST`` — no member DTW needed;
- a member is *certainly not* within ``ST`` when its group's transfer
  lower bound exceeds ``ST``;
- members between the bounds are ambiguous until verified.

The default implementation rides the batched pruning cascade (DESIGN.md
§6): groups whose :meth:`~repro.core.base.RepresentativeTable.cheap_bounds`
bound already clears the whole grid are skipped, the live groups'
representatives get their warping paths from **one** ``dtw_path_batch``
call per bucket, member rows come straight from the bucket's stacked
member matrix, and ``verify=True`` resolves every still-ambiguous member
with **one** stacked batch-DTW call per bucket — where the seed
implementation paid one scalar ``dtw_path`` per ambiguous member.  Counts
are identical either way: :func:`_profile_scalar`, the seed's
implementation, has :func:`_profile_batched`'s signature and nothing here
calls it — the property suite substitutes it to cross-check them
(DESIGN.md §1).

:func:`similarity_profile` returns both count curves over a threshold
grid (plus exact counts when ``verify=True``), which the Similarity View
renders as a sensitivity band.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro.core import analytics_metrics
from repro.core.base import OnexBase
from repro.core.deadline import Deadline
from repro.core.validation import as_optional_int_arg
from repro.data.dataset import SubsequenceRef
from repro.distances.bounds import path_multiplicities, transfer_lower, transfer_upper
from repro.distances.dtw import dtw_distance_batch, dtw_path, dtw_path_batch, effective_band
from repro.exceptions import ValidationError
from repro.obs.trace import span
from repro.testing import faults

__all__ = ["SensitivityPoint", "SensitivityProfile", "similarity_profile"]


@dataclass(frozen=True)
class SensitivityPoint:
    """Match-count information at one candidate threshold."""

    threshold: float
    certain: int
    possible: int
    exact: int | None = None

    def __post_init__(self) -> None:
        if self.certain > self.possible:
            raise ValidationError(
                f"certain ({self.certain}) cannot exceed possible ({self.possible})"
            )
        if self.exact is not None and not self.certain <= self.exact <= self.possible:
            raise ValidationError(
                f"exact ({self.exact}) outside [{self.certain}, {self.possible}]"
            )


@dataclass(frozen=True)
class SensitivityProfile:
    """Match-count curves for one query over a threshold grid."""

    thresholds: tuple[float, ...]
    points: tuple[SensitivityPoint, ...]
    candidates: int

    def knee(self) -> float:
        """The threshold with the largest jump in certain matches.

        A pragmatic "interesting setting" suggestion: below the knee the
        answer set is stable, above it matches flood in.
        """
        counts = [p.certain for p in self.points]
        jumps = np.diff([0] + counts)
        return self.points[int(np.argmax(jumps))].threshold

    def as_dict(self) -> dict:
        return {
            "view": "sensitivity",
            "candidates": self.candidates,
            "thresholds": list(self.thresholds),
            "certain": [p.certain for p in self.points],
            "possible": [p.possible for p in self.points],
            "exact": [p.exact for p in self.points],
            "knee": self.knee(),
        }


def similarity_profile(
    base: OnexBase,
    query: ArrayLike | SubsequenceRef,
    thresholds: Iterable[float],
    *,
    lengths: Iterable[int] | None = None,
    window: int | None = None,
    verify: bool = False,
    normalize: bool = True,
    deadline: Deadline | None = None,
) -> SensitivityProfile:
    """Match-count bounds for *query* across candidate *thresholds*.

    One DTW per group representative (with its warping path) bounds every
    member's normalised DTW from both sides; ``verify=True`` additionally
    resolves the ambiguous members with exact DTW so ``exact`` counts are
    populated (still only touching members the bounds cannot decide).

    A *deadline* is checked at every length-bucket boundary and always
    raises when it fires: a profile over a subset of buckets would
    silently understate every count, so there is no partial degrade here
    (``allow_partial`` is ignored).
    """
    window = as_optional_int_arg(window, "window")
    grid = tuple(sorted(float(t) for t in thresholds))
    if not grid or grid[0] <= 0:
        raise ValidationError("thresholds must be positive and non-empty")
    if base.channels > 1:
        raise ValidationError(
            f"similarity profiles support univariate bases only; this base "
            f"has {base.channels} channels"
        )
    q = base.resolve_query(query, normalize)

    chosen = base.buckets() if lengths is None else [
        base.bucket(int(n)) for n in sorted(set(lengths))
    ]
    started = time.perf_counter()
    with span(
        "sensitivity.profile",
        buckets=len(chosen),
        thresholds=len(grid),
        verify=verify,
    ):
        profile = _profile_batched(base, q, grid, chosen, window, verify, deadline)
    analytics_metrics.record("sensitivity", started)
    return profile


def _check_bucket_deadline(
    deadline: Deadline | None, scanned: int, total: int
) -> None:
    """The shared per-bucket chunk boundary of both profile twins."""
    faults.fire("sensitivity.bucket")
    if deadline is not None:
        deadline.check(
            "sensitivity profile",
            {"buckets_scanned": scanned, "buckets_total": total},
        )


def _profile_batched(
    base: OnexBase,
    q: np.ndarray,
    grid: tuple[float, ...],
    chosen: list,
    window: int | None,
    verify: bool,
    deadline: Deadline | None = None,
) -> SensitivityProfile:
    """Cascade implementation: cheap group bounds, one batched
    warping-path call per bucket, stacked member rows, and (under
    ``verify``) one batched member-DTW call per bucket.

    The one shortcut is conservative against the scalar path's own
    bounds, so the emitted counts are identical: a group is skipped (no
    warping path) only when its summary cheap bound proves every member's
    scalar *lower* bound would already exceed the whole grid — such
    members count toward nothing but the candidate total either way.
    """
    qlen = q.shape[0]
    grid_arr = np.asarray(grid)
    st_max = grid[-1]
    candidates = 0
    lowers: list[np.ndarray] = []
    uppers: list[np.ndarray] = []
    verify_units: list[tuple] = []  # (rows, base offset into arrays)
    offset = 0
    table = base.rep_table
    for scanned, bucket in enumerate(chosen):
        _check_bucket_deadline(deadline, scanned, len(chosen))
        length = bucket.length
        candidates += bucket.member_count
        if not bucket.group_count:
            continue
        max_path = qlen + length - 1
        min_path = max(qlen, length)
        band = effective_band(qlen, length, window)
        cheap = table.cheap_bounds(q, table.rows_of([length]), band)
        # Conservative against the per-member transfer lower bound: the
        # cheap bound never exceeds DTW(q, rep) and the group Chebyshev
        # radius never understates a member's, so a group failing this
        # test has every member's scalar lower bound above the grid.
        floor = transfer_lower(cheap, qlen, length, bucket.cheb_radii)
        alive = floor / max_path <= st_max
        g_ids = np.flatnonzero(alive)
        # One lookup for the bucket; the stable sort puts the rows group
        # by group, members in arrival order, whatever the store order.
        rows, _, owner = bucket.group_rows(g_ids)
        stacked = bucket.member_matrix[rows[np.argsort(owner, kind="stable")]]
        stops = np.cumsum(bucket.cardinalities[g_ids]).tolist()
        with span("sensitivity.bucket", length=length, groups=g_ids.size):
            centroids = bucket.centroids[g_ids]
            reps = dtw_path_batch(q, centroids, window=window)
            units = zip(
                centroids, reps.distances, reps.multiplicities(1, length),
                [0] + stops, stops,
            )
            for centroid, distance, mult, lo, hi in units:
                gaps = np.abs(stacked[lo:hi] - centroid)
                uppers.append(transfer_upper(distance, gaps, mult) / min_path)
                lower = transfer_lower(distance, qlen, length, gaps.max(axis=1))
                lowers.append(lower / max_path)
        if verify and g_ids.size:
            verify_units.append((stacked, offset))
            offset += stacked.shape[0]

    lower = np.concatenate(lowers) if lowers else np.empty(0)
    upper = np.concatenate(uppers) if uppers else np.empty(0)

    exact_distance: np.ndarray | None = None
    if verify:
        exact_distance = (lower + upper) / 2.0  # placeholder for decided rows
        # A member needs exact DTW only when some grid threshold st
        # satisfies lower <= st < upper (the negation of the scalar
        # path's "hi <= st or lo > st") — vectorised via two rank
        # lookups per member against the sorted grid.
        ambiguous_any = np.searchsorted(grid_arr, upper, side="left") > (
            np.searchsorted(grid_arr, lower, side="left")
        )
        for scanned, (rows, start) in enumerate(verify_units):
            _check_bucket_deadline(deadline, scanned, len(verify_units))
            sl = slice(start, start + rows.shape[0])
            need = np.nonzero(ambiguous_any[sl])[0]
            if not need.size:
                continue
            raws, plens = dtw_distance_batch(
                q, rows[need], window=window, with_path_length=True
            )
            exact_distance[sl][need] = raws / plens

    points = _points_from_bounds(grid, lower, upper, exact_distance)
    return SensitivityProfile(
        thresholds=grid, points=tuple(points), candidates=candidates
    )


def _profile_scalar(
    base: OnexBase,
    q: np.ndarray,
    grid: tuple[float, ...],
    chosen: list,
    window: int | None,
    verify: bool,
    deadline: Deadline | None = None,
) -> SensitivityProfile:
    """Seed scalar implementation: the reference tests substitute for
    :func:`_profile_batched`."""
    qlen = q.shape[0]
    lowers: list[np.ndarray] = []
    uppers: list[np.ndarray] = []
    members: list[SubsequenceRef] = []
    for scanned, bucket in enumerate(chosen):
        _check_bucket_deadline(deadline, scanned, len(chosen))
        length = bucket.length
        max_path = qlen + length - 1
        min_path = max(qlen, length)
        for group in bucket.groups:
            rep = dtw_path(q, group.centroid, window=window)
            mult = path_multiplicities(rep.path, length, axis=1)
            rows = np.vstack([base.member_values(ref) for ref in group.members])
            diffs = np.abs(rows - group.centroid)
            slack = diffs @ mult  # per-member transfer slack
            cheb = diffs.max(axis=1)
            # Normalised-DTW interval per member (DESIGN.md §2): the raw
            # interval scaled by the extreme feasible path lengths.
            upper = (rep.distance + slack) / min_path
            lower = np.maximum(rep.distance - max_path * cheb, 0.0) / max_path
            lowers.append(lower)
            uppers.append(upper)
            members.extend(group.members)

    lower = np.concatenate(lowers) if lowers else np.empty(0)
    upper = np.concatenate(uppers) if uppers else np.empty(0)

    exact_distance: np.ndarray | None = None
    if verify:
        exact_distance = np.empty(lower.shape[0])
        for i, ref in enumerate(members):
            # Bounds that already agree on every grid threshold need no
            # verification; resolve only genuinely ambiguous members.
            if _decided_everywhere(lower[i], upper[i], grid):
                exact_distance[i] = (lower[i] + upper[i]) / 2.0
            else:
                exact_distance[i] = dtw_path(
                    q, base.member_values(ref), window=window
                ).normalized_distance

    points = _points_from_bounds(grid, lower, upper, exact_distance)
    return SensitivityProfile(
        thresholds=grid, points=tuple(points), candidates=lower.shape[0]
    )


def _points_from_bounds(
    grid: tuple[float, ...],
    lower: np.ndarray,
    upper: np.ndarray,
    exact_distance: np.ndarray | None,
) -> list[SensitivityPoint]:
    points = []
    for st in grid:
        certain = int((upper <= st).sum())
        possible = int((lower <= st).sum())
        exact = None
        if exact_distance is not None:
            decided = (upper <= st) | (lower > st)
            ambiguous = ~decided
            exact = int(certain + (exact_distance[ambiguous] <= st).sum())
        points.append(
            SensitivityPoint(
                threshold=st, certain=certain, possible=possible, exact=exact
            )
        )
    return points


def _decided_everywhere(lo: float, hi: float, grid: tuple[float, ...]) -> bool:
    """True when no grid threshold falls inside the open interval (lo, hi]."""
    return all(hi <= st or lo > st for st in grid)

"""ONEX similarity groups (§3.1) and the fixed-representative rule.

A :class:`SimilarityGroup` collects same-length subsequences that are
mutually similar under the cheap length-normalised L1 distance ``ED_n``
and summarises them by a representative.  One rule forms every group of
the package, :func:`assign_rows`: take the rows in order; a row joins
the nearest representative within ``ST/2`` (lowest group on ties), else
it seeds a new group and becomes that group's representative.  A
representative never moves, so every member stays within ``ST/2`` of it
and, by the triangle inequality of ``ED_n``, any two members of one
group are within ``ST`` of each other — the paper's guarantee, with no
repair pass.  The paper's §3.1 representative is the moving centroid of
the members; here it is the group's seed (DESIGN.md §5 says why).

Two callers share the rule: :class:`repro.core.base.OnexBase`, per length
against the bucket's stack of representatives (a build is appends to an
empty base), and :func:`cluster_subsequence_rows`, which groups one
matrix from an empty stack for the seasonal miner.

Each group also records two radii the query processor needs:

- ``ed_radius`` — max ``ED_n(member, representative)`` (``<= ST/2``),
- ``cheb_radius`` — max ``max_j |member_j - rep_j|``, which feeds the
  transfer-inequality group pruning (:mod:`repro.distances.bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.exceptions import InvariantError, ValidationError

__all__ = [
    "RowGroup",
    "SimilarityGroup",
    "assign_rows",
    "cluster_subsequence_rows",
    "cluster_subsequences",
]

#: Tolerance added to radius checks to absorb float round-off.
_EPS = 1e-9


@dataclass
class SimilarityGroup:
    """A finalized ONEX similarity group of same-length subsequences."""

    length: int
    centroid: np.ndarray
    members: tuple[SubsequenceRef, ...]
    ed_radius: float
    cheb_radius: float

    @property
    def cardinality(self) -> int:
        return len(self.members)

    def validate(self, dataset: TimeSeriesDataset, group_radius: float) -> None:
        """Assert the construction invariants against *dataset*.

        Raises :class:`InvariantError` when any member sits farther than
        ``group_radius`` (= ``ST/2``) from the representative or when the
        recorded radii understate reality.  Used by tests and debug paths;
        O(members * length).
        """
        for ref in self.members:
            # Multivariate members resolve to (length, channels) blocks;
            # the stored centroid is the channel-flattened row.
            values = dataset.values(ref).ravel()
            ed = float(np.abs(values - self.centroid).mean())
            cheb = float(np.abs(values - self.centroid).max())
            if ed > group_radius + _EPS:
                raise InvariantError(
                    f"member {ref} at ED_n {ed:.6g} exceeds group radius "
                    f"{group_radius:.6g}"
                )
            if ed > self.ed_radius + _EPS or cheb > self.cheb_radius + _EPS:
                raise InvariantError(
                    f"member {ref} outside recorded radii (ed={ed:.6g}, "
                    f"cheb={cheb:.6g})"
                )


class RowGroup(NamedTuple):
    """One group, expressed in matrix rows: its representative (the
    ``centroid`` field, a copy of its first row), the member ``rows`` in
    ascending order and its two radii."""

    centroid: np.ndarray
    rows: np.ndarray
    ed_radius: float
    cheb_radius: float


#: Slack added to the mean-difference prescreen so float round-off can
#: never prune a representative whose exact ``ED_n`` ties the minimum.
#: The bound ``ED_n(x, c) >= |mean(x) - mean(c)|`` holds exactly in real
#: arithmetic; evaluated in float64 both sides carry ``O(L * eps)``
#: relative error, so a ``1e-9 * (1 + scale)`` margin (twenty-some
#: orders above the error for any realistic window length) keeps the
#: prescreen strictly conservative while still discarding almost every
#: far representative.
_LB_MARGIN = 1e-9


def mean_prescreen_cutoff(
    group_radius: float, row_means: np.ndarray, centroid_means: np.ndarray
) -> float:
    """Largest ``|mean(row) - mean(representative)|`` at which a
    representative may still absorb a row: the radius plus
    :data:`_LB_MARGIN` at the scale of the means."""
    peak = max(np.abs(row_means).max(), np.abs(centroid_means).max(initial=0.0))
    return group_radius + _LB_MARGIN * (1.0 + float(peak))


def assign_rows(
    rows: np.ndarray,
    means: np.ndarray,
    centroids: np.ndarray,
    centroid_means: np.ndarray,
    group_radius: float,
    slack: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, list[int], int]:
    """Place *rows*, one at a time, against the stack *centroids* (read,
    not changed) and the groups the rows themselves seed.

    The rule: nearest representative by ``ED_n``, lowest group on ties;
    join within *group_radius*, else seed.  Exact ``ED_n`` runs only
    where it can matter: ``ED_n(w, c) >= |mean(w) - mean(c)|``, so a row
    is evaluated against the ascending columns whose *centroid_means* are
    within the radius (plus :data:`_LB_MARGIN`, plus *slack* for how the
    row *means* were summed) of its own.  A minimum within the radius
    survives with all of its ties, so the first-of-ties argmin over the
    survivors is the full stack's; a minimum beyond it seeds either way,
    unless a scan of the rows' own seeds — winning on strictly smaller
    distance only — finds one within the radius.

    Returns each row's group and whether it seeded it (new groups count
    up from ``len(centroids)`` in row order), the store order — the
    seeds, then the joins group by group in order of each group's first
    join — and how many (row, representative) pairs passed the prescreen
    to exact ``ED_n``.  ``native.assign_windows`` answers to this bit for
    bit.
    """
    count, width = rows.shape
    existing = centroids.shape[0]
    cutoff = mean_prescreen_cutoff(group_radius, means, centroid_means) + slack
    groups = np.empty(count, dtype=np.int64)
    created = np.zeros(count, dtype=bool)
    fresh = np.empty_like(rows)  # representatives seeded by these rows
    seeds: list[int] = []
    joins: dict[int, list[int]] = {}
    evaluated = 0
    for i, (row, mean) in enumerate(zip(rows, means.tolist())):
        cols = np.flatnonzero(np.abs(centroid_means - mean) <= cutoff)
        evaluated += cols.size
        g_idx, dist = 0, np.inf
        if cols.size:
            # sum / width is mean() without its Python-level wrapper.
            dists = np.abs(centroids[cols] - row).sum(axis=1) / width
            best = int(np.argmin(dists))
            g_idx, dist = int(cols[best]), float(dists[best])
        if seeds:
            fresh_d = np.abs(fresh[: len(seeds)] - row).sum(axis=1) / width
            f_idx = int(np.argmin(fresh_d))
            if float(fresh_d[f_idx]) < dist:
                g_idx, dist = existing + f_idx, float(fresh_d[f_idx])
        if dist <= group_radius:
            joins.setdefault(g_idx, []).append(i)
        else:
            g_idx = existing + len(seeds)
            fresh[len(seeds)] = row
            seeds.append(i)
            created[i] = True
        groups[i] = g_idx
    order = seeds + [i for members in joins.values() for i in members]
    return groups, created, order, evaluated


def cluster_subsequence_rows(matrix: np.ndarray, group_radius: float) -> list[RowGroup]:
    """Group equal-length rows from an empty stack with :func:`assign_rows`.

    The handle-free core: *matrix* rows are the subsequence values,
    *group_radius* is ``ST/2``, and the returned :class:`RowGroup`\\ s, in
    seed order, carry member *row indices* instead of refs.
    """
    if matrix.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got shape {matrix.shape}")
    if group_radius <= 0:
        raise ValidationError(f"group_radius must be > 0, got {group_radius}")
    if matrix.shape[0] == 0:
        return []
    width = matrix.shape[1]
    groups = assign_rows(
        matrix, matrix.sum(axis=1) / width, matrix[:0], np.empty(0), group_radius
    )[0]
    by_group = np.argsort(groups, kind="stable")
    firsts = np.flatnonzero(np.diff(groups[by_group], prepend=-1))
    seeds = matrix[by_group[firsts]]
    deviations = np.abs(matrix - seeds[groups])
    eds = np.zeros(firsts.size)
    chebs = np.zeros(firsts.size)
    np.maximum.at(eds, groups, deviations.sum(axis=1) / width)
    np.maximum.at(chebs, groups, deviations.max(axis=1))
    return [
        RowGroup(seed, rows, float(ed), float(cheb))
        for seed, rows, ed, cheb in zip(
            seeds, np.split(by_group, firsts[1:]), eds.tolist(), chebs.tolist()
        )
    ]


def cluster_subsequences(
    matrix: np.ndarray, refs: list[SubsequenceRef], group_radius: float
) -> list[SimilarityGroup]:
    """Group equal-length subsequences into :class:`SimilarityGroup`\\ s.

    *matrix* rows are the subsequence values, *refs* their handles (same
    order).  *group_radius* is ``ST/2``.  Thin handle-resolving wrapper
    over :func:`cluster_subsequence_rows`.
    """
    if matrix.ndim == 2 and matrix.shape[0] != len(refs):
        raise ValidationError(
            f"matrix rows ({matrix.shape[0]}) != refs ({len(refs)})"
        )
    length = matrix.shape[1] if matrix.ndim == 2 else 0
    return [
        SimilarityGroup(
            length=length,
            centroid=group.centroid,
            members=tuple(refs[k] for k in group.rows.tolist()),
            ed_radius=group.ed_radius,
            cheb_radius=group.cheb_radius,
        )
        for group in cluster_subsequence_rows(matrix, group_radius)
    ]

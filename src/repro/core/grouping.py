"""ONEX similarity groups (§3.1) and the per-length online clustering.

A :class:`SimilarityGroup` collects same-length subsequences that are
mutually similar under the cheap length-normalised L1 distance ``ED_n``
and summarises them by their centroid ("representative").  Construction
follows the paper: scan subsequences in order, assign each to the nearest
existing group whose centroid is within ``ST/2``, else seed a new group.

Because the centroid moves as members join, the strict invariant *every
member within ``ST/2`` of the final representative* is re-established by a
finalize/repair pass (:func:`cluster_subsequence_rows` → the repair
rounds): members that drifted outside the radius are pulled out and
re-clustered, with singleton groups as the guaranteed-terminating
fallback.  After repair the triangle inequality of ``ED_n`` gives the
paper's pairwise guarantee: any two members of one group are within
``ST`` of each other.  Both properties are asserted by the test suite on
randomised inputs.

The clustering core works on *row indices* into the stacked window
matrix (:func:`cluster_subsequence_rows`); resolving rows to
:class:`SubsequenceRef` handles is the caller's concern.  This is what
makes the per-length build jobs picklable — a worker process ships group
arrays plus member-row index arrays back to the parent, never handle
objects (:mod:`repro.core.base`).

There is one execution path: block joins are applied with one ordered
``np.add.at`` scatter per block (sequential accumulation in block order,
so every centroid is its members' sequential row sum over their count,
bit for bit), and each repair round evaluates every draft's
member→centroid deviations in a single flat masked operation with
``reduceat`` segment maxima (:func:`_scan_batched`,
:func:`_evaluate_round`).  The original row-at-a-time scan and per-draft
evaluation stay as same-signature private references
(:func:`_scan_reference`, :func:`_evaluate_round_reference`) that nothing
here calls: the Hypothesis suite substitutes them and asserts
**bit-identical** groups (DESIGN.md §1).

Each finalized group also records two radii the query processor needs:

- ``ed_radius`` — max ``ED_n(member, representative)`` (``<= ST/2``),
- ``cheb_radius`` — max ``max_j |member_j - rep_j|``, which feeds the
  transfer-inequality group pruning (:mod:`repro.distances.bounds`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.exceptions import InvariantError, ValidationError

__all__ = ["RowGroup", "SimilarityGroup", "cluster_subsequence_rows", "cluster_subsequences"]

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
    """One finalized group, expressed in window-matrix rows.

    ``rows`` are indices into the clustered matrix, in member order; the
    arrays are plain numpy/float payloads, so a list of :class:`RowGroup`
    pickles cheaply across the build pipeline's process boundary.
    """

    centroid: np.ndarray
    rows: np.ndarray
    ed_radius: float
    cheb_radius: float


class _DraftGroup:
    """Mutable group used during the online scan, before finalisation."""

    __slots__ = ("row_indices", "total", "count")

    def __init__(self, length: int) -> None:
        self.row_indices: list[int] = []
        self.total = np.zeros(length, dtype=np.float64)
        self.count = 0

    def add(self, row_index: int, values: np.ndarray) -> None:
        self.row_indices.append(row_index)
        self.total += values
        self.count += 1

    @property
    def centroid(self) -> np.ndarray:
        return self.total / self.count


class _CentroidTable:
    """Growable matrix of current centroids for vectorised assignment."""

    def __init__(self, length: int) -> None:
        self._length = length
        self._capacity = 16
        self._matrix = np.empty((self._capacity, length), dtype=np.float64)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def matrix(self) -> np.ndarray:
        """The live centroid rows (view; do not mutate)."""
        return self._matrix[: self._count]

    def append(self, centroid: np.ndarray) -> None:
        if self._count == self._capacity:
            self._capacity *= 2
            grown = np.empty((self._capacity, self._length), dtype=np.float64)
            grown[: self._count] = self._matrix[: self._count]
            self._matrix = grown
        self._matrix[self._count] = centroid
        self._count += 1

    def update(self, index: int, centroid: np.ndarray) -> None:
        self._matrix[index] = centroid

    def nearest(self, row: np.ndarray) -> tuple[int, float]:
        """(index, ED_n) of the closest current centroid to *row*."""
        if self._count == 0:
            return -1, np.inf
        dists = np.abs(self._matrix[: self._count] - row).mean(axis=1)
        idx = int(np.argmin(dists))
        return idx, float(dists[idx])


#: Rows per assignment block in the online scan.  Per block, the distance
#: of every row to every existing centroid is evaluated in one vectorised
#: operation instead of one ``nearest`` call per row.
_ASSIGN_BLOCK = 128

#: Centroid columns per chunk of the block distance evaluation; bounds the
#: 3-D temporary at block × chunk × length so it stays cache-resident
#: instead of streaming a block × table × length array through memory.
_CHUNK_COLS = 128


#: Slack added to the mean-difference prescreen so float round-off can
#: never prune a centroid whose exact ``ED_n`` ties the minimum.  The
#: bound ``ED_n(x, c) >= |mean(x) - mean(c)|`` holds exactly in real
#: arithmetic; evaluated in float64 both sides carry ``O(L * eps)``
#: relative error, so a ``1e-9 * (1 + scale)`` margin (twenty-some
#: orders above the error for any realistic window length) keeps the
#: prescreen strictly conservative while still discarding almost every
#: far centroid.
_LB_MARGIN = 1e-9


def mean_prescreen_cutoff(
    group_radius: float, row_means: np.ndarray, centroid_means: np.ndarray
) -> float:
    """Largest ``|mean(row) - mean(centroid)|`` at which a centroid may
    still absorb a row: the radius plus :data:`_LB_MARGIN` at the scale
    of the means (shared with :mod:`repro.core.base`'s assignment)."""
    peak = max(np.abs(row_means).max(), np.abs(centroid_means).max(initial=0.0))
    return group_radius + _LB_MARGIN * (1.0 + float(peak))


def _block_distances(brows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Column-chunked ``ED_n`` of every block row to every centroid row."""
    g0 = centroids.shape[0]
    dists = np.empty((brows.shape[0], g0))
    for c0 in range(0, g0, _CHUNK_COLS):
        c1 = min(g0, c0 + _CHUNK_COLS)
        dists[:, c0:c1] = np.abs(
            brows[:, None, :] - centroids[None, c0:c1, :]
        ).mean(axis=2)
    return dists


def _scan_reference(
    matrix: np.ndarray,
    order: np.ndarray,
    group_radius: float,
    length: int,
) -> list[_DraftGroup]:
    """The original scan: full distance table, row-at-a-time bookkeeping.
    The reference tests substitute for :func:`_scan_batched`."""
    drafts: list[_DraftGroup] = []
    table = _CentroidTable(length)
    for b0 in range(0, order.shape[0], _ASSIGN_BLOCK):
        block = order[b0 : b0 + _ASSIGN_BLOCK]
        nb = block.shape[0]
        brows = matrix[block]
        g0 = len(table)
        if g0:
            dists = _block_distances(brows, table.matrix)
            best_idx = np.argmin(dists, axis=1)
            joins = dists[np.arange(nb), best_idx] <= group_radius
        else:
            best_idx = np.zeros(nb, dtype=np.int64)
            joins = np.zeros(nb, dtype=bool)
        new_table = _CentroidTable(length)
        new_drafts: list[_DraftGroup] = []
        moved: set[int] = set()
        for bi in range(nb):
            k = int(block[bi])
            row = brows[bi]
            if joins[bi]:
                gi = int(best_idx[bi])
                drafts[gi].add(k, row)
                moved.add(gi)
                continue
            idx, dist = new_table.nearest(row)
            if idx >= 0 and dist <= group_radius:
                draft = new_drafts[idx]
                draft.add(k, row)
                new_table.update(idx, draft.centroid)
            else:
                draft = _DraftGroup(length)
                draft.add(k, row)
                new_drafts.append(draft)
                new_table.append(draft.centroid)
        for gi in moved:
            table.update(gi, drafts[gi].centroid)
        for draft in new_drafts:
            drafts.append(draft)
            table.append(draft.centroid)
    return drafts


def _scan_batched(
    matrix: np.ndarray,
    order: np.ndarray,
    group_radius: float,
    length: int,
) -> list[_DraftGroup]:
    """One mini-batched pass of the paper's online clustering over the
    rows *order* of *matrix*: prescreened distances, ordered scatter joins.

    Rows are processed in blocks of ``_ASSIGN_BLOCK``: every row's
    distance to the existing centroids is evaluated against the table *as
    of block start*, rows within the radius of their nearest centroid
    join that group, and centroid moves are applied once at block end.
    Rows no existing group can absorb fall through to a sequential scan
    among the block's own newborn groups (so near-duplicate rows in one
    block still share a group, as in a row-at-a-time scan).

    Assigning against a frozen table means a joining row may land in a
    group whose centroid drifted earlier in the same block.  Strictness
    does not depend on it: the repair pass in
    :func:`cluster_subsequence_rows` evicts and re-clusters any member
    outside the radius of its *final* representative, so the published
    invariants hold exactly while the assignment's distance work runs
    entirely through block-sized kernels.

    Decision-identical to :func:`_scan_reference`, block by block:

    - **Prescreen** — a centroid whose mean differs from a row's mean by
      more than the radius (plus :data:`_LB_MARGIN` slack) can never
      absorb that row (``ED_n >= |Δmean|`` by the triangle inequality),
      and can never be the argmin *of a joining row* — any join winner
      has ``ED_n <= radius``.  Exact ``ED_n`` therefore only runs
      against the union of per-row candidate centroids; surviving
      columns keep ascending order, so first-of-ties argmin picks the
      same winner the full table would.
    - **Joins** — applied per block with one ``np.add.at`` scatter onto
      the touched drafts' current totals.  Repeated indices accumulate
      unbuffered in index order, and the stable by-draft grouping keeps
      each draft's rows in block order, so the centroid drift matches
      the reference's sequential ``total += row`` bit for bit.
    - **Newborns** — rows no existing group absorbs replay the exact
      sequential fallback (each may join a group seeded earlier in the
      same block), with the table bookkeeping inlined on flat arrays.
    """
    drafts: list[_DraftGroup] = []
    capacity = 16
    table = np.empty((capacity, length), dtype=np.float64)
    tmeans = np.empty(capacity, dtype=np.float64)
    g_count = 0
    for b0 in range(0, order.shape[0], _ASSIGN_BLOCK):
        block = order[b0 : b0 + _ASSIGN_BLOCK]
        nb = block.shape[0]
        brows = matrix[block]
        block_ids = block.tolist()
        rmeans = brows.mean(axis=1)
        join_pos = np.empty(0, dtype=np.int64)
        best_idx = None
        if g_count:
            live_means = tmeans[:g_count]
            cutoff = mean_prescreen_cutoff(group_radius, rmeans, live_means)
            if g_count <= _SMALL_TABLE:
                dists = _block_distances(brows, table[:g_count])
                best_idx = np.argmin(dists, axis=1)
                best = dists[np.arange(nb), best_idx]
                join_pos = np.nonzero(best <= group_radius)[0]
            else:
                # Tiled prescreened evaluation.  Centroids sorted by
                # mean give every row a contiguous candidate range
                # (|Δmean| <= cutoff, the conservative |Δmean| <= ED_n
                # bound); rows sorted by mean make neighbouring rows'
                # ranges overlap, so a 16-row tile evaluates exact ED_n
                # once over the union of its ranges.  Extra columns in
                # the union are harmless — their exact distance provably
                # exceeds the radius, so they can neither flip a join
                # decision nor win an argmin that matters — and the
                # winner is recovered as the *smallest centroid id*
                # attaining the tile-row minimum, which is exactly the
                # reference's first-of-ties ``np.argmin``.
                col_order = np.argsort(live_means, kind="stable")
                sorted_means = live_means[col_order]
                lo_pos = np.searchsorted(sorted_means, rmeans - cutoff, "left")
                hi_pos = np.searchsorted(sorted_means, rmeans + cutoff, "right")
                row_order = np.argsort(rmeans, kind="stable")
                best_val = np.full(nb, np.inf)
                best_idx = np.zeros(nb, dtype=np.int64)
                for r0 in range(0, nb, _TILE_ROWS):
                    tile = row_order[r0 : r0 + _TILE_ROWS]
                    c0 = int(lo_pos[tile].min())
                    c1 = int(hi_pos[tile].max())
                    if c0 >= c1:
                        continue
                    col_ids = col_order[c0:c1]
                    sub = table[col_ids]
                    dists = np.abs(
                        brows[tile][:, None, :] - sub[None, :, :]
                    ).sum(axis=2)
                    dists /= length
                    tile_min = dists.min(axis=1)
                    winner = np.where(
                        dists <= tile_min[:, None], col_ids[None, :], g_count
                    ).min(axis=1)
                    best_val[tile] = tile_min
                    best_idx[tile] = winner
                join_pos = np.nonzero(best_val <= group_radius)[0]
        if join_pos.size:
            gis = best_idx[join_pos]
            by_draft = np.argsort(gis, kind="stable")
            sorted_pos = join_pos[by_draft]
            sorted_gis = gis[by_draft]
            bounds = np.concatenate(
                ([0], np.nonzero(np.diff(sorted_gis))[0] + 1, [sorted_gis.size])
            )
            touched = sorted_gis[bounds[:-1]].tolist()
            totals = np.stack([drafts[g].total for g in touched])
            slots = np.repeat(
                np.arange(len(touched)), np.diff(bounds)
            )
            np.add.at(totals, slots, brows[sorted_pos])
            joined_ids = block[sorted_pos].tolist()
            for t, gi in enumerate(touched):
                s0, s1 = int(bounds[t]), int(bounds[t + 1])
                draft = drafts[gi]
                draft.row_indices.extend(joined_ids[s0:s1])
                draft.total = totals[t]
                draft.count += s1 - s0
            join_mask = np.zeros(nb, dtype=bool)
            join_mask[join_pos] = True
            scan_positions = np.nonzero(~join_mask)[0].tolist()
        else:
            touched = []
            scan_positions = range(nb)
        # Newborn fallback.  The reference walks these rows one at a time
        # because a row may join a group seeded by an earlier row of the
        # same block.  The runs *between* joins are batchable, though: as
        # long as no join happens, every newborn centroid equals its seed
        # row, so each row's nearest-newborn distance is a plain pairwise
        # ``ED_n`` among the fallback rows — computed once per block as a
        # matrix.  The loop therefore jumps straight to the first row
        # whose distance (to a live column or to an earlier run row)
        # drops inside the radius, bulk-creates everything before it,
        # applies that single join (recomputing just the moved centroid's
        # column), and repeats.  Joins are rare in this path — that is
        # why the rows ended up here — so most blocks finish in one jump.
        new_drafts, new_cent, n_new = _newborn_runs(
            brows, scan_positions, block_ids, group_radius, length
        )
        needed = g_count + n_new
        if needed > capacity:
            while capacity < needed:
                capacity *= 2
            grown = np.empty((capacity, length), dtype=np.float64)
            grown[:g_count] = table[:g_count]
            table = grown
            grown_means = np.empty(capacity, dtype=np.float64)
            grown_means[:g_count] = tmeans[:g_count]
            tmeans = grown_means
        for gi in touched:
            draft = drafts[gi]
            table[gi] = draft.total
            table[gi] /= draft.count
        if n_new:
            table[g_count:needed] = new_cent[:n_new]
            drafts.extend(new_drafts)
        if touched or n_new:
            refresh = np.asarray(
                touched + list(range(g_count, needed)), dtype=np.int64
            )
            tmeans[refresh] = table[refresh].mean(axis=1)
            g_count = needed
    return drafts


#: Table sizes at or below this evaluate the full block-distance matrix
#: directly; the tiled prescreen only pays off once the centroid table is
#: large enough for sorting and range queries to beat brute force.
_SMALL_TABLE = 128

#: Block rows per tile of the prescreened evaluation.
_TILE_ROWS = 16

#: Consecutive newborn *creations* after which the fallback switches from
#: the row-at-a-time walk to run-until-join batching.  Dense-join blocks
#: (loose radii) stay on the cheap sequential walk and never pay for the
#: pairwise matrix; creation-dominated blocks (tight radii, rescans of
#: hard rows) amortise it across the whole remainder.
_RUN_SWITCH_STREAK = 16


def _newborn_runs(
    brows: np.ndarray,
    scan_positions: Iterable[int],
    block_ids: list[int],
    group_radius: float,
    length: int,
) -> tuple[list[_DraftGroup], np.ndarray, int]:
    """Replay one block's newborn fallback, batching creation runs.

    Exactly reproduces the reference's sequential semantics — each row
    joins the first-of-ties nearest *live* newborn centroid within the
    radius, else seeds a new one.  The walk starts row-at-a-time; once
    :data:`_RUN_SWITCH_STREAK` consecutive rows have all *created*
    (the signature of a tight radius, where almost nothing coalesces),
    the remainder flips to run-until-join batches: one pairwise ``ED_n``
    matrix among the remaining rows doubles as the centroid distance
    table while every centroid still equals its seed row, whole no-join
    runs bulk-create with zero further distance work, and a join
    invalidates (recomputes) exactly one column.  Returns the created
    drafts, their end-of-block centroid matrix, and the count.
    """
    positions = list(scan_positions)
    nr = len(positions)
    if not nr:
        return [], np.empty((0, length), dtype=np.float64), 0
    R = brows[positions]
    T = R.copy()  # per-draft running totals (row j seeds draft j's total)
    centroids = np.empty((nr, length), dtype=np.float64)
    new_drafts: list[_DraftGroup] = []
    ncols = 0
    pos = 0
    streak = 0
    # Phase 1: the reference walk (cheap while joins keep happening).
    while pos < nr and streak < _RUN_SWITCH_STREAK:
        row = R[pos]
        if ncols:
            d = np.abs(centroids[:ncols] - row).sum(axis=1)
            d /= length
            w = int(d.argmin())
            if d[w] <= group_radius:
                draft = new_drafts[w]
                draft.add(block_ids[positions[pos]], row)
                centroids[w] = draft.total
                centroids[w] /= draft.count
                pos += 1
                streak = 0
                continue
        draft = _DraftGroup.__new__(_DraftGroup)
        draft.row_indices = [block_ids[positions[pos]]]
        draft.total = T[pos]
        draft.count = 1
        new_drafts.append(draft)
        centroids[ncols] = row
        ncols += 1
        pos += 1
        streak += 1
    if pos == nr:
        return new_drafts, centroids[:ncols], ncols
    # Phase 2: run-until-join batching over the remaining rows.  M's
    # columns stay aligned with the draft slots (creation order), so the
    # argmin below reads off the reference's first-of-ties winner.
    rem = nr - pos
    R2 = R[pos:]
    base = ncols  # live columns seeded before the switch
    M = np.empty((rem, base + rem), dtype=np.float64)
    if base:
        for c0 in range(0, base, _CHUNK_COLS):
            c1 = min(base, c0 + _CHUNK_COLS)
            M[:, c0:c1] = np.abs(
                R2[:, None, :] - centroids[None, c0:c1, :]
            ).sum(axis=2)
        M[:, :base] /= length
    pair = np.abs(R2[:, None, :] - R2[None, :, :]).sum(axis=2)
    pair /= length
    invalid = np.triu(np.ones((rem, rem), dtype=bool))
    lo = 0  # local cursor into R2
    while lo < rem:
        colmin = M[lo:, :ncols].min(axis=1)
        pairmin = np.where(invalid[lo:, lo:], np.inf, pair[lo:, lo:]).min(axis=1)
        hits = np.nonzero(np.minimum(colmin, pairmin) <= group_radius)[0]
        stop = int(hits[0]) if hits.size else rem - lo
        if stop:
            # Bulk-create: every run row seeds a singleton whose centroid
            # column is its (already computed) pairwise row.
            centroids[ncols : ncols + stop] = R2[lo : lo + stop]
            M[:, ncols : ncols + stop] = pair[:, lo : lo + stop]
            for j in range(lo, lo + stop):
                draft = _DraftGroup.__new__(_DraftGroup)
                draft.row_indices = [block_ids[positions[pos + j]]]
                draft.total = T[pos + j]
                draft.count = 1
                new_drafts.append(draft)
            ncols += stop
        if not hits.size:
            break
        t = lo + stop
        w = int(M[t, :ncols].argmin())  # first-of-ties, creation order
        draft = new_drafts[w]
        draft.add(block_ids[positions[pos + t]], R2[t])
        centroids[w] = draft.total
        centroids[w] /= draft.count
        column = np.abs(R2 - centroids[w]).sum(axis=1)
        column /= length
        M[:, w] = column
        lo = t + 1
    return new_drafts, centroids[:ncols], ncols


class _RoundEval(NamedTuple):
    """One repair round's member→centroid evaluation of the pending drafts.

    Per draft: its ``centroids`` row and the ``ed_maxima`` / ``cheb_maxima``
    over its members.  Per member, drafts concatenated in member order:
    ``bad`` marks the rows outside the radius, and draft ``d`` owns
    ``bad[offsets[d] : offsets[d + 1]]``.
    """

    centroids: np.ndarray
    ed_maxima: np.ndarray
    cheb_maxima: np.ndarray
    bad: np.ndarray
    offsets: np.ndarray


def _evaluate_round(
    matrix: np.ndarray, pending: list[_DraftGroup], group_radius: float
) -> _RoundEval:
    """One flat masked evaluation covers every draft of the round: member
    deviations against each draft's centroid in a single gather, per-draft
    maxima via ``reduceat`` segments."""
    counts = np.fromiter((d.count for d in pending), np.int64, len(pending))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    flat_rows = np.concatenate(
        [np.asarray(d.row_indices, dtype=np.int64) for d in pending]
    )
    centroids = np.vstack([d.centroid for d in pending])
    deviations = np.abs(matrix[flat_rows] - np.repeat(centroids, counts, axis=0))
    eds = deviations.mean(axis=1)
    return _RoundEval(
        centroids,
        np.maximum.reduceat(eds, offsets[:-1]),
        np.maximum.reduceat(deviations.max(axis=1), offsets[:-1]),
        eds > group_radius + _EPS,
        offsets,
    )


def _evaluate_round_reference(
    matrix: np.ndarray, pending: list[_DraftGroup], group_radius: float
) -> _RoundEval:
    """The original per-draft evaluation loop.  The reference tests
    substitute for :func:`_evaluate_round`."""
    deviations = [np.abs(matrix[d.row_indices] - d.centroid) for d in pending]
    eds = [dev.mean(axis=1) for dev in deviations]
    return _RoundEval(
        np.vstack([d.centroid for d in pending]),
        np.array([e.max() for e in eds]),
        np.array([dev.max(axis=1).max() for dev in deviations]),
        np.concatenate(eds) > group_radius + _EPS,
        np.cumsum([0] + [d.count for d in pending]),
    )


def cluster_subsequence_rows(
    matrix: np.ndarray,
    group_radius: float,
    *,
    max_repair_rounds: int = 4,
) -> list[RowGroup]:
    """Cluster equal-length window rows into finalized groups.

    The handle-free clustering core: *matrix* rows are the subsequence
    values, *group_radius* is ``ST/2``, and the returned
    :class:`RowGroup`\\ s carry member *row indices* instead of refs.
    Invariants (see module docstring) hold strictly.
    """
    if matrix.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got shape {matrix.shape}")
    if group_radius <= 0:
        raise ValidationError(f"group_radius must be > 0, got {group_radius}")
    if matrix.shape[0] == 0:
        return []
    length = matrix.shape[1]

    drafts = _scan_batched(matrix, np.arange(matrix.shape[0]), group_radius, length)

    final: list[RowGroup] = []

    def finalize(
        draft: _DraftGroup, centroid: np.ndarray, ed_max: float, cheb_max: float
    ) -> None:
        final.append(
            RowGroup(
                centroid=centroid,
                rows=np.asarray(draft.row_indices, dtype=np.int64),
                ed_radius=float(ed_max),
                cheb_radius=float(cheb_max),
            )
        )

    # Repair: re-establish the strict member-to-final-centroid invariant.
    # Each round keeps the conforming core of every violating draft and
    # re-clusters the evicted members from scratch; after the round budget
    # is spent, remaining violators become singleton groups (which satisfy
    # the invariant trivially), so the procedure always terminates with
    # strict guarantees.
    pending = drafts
    for round_no in range(max_repair_rounds):
        violator_rows: list[int] = []
        next_pending: list[_DraftGroup] = []
        centroids, ed_maxima, cheb_maxima, bad_rows, offsets = _evaluate_round(
            matrix, pending, group_radius
        )
        violates = np.logical_or.reduceat(bad_rows, offsets[:-1])
        for d, draft in enumerate(pending):
            if not violates[d]:
                finalize(draft, centroids[d], ed_maxima[d], cheb_maxima[d])
                continue
            bad = bad_rows[offsets[d] : offsets[d + 1]]
            violator_rows.extend(draft.row_indices[j] for j in np.nonzero(bad)[0])
            good = np.nonzero(~bad)[0]
            if good.size:
                # The conforming core.  ``cumsum`` is a strictly sequential
                # scan, so its last row is the per-row ``total += row``
                # rebuild, bit for bit.
                core = _DraftGroup(length)
                core.row_indices = [draft.row_indices[j] for j in good.tolist()]
                core.total = np.cumsum(matrix[core.row_indices], axis=0)[-1]
                core.count = int(good.size)
                next_pending.append(core)
        if violator_rows:
            next_pending.extend(
                _scan_batched(matrix, np.array(violator_rows), group_radius, length)
            )
        if not next_pending:
            return final
        pending = next_pending

    # Round budget exhausted: shrink each remaining draft to a conforming
    # core, evicting persistent violators as singletons.
    for draft in pending:
        indices = list(draft.row_indices)
        while indices:
            rows = matrix[indices]
            centroid = rows.mean(axis=0)
            deviations = np.abs(rows - centroid)
            eds = deviations.mean(axis=1)
            bad = eds > group_radius + _EPS
            if not bad.any():
                core = _DraftGroup(length)
                for row_idx, row in zip(indices, rows):
                    core.add(row_idx, row)
                finalize(core, centroid, eds.max(), deviations.max(axis=1).max())
                break
            # Evict the worst member as a singleton and retry the rest.
            worst = int(np.argmax(eds))
            single = _DraftGroup(length)
            single.add(indices[worst], rows[worst])
            finalize(single, rows[worst], 0.0, 0.0)
            del indices[worst]
    return final


def cluster_subsequences(
    matrix: np.ndarray,
    refs: list[SubsequenceRef],
    group_radius: float,
    *,
    max_repair_rounds: int = 4,
) -> list[SimilarityGroup]:
    """Cluster equal-length subsequences into finalized similarity groups.

    *matrix* rows are the subsequence values, *refs* their handles (same
    order).  *group_radius* is ``ST/2``.  Returns groups whose invariants
    (see module docstring) hold strictly.  Thin handle-resolving wrapper
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
        for group in cluster_subsequence_rows(
            matrix, group_radius, max_repair_rounds=max_repair_rounds
        )
    ]

"""Seasonal similarity: recurring patterns within a single time series.

The paper's Seasonal View (Fig. 4) highlights repeated patterns inside one
series — e.g. a household using electricity the same way across summer
months.  ONEX answers this with the same machinery as cross-series search:
the windows of the *single* series are clustered into similarity groups
with ED, and groups containing several non-overlapping windows are
reported as recurring patterns, verified pairwise under DTW.

Verification is where the work is, and it runs on the batched kernel
cascade (DESIGN.md §4): all unique occurrence pairs of a group are bounded
at once — a vectorised mean-L1 *upper* bound plus the
:func:`~repro.distances.lower_bounds.lb_pairwise_table` LB_Kim/LB_Keogh
*lower* table — and exact DTW runs only for the pairs that can still
decide the group's worst pairwise distance, stacked into condensed
paired-kernel calls (:func:`~repro.distances.dtw.dtw_distance_condensed`).
Tight groups resolve with a handful of kernel invocations where the seed
implementation paid one scalar ``dtw_path`` per pair per drop iteration;
results are identical.  :func:`_verify_scalar`, the seed's verifier, has
:func:`_verify_batched`'s signature and nothing here calls it: the
property suite substitutes it to cross-check them (DESIGN.md §1).

:func:`find_seasonal_patterns` is self-contained (it builds its own
per-series groups) so the seasonal operation does not require the whole
collection's base to cover the requested window length.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core import analytics_metrics
from repro.core.deadline import Deadline
from repro.core.grouping import cluster_subsequences
from repro.core.validation import as_int_arg, as_optional_int_arg
from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.distances.dtw import dtw_distance, dtw_distance_condensed
from repro.distances.lower_bounds import lb_pairwise_table
from repro.exceptions import DeadlineExceeded, ValidationError
from repro.obs.trace import span
from repro.testing import faults

__all__ = ["SeasonalPattern", "find_seasonal_patterns"]

#: Pairs evaluated per round of the lazy worst-pair walk; grows
#: geometrically within one group so adversarial bound distributions cost
#: O(log pairs) kernel calls while tight groups stop after the first one.
_PAIR_CHUNK = 16

#: ``np.triu_indices(n, 1)`` memoised by ``n`` — the verifier's drop loop
#: re-enumerates the active pairs every iteration, and the enumeration for
#: one set size never changes.  The cache is bounded by total stored pair
#: count, not entry count: one entry costs O(n^2) memory, so a plain
#: entry cap would let a run over a long series pin O(n^3) bytes.
_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_TRIU_CACHE_BUDGET = 1 << 21  # ~32 MB of index pairs at two int64 per pair
_triu_cache_used = 0


def _unique_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    global _triu_cache_used
    try:
        return _TRIU_CACHE[n]
    except KeyError:
        pairs = np.triu_indices(n, k=1)
        count = pairs[0].size
        if _triu_cache_used + count <= _TRIU_CACHE_BUDGET:
            _TRIU_CACHE[n] = pairs
            _triu_cache_used += count
        return pairs


@dataclass(frozen=True)
class SeasonalPattern:
    """A recurring pattern: non-overlapping occurrences of similar shape.

    Attributes
    ----------
    starts:
        Window start offsets within the series, ascending.
    length:
        Window length shared by all occurrences.
    centroid:
        The pattern's representative shape (group centroid).
    max_pairwise_dtw:
        Largest normalised DTW between any two occurrences — the verified
        tightness of the pattern (``<=`` the requested threshold).
    """

    starts: tuple[int, ...]
    length: int
    centroid: np.ndarray
    max_pairwise_dtw: float

    @property
    def occurrences(self) -> int:
        return len(self.starts)

    def segments(self) -> list[tuple[int, int]]:
        """``(start, stop)`` index pairs of the occurrences."""
        return [(s, s + self.length) for s in self.starts]


def _select_nonoverlapping(
    refs: list[SubsequenceRef], centroid: np.ndarray, rows: np.ndarray
) -> list[SubsequenceRef]:
    """Greedy maximum set of non-overlapping members, closest-first.

    *rows* carries the members' values aligned with *refs*; the closeness
    scores come from one vectorised pass instead of a per-ref reduction.
    """
    scores = np.abs(rows - centroid).mean(axis=1)
    order = sorted(range(len(refs)), key=lambda k: float(scores[k]))
    chosen: list[SubsequenceRef] = []
    for k in order:
        ref = refs[k]
        if all(not ref.overlaps(kept) for kept in chosen):
            chosen.append(ref)
    return sorted(chosen, key=lambda ref: ref.start)


class _PairwiseWorstFinder:
    """Exact worst pairwise normalised DTW over a shrinking occurrence set.

    Bounds every unique pair once up front — the diagonal-path mean-L1
    upper bound (any warping path through equal-length sequences is at
    most the diagonal's cost over at least its length) and the
    LB_Kim/LB_Keogh lower table scaled by the maximal path length — then
    answers each ``worst(active)`` request by evaluating exact DTW only
    for pairs whose upper bound can still reach the running maximum, in
    descending-bound condensed-kernel chunks.  Exact values are memoised,
    so the drop loop of the verifier never recomputes a pair (the seed
    implementation recomputed every pair on every drop).

    The returned ``(worst, pair)`` is identical to the scalar scan's,
    including the first-pair-wins tie-break: a pair is skipped only when
    its upper bound is *strictly* below a proven exact value or below
    another pair's lower bound, either of which places it strictly under
    the maximum.
    """

    #: Below this many unique pairs the bound tables cost more than the
    #: DTW they could save; the finder then evaluates every pair eagerly
    #: in one condensed call and answers ``worst`` by lookup (memoisation
    #: across drop iterations is still the big win over the scalar scan).
    _BOUNDS_MIN_PAIRS = 16

    def __init__(
        self,
        rows: np.ndarray,
        window: int | None,
        deadline: Deadline | None = None,
    ) -> None:
        self._rows = rows
        self._window = window
        self._deadline = deadline
        n, length = rows.shape
        self._exact = np.full((n, n), np.nan)
        np.fill_diagonal(self._exact, 0.0)
        self._use_bounds = n * (n - 1) // 2 >= self._BOUNDS_MIN_PAIRS
        if self._use_bounds:
            max_path = 2 * length - 1
            diffs = np.abs(rows[:, None, :] - rows[None, :, :])
            self._upper = diffs.mean(axis=2)
            self._lower = lb_pairwise_table(rows, radius=window) / max_path
        else:
            iu, ju = _unique_pairs(n)
            raws, plens = dtw_distance_condensed(
                rows, pairs=(iu, ju), window=window, with_path_length=True
            )
            values = raws / plens
            self._exact[iu, ju] = values
            self._exact[ju, iu] = values

    def worst(self, active: list[int]) -> tuple[float, tuple[int, int]]:
        """Max exact pairwise DTW over *active* and its first attaining pair.

        Returns positions into *active* (matching the scalar scan's
        row-major pair enumeration) so the caller's drop logic is shared
        between both implementations.
        """
        act = np.asarray(active, dtype=np.int64)
        ai, aj = _unique_pairs(act.size)
        gi, gj = act[ai], act[aj]
        exact = self._exact[gi, gj]
        if not self._use_bounds:
            worst = float(exact.max())
            first = int(np.nonzero(exact == worst)[0][0])
            return worst, (int(ai[first]), int(aj[first]))
        upper = self._upper[gi, gj]
        lower = self._lower[gi, gj]

        known = ~np.isnan(exact)
        best = float(exact[known].max()) if known.any() else -math.inf
        # Any pair's lower bound is achieved by *some* active pair, so a
        # pair whose upper bound sits strictly below it can never be the
        # maximum (nor tie it) — safe to leave unevaluated.
        skip_bound = max(float(lower.max()), best)
        pending = np.nonzero(~known & (upper >= skip_bound))[0]
        order = pending[np.argsort(-upper[pending], kind="stable")]
        pos = 0
        chunk = _PAIR_CHUNK
        while pos < order.size:
            faults.fire("seasonal.pair_chunk")
            if self._deadline is not None:
                self._deadline.check(
                    "seasonal pair verification",
                    {"pairs_evaluated": pos, "pairs_pending": int(order.size - pos)},
                )
            take = order[pos : pos + chunk]
            pos += take.size
            chunk *= 2
            full = take.size
            take = take[upper[take] >= skip_bound]
            if take.size:
                with span("seasonal.pair_chunk", pairs=int(take.size)):
                    raws, plens = dtw_distance_condensed(
                        self._rows,
                        pairs=(gi[take], gj[take]),
                        window=self._window,
                        with_path_length=True,
                    )
                values = raws / plens
                self._exact[gi[take], gj[take]] = values
                self._exact[gj[take], gi[take]] = values
                exact[take] = values
                best = max(best, float(values.max()))
                skip_bound = max(skip_bound, best)
            if take.size < full:
                # The order is descending in upper bound: once one entry
                # falls below the skip bound, every later entry does too.
                break
        known = ~np.isnan(exact)
        worst = float(exact[known].max())
        first = int(np.nonzero(known & (exact == worst))[0][0])
        return worst, (int(ai[first]), int(aj[first]))


def _verify_batched(
    chosen: list[SubsequenceRef],
    centroid: np.ndarray,
    rows: np.ndarray,
    threshold: float,
    window: int | None,
    min_occurrences: int,
    deadline: Deadline | None = None,
) -> tuple[list[SubsequenceRef], float] | None:
    """Batched verify-and-drop: memoised condensed DTW with bound pruning."""
    centroid_dist = np.abs(rows - centroid).mean(axis=1)
    finder = _PairwiseWorstFinder(rows, window, deadline)
    active = list(range(len(chosen)))
    while len(active) >= min_occurrences:
        worst, (i, j) = finder.worst(active)
        if worst <= threshold:
            return [chosen[a] for a in active], worst
        di = float(centroid_dist[active[i]])
        dj = float(centroid_dist[active[j]])
        active.pop(i if di >= dj else j)
    return None


def _verify_scalar(
    chosen: list[SubsequenceRef],
    centroid: np.ndarray,
    rows: np.ndarray,
    threshold: float,
    window: int | None,
    min_occurrences: int,
    deadline: Deadline | None = None,
) -> tuple[list[SubsequenceRef], float] | None:
    """Seed scalar verify-and-drop: one ``dtw_distance`` call per pair per
    iteration.  The reference tests substitute for :func:`_verify_batched`."""
    chosen = list(chosen)
    active = list(range(len(chosen)))
    while len(chosen) >= min_occurrences:
        faults.fire("seasonal.pair_chunk")
        if deadline is not None:
            deadline.check(
                "seasonal pair verification", {"occurrences_active": len(active)}
            )
        values = [rows[a] for a in active]
        worst = 0.0
        worst_pair = None
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                d = dtw_distance(
                    values[i], values[j], window=window, normalized=True
                )
                if d > worst:
                    worst, worst_pair = d, (i, j)
        if worst <= threshold:
            return chosen, worst
        # Drop whichever of the offending pair is farther from the
        # centroid and retry with the remainder.
        i, j = worst_pair
        di = float(np.abs(values[i] - centroid).mean())
        dj = float(np.abs(values[j] - centroid).mean())
        drop = i if di >= dj else j
        chosen.pop(drop)
        active.pop(drop)
    return None


def find_seasonal_patterns(
    series: TimeSeries,
    length: int,
    threshold: float,
    *,
    step: int = 1,
    min_occurrences: int = 2,
    max_patterns: int | None = None,
    window: int | None = None,
    normalize: bool = True,
    remove_level: bool = False,
    ed_threshold: float | None = None,
    deadline: Deadline | None = None,
) -> list[SeasonalPattern]:
    """Find recurring patterns of *length* within one series.

    Windows are clustered with ED at radius ``ed_threshold/2`` (the ONEX
    construction), then each group's best non-overlapping occurrence set is
    verified pairwise under normalised DTW; occurrences violating
    *threshold* against the rest are dropped (farthest first).  Patterns
    are ranked by occurrence count, then tightness.

    *ed_threshold* defaults to ``2 * threshold``: recurrences that are
    DTW-similar can be phase-jittered and therefore farther apart under
    pointwise ED, so the grouping stage needs a looser net (recall) while
    the DTW verification stage enforces *threshold* exactly (precision).

    With *normalize*, the series is min–max scaled to [0, 1] first so
    *threshold* means the same thing as in base construction.  With
    *remove_level*, each window's mean is subtracted before comparison, so
    a habit recurring at different seasonal levels (winter vs summer
    electricity usage, as in the paper's Fig. 4 narrative) still matches on
    shape.

    A *deadline* is checked per candidate group and per pair-DTW chunk;
    with ``allow_partial`` the miner returns the (fully verified)
    patterns found before the budget fired instead of raising.
    """
    length = as_int_arg(length, "length")
    step = as_int_arg(step, "step")
    min_occurrences = as_int_arg(min_occurrences, "min_occurrences")
    max_patterns = as_optional_int_arg(max_patterns, "max_patterns")
    window = as_optional_int_arg(window, "window")
    if length < 2:
        raise ValidationError(f"length must be >= 2, got {length}")
    if length > len(series):
        raise ValidationError(
            f"length {length} exceeds series length {len(series)}"
        )
    if not threshold > 0:
        raise ValidationError(f"threshold must be > 0, got {threshold}")
    if min_occurrences < 2:
        raise ValidationError("min_occurrences must be >= 2")
    if ed_threshold is None:
        ed_threshold = 2.0 * threshold
    if not ed_threshold > 0:
        raise ValidationError(f"ed_threshold must be > 0, got {ed_threshold}")

    dataset = TimeSeriesDataset([series], name="seasonal")
    if normalize:
        dataset = dataset.normalized()
    matrix, refs = dataset.subsequence_matrix(length, step=step)
    if remove_level:
        matrix = matrix - matrix.mean(axis=1, keepdims=True)
    started = time.perf_counter()
    row_of = {ref: k for k, ref in enumerate(refs)}
    with span("seasonal.cluster", windows=len(refs)):
        groups = cluster_subsequences(matrix, refs, ed_threshold / 2.0)

    patterns: list[SeasonalPattern] = []
    for scanned, group in enumerate(groups):
        faults.fire("seasonal.group")
        if deadline is not None and deadline.expired:
            if deadline.allow_partial:
                break
            deadline.check(
                "seasonal group scan",
                {
                    "groups_scanned": scanned,
                    "groups_total": len(groups),
                    "patterns_found": len(patterns),
                },
            )
        if group.cardinality < min_occurrences:
            continue
        members = list(group.members)
        member_rows = matrix[[row_of[m] for m in members]]
        chosen = _select_nonoverlapping(members, group.centroid, member_rows)
        if len(chosen) < min_occurrences:
            continue
        chosen_rows = matrix[[row_of[r] for r in chosen]]
        try:
            with span("seasonal.group", occurrences=len(chosen)):
                verified = _verify_batched(
                    chosen,
                    group.centroid,
                    chosen_rows,
                    threshold,
                    window,
                    min_occurrences,
                    deadline,
                )
        except DeadlineExceeded:
            if deadline is not None and deadline.allow_partial:
                # Patterns verified so far are complete; a half-verified
                # group is dropped rather than reported loosely.
                break
            raise
        if verified is None:
            continue
        kept, worst = verified
        patterns.append(
            SeasonalPattern(
                starts=tuple(ref.start for ref in kept),
                length=length,
                centroid=group.centroid,
                max_pairwise_dtw=worst,
            )
        )

    patterns.sort(key=lambda p: (-p.occurrences, p.max_pairwise_dtw))
    if max_patterns is not None:
        patterns = patterns[:max_patterns]
    analytics_metrics.record("seasonal", started)
    return patterns

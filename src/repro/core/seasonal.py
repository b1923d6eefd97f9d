"""Seasonal similarity: recurring patterns within a single time series.

The paper's Seasonal View (Fig. 4) highlights repeated patterns inside one
series — e.g. a household using electricity the same way across summer
months.  ONEX answers this with the same machinery as cross-series search:
the windows of the *single* series are clustered into similarity groups
with ED, and groups containing several non-overlapping windows are
reported as recurring patterns, verified pairwise under DTW.

Verification is where the work is, and it is one kernel call per group
(DESIGN.md §4): every unique occurrence pair of the group runs through
one paired-mode call of :func:`~repro.distances.dtw.dtw_distance_batch`
over the memoised pair enumeration, and the drop loop reads the
resulting matrix, where the seed implementation paid one scalar
``dtw_path`` per pair per drop iteration; results are identical.
:func:`_verify_scalar`, the seed's verifier, has
:func:`_verify_batched`'s signature and nothing here calls it: the
property suite substitutes it to cross-check them (DESIGN.md §1).

:func:`find_seasonal_patterns` is self-contained (it builds its own
per-series groups) so the seasonal operation does not require the whole
collection's base to cover the requested window length.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import analytics_metrics
from repro.core.deadline import Deadline
from repro.core.grouping import cluster_subsequences
from repro.core.validation import as_int_arg, as_optional_int_arg
from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.distances.dtw import dtw_distance, dtw_distance_batch
from repro.exceptions import DeadlineExceeded, ValidationError
from repro.obs.trace import span
from repro.testing import faults

__all__ = ["SeasonalPattern", "find_seasonal_patterns"]

#: ``np.triu_indices(n, 1)`` memoised by ``n`` — the verifier pairs a
#: group's rows with it once and its drop loop re-enumerates the active
#: pairs every iteration, and the enumeration for one set size never
#: changes.  The cache is bounded by total stored pair
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


def _verify_batched(
    chosen: list[SubsequenceRef],
    centroid: np.ndarray,
    rows: np.ndarray,
    threshold: float,
    window: int | None,
    min_occurrences: int,
    deadline: Deadline | None = None,
) -> tuple[list[SubsequenceRef], float] | None:
    """Batched verify-and-drop: one paired DTW call, memoised.

    The call, over the cached ``(iu, ju)`` pair enumeration, fills the ``n x n`` matrix of every unique pair's normalised
    DTW, and each drop iteration looks its worst pair up there, where the
    seed recomputed every pair on every drop.  No bound prescreen: it
    costs more than the DTW it would skip (DESIGN.md §4).  The failpoint
    and the deadline check fire once per group, before the call.
    """
    n = len(chosen)
    iu, ju = _unique_pairs(n)
    faults.fire("seasonal.pair_chunk")
    if deadline is not None:
        deadline.check(
            "seasonal pair verification", {"occurrences": n, "pairs": int(iu.size)}
        )
    raws, plens = dtw_distance_batch(
        rows[iu], rows[ju], window=window, with_path_length=True
    )
    exact = np.zeros((n, n))
    exact[iu, ju] = exact[ju, iu] = raws / plens
    centroid_dist = np.abs(rows - centroid).mean(axis=1)
    active = list(range(n))
    while len(active) >= min_occurrences:
        at = np.asarray(active)
        ai, aj = _unique_pairs(at.size)
        values = exact[at[ai], at[aj]]
        # The scalar scan's tie-break: the first maximum in row-major order.
        first = int(np.argmax(values))
        if values[first] <= threshold:
            return [chosen[a] for a in active], float(values[first])
        i, j = int(ai[first]), int(aj[first])
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

    A *deadline* is checked per candidate group and before its pair DTW;
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

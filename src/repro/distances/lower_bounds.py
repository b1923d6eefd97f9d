"""Cheap-to-expensive lower bounds for DTW: LB_Kim and LB_Keogh.

These implement the "early pruning of unpromising candidates" optimisation
of §3.3 and are the core of the UCR Suite baseline (Rakthanmanon et al.,
SIGKDD 2012).  Every function here returns a value that provably never
exceeds the corresponding (banded) DTW distance, which the property-test
suite checks exhaustively; pruning with them therefore never changes
results, only speed.

Scalar and batched forms are provided side by side: :func:`lb_kim` /
:func:`lb_keogh` bound one candidate, while :func:`lb_kim_batch` /
:func:`lb_keogh_batch` bound every row of a 2-D candidate stack in a
handful of vector operations; each is cross-checked row-by-row against its
scalar twin by the property-test suite.  The query processor is their
consumer: :func:`lb_kim_endpoints_batch` and the closed-form band of
:func:`lb_keogh_reverse_batch` rank every representative
(``RepresentativeTable.cheap_bounds``), and LB_Kim → LB_Keogh filter the
selected members ahead of batched DTW (:mod:`repro.core.query`).  Every
bound takes one query; the analytics views run no prescreen of their own,
because against the batch kernel it costs more than the DTW it skips
(DESIGN.md §4).

All bounds take a ``ground`` argument matching :mod:`repro.distances.dtw`:
``"l1"`` (ONEX convention) or ``"squared"`` (UCR convention).
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro.distances.dtw import _ground_is_squared
from repro.distances.metrics import as_sequence
from repro.exceptions import ValidationError

__all__ = [
    "lb_keogh",
    "lb_keogh_batch",
    "lb_keogh_reverse_batch",
    "lb_keogh_terms",
    "lb_kim",
    "lb_kim_batch",
    "lb_kim_endpoints_batch",
]


def _cost(diff: np.ndarray, squared: bool) -> np.ndarray:
    return diff * diff if squared else np.abs(diff)


def lb_kim(x: ArrayLike, y: ArrayLike, *, ground: str = "l1") -> float:
    """Constant-time bound from the endpoints of both sequences.

    Every warping path matches ``x[0]`` with ``y[0]`` and ``x[-1]`` with
    ``y[-1]``, so those two ground costs are always paid.  When both
    sequences have at least three points the second and penultimate path
    cells contribute as well: the second cell is one of (1,0), (1,1), (0,1)
    and is distinct from both endpoint cells, so its cheapest realisation
    can be added (symmetrically for the penultimate cell).
    """
    a = as_sequence(x, name="x")
    b = as_sequence(y, name="y")
    squared = _ground_is_squared(ground)

    def d(u: float, v: float) -> float:
        diff = u - v
        return diff * diff if squared else abs(diff)

    bound = d(a[0], b[0])
    if a.shape[0] > 1 or b.shape[0] > 1:
        bound += d(a[-1], b[-1])
    n, m = a.shape[0], b.shape[0]
    if n >= 3 and m >= 3 and (n >= 4 or m >= 4):
        # With 3x3 alignments the second and penultimate path cells can both
        # be (1, 1); requiring one side >= 4 keeps the candidate sets
        # disjoint so the two extra terms never double count a cell.
        bound += min(d(a[1], b[0]), d(a[1], b[1]), d(a[0], b[1]))
        bound += min(d(a[-2], b[-1]), d(a[-2], b[-2]), d(a[-1], b[-2]))
    return float(bound)


def _as_candidate_stack(rows: ArrayLike) -> np.ndarray:
    mat = np.asarray(rows, dtype=np.float64)
    if mat.ndim != 2:
        raise ValidationError(f"rows must be 2-D, got shape {mat.shape}")
    if mat.shape[0] and mat.shape[1] == 0:
        raise ValidationError("rows must have at least one column")
    if not np.all(np.isfinite(mat)):
        raise ValidationError("rows contain NaN or infinite values")
    return mat


def lb_kim_batch(x: ArrayLike, rows: ArrayLike, *, ground: str = "l1") -> np.ndarray:
    """:func:`lb_kim` of *x* against every row of a 2-D stack at once.

    Semantically identical to calling :func:`lb_kim` per row (the property
    tests assert bitwise agreement) but evaluated with a constant number of
    vector operations over the whole stack — the first, cheapest stage of
    the batched member-refinement cascade.
    """
    a = as_sequence(x, name="x")
    mat = _as_candidate_stack(rows)
    if mat.shape[0] == 0:
        return np.empty(0)
    squared = _ground_is_squared(ground)

    def d(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _cost(u - v, squared)

    bound = d(a[0], mat[:, 0])
    n, m = a.shape[0], mat.shape[1]
    if n > 1 or m > 1:
        bound = bound + d(a[-1], mat[:, -1])
    if n >= 3 and m >= 3 and (n >= 4 or m >= 4):
        second = np.minimum(
            np.minimum(d(a[1], mat[:, 0]), d(a[1], mat[:, 1])), d(a[0], mat[:, 1])
        )
        penult = np.minimum(
            np.minimum(d(a[-2], mat[:, -1]), d(a[-2], mat[:, -2])),
            d(a[-1], mat[:, -2]),
        )
        bound = bound + second + penult
    return bound.astype(np.float64, copy=False)


def lb_kim_endpoints_batch(
    x: ArrayLike, endpoints: ArrayLike, m: int | np.ndarray, *, ground: str = "l1"
) -> np.ndarray:
    """:func:`lb_kim_batch` evaluated from endpoint summaries.

    *endpoints* is a ``(G, 4)`` array whose columns are each candidate's
    first, second, penultimate, and last value (``rows[:, [0, 1, -2, -1]]``
    — well defined for any length >= 2) and *m* the candidates' common
    length — or a ``(G,)`` integer array of per-candidate lengths, for a
    ragged table spanning many length buckets (each row then equals the
    per-length call, bit for bit).  Bitwise identical to
    :func:`lb_kim_batch` on the full stack (property-tested); this is the
    form the representative-layer cascade uses so the constant-time bound
    never touches the centroid matrix.
    """
    q = as_sequence(x, name="x")
    pts = np.asarray(endpoints, dtype=np.float64)
    if pts.ndim != 2 or (pts.shape[0] and pts.shape[1] != 4):
        raise ValidationError(f"endpoints must be (G, 4), got shape {pts.shape}")
    lens = np.asarray(m)
    if lens.ndim and (lens.shape != pts.shape[:1] or lens.dtype.kind not in "iu"):
        raise ValidationError(
            f"per-candidate lengths must be {pts.shape[0]} integers, got "
            f"shape {lens.shape} of dtype {lens.dtype}"
        )
    if pts.shape[0] == 0:
        return np.empty(0)
    shortest = int(lens.min())
    if shortest < 2:
        raise ValidationError(f"candidate length must be >= 2, got {shortest}")
    squared = _ground_is_squared(ground)

    def d(u: float, v: np.ndarray) -> np.ndarray:
        return _cost(u - v, squared)

    first, second, penult, last = (pts[:, c] for c in range(4))
    # Candidates have >= 2 points, so the two endpoint cells are distinct.
    bound = d(q[0], first) + d(q[-1], last)
    n = q.shape[0]
    # The second/penultimate terms need three points on both sides and
    # four on one (see lb_kim: that keeps their candidate cell sets
    # disjoint from the endpoint cells, so no ground cost is double
    # counted), i.e. candidates of at least ``needed`` points.
    needed = 3 if n >= 4 else 4
    if n >= 3 and lens.max() >= needed:
        full = bound + np.minimum(
            np.minimum(d(q[1], first), d(q[1], second)),
            d(q[0], second),
        )
        full = full + np.minimum(
            np.minimum(d(q[-2], last), d(q[-2], penult)),
            d(q[-1], penult),
        )
        bound = full if shortest >= needed else np.where(lens >= needed, full, bound)
    return bound


def _band_breach(
    q: np.ndarray, lo: np.ndarray, hi: np.ndarray, squared: bool
) -> np.ndarray:
    """Total cost of *q* escaping each band ``[lo[g], hi[g]]``, in closed form.

    ``sum_i cost(max(q_i - hi, 0) + max(lo - q_i, 0))`` needs only *how
    many* points of *q* lie beyond each edge and their power sums: sort
    *q* once, take prefix sums, and two ``searchsorted`` calls give every
    band's answer — ``O(n log n + G log n)`` with ``(G,)`` temporaries,
    where the breach tensor is ``O(G n)``.

    Prefix-sum differences round differently from the term-by-term breach
    sum, so a margin is shaved off (and the result clipped at 0): with
    ``u = 2**-53`` and ``scale >= |every intermediate|`` the closed form is
    within ``(4n + 12) u scale`` of the exact sum and the breach sum no
    more than ``(n + 2) u scale`` under it, so shaving ``4 (n + 2) eps
    scale = (8n + 16) u scale`` never leaves the result above the breach
    sum — the quantity the DTW soundness argument is about (DESIGN.md
    §1).  A band no point escapes gets exactly 0: both counts are 0 and
    every term vanishes.
    """
    n = q.shape[0]
    pts = np.sort(q)
    above = np.searchsorted(pts, hi, side="right")  # pts[above:] > hi
    below = np.searchsorted(pts, lo, side="left")  # pts[:below] < lo
    sums = np.concatenate(([0.0], np.cumsum(pts)))
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN the callers' fmax drops
        over, under = sums[n] - sums[above], sums[below]
        reach = np.maximum(-lo, hi)  # max(|lo|, |hi|), as lo <= hi
        if squared:
            squares = np.concatenate(([0.0], np.cumsum(pts * pts)))
            out = ((squares[n] - squares[above]) - 2.0 * hi * over + (n - above) * hi * hi) + (
                squares[below] - 2.0 * lo * under + below * lo * lo
            )
            scale = squares[n] + 2.0 * reach * np.abs(pts).sum() + n * reach * reach
        else:
            out = (over - (n - above) * hi) + (below * lo - under)
            scale = np.abs(pts).sum() + n * reach
        return np.maximum(out - 4.0 * (n + 2) * np.finfo(np.float64).eps * scale, 0.0)


def lb_keogh_reverse_batch(
    x: ArrayLike, lower: ArrayLike, upper: ArrayLike, *, ground: str = "l1"
) -> np.ndarray:
    """Keogh bound of a sequence against many candidate envelopes.

    The mirror image of :func:`lb_keogh_batch`: *lower*/*upper* are per-
    candidate envelopes — ``(G, n)`` arrays, or ``(G, 1)`` per-candidate
    global min/max bands — and the bound for candidate ``g`` is the total
    cost of *x* escaping candidate ``g``'s tube.  Provably a DTW lower
    bound whenever each envelope's radius covers the DTW band (a ``(G, 1)``
    min/max band covers any radius, including unconstrained DTW: every
    warping path matches each ``x[i]`` to *some* candidate point).

    A ``(G, 1)`` band is evaluated in closed form (:func:`_band_breach`,
    ``O(G log n)``, never above the breach sum); only true ``(G, n)``
    envelopes build the ``(G, n)`` breach tensor.
    """
    q = as_sequence(x, name="x")
    lo = np.asarray(lower, dtype=np.float64)
    hi = np.asarray(upper, dtype=np.float64)
    if lo.ndim != 2 or hi.shape != lo.shape:
        raise ValidationError(
            f"envelopes must be matching 2-D stacks, got {lo.shape} / {hi.shape}"
        )
    if lo.shape[1] not in (1, q.shape[0]):
        raise ValidationError(
            f"envelope width {lo.shape[1]} matches neither the sequence "
            f"length {q.shape[0]} nor a (G, 1) min/max band"
        )
    squared = _ground_is_squared(ground)
    if lo.shape[1] == 1:
        return _band_breach(q, lo[:, 0], hi[:, 0], squared)
    breach = np.where(q > hi, q - hi, np.where(q < lo, lo - q, 0.0))
    return _cost(breach, squared).sum(axis=1)


def lb_keogh_terms(
    candidate: ArrayLike, lower: ArrayLike, upper: ArrayLike, *, ground: str = "l1"
) -> np.ndarray:
    """Per-point envelope breach costs (the summands of LB_Keogh).

    The UCR Suite accumulates these in a best-order traversal and also
    reuses the suffix sums as cumulative bounds for DTW early abandoning,
    so the raw terms are exposed separately from their sum.
    """
    c = as_sequence(candidate, name="candidate")
    lo = np.asarray(lower, dtype=np.float64)
    hi = np.asarray(upper, dtype=np.float64)
    if lo.shape != c.shape or hi.shape != c.shape:
        raise ValidationError(
            "envelope and candidate lengths differ: "
            f"{lo.shape[0]}/{hi.shape[0]} vs {c.shape[0]}"
        )
    squared = _ground_is_squared(ground)
    breach = np.where(c > hi, c - hi, np.where(c < lo, lo - c, 0.0))
    return _cost(breach, squared)


def lb_keogh(
    candidate: ArrayLike, lower: ArrayLike, upper: ArrayLike, *, ground: str = "l1"
) -> float:
    """LB_Keogh: total cost of a candidate escaping the query envelope.

    *lower*/*upper* must come from :func:`repro.distances.envelope.keogh_envelope`
    of the query with radius >= the DTW band radius, and *candidate* must
    have the same length as the query; under those conditions
    ``lb_keogh(c, l, u) <= DTW_banded(q, c)``.
    """
    return float(lb_keogh_terms(candidate, lower, upper, ground=ground).sum())


def lb_keogh_batch(
    rows: ArrayLike, lower: ArrayLike, upper: ArrayLike, *, ground: str = "l1"
) -> np.ndarray:
    """:func:`lb_keogh` of every row of a 2-D stack against one envelope.

    *lower*/*upper* are the query's Keogh envelope (radius >= the DTW band
    radius); every row must have the query's length.  Returns one bound per
    row, each provably <= the banded DTW distance to the query — the second
    stage of the batched member-refinement cascade.
    """
    mat = _as_candidate_stack(rows)
    lo = np.asarray(lower, dtype=np.float64)
    hi = np.asarray(upper, dtype=np.float64)
    if mat.shape[0] == 0:
        return np.empty(0)
    if lo.shape != (mat.shape[1],) or hi.shape != (mat.shape[1],):
        raise ValidationError(
            "envelope and candidate lengths differ: "
            f"{lo.shape[0]}/{hi.shape[0]} vs {mat.shape[1]}"
        )
    breach = np.where(mat > hi, mat - hi, np.where(mat < lo, lo - mat, 0.0))
    return _cost(breach, _ground_is_squared(ground)).sum(axis=1)

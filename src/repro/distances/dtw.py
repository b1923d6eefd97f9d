"""Dynamic time warping: distances, optimal paths, bands, early abandoning.

Conventions (DESIGN.md §2): the ground cost between two points is
``|a - b|`` by default (``ground="l1"``); ``ground="squared"`` is provided
for the UCR Suite baseline, which follows Rakthanmanon et al. and works on
sums of squared differences.  ``DTW(x, y)`` is the minimum over warping
paths of the summed ground cost; the *normalised* DTW divides by the length
of the optimal path, which is what makes a single similarity threshold
``ST`` comparable across sequence lengths in ONEX.

Three families of implementation, each for a different job:

- :func:`dtw_distance_batch` (and :func:`dtw_distance`, its one-pair
  form, and :func:`dtw_path_batch`) —
  **one** kernel entry point, ``_dtw_batch_diagonal``, the workhorse of
  the ONEX query processor, the seasonal verifier, the sensitivity
  profile, the k-NN classifier and the registry's ``dtw`` and
  ``derivative_dtw`` batches, with two backends bit-identical to each
  other: the **native** one (:mod:`repro.distances.native`, 3–30x faster
  per call) and the **NumPy** anti-diagonal kernel below, which runs
  wherever the C one did not load and is the oracle it is held to.
  Load success alone picks the backend.  NumPy
  layout: the candidate axis is last and contiguous; three
  rotating ``(n + 1, g)`` buffers hold the last three diagonals and the
  candidate matrix is reversed and transposed once per call, so every
  operand of a diagonal — ground cost, the three predecessors, the write
  — is one contiguous block of rows and a diagonal is a handful of
  ``out=`` ufunc calls on scratch allocated per call (the kernel runs
  from concurrent handler threads).  *Ragged stacks* (``lengths=``)
  ride the same loop: cell ``(i, j)`` depends only on columns ``<= j``, so pad columns are
  inert and candidate ``c`` is read off row ``n - 1`` on diagonal
  ``n + m_c - 2``.  *Bands*: a Sakoe–Chiba window narrows each diagonal's
  row range; ragged candidates whose own band is narrower than the widest
  are masked to ``inf``.  *Tie-break*: tracked path lengths follow
  ``dtw_path``'s diagonal → vertical → horizontal order through the two
  comparisons ``up <= left`` and ``diag <= min(up, left)``.
  :func:`dtw_path_batch` keeps those two comparisons per cell and walks
  every candidate's warping path back from them at once: the Fig. 2
  connectors of a whole response, or the transfer-bound paths of a
  bucket's representatives, for the price of one kernel call.
- :func:`dtw_cost_matrix` / :func:`dtw_path` — straightforward row-scan DP
  with traceback: the path of the reference implementations, the
  registry's ``dtw`` and ``derivative_dtw`` ``pair``, and the
  independent oracle the batch kernel is tested against.  Its scan,
  ``_row_scan``, also runs ``weighted_dtw`` over that metric's weighted
  ground costs.
- :func:`dtw_distance_early_abandon` — row-scan with a best-so-far
  threshold and optional cumulative lower bounds, the one-pair scan of
  the UCR Suite baseline and nothing else.

*Channels*: :func:`dtw_distance_batch`, :func:`dtw_cost_matrix` and
:func:`dtw_path` also take ``(length, channels)`` windows
(multi-dimensional, "dependent" DTW after Shokoohi-Yekta et al.): the
ground cost of a cell is then ``sum_c |a_ic - b_jc|``, added up in
NumPy's ``sum(axis=-1)`` order, and the recurrence and tie-break are the
univariate ones.  The squared ground is univariate only.

The batch kernel is held to :func:`dtw_path` bit for bit — distances,
path lengths and paths, every radius, ragged or not, at one channel or
several, on both backends — in the property-test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.typing import ArrayLike

from repro.distances import native
from repro.distances.metrics import as_sequence, as_window
from repro.exceptions import ValidationError

__all__ = [
    "DtwPathBatch",
    "DtwResult",
    "dtw_cost_matrix",
    "dtw_distance",
    "dtw_distance_batch",
    "dtw_distance_early_abandon",
    "dtw_path",
    "dtw_path_batch",
    "effective_band",
]

_INF = math.inf

#: Direction code of cell (0, 0); every other cell of a cube holds
#: ``up_wins + 2 * diag_wins`` (0 left, 1 up, 2 and 3 diagonal).
_AT_ORIGIN = 4
#: int8 cells per direction cube: :func:`dtw_path_batch` runs a larger
#: stack a chunk of candidates at a time.
_PATH_CELL_BUDGET = 1 << 22


def _ground_is_squared(ground: str) -> bool:
    if ground == "l1":
        return False
    if ground == "squared":
        return True
    raise ValidationError(f"ground must be 'l1' or 'squared', got {ground!r}")


def effective_band(n: int, m: int, window: int | None) -> int | None:
    """Resolve a Sakoe–Chiba radius for an ``n`` x ``m`` alignment.

    ``None`` means unconstrained.  A finite *window* is widened to at least
    ``|n - m|`` so that the corner cell stays reachable — the standard
    convention for banded DTW on different-length inputs.
    """
    if window is None:
        return None
    if window < 0:
        raise ValidationError(f"window must be >= 0, got {window}")
    return max(window, abs(n - m))


@dataclass(frozen=True)
class DtwResult:
    """Outcome of a path-producing DTW computation.

    Attributes
    ----------
    distance:
        Summed ground cost along the optimal warping path.
    path:
        Tuple of ``(i, j)`` index pairs, monotone in both coordinates,
        starting at ``(0, 0)`` and ending at ``(n-1, m-1)``.
    """

    distance: float
    path: tuple[tuple[int, int], ...]

    @property
    def path_length(self) -> int:
        return len(self.path)

    @property
    def normalized_distance(self) -> float:
        """Distance divided by warping-path length (ONEX's comparable DTW)."""
        return self.distance / len(self.path)


def dtw_cost_matrix(
    x: ArrayLike, y: ArrayLike, *, window: int | None = None, ground: str = "l1"
) -> np.ndarray:
    """Full cumulative-cost matrix ``C`` with ``C[i, j] = DTW(x[:i+1], y[:j+1])``.

    *x* and *y* are 1-D, or ``(length, channels)`` windows of one channel
    count.  Cells outside the Sakoe–Chiba band are ``inf``.  Quadratic
    memory; use :func:`dtw_distance` when only the final distance is needed.
    """
    return np.array(_cost_rows(x, y, window, ground))


def _cost_rows(x: ArrayLike, y: ArrayLike, window: int | None, ground: str) -> list[list[float]]:
    """:func:`dtw_cost_matrix`'s rows, as lists of floats."""
    a, b = _windows(x, y, ground)
    diff = a[:, None] - b[None, :]
    local = diff * diff if _ground_is_squared(ground) else np.abs(diff)
    band = effective_band(a.shape[0], b.shape[0], window)
    return _row_scan(local.sum(axis=-1) if a.ndim == 2 else local, band)


def _windows(x: ArrayLike, y: ArrayLike, ground: str) -> tuple[np.ndarray, np.ndarray]:
    """*x* and *y* as 1-D, or l1-ground ``(length, channels)``, windows of
    one channel count — every single-pair entry point's reading."""
    a = as_window(x, name="x")
    b = as_window(y, name="y")
    if a.shape[1:] != b.shape[1:] or (_ground_is_squared(ground) and a.ndim == 2):
        raise ValidationError(
            f"x and y must be 1-D, or l1-ground windows of one channel count; "
            f"got shapes {a.shape} and {b.shape}"
        )
    return a, b


def _row_scan(local: np.ndarray, band: int | None) -> list[list[float]]:
    """The cumulative costs of an ``(n, m)`` matrix of ground costs, in *band*."""
    m = local.shape[1]
    cost: list[list[float]] = []
    prev = [_INF] * m
    for i, ground_i in enumerate(local.tolist()):
        j_lo, j_hi = 0, m - 1
        if band is not None:
            j_lo, j_hi = max(0, i - band), min(m - 1, i + band)
        row = [_INF] * m
        running = _INF if i else 0.0  # cost[i][j - 1]; 0 left of the origin
        for j in range(j_lo, j_hi + 1):
            # min(up, diag, left), inlined: the first of equals wins.
            best = prev[j]
            if j and prev[j - 1] < best:
                best = prev[j - 1]
            if running < best:
                best = running
            running = row[j] = ground_i[j] + best
        cost.append(row)
        prev = row
    return cost


def _as_batch_rows(rows: ArrayLike) -> np.ndarray:
    """*rows* as a ``(g, m)`` stack or a ``(g, m, channels)`` one."""
    mat = np.asarray(rows, dtype=np.float64)
    if mat.ndim not in (2, 3):
        raise ValidationError(f"rows must be 2-D or 3-D (rows, length, channels), got {mat.shape}")
    if mat.shape[0] and 0 in mat.shape[1:]:
        raise ValidationError("rows must have at least one column and channel")
    if not np.all(np.isfinite(mat)):
        raise ValidationError("rows contain NaN or infinite values")
    return mat


def _as_query_stack(x: ArrayLike, mat: np.ndarray) -> np.ndarray:
    """*x* as one query of *mat*'s rows' shape or, with one more axis, a
    paired stack (see paired mode)."""
    probe = np.asarray(x, dtype=np.float64)
    if probe.ndim != mat.ndim:
        probe = as_window(probe, name="x")
    elif 0 in probe.shape[1:] or not np.all(np.isfinite(probe)):
        raise ValidationError("paired queries must be non-empty and finite")
    if mat.ndim == 3 and (probe.ndim < 2 or probe.shape[-1] != mat.shape[2]):
        raise ValidationError(f"queries of shape {probe.shape} do not fit rows of {mat.shape}")
    return probe


def _as_row_lengths(lengths: ArrayLike, mat: np.ndarray) -> np.ndarray:
    """Validated per-row candidate lengths of a ragged (padded) stack."""
    lens = np.asarray(lengths)
    if lens.shape != (mat.shape[0],) or lens.dtype.kind not in "iu":
        raise ValidationError(
            f"lengths must be {mat.shape[0]} integers (one per row), got "
            f"shape {lens.shape} of dtype {lens.dtype}"
        )
    if lens.size and not (1 <= lens.min() and lens.max() <= mat.shape[1]):
        raise ValidationError(
            f"lengths must lie in 1..{mat.shape[1]} (the padded width), "
            f"got {int(lens.min())}..{int(lens.max())}"
        )
    return lens.astype(np.int64, copy=False)


def _as_candidates(
    rows: ArrayLike, lengths: ArrayLike | None, window: int | None, ground: str
) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """A batch call's validated ``(rows, lengths, squared ground?)``."""
    mat = _as_batch_rows(rows)
    lens = None if lengths is None else _as_row_lengths(lengths, mat)
    squared = _ground_is_squared(ground)
    if squared and mat.ndim == 3:
        raise ValidationError("the squared ground is univariate only")
    if window is not None and window < 0:
        raise ValidationError(f"window must be >= 0, got {window}")
    return mat, lens, squared


def dtw_distance_batch(
    x: ArrayLike,
    rows: ArrayLike,
    *,
    window: int | None = None,
    ground: str = "l1",
    with_path_length: bool = False,
    lengths: ArrayLike | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """DTW from *x* to every row of *rows* in one vectorised dynamic program.

    Each anti-diagonal of the cost matrix depends only elementwise on the
    two previous anti-diagonals, and the recurrence is identical across
    candidates, so evaluating the query against a whole stack of
    sequences (e.g. a bound-ordered chunk of group representatives of the
    ONEX base) costs ``n + m - 1`` rounds of vector operations total.
    This is the kernel that makes "DTW over the compact base" interactive.

    With ``with_path_length=True`` the kernel also tracks, per cell, the
    length of the warping path :func:`dtw_path` would trace back — same
    tie-breaking: diagonal, then vertical, then horizontal — and returns
    ``(distances, path_lengths)``.  ``distances / path_lengths`` is then
    bit-identical to ``dtw_path(...).normalized_distance`` without any
    per-candidate traceback, which is what lets the ONEX member refinement
    rank whole groups on normalised DTW in one batch.

    **Paired mode**: *x* may itself be a 2-D stack with the same row count
    as *rows*, in which case row ``i`` of the result is ``DTW(x[i],
    rows[i])`` — one kernel invocation evaluates an arbitrary set of
    equal-shape *pairs*.  This is what lets the seasonal verifier run
    every pair it checks as a single dynamic program.

    **Ragged stacks**: with ``lengths=`` (one integer per row) row ``i``
    is the candidate ``rows[i, :lengths[i]]`` and the columns beyond it
    are padding of any finite value.  Cell ``(i, j)`` of a cost matrix
    depends only on columns ``<= j``, so the padding never reaches a
    candidate's corner cell, and a finite *window* applies per candidate
    as ``effective_band(n, lengths[i], window)``.  This is what lets the
    representative cascade verify one bound-ordered chunk spanning many
    length buckets in a single call.

    **Channels**: *rows* may be a ``(g, m, channels)`` stack, and *x* is
    then one ``(n, channels)`` window or a paired ``(g, n, channels)``
    stack; a cell's ground cost is the per-channel L1 sum (module
    docstring).  One channel runs the univariate kernel.

    The property-test suite holds every mode to :func:`dtw_path`, bit
    for bit.
    """
    mat, lens, squared = _as_candidates(rows, lengths, window, ground)
    a = _as_query_stack(x, mat)
    if mat.ndim == 3 and mat.shape[2] == 1:
        a, mat = a[..., 0], mat[..., 0]  # one channel: the univariate kernel
    if a.ndim == mat.ndim and a.shape[0] != mat.shape[0]:
        raise ValidationError(
            f"paired mode needs matching row counts, got {a.shape[0]} "
            f"queries for {mat.shape[0]} candidates"
        )
    if mat.shape[0] == 0:
        empty = np.empty(0)
        return (empty, np.empty(0, dtype=np.int64)) if with_path_length else empty
    return _dtw_batch_diagonal(
        a, mat, lens, window, squared, "length" if with_path_length else None
    )


def _dtw_batch_diagonal(
    a: np.ndarray,
    mat: np.ndarray,
    lens: np.ndarray | None,
    window: int | None,
    squared: bool,
    track: Literal["length", "path"] | None,
) -> np.ndarray | tuple[np.ndarray, object]:
    """The one kernel entry point: native when it loaded, else NumPy.

    Both kernels keep this contract bit for bit: distances; with
    ``track="length"`` also the tie-broken path lengths; with
    ``track="path"`` also ``(path_lengths, i, j)`` as
    :class:`DtwPathBatch` holds them (``i`` and ``j`` at least as wide as
    the longest path).  Load success alone picks the kernel
    (:mod:`repro.distances.native`).
    """
    if native.KERNEL is not None:
        return native.dtw_batch(a, mat, lens, window, squared, track)
    return _dtw_batch_numpy(a, mat, lens, window, squared, track)


def _dtw_batch_numpy(
    a: np.ndarray,
    mat: np.ndarray,
    lens: np.ndarray | None,
    window: int | None,
    squared: bool,
    track: Literal["length", "path"] | None,
) -> np.ndarray | tuple[np.ndarray, object]:
    """The anti-diagonal kernel: candidate axis last, slices only.

    Three rotating ``(n + 1, g)`` buffers hold diagonals ``k``, ``k - 1``
    and ``k - 2``; buffer row ``i + 1`` is matrix row ``i`` and row ``0``
    an ``inf`` guard.  With the candidate matrix reversed and transposed
    once, the cells ``(i, k - i)`` of a diagonal, their ground costs and
    their three predecessors are each one contiguous block of buffer
    rows, so a diagonal is a fixed handful of ``out=`` ufunc calls on
    preallocated scratch — no index arrays, gathers or scatters.

    A rotated buffer still holds diagonal ``k - 3``, but the row range
    ``[i_lo, i_hi]`` of a diagonal never moves down: rows above it were
    never written and are still ``inf``, and without a band ``i_lo``
    rises with every diagonal once it has left 0, so no row below it is
    read.  A band can hold ``i_lo`` still for two diagonals, so the row
    under the range is reset to ``inf`` as each diagonal is written.

    With channels, a diagonal's ground is first its ``(width, g,
    channels)`` absolute differences, then their sum over the last axis.

    *track* says what to keep of the two comparisons that pick every
    cell's predecessor: ``None`` nothing (distances only); ``"length"``
    the tie-broken path's running length, returned second; ``"path"``
    the comparisons themselves, as ``up_wins + 2 * diag_wins`` in an int8
    cube indexed ``[diagonal, row, candidate]``, which
    :func:`_trace_paths` walks back into the second return value.
    """
    if lens is not None:
        mat = mat[:, : lens.max()]  # columns no candidate reaches
    g, m = mat.shape[:2]
    n = a.shape[1] if a.ndim == mat.ndim else a.shape[0]
    # Diagonals on which candidates finish (corner cell (n-1, m_c-1)).
    if lens is None:
        ends: dict[int, slice | np.ndarray] = {n + m - 2: slice(None)}
    else:
        # One stable sort, split where the sorted length changes.
        by_length = np.argsort(lens, kind="stable")
        sorted_lens = lens[by_length]
        changes = np.flatnonzero(sorted_lens[1:] != sorted_lens[:-1]) + 1
        edges = [0, *changes.tolist(), g]
        ends = {
            k: by_length[lo:hi]
            for k, lo, hi in zip(
                (n - 2 + sorted_lens[edges[:-1]]).tolist(), edges, edges[1:]
            )
        }
    band = None  # widest per-candidate band: bounds every diagonal's rows
    narrower = None  # per-candidate bands, when they differ
    if window is not None:
        if lens is None:
            band = effective_band(n, m, window)
        else:
            narrower = np.maximum(window, np.abs(n - lens))
            band = int(narrower.max())
            if int(narrower.min()) == band:
                narrower = None
            else:
                twice_i = 2 * np.arange(n)[:, None]

    # rev[t] is column m - 1 - t; a channel axis stays last.
    rev = np.ascontiguousarray(mat[:, ::-1].swapaxes(0, 1))
    q = np.ascontiguousarray(a.swapaxes(0, 1)) if a.ndim == mat.ndim else a[:, None]
    prev = np.full((n + 1, g), _INF)
    prevprev = np.full((n + 1, g), _INF)
    cur = np.full((n + 1, g), _INF)
    ground = np.empty((n, g))
    # Per-channel |differences|, each lane's channels contiguous.
    lanes = np.empty((n, g, mat.shape[2])) if mat.ndim == 3 else None
    out = np.empty(g)
    codes = plens = None
    if track == "path":
        # Cells outside a candidate's band are never on its path, so
        # whatever the cube holds there is never read.
        codes = np.empty((n + m - 1, n, g), dtype=np.int8)
        up_wins = np.empty((n, g), dtype=np.int8)
        diag_wins = np.empty((n, g), dtype=np.int8)
    elif track == "length":
        # Path length of the tie-broken optimal prefix path per cell; the
        # two comparison masks land in the same dtype so the predecessor
        # choice below is plain arithmetic (masked copies cost 3x more).
        plen_prev = np.zeros((n + 1, g), dtype=np.int32)
        plen_prevprev = np.zeros((n + 1, g), dtype=np.int32)
        plen_cur = np.zeros((n + 1, g), dtype=np.int32)
        up_wins = np.empty((n, g), dtype=np.int32)
        diag_wins = np.empty((n, g), dtype=np.int32)
        delta = np.empty((n, g), dtype=np.int32)
        plens = np.empty(g, dtype=np.int64)

    for k in range(n + m - 1):
        i_lo, i_hi = max(0, k - m + 1), min(n - 1, k)
        if band is not None:
            # In band iff |i - (k - i)| <= band.
            i_lo, i_hi = max(i_lo, (k - band + 1) // 2), min(i_hi, (k + band) // 2)
        width = i_hi - i_lo + 1
        lo, hi = slice(i_lo, i_hi + 1), slice(i_lo + 1, i_hi + 2)
        d = ground[:width]
        e = d if lanes is None else lanes[:width]
        t_lo = m - 1 - k + i_lo
        np.subtract(rev[t_lo : t_lo + width], q[lo], out=e)
        if squared:
            np.multiply(d, d, out=d)
        else:
            np.abs(e, out=e)
        if lanes is not None:
            e.sum(axis=-1, out=d)
        cell = cur[hi]
        if k == 0:
            cell[...] = d
            if codes is not None:
                codes[0, 0] = _AT_ORIGIN
            elif plens is not None:
                plen_cur[hi] = 1
        else:
            # (i-1, j) and (i, j-1) sit on diagonal k-1, (i-1, j-1) on k-2.
            up, left, diag = prev[lo], prev[hi], prevprev[lo]
            if track:
                # dtw_path's traceback order: the diagonal wins ties, then
                # the vertical step, then the horizontal.
                u, w = up_wins[:width], diag_wins[:width]
                np.less_equal(up, left, out=u)
                np.minimum(up, left, out=cell)
                np.less_equal(diag, cell, out=w)
                np.minimum(cell, diag, out=cell)
                if codes is not None:
                    np.add(w, w, out=w)
                    np.add(w, u, out=codes[k, lo])
                else:
                    # plen = left + u * (up - left), then += w * (diag - plen).
                    plen = plen_cur[hi]
                    np.subtract(plen_prev[lo], plen_prev[hi], out=plen)
                    plen *= u
                    plen += plen_prev[hi]
                    step = delta[:width]
                    np.subtract(plen_prevprev[lo], plen, out=step)
                    step *= w
                    plen += step
                    plen += 1
            else:
                np.minimum(up, left, out=cell)
                np.minimum(cell, diag, out=cell)
            cell += d
        if band is not None:
            cur[i_lo] = _INF
            if narrower is not None:
                np.copyto(cell, _INF, where=np.abs(twice_i[lo] - k) > narrower)
        done = ends.get(k)
        if done is not None:
            out[done] = cur[n, done]
            if plens is not None:
                plens[done] = plen_cur[n, done]
        prevprev, prev, cur = prev, cur, prevprev
        if plens is not None:
            plen_prevprev, plen_prev, plen_cur = plen_prev, plen_cur, plen_prevprev
    if track == "path":
        widths = np.full(g, m) if lens is None else lens
        return out, _trace_paths(codes, widths)
    if track:
        return out, plens
    return out


@dataclass(frozen=True)
class DtwPathBatch:
    """Outcome of :func:`dtw_path_batch`: one warping path per candidate.

    ``distances[c]`` and ``path_lengths[c]`` are :func:`dtw_path`'s for
    candidate ``c``; its path cells are ``(i[c, p], j[c, p])`` in path
    order for ``p < path_lengths[c]``, and ``-1`` out to the longest
    possible path.
    """

    distances: np.ndarray
    path_lengths: np.ndarray
    i: np.ndarray
    j: np.ndarray

    def paths(self) -> list[tuple[tuple[int, int], ...]]:
        """Every candidate's path as :class:`DtwResult` spells it."""
        cells = zip(self.i.tolist(), self.j.tolist(), self.path_lengths.tolist())
        return [tuple(zip(xs[:length], ys[:length])) for xs, ys, length in cells]

    def multiplicities(self, axis: int, length: int) -> np.ndarray:
        """Row ``c`` is ``path_multiplicities(paths()[c], length, axis=axis)``."""
        if axis not in (0, 1):
            raise ValidationError(f"axis must be 0 or 1, got {axis}")
        index = self.j if axis else self.i
        if index.size and index.max() >= length:
            raise ValidationError(
                f"path index {int(index.max())} out of range 0..{length - 1}"
            )
        owner, at = np.nonzero(index >= 0)
        flat = owner * length + index[owner, at]
        return np.bincount(flat, minlength=len(index) * length).reshape(-1, length)


def dtw_path_batch(
    x: ArrayLike,
    rows: ArrayLike,
    *,
    window: int | None = None,
    ground: str = "l1",
    lengths: ArrayLike | None = None,
) -> DtwPathBatch:
    """:func:`dtw_path` from *x* to every row of *rows*, in one call.

    The batch kernel decides every cell's predecessor with
    :func:`dtw_path`'s tie-break; here it keeps those decisions (an int8
    code per cell, about ``(n + m) * n`` bytes per candidate) and walks
    every candidate's path back from them (NumPy: one walk vectorised
    *across candidates*; native: one loop per candidate in C).  Bit for
    bit :func:`dtw_path`'s distances and paths, for every *window*, both
    grounds and ragged ``lengths=`` stacks (as in
    :func:`dtw_distance_batch`).
    """
    a = as_sequence(x, name="x")
    mat, lens, squared = _as_candidates(rows, lengths, window, ground)
    if mat.ndim == 3:
        raise ValidationError("dtw_path_batch takes univariate (2-D) rows")
    g, n = mat.shape[0], a.shape[0]
    widths = np.full(g, mat.shape[1]) if lens is None else lens
    longest = n + int(widths.max(initial=1)) - 1
    distances = np.empty(g)
    path_lengths = np.empty(g, dtype=np.int64)
    i = np.full((g, longest), -1, dtype=np.intp)
    j = np.full((g, longest), -1, dtype=np.intp)
    per_call = max(1, _PATH_CELL_BUDGET // (longest * n))
    for lo in range(0, g, per_call):
        part = slice(lo, lo + per_call)
        distances[part], (path_lengths[part], i_part, j_part) = _dtw_batch_diagonal(
            a, mat[part], None if lens is None else lens[part], window, squared, "path"
        )
        i[part, : i_part.shape[1]] = i_part
        j[part, : j_part.shape[1]] = j_part
    return DtwPathBatch(distances, path_lengths, i, j)


def _trace_paths(
    codes: np.ndarray, widths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk a direction cube back from every candidate's corner cell.

    Cell ``(i, j)`` of candidate ``c`` is at flat offset ``(i + j) * n * g
    + i * g + c``, linear in ``i`` and ``j``: the walk keeps one offset per
    candidate, a step is a code lookup and a subtraction, and a walk that
    has reached ``(0, 0)`` stays there.  Row 0 steps left and column 0
    steps up whatever the comparisons said, as in :func:`dtw_path`: where
    costs overflow to ``inf`` they all tie, and a "diagonal" step off an
    edge would leave the cube.  Returns the path lengths and the ``i`` and
    ``j`` rows of :class:`DtwPathBatch`, as wide as the longest.
    """
    _, n, g = codes.shape
    codes[1:, 0] = 0  # cell (0, k): left
    edge = np.arange(1, n)
    codes[edge, edge] = 1  # cell (k, 0): up
    flat = codes.reshape(-1)
    row, diagonal = g, n * g
    diag = 2 * diagonal + row
    back = np.array([diagonal, diagonal + row, diag, diag, 0])
    cols = np.arange(g)
    trail = np.empty((n + int(widths.max()) - 1, g), dtype=np.intp)
    trail[0] = (n - 1) * (diagonal + row) + (widths - 1) * diagonal + cols
    for s in range(1, len(trail)):
        np.subtract(trail[s - 1], back.take(flat.take(trail[s - 1])), out=trail[s])
    plens = 1 + np.count_nonzero(trail[1:] != trail[:-1], axis=0)
    k, rest = np.divmod(trail[: plens.max()] - cols, diagonal)
    i_back = rest // row
    # Path position p of candidate c is walk step plens[c] - 1 - p.
    src = plens[:, None] - 1 - np.arange(len(k))
    i, j = i_back[src, cols[:, None]], (k - i_back)[src, cols[:, None]]
    i[src < 0] = -1
    j[src < 0] = -1
    return plens, i, j


def dtw_distance(
    x: ArrayLike,
    y: ArrayLike,
    *,
    window: int | None = None,
    ground: str = "l1",
    normalized: bool = False,
) -> float:
    """DTW distance via the batch kernel, one candidate.

    *x* and *y* are read as :func:`dtw_path` reads them: 1-D, or
    ``(length, channels)`` windows of one channel count.  With
    ``normalized=True`` the summed cost is divided by the optimal
    warping-path length (requires a traceback, so it delegates to
    :func:`dtw_path`).
    """
    if normalized:
        return dtw_path(x, y, window=window, ground=ground).normalized_distance
    a, b = _windows(x, y, ground)
    return float(dtw_distance_batch(a, b[None], window=window, ground=ground)[0])


def dtw_path(
    x: ArrayLike, y: ArrayLike, *, window: int | None = None, ground: str = "l1"
) -> DtwResult:
    """DTW distance plus the optimal warping path (traceback).

    Tie-breaking prefers the diagonal step, then the vertical, then the
    horizontal — producing the shortest path among optimal ones in the
    common case, which keeps the Fig. 2 "matched points" connectors tidy.

    The tie-break is **not operand-symmetric**: swapping *x* and *y*
    swaps which step is "vertical", so among equal-cost optimal paths the
    two orders may trace paths of different lengths.  ``distance`` is
    symmetric; ``path_length`` and therefore ``normalized_distance`` need
    not be (``x = [0, 0, -1, 0, 0, 0]``, ``y = [-1, 1, 0, 0, 0]``: raw 3.0
    both ways, normalised 3/6 against 3/7).  Every caller ranks with the
    query as *x*, so answers are deterministic either way.  *x* and *y*
    may be ``(length, channels)`` windows, as in :func:`dtw_cost_matrix`.
    """
    cost = _cost_rows(x, y, window, ground)
    n, m = len(cost), len(cost[0])
    distance = cost[n - 1][m - 1]
    if not math.isfinite(distance):
        raise ValidationError(
            "no feasible warping path (window too narrow for these lengths)"
        )
    path: list[tuple[int, int]] = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i or j:
        if i and j:
            steps = [(i - 1, j - 1), (i - 1, j), (i, j - 1)]
        else:
            steps = [(i - 1, j)] if i else [(i, j - 1)]
        # The first of equal costs wins: diagonal, vertical, horizontal.
        i, j = min(steps, key=lambda step: cost[step[0]][step[1]])
        path.append((i, j))
    path.reverse()
    return DtwResult(distance=distance, path=tuple(path))


def dtw_distance_early_abandon(
    x: ArrayLike,
    y: ArrayLike,
    threshold: float,
    *,
    window: int | None = None,
    ground: str = "l1",
    cumulative_bound: np.ndarray | None = None,
) -> float:
    """Banded DTW that abandons once the distance provably exceeds *threshold*.

    Returns the exact DTW distance if it is ``<= threshold`` and ``inf``
    otherwise.  After each row the minimum feasible cell is compared against
    the threshold; with *cumulative_bound* (an array where entry ``i`` lower
    bounds the cost still to be paid after row ``i``, as in the UCR Suite's
    reversed LB_Keogh trick) the comparison is tightened to
    ``row_min + cumulative_bound[i + 1]``.
    """
    a = as_sequence(x, name="x")
    b = as_sequence(y, name="y")
    if not math.isfinite(threshold):
        raise ValidationError("threshold must be finite")
    squared = _ground_is_squared(ground)
    n, m = a.shape[0], b.shape[0]
    band = effective_band(n, m, window)
    if cumulative_bound is not None and len(cumulative_bound) < n + 1:
        raise ValidationError(
            "cumulative_bound must have at least len(x) + 1 entries"
        )

    prev = [_INF] * m
    xs = a.tolist()
    ys = b.tolist()
    for i in range(n):
        j_lo, j_hi = 0, m - 1
        if band is not None:
            j_lo, j_hi = max(0, i - band), min(m - 1, i + band)
        cur = [_INF] * m
        running = _INF
        row_min = _INF
        xi = xs[i]
        for j in range(j_lo, j_hi + 1):
            diff = xi - ys[j]
            d = diff * diff if squared else abs(diff)
            if i == 0 and j == 0:
                best = 0.0
            else:
                up = prev[j]
                diag = prev[j - 1] if j > 0 else _INF
                best = min(up, diag, running)
            value = d + best
            cur[j] = value
            running = value
            if value < row_min:
                row_min = value
        # The bound applies on every row including the last: entry ``n``
        # lower-bounds the cost still unpaid after the final row (zero for
        # suffix-sum bounds, but callers may supply a tighter terminal
        # bound and it must not be silently dropped).
        remaining = (
            float(cumulative_bound[i + 1]) if cumulative_bound is not None else 0.0
        )
        if row_min + remaining > threshold:
            return _INF
        prev = cur
    final = prev[m - 1]
    return final if final <= threshold else _INF

"""Vectorised SPRING: the live monitors' exact stream matcher.

Same semantics as the reference implementation in
:mod:`repro.baselines.spring` — star-padded subsequence DTW with start
tracking, deferred reporting, and overlap resets — but the per-sample
column update runs as a handful of NumPy kernels over the pattern axis
instead of a Python loop, which is what makes standing queries affordable
for realistic pattern lengths.

The trick: the SPRING column recurrence

    d[i] = c_i + min(d[i-1], prev[i], prev[i-1])        (c_i = |v - q_i|)

carries a serial dependency through ``d[i-1]``, but unrolling it shows
``d[i] = C_i + min_{j <= i} (b_j - C_{j-1})`` where ``C`` is the prefix
sum of the ground costs and ``b_j`` is the best way to *enter* the column
at pattern index ``j`` (``b_0 = 0`` — the star start — else
``min(prev[j], prev[j-1])``).  That inner minimum is a prefix minimum —
``np.minimum.accumulate`` — and the argmin (which decides the recorded
match-start positions) falls out of the positions where the running
minimum strictly improves, reproducing the scalar loop's tie-breaking
exactly: earlier entries win ties, and ``prev[j]`` beats ``prev[j-1]``.

Summed costs may differ from the scalar reference by floating-point
round-off (the unrolled form reassociates the additions).  Consequence:
on an *exact tie* between two candidate boundaries, an ulp of difference
can make the two implementations report different — equally good, both
within epsilon — start/end positions for the same underlying match.  On
value grids where float addition is exact (and in particular in integer
or fixed-point streams) the equivalence is bit-exact; the property tests
assert exactly that, and the continuous-data tests compare distances
with an ulp-scale tolerance.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike

from repro.baselines.spring import SpringMatch
from repro.distances.metrics import as_sequence
from repro.exceptions import ValidationError

__all__ = ["OnlineSpringMatcher"]


class OnlineSpringMatcher:
    """Drop-in, vectorised twin of :class:`repro.baselines.spring.SpringMatcher`.

    Feed samples with :meth:`append` or chunks with :meth:`extend`; both
    return the :class:`~repro.baselines.spring.SpringMatch` records that
    became safe to report.  Call :meth:`finish` at end of stream to flush
    the last pending candidate.
    """

    def __init__(self, pattern: ArrayLike, epsilon: float) -> None:
        self._pattern = as_sequence(pattern, name="pattern")
        if self._pattern.shape[0] < 2:
            raise ValidationError("pattern must have at least 2 points")
        if not (epsilon > 0 and math.isfinite(epsilon)):
            raise ValidationError(
                f"epsilon must be positive and finite, got {epsilon}"
            )
        self._epsilon = float(epsilon)
        m = self._pattern.shape[0]
        self._d_prev = np.full(m, math.inf)
        self._s_prev = np.zeros(m, dtype=np.int64)
        self._arange = np.arange(m)
        self._t = -1
        self._candidate: tuple[float, int, int] | None = None

    @property
    def pattern_length(self) -> int:
        return self._pattern.shape[0]

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def samples_seen(self) -> int:
        return self._t + 1

    def append(self, value: float) -> list[SpringMatch]:
        """Consume one stream sample; return matches now safe to report."""
        if not math.isfinite(value):
            raise ValidationError(f"stream value must be finite, got {value!r}")
        self._t += 1
        t = self._t
        q = self._pattern
        m = q.shape[0]
        d_prev, s_prev = self._d_prev, self._s_prev

        costs = np.abs(value - q)
        cum = np.cumsum(costs)
        # Best entry into each pattern index: the star start at index 0,
        # else the cheaper of the vertical/diagonal predecessors (ties to
        # the vertical prev[j], as in the scalar loop's check order).
        enter = np.empty(m)
        enter[0] = 0.0
        enter[1:] = np.minimum(d_prev[1:], d_prev[:-1]) - cum[:-1]
        enter_start = np.empty(m, dtype=np.int64)
        enter_start[0] = t
        enter_start[1:] = np.where(d_prev[:-1] < d_prev[1:], s_prev[:-1], s_prev[1:])
        running = np.minimum.accumulate(enter)
        d_cur = cum + running
        improved = np.empty(m, dtype=bool)
        improved[0] = True
        improved[1:] = enter[1:] < running[:-1]
        best_entry = np.maximum.accumulate(np.where(improved, self._arange, 0))
        s_cur = enter_start[best_entry]

        reports: list[SpringMatch] = []
        if self._candidate is not None:
            # Safe to report once every in-flight path either cannot beat
            # the candidate or starts after the candidate ends.
            dist, start, end = self._candidate
            if bool(np.all((d_cur >= dist) | (s_cur > end))):
                reports.append(SpringMatch(start=start, end=end, distance=dist))
                self._candidate = None
                # Reset paths overlapping the reported range so a later
                # occurrence is matched afresh (the paper's reset step).
                d_cur[s_cur <= end] = math.inf

        final = d_cur[m - 1]
        if final <= self._epsilon:
            if self._candidate is None or final < self._candidate[0]:
                self._candidate = (float(final), int(s_cur[m - 1]), t)

        self._d_prev, self._s_prev = d_cur, s_cur
        return reports

    def extend(self, values: ArrayLike) -> list[SpringMatch]:
        """Consume many samples; return all matches reported along the way."""
        out: list[SpringMatch] = []
        for value in np.asarray(values, dtype=np.float64):
            out.extend(self.append(float(value)))
        return out

    def finish(self) -> list[SpringMatch]:
        """Flush the pending candidate at end of stream."""
        if self._candidate is None:
            return []
        dist, start, end = self._candidate
        self._candidate = None
        return [SpringMatch(start=start, end=end, distance=dist)]

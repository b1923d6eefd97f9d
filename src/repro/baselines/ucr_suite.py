"""UCR Suite baseline — "the fastest known method" (reference [6], S11).

A faithful reimplementation of the core of Rakthanmanon et al., *Searching
and mining trillions of time series subsequences under dynamic time
warping* (SIGKDD 2012), adapted from streaming to collection scanning:

- every candidate window and the query are **z-normalised**,
- the ground cost is **squared difference** (UCR convention),
- a cascade of lower bounds prunes candidates against the best-so-far:
  LB_Kim (constant-time endpoints) → LB_Keogh with the query envelope
  (accumulated in decreasing |q_z| order, abandoning early) → reversed
  LB_Keogh with the candidate envelope → banded DTW with early abandoning
  fed by the LB_Keogh suffix sums.

Deviations from the C original, documented for honesty: windows are
z-normalised eagerly per candidate (O(m), vs the original's amortised
online trick) and the mean/std come from the O(n) cumulative-sum
precomputation; neither changes pruning behaviour, only a constant factor.

The suite answers a *fixed-length, z-normalised* nearest neighbour — the
regime mismatch against ONEX's variable-length, value-space exploration is
exactly what the paper's "up to 19% more accurate" claim is about (E6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.distances.dtw import dtw_distance_early_abandon
from repro.distances.envelope import keogh_envelope
from repro.distances.normalize import sliding_mean_std, znormalize
from repro.distances.metrics import as_sequence
from repro.exceptions import ValidationError

__all__ = ["UcrMatch", "UcrSearchStats", "UcrSuiteSearcher"]

_FLAT_EPS = 1e-12


@dataclass(frozen=True)
class UcrMatch:
    """Best window found by the suite (distance in z-normalised space)."""

    ref: SubsequenceRef
    series_name: str
    squared_distance: float

    @property
    def distance(self) -> float:
        """Root of the squared-DTW total (comparable across lengths)."""
        return math.sqrt(self.squared_distance)


@dataclass
class UcrSearchStats:
    candidates: int = 0
    kim_prunes: int = 0
    keogh_eq_prunes: int = 0
    keogh_ec_prunes: int = 0
    dtw_abandons: int = 0
    dtw_calls: int = 0


class UcrSuiteSearcher:
    """Best-match subsequence search with the UCR Suite optimisations."""

    def __init__(self, dataset: TimeSeriesDataset, *, band_fraction: float = 0.05) -> None:
        """*band_fraction* is the Sakoe–Chiba radius as a fraction of the
        query length (UCR's usual 5% default)."""
        if len(dataset) == 0:
            raise ValidationError("dataset must be non-empty")
        if not 0.0 <= band_fraction <= 1.0:
            raise ValidationError("band_fraction must be in [0, 1]")
        self._dataset = dataset
        self._band_fraction = band_fraction
        self.last_stats = UcrSearchStats()

    def best_match(self, query) -> UcrMatch:
        """The nearest z-normalised window of the query's length."""
        q_raw = as_sequence(query, name="query")
        m = q_raw.shape[0]
        if m < 2:
            raise ValidationError("query must have at least 2 points")
        q = znormalize(q_raw)
        radius = max(0, int(math.floor(self._band_fraction * m)))
        lower, upper = keogh_envelope(q, radius)
        # UCR optimisation: accumulate LB_Keogh terms in decreasing |q_z|
        # order so large contributions trigger abandonment early.
        order = np.argsort(-np.abs(q))
        q_sorted = q[order]
        lower_sorted = lower[order]
        upper_sorted = upper[order]

        stats = UcrSearchStats()
        best_sq = math.inf
        best_ref: SubsequenceRef | None = None

        for series_index, series in enumerate(self._dataset):
            n = len(series)
            if n < m:
                continue
            values = series.values
            means, stds = sliding_mean_std(values, m)
            for start in range(n - m + 1):
                stats.candidates += 1
                std = stds[start]
                window = values[start : start + m]
                if std <= _FLAT_EPS:
                    c = np.zeros(m)
                else:
                    c = (window - means[start]) / std

                # --- LB_Kim (constant time on the z-normalised window).
                kim = (q[0] - c[0]) ** 2 + (q[-1] - c[-1]) ** 2
                if m >= 4:
                    kim += min(
                        (q[1] - c[0]) ** 2,
                        (q[1] - c[1]) ** 2,
                        (q[0] - c[1]) ** 2,
                    )
                    kim += min(
                        (q[-2] - c[-1]) ** 2,
                        (q[-2] - c[-2]) ** 2,
                        (q[-1] - c[-2]) ** 2,
                    )
                if kim >= best_sq:
                    stats.kim_prunes += 1
                    continue

                # --- LB_Keogh (query envelope), best-order early abandon.
                c_sorted = c[order]
                cb_sorted = np.zeros(m)
                keogh_eq = 0.0
                abandoned = False
                for i in range(m):
                    x = c_sorted[i]
                    if x > upper_sorted[i]:
                        d = (x - upper_sorted[i]) ** 2
                    elif x < lower_sorted[i]:
                        d = (lower_sorted[i] - x) ** 2
                    else:
                        continue
                    keogh_eq += d
                    cb_sorted[i] = d
                    if keogh_eq >= best_sq:
                        abandoned = True
                        break
                if abandoned:
                    stats.keogh_eq_prunes += 1
                    continue

                # --- Reversed LB_Keogh (candidate envelope vs query).
                c_lower, c_upper = keogh_envelope(c, radius)
                breach = np.where(
                    q > c_upper, q - c_upper, np.where(q < c_lower, c_lower - q, 0.0)
                )
                keogh_ec = float((breach * breach).sum())
                if max(keogh_eq, keogh_ec) >= best_sq:
                    stats.keogh_ec_prunes += 1
                    continue

                # --- Early-abandoning DTW with cumulative bound from the
                # tighter of the two LB_Keogh term vectors.
                cb = np.zeros(m)
                cb[order] = cb_sorted
                if keogh_ec > keogh_eq:
                    cb = breach * breach
                suffix = np.zeros(m + 1)
                suffix[:m] = np.cumsum(cb[::-1])[::-1]
                # A path cell in row i may sit as far right as column
                # i + radius, whose breach term is then already inside the
                # cumulative cost; only terms beyond the band are certainly
                # unpaid, so shift the suffix by the radius (the original's
                # ``cb[i + r + 1]``).  Unshifted suffixes double-count and
                # can abandon the true nearest neighbour.
                if radius:
                    suffix = suffix[np.minimum(m, np.arange(m + 1) + radius)]
                sq = dtw_distance_early_abandon(
                    q,
                    c,
                    best_sq if math.isfinite(best_sq) else 1e300,
                    window=radius,
                    ground="squared",
                    cumulative_bound=suffix,
                )
                if math.isinf(sq):
                    stats.dtw_abandons += 1
                    continue
                stats.dtw_calls += 1
                if sq < best_sq:
                    best_sq = sq
                    best_ref = SubsequenceRef(series_index, start, m)
        self.last_stats = stats
        if best_ref is None:
            raise ValidationError(
                f"no window of length {m} exists in the dataset"
            )
        return UcrMatch(
            ref=best_ref,
            series_name=self._dataset[best_ref.series_index].name,
            squared_distance=best_sq,
        )

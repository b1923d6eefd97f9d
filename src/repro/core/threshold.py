"""Data-driven similarity-threshold recommendation (§3.3).

"Threshold recommendations help analysts to select appropriate parameter
settings in a data-driven fashion" — growth-rate percentages need tiny
thresholds while unemployment counts need huge ones.  ONEX recommends
thresholds by sampling the distribution of pairwise subsequence distances
in the (normalised) collection and reporting low quantiles: a threshold at
the q-th quantile makes roughly a q fraction of random subsequence pairs
"similar", which is the operational meaning analysts care about.

There is one sampler (:class:`_WindowSampler`): only the sampled windows
are gathered — window offsets are pure arithmetic over the per-series
window counts, so no window matrix is materialised.  A built
:class:`~repro.core.base.OnexBase` over the same collection is an *input*
to it, not a second algorithm: its already-normalised value store saves
re-normalising the dataset, which is what makes the served ``thresholds``
operation cheap at collection scale, and the recommendation is
bit-identical with and without it — the property suite cross-checks them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import analytics_metrics
from repro.core.base import OnexBase
from repro.core.validation import as_int_arg
from repro.data.dataset import TimeSeriesDataset
from repro.distances.normalize import RunningStats
from repro.exceptions import DatasetError, ValidationError
from repro.obs.trace import span

__all__ = ["ThresholdRecommendation", "recommend_thresholds"]

#: Quantiles reported as candidate similarity thresholds, tightest first.
_DEFAULT_QUANTILES = (0.01, 0.05, 0.10, 0.25)


@dataclass(frozen=True)
class ThresholdRecommendation:
    """Suggested similarity thresholds for one dataset/length regime."""

    length: int
    samples: int
    quantiles: tuple[float, ...]
    thresholds: tuple[float, ...]
    mean_distance: float
    std_distance: float

    @property
    def default(self) -> float:
        """The recommended starting point (5% quantile when available)."""
        if 0.05 in self.quantiles:
            return self.thresholds[self.quantiles.index(0.05)]
        return self.thresholds[0]

    def as_dict(self) -> dict:
        return {
            "length": self.length,
            "samples": self.samples,
            "suggestions": {
                f"{int(q * 100)}%": t
                for q, t in zip(self.quantiles, self.thresholds)
            },
            "mean_distance": self.mean_distance,
            "std_distance": self.std_distance,
            "default": self.default,
        }


def _base_value_source(
    dataset: TimeSeriesDataset, normalize: bool, base: OnexBase | None
) -> TimeSeriesDataset | None:
    """The base's value store when it can stand in for *dataset*'s own.

    Valid only when *base* indexes exactly this dataset object and was
    normalised the same way with the same bounds ``dataset.normalized()``
    would derive right now — then every window it serves is bitwise the
    window the caller would otherwise normalise for itself.  Returns
    ``None`` otherwise.
    """
    if base is None or dataset is not getattr(base, "raw_dataset", None):
        return None
    if not base.is_built or normalize != base.config.normalize:
        return None
    if normalize and base.normalization_bounds != dataset.global_bounds():
        return None
    return base.dataset


class _WindowSampler:
    """Random access to every length-*n* window of a collection, by rank.

    Flat window index ``k`` (the rank in ``iter_subsequences`` order) maps
    to a (series, start) pair through the cumulative per-series window
    counts; the series values are stitched into one array once, so a batch
    of sampled windows resolves as a single strided gather — no window
    other than the sampled ones is ever materialised.  Rows are what
    ``source.subsequence_matrix(length)`` holds at the same ranks
    (multivariate windows channel-flattened, time-major).
    """

    def __init__(self, source: TimeSeriesDataset, length: int) -> None:
        sizes = [len(s) for s in source]
        counts = np.array([max(0, size - length + 1) for size in sizes])
        self.total = int(counts.sum())
        self._win_offsets = np.concatenate([[0], np.cumsum(counts)])
        self._val_offsets = np.concatenate([[0], np.cumsum(sizes)])
        values = [s.values for s in source]
        self._concat = np.concatenate(values) if values else np.empty(0)
        self._length = length

    def rows(self, idx: np.ndarray) -> np.ndarray:
        s_of = np.searchsorted(self._win_offsets, idx, side="right") - 1
        starts = self._val_offsets[s_of] + (idx - self._win_offsets[s_of])
        view = np.lib.stride_tricks.sliding_window_view(
            self._concat, self._length, axis=0
        )
        # The window axis comes last; time-major rows want it ahead of
        # the channel axis a multivariate collection has.
        return np.moveaxis(view[starts], -1, 1).reshape(starts.shape[0], -1)


def recommend_thresholds(
    dataset: TimeSeriesDataset,
    length: int,
    *,
    samples: int = 2000,
    quantiles: tuple[float, ...] = _DEFAULT_QUANTILES,
    normalize: bool = True,
    seed: int = 0,
    base: OnexBase | None = None,
) -> ThresholdRecommendation:
    """Recommend similarity thresholds for windows of *length*.

    Samples up to *samples* random pairs of distinct length-*length*
    subsequences, computes their length-normalised L1 distances, and
    returns the requested distribution *quantiles* as candidate thresholds.
    *base* optionally supplies a built :class:`~repro.core.base.OnexBase`
    over the same collection whose normalised value store spares the
    sampler a re-normalisation (bit-identical results; ignored when it
    cannot stand in).
    """
    length = as_int_arg(length, "length")
    samples = as_int_arg(samples, "samples")
    if length < 2:
        raise ValidationError(f"length must be >= 2, got {length}")
    if samples < 10:
        raise ValidationError(f"samples must be >= 10, got {samples}")
    if not quantiles or any(not 0.0 < q < 1.0 for q in quantiles):
        raise ValidationError("quantiles must lie strictly inside (0, 1)")

    started = time.perf_counter()
    source = _base_value_source(dataset, normalize, base)
    if source is None:
        source = dataset.normalized() if normalize else dataset
    sampler = _WindowSampler(source, length)
    n = sampler.total
    if n < 2:
        raise DatasetError(
            f"need >= 2 subsequences of length {length} to sample distances"
        )

    rng = np.random.default_rng(seed)
    count = min(samples, n * (n - 1) // 2)
    left = rng.integers(0, n, size=count)
    right = rng.integers(0, n - 1, size=count)
    right = np.where(right >= left, right + 1, right)  # distinct partner
    with span("threshold.sample", pairs=int(count), length=length):
        distances = np.abs(sampler.rows(left) - sampler.rows(right)).mean(axis=1)

    stats = RunningStats()
    stats.extend(distances)
    ordered = tuple(sorted(quantiles))
    values = tuple(float(v) for v in np.quantile(distances, ordered))
    analytics_metrics.record("thresholds", started)
    return ThresholdRecommendation(
        length=length,
        samples=count,
        quantiles=ordered,
        thresholds=values,
        mean_distance=stats.mean,
        std_distance=stats.std,
    )

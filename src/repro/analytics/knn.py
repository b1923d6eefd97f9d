"""K-nearest-neighbour time series classification.

1-NN with DTW is the UCR-archive yardstick for sequence distances, and
the cleanest way to demonstrate the paper's premise that warping-robust
similarity beats pointwise ED on misaligned shape data (experiment E14
does exactly that on cylinder–bell–funnel).  The classifier is lazy:
``fit`` stores the references as one zero-padded stack, and ``predict``
runs the default banded DTW against all of them in one ragged kernel
call, with no bound prescreen: it costs more than the DTW it would skip
(DESIGN.md §4).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.distances.dtw import dtw_distance_batch
from repro.distances.metrics import as_sequence
from repro.exceptions import ValidationError

__all__ = ["KnnClassifier"]


class KnnClassifier:
    """Lazy k-NN classifier over variable-length sequences."""

    def __init__(
        self,
        k: int = 1,
        *,
        distance: Callable[[np.ndarray, np.ndarray], float] | None = None,
        window: int | None = None,
    ) -> None:
        """*distance* overrides the default banded DTW; it is called once
        per reference instead of the one batched kernel call."""
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        self._k = k
        self._distance = distance
        self._window = window
        self._references: list[np.ndarray] = []
        self._labels: list = []
        self._padded = np.empty((0, 0))
        self._lengths = np.empty(0, dtype=np.int64)

    @property
    def is_fitted(self) -> bool:
        return bool(self._references)

    def fit(self, sequences: Sequence, labels: Sequence) -> "KnnClassifier":
        sequences = [as_sequence(s, name="sequence") for s in sequences]
        labels = list(labels)
        if len(sequences) != len(labels):
            raise ValidationError(
                f"{len(sequences)} sequences vs {len(labels)} labels"
            )
        if len(sequences) < self._k:
            raise ValidationError(
                f"need at least k={self._k} references, got {len(sequences)}"
            )
        self._references = sequences
        self._labels = labels
        # One zero-padded stack: a query's DTW to every reference is one
        # ragged kernel call.
        self._lengths = np.array([len(s) for s in sequences])
        self._padded = np.zeros((len(sequences), int(self._lengths.max())))
        for row, sequence in zip(self._padded, sequences):
            row[: len(sequence)] = sequence
        return self

    def neighbors(self, query: ArrayLike) -> list[tuple[float, int]]:
        """The k nearest ``(distance, reference_index)`` pairs, nearest
        first; equal distances go to the lower index."""
        if not self.is_fitted:
            raise ValidationError("classifier not fitted")
        q = as_sequence(query, name="query")
        if self._distance is None:
            distances = dtw_distance_batch(
                q, self._padded, window=self._window, lengths=self._lengths
            )
        else:
            distances = np.array(
                [float(self._distance(q, ref)) for ref in self._references]
            )
        nearest = np.argsort(distances, kind="stable")[: self._k]
        return [(float(distances[idx]), int(idx)) for idx in nearest]

    def predict(self, query: ArrayLike) -> Hashable:
        """Majority label among the k nearest references (ties: nearest)."""
        nearest = self.neighbors(query)
        votes = Counter(self._labels[idx] for _, idx in nearest)
        top = votes.most_common()
        best_count = top[0][1]
        tied = {label for label, count in top if count == best_count}
        if len(tied) == 1:
            return top[0][0]
        for _, idx in nearest:  # ascending distance: nearest tied label wins
            if self._labels[idx] in tied:
                return self._labels[idx]
        raise AssertionError("unreachable")  # pragma: no cover

    def predict_batch(self, queries: Iterable[ArrayLike]) -> list:
        return [self.predict(q) for q in queries]

    def score(self, queries: Iterable[ArrayLike], labels: Iterable) -> float:
        """Fraction of *queries* classified as *labels*."""
        labels = list(labels)
        if len(labels) == 0:
            raise ValidationError("labels must be non-empty")
        predictions = self.predict_batch(queries)
        if len(predictions) != len(labels):
            raise ValidationError(
                f"{len(predictions)} queries vs {len(labels)} labels"
            )
        hits = sum(p == y for p, y in zip(predictions, labels))
        return hits / len(labels)

"""Exact brute-force DTW search — the accuracy ground truth (S10).

Scans every indexed subsequence with DTW: raw DTW to every window of a
length via the vectorised kernel (the same kernel ONEX uses), then exact
normalised distances from :func:`~repro.distances.dtw.dtw_path` for
candidates in ascending optimistic order until no unverified candidate can
improve the k-th best.  Exact, and the fairest "no index" comparator for
the speed experiments; the test suite holds it to a naive scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import Match
from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.distances.dtw import dtw_distance_batch, dtw_path
from repro.distances.metrics import as_sequence
from repro.exceptions import ValidationError

__all__ = ["BruteForceSearcher", "BruteForceStats"]


@dataclass
class BruteForceStats:
    candidates: int = 0
    lb_prunes: int = 0
    dtw_calls: int = 0


class BruteForceSearcher:
    """Exact best-match search over all subsequences of a dataset.

    Operates on the dataset exactly as given — callers pass the same
    (normalised) dataset the ONEX base indexes so distances are comparable.
    """

    def __init__(self, dataset: TimeSeriesDataset) -> None:
        if len(dataset) == 0:
            raise ValidationError("dataset must be non-empty")
        self._dataset = dataset
        self.last_stats = BruteForceStats()

    def best_match(
        self,
        query,
        lengths,
        *,
        window: int | None = None,
    ) -> Match:
        """Exact best match (normalised DTW) over windows of *lengths*."""
        matches = self.k_best_matches(query, 1, lengths, window=window)
        return matches[0]

    def k_best_matches(
        self,
        query,
        k: int,
        lengths,
        *,
        window: int | None = None,
    ) -> list[Match]:
        """Exact *k* best matches, best first."""
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        q = as_sequence(query, name="query")
        lengths = sorted(set(int(n) for n in lengths))
        if not lengths or lengths[0] < 1:
            raise ValidationError("lengths must be positive integers")
        stats = BruteForceStats()
        best = self._search(q, k, lengths, window, stats)
        self.last_stats = stats
        if not best:
            raise ValidationError("no candidate subsequences for these lengths")
        return [
            Match(
                ref=ref,
                series_name=self._dataset[ref.series_index].name,
                distance=dist,
                raw_distance=raw,
                path=path,
                group=(-1, -1),
            )
            for dist, ref, raw, path in best
        ]

    def _search(self, q, k, lengths, window, stats):
        qlen = q.shape[0]
        # Raw DTW to everything, then verify candidates in ascending order
        # of the optimistic normalised distance raw / (max path length):
        # once that bound exceeds the k-th best true distance, no
        # unverified candidate can improve the answer.
        candidates: list[tuple[float, float, SubsequenceRef]] = []
        for length in lengths:
            matrix, refs = self._dataset.subsequence_matrix(length)
            if not refs:
                continue
            raw = dtw_distance_batch(q, matrix, window=window)
            stats.candidates += len(refs)
            max_path = qlen + length - 1
            candidates.extend(
                (float(raw[i]) / max_path, float(raw[i]), refs[i])
                for i in range(len(refs))
            )
        candidates.sort(key=lambda e: (e[0], e[2]))
        best: list[tuple[float, SubsequenceRef, float, tuple]] = []
        for optimistic, _, ref in candidates:
            if len(best) == k and optimistic > best[-1][0]:
                break
            stats.dtw_calls += 1
            res = dtw_path(q, self._dataset.values(ref), window=window)
            entry = (res.normalized_distance, ref, res.distance, res.path)
            self._keep_best(best, entry, k)
        stats.lb_prunes = stats.candidates - stats.dtw_calls
        return best

    @staticmethod
    def _keep_best(best: list, entry: tuple, k: int) -> None:
        if len(best) < k:
            best.append(entry)
            best.sort(key=lambda e: (e[0], e[1]))
        elif (entry[0], entry[1]) < (best[-1][0], best[-1][1]):
            best[-1] = entry
            best.sort(key=lambda e: (e[0], e[1]))
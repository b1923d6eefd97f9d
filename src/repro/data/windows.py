"""Strided window extraction: "all windows of length ``L``" as one matrix.

The whole-collection window matrix (:meth:`TimeSeriesDataset.subsequence_matrix`,
read by the brute-force scan and the seasonal miner) is one O(1) strided
view per series, stacked with a single vectorised copy, instead of a
Python loop over windows (``matrix[k] = values(ref)``).

Row order is the canonical enumeration order everywhere in the library:
series by series (dataset order), window starts ascending on the step
grid — exactly :meth:`TimeSeriesDataset.iter_subsequences`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["window_matrix", "window_view"]


def window_view(values: np.ndarray, length: int, step: int = 1) -> np.ndarray:
    """All step-grid windows of one series as a strided view (no copy).

    ``out[i] == values[i * step : i * step + length]``.  Empty (0 rows)
    when the series is shorter than *length*.  For 1-D input the view is
    2-D ``(n_windows, length)``; for 2-D ``(n, channels)`` input it is
    3-D ``(n_windows, length, channels)`` — windows slide along the time
    axis only.  The view aliases *values*: copy before mutating (the
    library's series are read-only anyway).  Built directly with
    ``as_strided`` (shape/strides are computed here, so the construction
    is safe) — :func:`window_matrix` takes one view per series and
    ``sliding_window_view``'s generic argument handling is measurable
    at that call rate.
    """
    n = values.shape[0]
    if values.ndim == 2:
        channels = values.shape[1]
        if n < length:
            return np.empty((0, length, channels), dtype=values.dtype)
        s0, s1 = values.strides
        return np.lib.stride_tricks.as_strided(
            values,
            shape=((n - length) // step + 1, length, channels),
            strides=(s0 * step, s0, s1),
            writeable=False,
        )
    if n < length:
        return np.empty((0, length), dtype=values.dtype)
    stride = values.strides[0]
    return np.lib.stride_tricks.as_strided(
        values,
        shape=((n - length) // step + 1, length),
        strides=(stride * step, stride),
        writeable=False,
    )


def window_matrix(
    series_values: list[np.ndarray], length: int, step: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Stack every window of every series into one owned 2-D array.

    Returns ``(matrix, counts)`` where ``counts[i]`` is how many rows
    series *i* contributed; ``matrix`` has ``counts.sum()`` rows in
    canonical enumeration order.  One strided view per series replaces
    the per-window copy loop; the stack itself is a single allocation
    filled with vectorised block copies.

    Multivariate series (2-D ``(n, channels)`` values) contribute
    channel-flattened rows of width ``length * channels`` — each window's
    C-order ``(length, channels)`` block laid out time-major, the
    canonical flattened layout the grouping and persistence layers store.
    """
    if not series_values:
        return np.empty((0, length), dtype=np.float64), np.empty(0, np.int64)
    channels = 1 if series_values[0].ndim == 1 else series_values[0].shape[1]
    n = np.asarray([v.shape[0] for v in series_values], dtype=np.int64)
    counts = np.where(n >= length, (n - length) // step + 1, 0)
    total = int(counts.sum())
    matrix = np.empty((total, length * channels), dtype=np.float64)
    row = 0
    for values, count in zip(series_values, counts):
        if count:
            block = window_view(values, length, step)
            matrix[row : row + count] = block.reshape(int(count), -1)
            row += int(count)
    return matrix, counts


"""Live stream monitoring under DTW with SPRING (reference [7]).

Run with::

    python examples/stream_monitoring.py

Simulates the monitoring deployment the paper's related work discusses:
a household's electricity readings arrive one sample at a time, and a
SPRING matcher watches for recurrences of a known habit pattern, firing
the moment a time-warped occurrence completes — without ever buffering
the stream or recomputing DTW from scratch.
"""

import numpy as np

from repro.baselines.spring import SpringMatcher
from repro.data.electricity import build_electricity_collection
from repro.viz.ascii_chart import sparkline


def main() -> None:
    dataset = build_electricity_collection(households=1, seed=417)
    series = dataset["household-0"]
    length = series.metadata["pattern_length"]
    starts = series.metadata["pattern_starts"]

    # Detrend the yearly seasonal level so the habit's *shape* is the
    # signal (same preprocessing a deployment would stream through).
    values = series.values - np.convolve(series.values, np.ones(45) / 45, mode="same")

    template = values[starts[0] : starts[0] + length]
    print(f"Monitoring for a {length}-day habit pattern: {sparkline(template)}")
    print(f"Ground truth occurrences start on days {list(starts)}\n")

    matcher = SpringMatcher(template, epsilon=length * 2.0)
    for day, reading in enumerate(values):
        for match in matcher.append(float(reading)):
            planted = any(abs(match.start - s) <= length // 2 for s in starts)
            tag = "planted" if planted else "novel"
            print(
                f"day {day:>3}: match on days {match.start}-{match.end} "
                f"(DTW {match.distance:.1f}, {tag}) "
                f"{sparkline(values[match.start : match.end + 1])}"
            )
    for match in matcher.finish():
        print(
            f"end of stream: match on days {match.start}-{match.end} "
            f"(DTW {match.distance:.1f})"
        )
    print(f"\nProcessed {matcher.samples_seen} samples at "
          f"O(pattern length) work per sample.")


if __name__ == "__main__":
    main()

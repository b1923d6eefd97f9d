"""E15: streaming ingestion and live pattern monitoring (repro.stream).

Characterises the live subsystem on the electricity stream: sustained
per-append cost of incremental window indexing against the alternative
the seed code implied (rebuild the base per arrival), the added latency
of a standing monitor, and exactness — SPRING events identical to a
brute-force replay, and post-stream query answers identical to a
from-scratch rebuild.
"""

import itertools
import os
import time

import numpy as np
import pytest

from repro.baselines.spring import SpringMatcher
from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.query import QueryProcessor
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.stream import StreamIngestor

#: Build shape shared by the streaming measurements.
BUILD = dict(similarity_threshold=0.08, min_length=12, max_length=16)


def make_base(electricity, households=2) -> OnexBase:
    arrays = [
        electricity[f"household-{h}"].values[:250] for h in range(households)
    ]
    dataset = TimeSeriesDataset.from_arrays(
        arrays, names=[f"household-{h}" for h in range(households)], name="stream-e15"
    )
    base = OnexBase(dataset, BuildConfig(**BUILD))
    base.build()
    return base


@pytest.fixture(scope="module")
def stream_values(electricity):
    return electricity["household-0"].values[250:365].astype(float)


def test_incremental_append_vs_rebuild(benchmark, electricity, stream_values):
    """Sustained per-append cost vs rebuilding the base per arrival."""
    base = make_base(electricity)
    ingestor = StreamIngestor(base)
    values = itertools.cycle(stream_values)

    def one_append():
        ingestor.append_points("live", [float(next(values))])

    benchmark(one_append)
    per_append = benchmark.stats["mean"]

    # The alternative: re-run the offline build on every arrival.
    rebuild_base = make_base(electricity)
    started = time.perf_counter()
    rebuild_base.build()
    rebuild_seconds = time.perf_counter() - started

    ratio = rebuild_seconds / per_append
    benchmark.extra_info["per_append_ms"] = round(per_append * 1e3, 4)
    benchmark.extra_info["rebuild_ms"] = round(rebuild_seconds * 1e3, 2)
    benchmark.extra_info["incremental_vs_rebuild"] = round(ratio, 1)
    # Wall-clock ratios are noisy on shared CI runners; there the
    # exactness gates below are authoritative and the factor is only
    # reported (ONEX_BENCH_SOFT=1).  Locally the 5x floor is asserted.
    if os.environ.get("ONEX_BENCH_SOFT") != "1":
        assert ratio >= 5.0, (
            f"per-append cost only {ratio:.1f}x cheaper than rebuild-per-append"
        )


def test_append_preserves_query_results(electricity, stream_values):
    """After streaming, exact answers equal a from-scratch rebuild's."""
    base = make_base(electricity)
    ingestor = StreamIngestor(base)
    chunk = 16
    for i in range(0, len(stream_values), chunk):
        ingestor.append_points("live", stream_values[i : i + chunk])
    base.validate()

    rebuilt_dataset = TimeSeriesDataset(name="stream-e15-rebuilt")
    for series in base.raw_dataset:
        rebuilt_dataset.add(TimeSeries(series.name, series.values))
    rebuilt = OnexBase(rebuilt_dataset, BuildConfig(**BUILD))
    rebuilt.build()
    assert base.stats.subsequences == rebuilt.stats.subsequences

    streamed_qp = QueryProcessor(base, QueryConfig(mode="exact"))
    rebuilt_qp = QueryProcessor(rebuilt, QueryConfig(mode="exact"))
    rng = np.random.default_rng(15)
    for _ in range(5):
        q = rng.uniform(size=14)
        a = streamed_qp.best_match(q, normalize=False)
        b = rebuilt_qp.best_match(q, normalize=False)
        assert a.ref == b.ref, "streamed base diverged from rebuild"
        assert abs(a.distance - b.distance) < 1e-9


def test_monitor_latency_and_exactness(benchmark, electricity, stream_values):
    """Per-append latency with a standing monitor; events exact vs SPRING."""
    base = make_base(electricity)
    ingestor = StreamIngestor(base)
    norm = base.dataset["household-0"].values
    pattern = norm[50:64]
    epsilon = float(len(pattern) * 0.06)
    monitor = ingestor.registry.register(pattern, epsilon, series="live")

    def run():
        events = []
        for v in stream_values:
            events += ingestor.append_points("live", [float(v)])["events"]
        return events

    events = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["appends"] = len(stream_values)
    benchmark.extra_info["events"] = len(events)
    benchmark.extra_info["windows_checked"] = monitor.windows_checked

    # Exactness: SPRING events identical to a brute-force replay of the
    # normalised stream through the reference matcher.
    reference = SpringMatcher(pattern, epsilon)
    want = reference.extend(base.dataset["live"].values)
    got = [e for e in events if e["kind"] == "match"]
    assert [(e["start"], e["end"]) for e in got] == [
        (w.start, w.end) for w in want
    ], "monitor SPRING events diverged from brute force"
    for e, w in zip(got, want):
        assert abs(e["distance"] - w.distance) < 1e-9

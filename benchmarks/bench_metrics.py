"""E22: pluggable-metric query cost and exactness (PR 9).

Two measurements back the multivariate + metric-registry claims:

1. **Per-metric latency and exactness.**  For every registered metric,
   time ``best_match`` through the engine and verify the answer against
   a naive scan that applies the metric's own pair kernel to every
   indexed member.  For the metrics without a lower-bound family
   (``derivative_dtw``, ``weighted_dtw``) this brute-force agreement is
   the *only* correctness guarantee, so this script exits non-zero on it.

2. **Multivariate overhead.**  The same series indexed once as C
   univariate channels-concatenated rows and once as a single C-channel
   base; the ratio of per-query DTW latency is the cost of the
   channel-flattened layout (DESIGN.md §9).

Runnable directly (CI's ``paper-benchmarks`` job does)::

    PYTHONPATH=src python benchmarks/bench_metrics.py --quick
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.core.config import QueryConfig
from repro.core.engine import OnexEngine
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.distances.registry import get_metric, registered_metrics

QUICK = {"series": 8, "length": 60, "queries": 3, "repeats": 1}
FULL = {"series": 20, "length": 120, "queries": 5, "repeats": 3}


def _timed(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _dataset(config: dict, channels: int, name: str) -> TimeSeriesDataset:
    rng = np.random.default_rng(90)
    shape = (
        (config["length"],)
        if channels == 1
        else (config["length"], channels)
    )
    return TimeSeriesDataset(
        [
            TimeSeries(f"s{i}", rng.normal(size=shape).cumsum(axis=0))
            for i in range(config["series"])
        ],
        name=name,
    )


def _naive_best(base, metric: str, query: np.ndarray) -> float:
    """Ground truth: the metric's pair kernel over every indexed member."""
    spec = get_metric(metric)
    best = math.inf
    for bucket in base.buckets():
        if not spec.elastic and bucket.length != query.shape[0]:
            continue
        for group in bucket.groups:
            for ref in group.members:
                _, norm = spec.pair(query, base.dataset.values(ref), None)
                best = min(best, norm)
    return best


def run_metrics(config: dict) -> dict:
    engine = OnexEngine()
    dataset = _dataset(config, channels=1, name="metrics-uni")
    engine.load_dataset(dataset, min_length=8, max_length=12)
    base = engine.base(dataset.name)
    lo, hi = base.normalization_bounds
    # Default univariate DTW routes through the ONEX cascade, whose fast
    # mode is approximate by design; brute-force agreement for "dtw" is
    # therefore checked through an exact-mode engine.  Every other
    # metric takes the registry scan, exact in either mode.
    exact_engine = OnexEngine(QueryConfig(mode="exact"))
    exact_engine.load_dataset(
        _dataset(config, channels=1, name="metrics-uni-exact"),
        min_length=8,
        max_length=12,
    )

    rng = np.random.default_rng(17)
    queries = [
        rng.normal(size=9).cumsum() for _ in range(config["queries"])
    ]

    per_metric: dict[str, dict] = {}
    for metric in registered_metrics():
        # Warm the per-metric processor cache, then measure steady state.
        engine.best_match(dataset.name, queries[0], metric=metric)
        seconds = _timed(
            lambda m=metric: [
                engine.best_match(dataset.name, q, metric=m)
                for q in queries
            ],
            config["repeats"],
        )
        exact = True
        for q in queries:
            if metric == "dtw":
                got = exact_engine.best_match(
                    "metrics-uni-exact", q, metric=metric
                )
            else:
                got = engine.best_match(dataset.name, q, metric=metric)
            naive = _naive_best(base, metric, (np.asarray(q) - lo) / (hi - lo))
            if not math.isclose(
                got.distance, naive, rel_tol=1e-9, abs_tol=1e-9
            ):
                exact = False
        spec = get_metric(metric)
        per_metric[metric] = {
            "query_seconds": round(seconds, 4),
            "per_query_ms": round(seconds / len(queries) * 1e3, 3),
            "has_lower_bound": spec.lower_bound is not None,
            "has_batch_kernel": spec.batch is not None,
            "exact_vs_brute_force": exact,
        }

    # Multivariate overhead: one 2-channel base vs one univariate base of
    # the same total point count (2x series), default DTW path in both.
    mv = _dataset(config, channels=2, name="metrics-mv")
    engine.load_dataset(mv, min_length=8, max_length=12)
    mv_base = engine.base(mv.name)
    mv_lo, mv_hi = mv_base.normalization_bounds
    mv_queries = [
        rng.normal(size=(9, 2)).cumsum(axis=0)
        for _ in range(config["queries"])
    ]
    engine.best_match(mv.name, mv_queries[0])
    t_mv = _timed(
        lambda: [engine.best_match(mv.name, q) for q in mv_queries],
        config["repeats"],
    )
    mv_exact = True
    for q in mv_queries:
        got = engine.best_match(mv.name, q)
        naive = _naive_best(
            mv_base, "dtw", (np.asarray(q) - mv_lo) / (mv_hi - mv_lo)
        )
        if not math.isclose(got.distance, naive, rel_tol=1e-9, abs_tol=1e-9):
            mv_exact = False
    t_uni = per_metric["dtw"]["query_seconds"]

    return {
        "config": {k: config[k] for k in ("series", "length", "queries")},
        "per_metric": per_metric,
        "all_metrics_exact": all(
            entry["exact_vs_brute_force"] for entry in per_metric.values()
        ),
        "multivariate": {
            "channels": 2,
            "query_seconds": round(t_mv, 4),
            "per_query_ms": round(t_mv / len(mv_queries) * 1e3, 3),
            "overhead_vs_univariate": round(t_mv / t_uni, 2) if t_uni else None,
            "exact_vs_brute_force": mv_exact,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)
    report = run_metrics(QUICK if args.quick else FULL)
    text = json.dumps(report, indent=2)
    print(text)
    if args.output is not None:
        args.output.write_text(text + "\n")
    if not report["all_metrics_exact"]:
        print("ERROR: a metric scan diverged from brute force", file=sys.stderr)
        return 1
    if not report["multivariate"]["exact_vs_brute_force"]:
        print(
            "ERROR: multivariate DTW diverged from brute force",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

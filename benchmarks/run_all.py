"""Machine-readable performance snapshot for the perf trajectory.

``python benchmarks/run_all.py --quick`` runs a small, deterministic
subset of the E1/E5/E15/E16 measurements directly (no pytest) and prints
one JSON document: base-construction time, per-query latency of the
exact cascade with and without the representative prefilter, the
brute-force scan and the UCR Suite baseline, the cross-check that the
cascade returns the brute-force scan's best match, the streaming
subsystem's sustained
per-append cost vs rebuild-per-append with a monitor-exactness gate
against brute-force SPRING, and the multi-query section — ``query_batch``
throughput against sequential single-query submission over the real HTTP
server.  The representative-cascade and batch-query numbers (the PR-3
acceptance measurements, gated on prefilter/batch exactness) are also
written to ``BENCH_pr3.json``.  The full pytest-benchmark suite remains
the authoritative record (``pytest benchmarks/``); this entry point
exists so CI and scripts can track the headline numbers cheaply across
PRs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.baselines.brute_force import BruteForceSearcher
from repro.baselines.spring import SpringMatcher
from repro.baselines.ucr_suite import UcrSuiteSearcher
from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.deadline import Deadline
from repro.core.query import QueryProcessor
from repro.core.seasonal import find_seasonal_patterns
from repro.core.sensitivity import similarity_profile
from repro.core.threshold import recommend_thresholds
from repro.data.matters import STATE_ABBREVIATIONS, build_matters_collection
from repro.data.timeseries import TimeSeries
from repro.exceptions import DeadlineExceeded
from repro.server.http import OnexHttpServer
from repro.server.service import OnexService
from repro.stream import StreamIngestor
from repro.testing import faults

from bench_durability import run_durability
from bench_metrics import run_metrics
from bench_pool import gates as pool_gates
from bench_pool import run_pool
from bench_serving_load import run_serving_load, run_tracing_overhead

QUICK = {"states": 12, "years": 16, "queries": 2, "repeats": 1, "appends": 120,
         "load_clients": 2, "load_requests": 6, "pool_workers": (0, 2),
         "build": {"similarity_threshold": 0.1, "min_length": 5, "max_length": 10}}
FULL = {"states": 50, "years": 40, "queries": 3, "repeats": 3, "appends": 600,
        "load_clients": 4, "load_requests": 25, "pool_workers": (0, 2, 4),
        "build": {"similarity_threshold": 0.05, "min_length": 5, "max_length": 24}}


def _timed(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(config: dict) -> dict:
    dataset = build_matters_collection(
        indicators=("GrowthRate",),
        states=STATE_ABBREVIATIONS[: config["states"]],
        years=config["years"],
        min_years=max(10, config["years"] - 6),
        seed=5,
    )
    base = OnexBase(
        dataset, BuildConfig(similarity_threshold=0.2, min_length=5, max_length=8)
    )
    build_seconds = _timed(base.build, config["repeats"])

    rng = np.random.default_rng(55)
    queries = [rng.uniform(size=6) for _ in range(config["queries"])]
    cascade = QueryProcessor(base, QueryConfig(mode="exact"))
    no_prefilter = QueryProcessor(
        base, QueryConfig(mode="exact", use_rep_prefilter=False)
    )
    fast = QueryProcessor(base, QueryConfig(mode="fast", refine_groups=1))
    brute = BruteForceSearcher(base.dataset)
    ucr = UcrSuiteSearcher(base.dataset)

    results_cascade = [cascade.best_match(q, normalize=False) for q in queries]
    results_no_prefilter = [no_prefilter.best_match(q, normalize=False) for q in queries]
    results_brute = [brute.best_match(q, base.lengths) for q in queries]

    def same(got, want):
        return all(a.ref == b.ref and a.distance == b.distance for a, b in zip(got, want))

    exact = same(results_cascade, results_brute)
    prefilter_identical = same(results_cascade, results_no_prefilter)

    t_cascade = _timed(
        lambda: [cascade.best_match(q, normalize=False) for q in queries],
        config["repeats"],
    )
    t_no_prefilter = _timed(
        lambda: [no_prefilter.best_match(q, normalize=False) for q in queries],
        config["repeats"],
    )
    t_brute = _timed(
        lambda: [brute.best_match(q, base.lengths) for q in queries],
        config["repeats"],
    )
    t_fast = _timed(
        lambda: [fast.best_match(q, normalize=False) for q in queries],
        config["repeats"],
    )
    t_ucr = _timed(
        lambda: [ucr.best_match(q) for q in queries], config["repeats"]
    )
    cascade.best_match(queries[0], normalize=False)
    rep_stats = cascade.last_stats

    stream_report = run_stream(config)
    batch_report = run_batch_queries(config)
    analytics_report = run_analytics(config, dataset, base)
    build_report = run_build(config, dataset)
    resilience_report = run_resilience(config, base)
    serving_report = run_serving_load(
        clients=config["load_clients"],
        requests_per_client=config["load_requests"],
    )
    tracing_report = run_tracing_overhead(
        repeats=config["repeats"], queries=config["queries"] * 2
    )
    durability_report = run_durability(
        appends=config["appends"],
        sizes=(config["appends"] // 3, config["appends"]),
    )
    metrics_report = run_metrics(
        {
            "series": max(4, config["states"] // 2),
            "length": 10 * config["years"] // 4,
            "queries": config["queries"],
            "repeats": config["repeats"],
        }
    )
    pool_report = run_pool(
        worker_counts=tuple(config["pool_workers"]),
        clients=config["load_clients"],
        requests_per_client=config["load_requests"],
    )

    return {
        "config": config,
        "pool": pool_report,
        "metrics": metrics_report,
        "durability": durability_report,
        "observability": {
            "serving_load": serving_report,
            "tracing_overhead": tracing_report,
        },
        "resilience": resilience_report,
        "build_pipeline": build_report,
        "analytics": analytics_report,
        "stream": stream_report,
        "base": {
            "series": len(dataset),
            "subsequences": base.stats.subsequences,
            "groups": base.stats.groups,
            "compaction_ratio": round(base.stats.compaction_ratio, 2),
            "build_seconds": round(build_seconds, 4),
        },
        "query_seconds": {
            "onex_exact_cascade": round(t_cascade, 4),
            "onex_exact_no_prefilter": round(t_no_prefilter, 4),
            "onex_fast": round(t_fast, 4),
            "brute_force": round(t_brute, 4),
            "ucr_suite": round(t_ucr, 4),
        },
        "speedups": {
            "prefilter_on_vs_off": round(t_no_prefilter / t_cascade, 2),
            "cascade_vs_brute_force": round(t_brute / t_cascade, 2),
            "fast_vs_ucr": round(t_ucr / t_fast, 2),
        },
        "rep_cascade": {
            "representatives_total": rep_stats.representatives_total,
            "rep_dtw_calls": rep_stats.rep_dtw_calls,
            "rep_dtw_skipped": rep_stats.rep_dtw_skipped,
            "rep_lb_prunes": rep_stats.rep_lb_prunes,
        },
        "batch_query": batch_report,
        "exact_equals_brute_force": exact,
        "prefilter_paths_identical": prefilter_identical,
    }


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url + "/api",
        json.dumps(payload).encode(),
        {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as resp:
        return json.loads(resp.read())


def run_batch_queries(config: dict) -> dict:
    """E16 smoke: ``query_batch`` vs sequential submission over real HTTP.

    Eight concurrent exact-mode queries against the interactive demo
    configuration, submitted one request at a time and as one
    ``query_batch`` request; the batch must return identical matches.
    One batched request pays the HTTP round trip, JSON envelope, and
    dataset lock once; the engine then runs the single-query search per
    query, over as many threads as the process has CPUs.
    """
    rng = np.random.default_rng(55)
    queries = [[float(v) for v in rng.uniform(size=6)] for _ in range(8)]
    service = OnexService(QueryConfig(mode="exact"))
    with OnexHttpServer(service) as server:
        loaded = _post(
            server.url,
            {
                "op": "load_dataset",
                "params": {
                    "source": "matters",
                    "seed": 5,
                    "years": 16,
                    "min_years": 10,
                    "indicators": ["GrowthRate"],
                    "similarity_threshold": 0.2,
                    "min_length": 5,
                    "max_length": 8,
                },
            },
        )
        name = loaded["result"]["dataset"]
        # Warm both paths (first touch builds matrices and summaries).
        _post(
            server.url,
            {"op": "query_batch", "params": {"dataset": name, "queries": queries}},
        )
        t_seq, t_batch = float("inf"), float("inf")
        singles = batch = None
        for _ in range(max(3, config["repeats"])):
            start = time.perf_counter()
            singles = [
                _post(
                    server.url,
                    {"op": "best_match", "params": {"dataset": name, "query": q}},
                )
                for q in queries
            ]
            t_seq = min(t_seq, time.perf_counter() - start)
            start = time.perf_counter()
            batch = _post(
                server.url,
                {"op": "query_batch", "params": {"dataset": name, "queries": queries}},
            )
            t_batch = min(t_batch, time.perf_counter() - start)
    identical = all(
        entry["matches"][0]["match_series"] == single["result"]["match_series"]
        and entry["matches"][0]["match_start"] == single["result"]["match_start"]
        and abs(entry["matches"][0]["distance"] - single["result"]["distance"]) < 1e-9
        for single, entry in zip(singles, batch["result"]["results"])
    )
    return {
        "queries": len(queries),
        "sequential_seconds": round(t_seq, 4),
        "batch_seconds": round(t_batch, 4),
        "throughput_ratio": round(t_seq / t_batch, 2),
        "batch_results_identical": identical,
    }


def run_analytics(config: dict, dataset, base: OnexBase) -> dict:
    """E17: the analytics layer on the batched cascade, gated on exactness.

    Measures both sides of the rebuilt operations on the headline
    collection: the seasonal verification over the stitched GrowthRate
    panel (condensed-pairwise DTW vs the seed per-pair scalar scan), the
    verified sensitivity profile (one stacked member-DTW call per bucket
    vs one scalar ``dtw_path`` per ambiguous member), and the threshold
    recommendation (the base's normalised value store vs re-normalising
    and materialising every window).  Every pair must return identical
    results — the speedups are pure execution-strategy wins.
    """
    repeats = config["repeats"]
    panel = TimeSeries(
        "panel/GrowthRate", np.concatenate([s.values for s in dataset])
    )
    seasonal_args = (panel, 12, 0.1)
    t_seasonal_batched = _timed(
        lambda: find_seasonal_patterns(*seasonal_args, use_batching=True),
        repeats,
    )
    t_seasonal_scalar = _timed(
        lambda: find_seasonal_patterns(*seasonal_args, use_batching=False),
        repeats,
    )
    seasonal_batched = find_seasonal_patterns(*seasonal_args, use_batching=True)
    seasonal_scalar = find_seasonal_patterns(*seasonal_args, use_batching=False)
    seasonal_identical = [
        (p.starts, p.max_pairwise_dtw) for p in seasonal_batched
    ] == [(p.starts, p.max_pairwise_dtw) for p in seasonal_scalar]

    rng = np.random.default_rng(55)
    queries = [rng.uniform(size=6) for _ in range(config["queries"])]
    grid = (0.01, 0.02, 0.05, 0.1, 0.15, 0.2)

    def profiles(use_batching: bool):
        return [
            similarity_profile(
                base, q, grid, verify=True, normalize=False,
                use_batching=use_batching,
            )
            for q in queries
        ]

    t_profile_batched = _timed(lambda: profiles(True), repeats)
    t_profile_scalar = _timed(lambda: profiles(False), repeats)
    profile_identical = all(
        a.points == b.points and a.candidates == b.candidates
        for a, b in zip(profiles(True), profiles(False))
    )

    t_recommend_base = _timed(
        lambda: recommend_thresholds(dataset, 6, base=base), max(repeats, 3)
    )
    t_recommend_standalone = _timed(
        lambda: recommend_thresholds(dataset, 6), max(repeats, 3)
    )
    recommend_identical = recommend_thresholds(
        dataset, 6, base=base
    ) == recommend_thresholds(dataset, 6)

    return {
        "seasonal": {
            "series_points": len(panel),
            "length": seasonal_args[1],
            "threshold": seasonal_args[2],
            "patterns": len(seasonal_batched),
            "batched_seconds": round(t_seasonal_batched, 4),
            "scalar_seconds": round(t_seasonal_scalar, 4),
            "speedup": round(t_seasonal_scalar / t_seasonal_batched, 2),
            "identical": seasonal_identical,
        },
        "profile": {
            "queries": len(queries),
            "grid": list(grid),
            "batched_seconds": round(t_profile_batched, 4),
            "scalar_seconds": round(t_profile_scalar, 4),
            "speedup": round(t_profile_scalar / t_profile_batched, 2),
            "identical": profile_identical,
        },
        "recommend": {
            "base_seconds": round(t_recommend_base, 5),
            "standalone_seconds": round(t_recommend_standalone, 5),
            "speedup": round(t_recommend_standalone / t_recommend_base, 2),
            "identical": recommend_identical,
        },
    }


def run_build(config: dict, dataset) -> dict:
    """E18 section: the sharded build pipeline, fingerprint-gated.

    Times the seed's serial build loop (scalar extraction, the retained
    ``batched=False`` clustering path, dict assembly) against the
    vectorised single-worker build and the 4-worker process / thread
    fan-outs on the section's build configuration, interleaved and
    best-of-``repeats+2`` so frequency drift hits every variant alike.
    The hard gate — enforced in :func:`main` — is that all four builds
    produce the same :meth:`OnexBase.structure_fingerprint`.
    """
    from bench_build import seed_build

    build_cfg = config["build"]
    seed_base = OnexBase(dataset, BuildConfig(**build_cfg))
    one = OnexBase(dataset, BuildConfig(**build_cfg, num_workers=1))
    proc = OnexBase(dataset, BuildConfig(**build_cfg, num_workers=4))
    thr = OnexBase(
        dataset,
        BuildConfig(**build_cfg, num_workers=4, build_executor="thread"),
    )
    times = {"seed": [], "vectorised_1w": [], "parallel_4w_process": [],
             "parallel_4w_thread": []}
    for _ in range(config["repeats"] + 2):
        for key, fn in (
            ("seed", lambda: seed_build(seed_base)),
            ("vectorised_1w", one.build),
            ("parallel_4w_process", proc.build),
            ("parallel_4w_thread", thr.build),
        ):
            start = time.perf_counter()
            fn()
            times[key].append(time.perf_counter() - start)
    best = {key: min(vals) for key, vals in times.items()}
    want = one.structure_fingerprint()
    t_par = min(best["parallel_4w_process"], best["parallel_4w_thread"])
    return {
        "build_config": build_cfg,
        "subsequences": one.stats.subsequences,
        "groups": one.stats.groups,
        "seconds": {key: round(val, 4) for key, val in best.items()},
        "speedups": {
            "vectorised_1w_vs_seed": round(best["seed"] / best["vectorised_1w"], 2),
            "parallel_4w_best_vs_seed": round(best["seed"] / t_par, 2),
        },
        "per_length_seconds": {
            s.length: round(s.seconds, 4) for s in one.stats.per_length
        },
        "cpu_count": os.cpu_count(),
        "fingerprints_identical": (
            seed_base.structure_fingerprint() == want
            and proc.structure_fingerprint() == want
            and thr.structure_fingerprint() == want
        ),
    }


def run_resilience(config: dict, base: OnexBase) -> dict:
    """E19 section: the robustness layer, gated on three hard claims.

    On the headline base: (1) an ample deadline (two minutes) changes no
    exact answer — the checkpoints are pure control flow; (2) a 1 ms
    deadline turns each long-running operation into a structured
    :class:`DeadlineExceeded` in under 100 ms — cooperative checks bound
    the overrun to one chunk of work; (3) a server burst at 4x the
    admission cap sheds the excess with immediate 503s while every
    accepted request returns the exact answer.  All three are enforced
    in :func:`main`.
    """
    rng = np.random.default_rng(55)
    queries = [rng.uniform(size=6) for _ in range(config["queries"])]
    processor = QueryProcessor(base, QueryConfig(mode="exact"))
    ample = Deadline.after(120_000)
    guarded = [
        processor.best_match(q, normalize=False, deadline=ample) for q in queries
    ]
    bare = [processor.best_match(q, normalize=False) for q in queries]
    ample_identical = all(
        a.ref == b.ref and abs(a.distance - b.distance) < 1e-12
        for a, b in zip(guarded, bare)
    )

    query = queries[0]
    grid = (0.01, 0.05, 0.1, 0.2)
    operations = {
        "best_match": lambda d: processor.best_match(
            query, normalize=False, deadline=d
        ),
        "k_best": lambda d: processor.k_best_matches(
            query, 5, normalize=False, deadline=d
        ),
        "matches_within": lambda d: processor.matches_within(
            query, 0.5, normalize=False, deadline=d
        ),
        "sensitivity": lambda d: similarity_profile(
            base, query, grid, normalize=False, deadline=d
        ),
    }
    cutoff = {}
    for name, op in operations.items():
        started = time.perf_counter()
        try:
            op(Deadline.after(1.0))
            structured, stage = False, None
        except DeadlineExceeded as exc:
            structured, stage = True, exc.details()["stage"]
        cutoff[name] = {
            "elapsed_ms": round((time.perf_counter() - started) * 1e3, 2),
            "structured": structured,
            "stage": stage,
        }
    cutoff_ok = all(
        entry["structured"] and entry["elapsed_ms"] < 100.0
        for entry in cutoff.values()
    )

    overload = _run_overload_burst()
    return {
        "ample_deadline_identical": ample_identical,
        "one_ms_cutoff": cutoff,
        "one_ms_cutoff_ok": cutoff_ok,
        "overload": overload,
    }


def _run_overload_burst() -> dict:
    """Burst a small server at 4x its in-flight cap and classify outcomes."""
    query = [0.2, 0.5, 0.3, 0.6, 0.4, 0.3]

    def post(url: str, op: str, params: dict):
        request = urllib.request.Request(
            url + "/api",
            json.dumps({"op": op, "params": params}).encode(),
            {"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as resp:
                return resp.status, dict(resp.headers), json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers or {}), json.loads(exc.read())

    with OnexHttpServer(OnexService(), max_in_flight=2, max_queue=2) as server:
        _, _, loaded = post(
            server.url,
            "load_dataset",
            {"source": "matters", "seed": 5, "years": 16, "min_years": 10,
             "indicators": ["GrowthRate"], "similarity_threshold": 0.2,
             "min_length": 5, "max_length": 8},
        )
        name = loaded["result"]["dataset"]
        want = post(server.url, "best_match", {"dataset": name, "query": query})
        want_distance = want[2]["result"]["distance"]

        outcomes = []
        lock = threading.Lock()

        def one():
            started = time.perf_counter()
            status, headers, body = post(
                server.url, "best_match", {"dataset": name, "query": query}
            )
            with lock:
                outcomes.append(
                    (status, headers, body, time.perf_counter() - started)
                )

        with faults.inject("server.handle", "sleep", seconds=0.2):
            threads = [threading.Thread(target=one) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

    accepted = [entry for entry in outcomes if entry[0] == 200]
    shed = [entry for entry in outcomes if entry[0] == 503]
    accepted_exact = bool(accepted) and all(
        body["ok"]
        and abs(body["result"]["distance"] - want_distance) < 1e-9
        and body["result"]["exact"]
        for _, _, body, _ in accepted
    )
    shed_structured = bool(shed) and all(
        headers.get("Retry-After") == "1"
        and body["error"]["type"] == "OverloadedError"
        for _, headers, body, _ in shed
    )
    shed_ms = sorted(seconds * 1e3 for _, _, _, seconds in shed) or [0.0]
    return {
        "burst": len(outcomes),
        "max_in_flight": 2,
        "max_queue": 2,
        "accepted": len(accepted),
        "shed": len(shed),
        "accepted_exact": accepted_exact,
        "shed_structured_503": shed_structured,
        "shed_p99_ms": round(
            shed_ms[min(len(shed_ms) - 1, round(0.99 * len(shed_ms)))], 2
        ),
    }


def run_stream(config: dict) -> dict:
    """E15 smoke: per-append ingest cost, rebuild ratio, monitor exactness."""
    rng = np.random.default_rng(71)
    arrays = [rng.normal(size=120).cumsum() for _ in range(4)]
    build = dict(similarity_threshold=0.1, min_length=8, max_length=10)

    def fresh_base() -> OnexBase:
        from repro.data.dataset import TimeSeriesDataset

        dataset = TimeSeriesDataset.from_arrays(
            [a.copy() for a in arrays], name="stream-smoke"
        )
        base = OnexBase(dataset, BuildConfig(**build))
        base.build()
        return base

    base = fresh_base()
    rebuild_seconds = _timed(base.build, config["repeats"])

    ingestor = StreamIngestor(base)
    pattern = base.dataset[0].values[10:19]
    epsilon = float(len(pattern) * 0.08)
    ingestor.registry.register(pattern, epsilon, series="live")
    appends = config["appends"]
    # Half noise, half recurrences of a known series, exactly `appends`
    # points regardless of the configured count.
    motif = np.tile(arrays[0], -(-appends // arrays[0].shape[0]))
    stream = np.concatenate(
        [rng.normal(scale=0.1, size=appends // 2), motif]
    )[:appends]

    started = time.perf_counter()
    events = []
    for value in stream:
        events += ingestor.append_points("live", [float(value)])["events"]
    per_append = (time.perf_counter() - started) / appends

    reference = SpringMatcher(pattern, epsilon)
    want = reference.extend(base.dataset["live"].values)
    got = [e for e in events if e["kind"] == "match"]
    events_exact = [(e["start"], e["end"]) for e in got] == [
        (w.start, w.end) for w in want
    ] and all(abs(e["distance"] - w.distance) < 1e-9 for e, w in zip(got, want))

    return {
        "appends": appends,
        "per_append_ms": round(per_append * 1e3, 4),
        "rebuild_ms": round(rebuild_seconds * 1e3, 2),
        "incremental_vs_rebuild": round(rebuild_seconds / per_append, 1),
        "windows_indexed": ingestor.windows_indexed,
        "monitor_events": len(events),
        "events_exact_vs_brute_force_spring": events_exact,
    }


#: ``--<flag>-output`` -> (report key of that PR's section, what it holds).
_SECTION_FLAGS = {
    "pr4": ("analytics", "E17 analytics"),
    "pr5": ("build_pipeline", "E18 build-pipeline"),
    "pr6": ("resilience", "E19 resilience"),
    "pr7": ("observability", "E20 observability"),
    "pr8": ("durability", "E21 durability"),
    "pr9": ("metrics", "E22 metric-registry"),
    "pr10": ("pool", "E23 worker-pool"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny configuration for CI smoke runs (seconds, not minutes)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="also write the JSON here"
    )
    parser.add_argument(
        "--pr3-output",
        type=Path,
        default=None,
        help="write the representative-cascade + batch-query section here",
    )
    for flag, (key, what) in _SECTION_FLAGS.items():
        parser.add_argument(
            f"--{flag}-output",
            type=Path,
            default=None,
            help=f"write the {what} section here",
        )
    args = parser.parse_args(argv)

    report = run(QUICK if args.quick else FULL)
    text = json.dumps(report, indent=2)
    print(text)
    if args.output is not None:
        args.output.write_text(text + "\n")
    pr3 = {
        "config": report["config"],
        "exact_query_seconds": {
            "rep_cascade": report["query_seconds"]["onex_exact_cascade"],
            "no_prefilter": report["query_seconds"]["onex_exact_no_prefilter"],
            "brute_force": report["query_seconds"]["brute_force"],
        },
        "speedups": {
            "prefilter_on_vs_off": report["speedups"]["prefilter_on_vs_off"],
            "cascade_vs_brute_force": report["speedups"]["cascade_vs_brute_force"],
        },
        "rep_cascade": report["rep_cascade"],
        "batch_query": report["batch_query"],
        "exact_equals_brute_force": report["exact_equals_brute_force"],
        "prefilter_paths_identical": report["prefilter_paths_identical"],
    }
    # A section file is written only when its flag names a path (CI
    # passes every one); a bare ``--quick`` touches no tracked file.
    if args.pr3_output is not None:
        args.pr3_output.write_text(json.dumps(pr3, indent=2) + "\n")
    for flag, (key, _) in _SECTION_FLAGS.items():
        target = getattr(args, f"{flag}_output")
        if target is not None:
            section = {"config": report["config"], key: report[key]}
            target.write_text(json.dumps(section, indent=2) + "\n")
    metrics = report["metrics"]
    if not metrics["all_metrics_exact"]:
        print(
            "ERROR: a registered metric's registry scan diverged from a "
            "brute-force scan with its own pair kernel",
            file=sys.stderr,
        )
        return 1
    if not metrics["multivariate"]["exact_vs_brute_force"]:
        print(
            "ERROR: multivariate DTW diverged from brute force",
            file=sys.stderr,
        )
        return 1
    resilience = report["resilience"]
    if not resilience["ample_deadline_identical"]:
        print(
            "ERROR: an ample deadline changed exact-mode answers",
            file=sys.stderr,
        )
        return 1
    if not resilience["one_ms_cutoff_ok"]:
        print(
            "ERROR: a 1ms deadline did not yield a structured "
            "DeadlineExceeded within 100ms for every operation",
            file=sys.stderr,
        )
        return 1
    if not (
        resilience["overload"]["accepted_exact"]
        and resilience["overload"]["shed_structured_503"]
    ):
        print(
            "ERROR: overload burst broke exactness or shed without "
            "structured 503s",
            file=sys.stderr,
        )
        return 1
    if not report["build_pipeline"]["fingerprints_identical"]:
        print(
            "ERROR: parallel build fingerprint diverges from the serial build",
            file=sys.stderr,
        )
        return 1
    analytics = report["analytics"]
    for op in ("seasonal", "profile", "recommend"):
        if not analytics[op]["identical"]:
            print(
                f"ERROR: batched {op} analytics diverge from the seed "
                "scalar path",
                file=sys.stderr,
            )
            return 1
    if not report["exact_equals_brute_force"]:
        print(
            "ERROR: the exact cascade's best match is not the brute-force scan's",
            file=sys.stderr,
        )
        return 1
    if not report["prefilter_paths_identical"]:
        print(
            "ERROR: representative prefilter changed exact-mode matches",
            file=sys.stderr,
        )
        return 1
    if not report["batch_query"]["batch_results_identical"]:
        print(
            "ERROR: query_batch results diverge from sequential submission",
            file=sys.stderr,
        )
        return 1
    if not report["stream"]["events_exact_vs_brute_force_spring"]:
        print(
            "ERROR: monitor events diverge from brute-force SPRING",
            file=sys.stderr,
        )
        return 1
    obs = report["observability"]
    if obs["serving_load"]["errors"]:
        print(
            "ERROR: the serving-load burst saw client-visible failures",
            file=sys.stderr,
        )
        return 1
    if not (
        obs["serving_load"]["counters_monotone"]
        and obs["serving_load"]["counter_accounts_for_load"]
    ):
        print(
            "ERROR: /metrics counters regressed or undercounted the "
            "load burst",
            file=sys.stderr,
        )
        return 1
    if not obs["tracing_overhead"]["identical_traced_vs_untraced"]:
        print(
            "ERROR: activating a trace changed exact-mode matches",
            file=sys.stderr,
        )
        return 1
    if not obs["tracing_overhead"]["disabled_overhead_under_2pct"]:
        print(
            "ERROR: disabled-tracing span cost exceeds 2% of query latency",
            file=sys.stderr,
        )
        return 1
    durability = report["durability"]
    if not durability["recovery_identity"]["identical"]:
        print(
            "ERROR: recovered state diverges from the pre-crash service "
            "(fingerprint, query results, event-seq, or request-id dedup)",
            file=sys.stderr,
        )
        return 1
    if not durability["wal_overhead"]["overhead_under_15pct"]:
        print(
            "ERROR: WAL-on ingest overhead exceeds 15% of execution cost",
            file=sys.stderr,
        )
        return 1
    if not (
        durability["compaction"]["wal_bounded_by_cadence"]
        and durability["compaction"]["replay_bounded_by_cadence"]
    ):
        print(
            "ERROR: checkpoints failed to bound the WAL or the recovery "
            "replay by the cadence",
            file=sys.stderr,
        )
        return 1
    pool_problems = pool_gates(report["pool"])
    for message in pool_problems:
        print(f"ERROR: {message}", file=sys.stderr)
    if pool_problems:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

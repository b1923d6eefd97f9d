"""E16: the staged cascade's kernel budget and multi-query throughput.

Five measurements:

- the **rank bounds** (cheap summary bounds + lazy chunked exact DTW)
  against the same path under the zero bound (``ZeroBoundProcessor``,
  which verifies every representative up front) on the headline
  configuration — result-identical, never more representative DTW; both
  sides share the member stage, so the time ratio is the rank stage's
  own effect (about 1 at ST 0.2, where no bound is positive);
- **kernel calls per exact ``k_best``** on the MATTERS floor (50 series,
  23 740 subsequences, ST 0.2): one ragged call per representative chunk
  and per drained member chunk, plus a path-length call for the rows
  that pass the raw test;
- the **rank stage** at ST 0.05 on the same floor (21 744 groups, the
  serving benchmark's ``explore_fine`` base): µs per representative of
  the one table pass (ragged LB_Kim + closed-form min/max band) on each
  backend, the C pass and its NumPy reference, held to
  the per-bucket breach-tensor bounds it replaced — never above them,
  within 1e-12 — Python-side kernel calls per ``matches_within``,
  answers identical to the zero-bound witness, and µs per fast
  ``k_best`` (k 5) and per ``matches_within`` spent in the walk on each
  backend (recorded, not gated);
- the **batch DTW kernel** in ns per cell at the three stack shapes the
  serving benchmark's cascade produces (a representative chunk, a member
  refinement with path lengths, a whole-bucket scan), bit-identical to
  the row-scan oracle ``dtw_path``;
- **``query_batch`` throughput** against sequential single-query
  submission over the real HTTP server at 8 concurrent queries on the
  interactive configuration — identical answers and never slower (one
  request pays the envelope/lock/dispatch once; the engine runs the
  single-query search per query).

As in E5, wall-clock factor floors are asserted locally and soft-gated
on shared CI runners (``ONEX_BENCH_SOFT=1``), where the result-identity
checks remain the hard gate.
"""

import os
import time
from collections.abc import Callable

import numpy as np
import pytest

import repro.core.query as query_module
from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.query import QueryProcessor
from repro.data.matters import STATE_ABBREVIATIONS, build_matters_collection
from repro.distances import native
from repro.distances.dtw import dtw_distance_batch, dtw_path
from repro.distances.lower_bounds import lb_kim_endpoints_batch
from repro.server.client import OnexClient
from repro.server.http import OnexHttpServer
from repro.server.service import OnexService
from conftest import ZeroBoundProcessor, _timed

SOFT = os.environ.get("ONEX_BENCH_SOFT") == "1"


def make_base(
    states: int, years: int, max_length: int = 8, threshold: float = 0.2
) -> OnexBase:
    dataset = build_matters_collection(
        indicators=("GrowthRate",),
        states=STATE_ABBREVIATIONS[:states],
        years=years,
        min_years=max(10, years - 6),
        seed=5,
    )
    base = OnexBase(
        dataset,
        BuildConfig(
            similarity_threshold=threshold, min_length=5, max_length=max_length
        ),
    )
    base.build()
    return base


def test_rep_prefilter_speedup(benchmark):
    """Lazy representative verification vs verifying every one up front."""
    base = make_base(50, 40)
    rng = np.random.default_rng(55)
    queries = [rng.uniform(size=6) for _ in range(3)]
    cascade = QueryProcessor(base, QueryConfig(mode="exact"))
    eager = ZeroBoundProcessor(base, QueryConfig(mode="exact"))

    def timed(processor):
        start = time.perf_counter()
        matches = [processor.best_match(q, normalize=False) for q in queries]
        return time.perf_counter() - start, matches

    def measure():
        t_new, m_new = timed(cascade)
        t_old, m_old = timed(eager)
        return t_new, t_old, m_new, m_old

    t_new, t_old, m_new, m_old = benchmark.pedantic(measure, rounds=3, iterations=1)
    for got, want in zip(m_new, m_old):
        assert got.ref == want.ref, "rank pruning changed the exact best match"
        assert abs(got.distance - want.distance) < 1e-9
    assert cascade.last_stats.rep_dtw_calls <= eager.last_stats.rep_dtw_calls
    benchmark.extra_info["cascade_seconds"] = round(t_new, 4)
    benchmark.extra_info["eager_seconds"] = round(t_old, 4)
    benchmark.extra_info["prefilter_on_vs_off"] = round(t_old / t_new, 2)
    benchmark.extra_info["rep_dtw_skipped"] = cascade.last_stats.rep_dtw_skipped


#: Kernel calls per exact ``k_best`` on the floor: 14.3 measured (five or
#: six representative chunks, six or seven drained chunks, two or three
#: path-length calls); one call per length per chunk would be ~70.
KERNEL_CALLS_CEILING = 16.0


def floor_queries(base: OnexBase, count: int = 20) -> list[np.ndarray]:
    """Noisy windows of the floor dataset, lengths 6..24."""
    rng = np.random.default_rng(3)
    queries = []
    for _ in range(count):
        values = base.dataset[int(rng.integers(len(base.dataset)))].values
        length = int(rng.integers(6, 25))
        start = int(rng.integers(0, len(values) - length + 1))
        queries.append(values[start : start + length] + rng.normal(scale=0.005, size=length))
    return queries


def count_kernel_calls(monkeypatch) -> list:
    """Route the cascade's kernel through a counter; returns its call log."""
    kernel = query_module.dtw_distance_batch
    calls = []

    def counting_kernel(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(query_module, "dtw_distance_batch", counting_kernel)
    return calls


def test_kernel_calls_per_exact_k_best(benchmark, monkeypatch):
    """One ragged call per chunk, not one per length bucket of a chunk."""
    base = make_base(50, 40, max_length=24)
    queries = floor_queries(base)
    processor = QueryProcessor(base, QueryConfig(mode="exact"))
    calls = count_kernel_calls(monkeypatch)

    def measure():
        calls.clear()
        for q in queries:
            processor.k_best_matches(q, 5, normalize=False)
        return len(calls) / len(queries)

    per_query = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["kernel_calls_per_k_best"] = round(per_query, 2)
    benchmark.extra_info["member_dtw_calls"] = processor.last_stats.member_dtw_calls
    benchmark.extra_info["member_path_calls"] = processor.last_stats.member_path_calls
    if not SOFT:
        assert per_query <= KERNEL_CALLS_CEILING, (
            f"{per_query:.1f} kernel calls per exact k_best > {KERNEL_CALLS_CEILING}"
        )


#: One table pass over the 21 744 representatives of the ST 0.05 floor:
#: 0.045 µs per representative measured in NumPy (1 ms a query; the twenty
#: per-bucket breach tensors it replaced took 0.27 µs), ceiling about twice;
#: the C pass measures about 0.013 µs, 0.010 in its AVX-512 clone.  The
#: gate holds whichever backend loaded; both are recorded.
RANK_US_PER_REP_CEILING = 0.1
#: Python-side kernel calls (``dtw_distance_batch``) per
#: ``matches_within`` there: 10.3 measured on the NumPy path — four
#: length-sorted chunks of a representative, a cost and a path-length
#: call, the last skipped by a chunk nothing survives in — where a call
#: triple per length bucket made 46.3.  Where the kernels loaded, the
#: native walk verifies each chunk's representatives in its own call, and
#: 6.3 are counted.
RANGE_KERNEL_CALLS_CEILING = 12.0


def breach_tensor_bounds(base: OnexBase, q: np.ndarray) -> np.ndarray:
    """The rank bounds as they were computed before the closed form: per
    bucket, LB_Kim and the summed ``(G, n)`` min/max-band breach tensor."""
    parts = []
    for bucket in base.buckets():
        rows = bucket.centroids
        lo, hi = rows.min(axis=1, keepdims=True), rows.max(axis=1, keepdims=True)
        breach = np.where(q > hi, q - hi, np.where(q < lo, lo - q, 0.0))
        kim = lb_kim_endpoints_batch(q, rows[:, [0, 1, -2, -1]], bucket.length)
        parts.append(np.maximum(kim, breach.sum(axis=1)))
    return np.concatenate(parts)


def walk_us(
    processor: QueryProcessor,
    ask: Callable[[QueryProcessor, np.ndarray], object],
    queries: list[np.ndarray],
    repeats: int = 3,
) -> float:
    """Best-of-*repeats* µs per query that ``ask(processor, q)`` spends in
    the walk: rank pass, verification, choice and member refinement."""
    spent: list[float] = []
    walk = QueryProcessor._walk

    def timed(self, *args):
        start = time.perf_counter()
        try:
            return walk(self, *args)
        finally:
            spent[-1] += time.perf_counter() - start

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueryProcessor, "_walk", timed)
        for _ in range(repeats):
            spent.append(0.0)
            for q in queries:
                ask(processor, q)
    return min(spent) * 1e6 / len(queries)


#: The walks timed per backend: a fast ``k_best`` (k 5) and the range
#: query the kernel calls are counted on.
WALKS: dict[str, Callable[[QueryProcessor, np.ndarray], object]] = {
    "fast_k_best": lambda p, q: p.k_best_matches(q, 5, normalize=False),
    "matches_within": lambda p, q: p.matches_within(q, 0.02, normalize=False),
}


def test_rank_stage_at_a_fine_threshold(benchmark, monkeypatch):
    """One pass over one table ranks the base; a range query is a dozen
    kernel calls, not three per length bucket."""
    base = make_base(50, 40, max_length=24, threshold=0.05)
    assert base.stats.subsequences == 23_740 and base.stats.groups > 20_000
    queries = floor_queries(base)
    table = base.rep_table
    for q in queries:
        bounds, oracle = table.cheap_bounds(q), breach_tensor_bounds(base, q)
        assert (bounds <= oracle).all(), "closed form above the breach sum"
        assert np.abs(oracle - bounds).max() <= 1e-12
    cascade = QueryProcessor(base, QueryConfig())
    eager = ZeroBoundProcessor(base, QueryConfig())
    for q in queries[:5]:
        got = cascade.matches_within(q, 0.02, normalize=False)
        want = eager.matches_within(q, 0.02, normalize=False)
        assert [(m.ref, m.distance) for m in got] == [(m.ref, m.distance) for m in want]
    calls = count_kernel_calls(monkeypatch)

    backends = ["numpy"] if native.KERNEL is None else ["native", "numpy"]

    def measure():
        per_rep, walked = {}, {}
        for backend in backends:
            with pytest.MonkeyPatch.context() as patch:
                if backend == "numpy":
                    patch.setattr(native, "KERNEL", None)
                seconds = min(
                    _best_seconds(lambda: table.cheap_bounds(q), inner=5) for q in queries
                )
                walked[backend] = [walk_us(cascade, ask, queries) for ask in WALKS.values()]
            per_rep[backend] = seconds * 1e6 / table.count
        calls.clear()
        for q in queries:
            cascade.matches_within(q, 0.02, normalize=False)
        return per_rep, walked, len(calls) / len(queries)

    per_rep, walked, calls_per_query = benchmark.pedantic(measure, rounds=1, iterations=1)
    us_per_rep = per_rep[native.backend()]
    benchmark.extra_info["representatives"] = table.count
    benchmark.extra_info["rank_us_per_representative"] = {
        backend: round(us, 4) for backend, us in per_rep.items()
    }
    for at, name in enumerate(WALKS):
        benchmark.extra_info[f"walk_us_per_{name}"] = {
            backend: round(us[at], 1) for backend, us in walked.items()
        }
    benchmark.extra_info["kernel_calls_per_matches_within"] = round(calls_per_query, 2)
    if not SOFT:
        assert us_per_rep <= RANK_US_PER_REP_CEILING, (
            f"rank pass {us_per_rep:.3f} us per representative > {RANK_US_PER_REP_CEILING}"
        )
        assert calls_per_query <= RANGE_KERNEL_CALLS_CEILING, (
            f"{calls_per_query:.1f} kernel calls per matches_within > "
            f"{RANGE_KERNEL_CALLS_CEILING}"
        )


#: ``(candidates, length, with_path_length, ns-per-cell ceiling)``: about
#: twice what the NumPy kernel measures (33, 7.5 and 2.9 ns per cell on a
#: 2-core host); the C kernel's AVX-512 clone measures 4.4, 0.95 and 0.5
#: there (per-call overhead dominates the first shape).
KERNEL_SHAPES = (
    (19, 15, False, 60.0),
    (260, 20, True, 16.0),
    (1100, 24, False, 6.0),
)


def _best_seconds(call, repeats: int = 5, inner: int = 20) -> float:
    """Best-of-*repeats* seconds per call, *inner* calls per timing."""
    return _timed(lambda: [call() for _ in range(inner)], repeats) / inner


def test_kernel_ns_per_cell(benchmark):
    """The one batch kernel: cost per cell at the serving benchmark's shapes."""
    rng = np.random.default_rng(7)

    def measure():
        out = {}
        for g, n, with_plen, _ in KERNEL_SHAPES:
            query = rng.normal(size=n).cumsum()
            rows = rng.normal(size=(g, n)).cumsum(axis=1)
            got = dtw_distance_batch(query, rows, with_path_length=with_plen)
            dists, plens = got if with_plen else (got, None)
            for r in range(0, g, max(1, g // 8)):
                want = dtw_path(query, rows[r])
                assert dists[r] == want.distance, "kernel diverged from dtw_path"
                assert plens is None or plens[r] == want.path_length
            seconds = _best_seconds(
                lambda: dtw_distance_batch(query, rows, with_path_length=with_plen)
            )
            out[g, n] = seconds * 1e9 / (g * n * n)
        return out

    out = benchmark.pedantic(measure, rounds=1, iterations=1)
    for g, n, with_plen, ceiling in KERNEL_SHAPES:
        ns = out[g, n]
        suffix = "_with_path_length" if with_plen else ""
        benchmark.extra_info[f"ns_per_cell_{g}x{n}x{n}{suffix}"] = round(ns, 2)
        if not SOFT:
            assert ns <= ceiling, f"{g}x{n}x{n}: {ns:.1f} ns per cell > {ceiling}"


def test_query_batch_throughput(benchmark):
    """``query_batch`` vs sequential submission, end to end over HTTP."""
    rng = np.random.default_rng(55)
    queries = [[float(v) for v in rng.uniform(size=6)] for _ in range(8)]
    service = OnexService(QueryConfig(mode="exact"))
    with OnexHttpServer(service) as server:
        client = OnexClient(server.url)
        name = client.call(
            "load_dataset",
            {
                "source": "matters",
                "seed": 5,
                "years": 16,
                "min_years": 10,
                "indicators": ["GrowthRate"],
                "similarity_threshold": 0.2,
                "min_length": 5,
                "max_length": 8,
            },
        )["dataset"]
        # Warm both paths (first-touch builds member matrices/summaries).
        client.call("query_batch", {"dataset": name, "queries": queries})
        rounds: list[tuple[float, float]] = []

        def measure():
            start = time.perf_counter()
            singles = [
                client.call("best_match", {"dataset": name, "query": q})
                for q in queries
            ]
            t_seq = time.perf_counter() - start
            start = time.perf_counter()
            batch = client.call("query_batch", {"dataset": name, "queries": queries})
            rounds.append((t_seq, time.perf_counter() - start))
            return singles, batch

        singles, batch = benchmark.pedantic(measure, rounds=5, iterations=1)
    for single, entry in zip(singles, batch["results"]):
        best = entry["matches"][0]
        assert best["match_series"] == single["match_series"]
        assert best["match_start"] == single["match_start"]
        assert abs(best["distance"] - single["distance"]) < 1e-9
    # Wall-clock per round is noisy (HTTP + thread spawn per request);
    # gate on the best round of each side, as `_timed` does elsewhere.
    t_seq = min(t for t, _ in rounds)
    t_batch = min(t for _, t in rounds)
    ratio = t_seq / t_batch
    benchmark.extra_info["sequential_seconds"] = round(t_seq, 4)
    benchmark.extra_info["batch_seconds"] = round(t_batch, 4)
    benchmark.extra_info["throughput_ratio"] = round(ratio, 2)
    if not SOFT:
        assert ratio >= 1.0, f"query_batch only {ratio:.2f}x sequential submission"

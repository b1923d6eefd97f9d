"""E18: the sharded, vectorised base-construction pipeline vs the seed build.

The offline construction was the last serial layer: the seed extracted
windows one Python loop iteration at a time, clustered with row-at-a-time
join bookkeeping, and repaired drafts one by one.  PR 5 rebuilt it as a
per-length shard pipeline (strided extraction, batched scan joins with
prescreened distance evaluation, one flat masked repair evaluation per
round) fanned over a process or thread pool — **result-identical** at
every setting, which is the hard gate here: each timed variant must
produce the same :meth:`OnexBase.structure_fingerprint` as a replica of
the seed's build loop.

The headline measurement uses the 50-states x 40-years collection at a
tight accuracy threshold (ST = 0.05, the middle of the E17 analytics
grid) over lengths 5..24 — the preprocessing regime the paper's
"huge number of subsequences" challenge describes, where the seed build
collapses.  Factor floors (vectorised single-worker >= 1.5x, the 4-worker
build on its best backend >= 2x; the PR-5 target is 3x, which this box
reaches on good runs and multi-core hardware reaches with margin — a
single-core container only sees the vectorisation share of the sharding)
are asserted locally and soft-gated on shared CI runners
(``ONEX_BENCH_SOFT=1``), where the fingerprint identity remains the hard
gate.
"""

import os
import time

import numpy as np
import pytest

from repro.core import grouping
from repro.core.base import LengthBucket, OnexBase
from repro.core.config import BuildConfig
from repro.core.grouping import cluster_subsequences
from repro.data.matters import STATE_ABBREVIATIONS, build_matters_collection

SOFT = os.environ.get("ONEX_BENCH_SOFT") == "1"

#: The E18 headline build configuration (see module docstring).
HEADLINE = dict(similarity_threshold=0.05, min_length=5, max_length=24)


def headline_dataset(states=50, years=40):
    return build_matters_collection(
        indicators=("GrowthRate",),
        states=STATE_ABBREVIATIONS[:states],
        years=years,
        min_years=max(10, years - 6),
        seed=5,
    )


def seed_build(base: OnexBase) -> None:
    """Replica of the seed's serial build loop, on the same invariants.

    Scalar per-window extraction, the reference clustering (the private
    row-at-a-time scan and per-draft round evaluation, substituted for
    the one production path for the duration of this call), and the
    ref-keyed dict assembly; this is the "current serial" baseline the
    PR-5 acceptance factors are measured against.
    """
    cfg = base.config
    dataset = base.dataset
    base._buckets = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grouping, "_scan_batched", grouping._scan_reference)
        patch.setattr(grouping, "_evaluate_round", grouping._evaluate_round_reference)
        for length in range(cfg.min_length, cfg.max_length + 1):
            refs = list(dataset.iter_subsequences(length, step=cfg.step))
            if not refs:
                continue
            matrix = np.empty((len(refs), length), dtype=np.float64)
            for k, ref in enumerate(refs):
                matrix[k] = dataset.values(ref)
            groups = cluster_subsequences(matrix, refs, cfg.group_radius)
            row_of = {ref: k for k, ref in enumerate(refs)}
            members = [m for g in groups for m in g.members]
            base._buckets[length] = LengthBucket(
                length,
                np.array([(m.series_index, m.start) for m in members], dtype=np.int64),
                np.cumsum([0] + [g.cardinality for g in groups]),
                matrix[[row_of[m] for m in members]],
                np.array([g.centroid for g in groups]),
                np.array([g.ed_radius for g in groups]),
                np.array([g.cheb_radius for g in groups]),
                writable=True,
            )


def build_with(dataset, **overrides) -> OnexBase:
    base = OnexBase(dataset, BuildConfig(**{**HEADLINE, **overrides}))
    base.build()
    return base


def test_build_pipeline_speedup(benchmark):
    """Vectorised + sharded build vs the seed loop, fingerprint-gated."""
    dataset = headline_dataset()
    seed_base = OnexBase(dataset, BuildConfig(**HEADLINE))

    def timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    one = build_with(dataset)
    proc = build_with(dataset, num_workers=4)
    thr = build_with(dataset, num_workers=4, build_executor="thread")

    def measure():
        # Interleaved best-of-3: each round times every variant back to
        # back, so frequency scaling / cache state drift hits them all
        # alike and the minima are comparable.
        times = {"seed": [], "one": [], "proc": [], "thr": []}
        for _ in range(3):
            times["seed"].append(timed(lambda: seed_build(seed_base)))
            times["one"].append(timed(one.build))
            times["proc"].append(timed(proc.build))
            times["thr"].append(timed(thr.build))
        return {k: min(v) for k, v in times.items()}

    best = benchmark.pedantic(measure, rounds=1, iterations=1)
    t_seed, t_one, t_proc, t_thr = (
        best["seed"], best["one"], best["proc"], best["thr"]
    )
    # Hard gate: every execution strategy builds the identical base.
    want = one.structure_fingerprint()
    assert proc.structure_fingerprint() == want
    assert thr.structure_fingerprint() == want
    assert seed_base.structure_fingerprint() == want

    ratio_one = t_seed / t_one
    ratio_par = t_seed / min(t_proc, t_thr)
    benchmark.extra_info["seed_seconds"] = round(t_seed, 4)
    benchmark.extra_info["vectorised_1w_seconds"] = round(t_one, 4)
    benchmark.extra_info["parallel_4w_process_seconds"] = round(t_proc, 4)
    benchmark.extra_info["parallel_4w_thread_seconds"] = round(t_thr, 4)
    benchmark.extra_info["speedup_vectorised_1w"] = round(ratio_one, 2)
    benchmark.extra_info["speedup_parallel_4w_best"] = round(ratio_par, 2)
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    if not SOFT:
        assert ratio_one >= 1.5
        assert ratio_par >= 2.0


def test_parallel_matches_serial_across_configs(benchmark):
    """Fingerprint equality on step>1 / loose-ST variants too."""
    dataset = headline_dataset(states=12, years=16)

    def check():
        pairs = []
        for overrides in (
            dict(similarity_threshold=0.2, max_length=10),
            dict(step=2),
            dict(similarity_threshold=0.3, min_length=6, max_length=9, step=3),
        ):
            serial = build_with(dataset, **overrides)
            parallel = build_with(dataset, num_workers=4, **overrides)
            pairs.append(
                (serial.structure_fingerprint(), parallel.structure_fingerprint())
            )
        return pairs

    pairs = benchmark.pedantic(check, rounds=1, iterations=1)
    assert all(a == b for a, b in pairs)


def test_extraction_kernel_speed(benchmark):
    """Strided `subsequence_matrix` vs the seed per-window copy loop."""
    dataset = headline_dataset().normalized()
    lengths = range(HEADLINE["min_length"], HEADLINE["max_length"] + 1)

    def scalar():
        for length in lengths:
            refs = list(dataset.iter_subsequences(length))
            matrix = np.empty((len(refs), length), dtype=np.float64)
            for k, ref in enumerate(refs):
                matrix[k] = dataset.values(ref)

    def strided():
        for length in lengths:
            dataset.subsequence_matrix(length)

    def measure():
        start = time.perf_counter()
        scalar()
        t_scalar = time.perf_counter() - start
        start = time.perf_counter()
        strided()
        return t_scalar, time.perf_counter() - start

    t_scalar, t_strided = benchmark.pedantic(measure, rounds=2, iterations=1)
    benchmark.extra_info["scalar_seconds"] = round(t_scalar, 4)
    benchmark.extra_info["strided_seconds"] = round(t_strided, 4)
    benchmark.extra_info["speedup"] = round(t_scalar / t_strided, 2)
    if not SOFT:
        assert t_scalar / t_strided >= 1.2

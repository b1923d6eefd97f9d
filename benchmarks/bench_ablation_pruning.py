"""E9 (§3.3): query-processor optimisation ablation.

The paper names two online optimisations: bounding-envelope/endpoint
lower bounds and early pruning of unpromising candidate groups (the
ED→DTW transfer inequality).  We run the exact-mode query with each
toggled and record both latency and the work counters, verifying results
never change (the bounds are provable, so pruning is free accuracy-wise).
The rank stage has no toggle: its rows run the same cascade under the
zero bound (``ZeroBoundProcessor``), which verifies every representative.
"""

import pytest

from repro.core.config import QueryConfig
from repro.core.query import QueryProcessor
from repro.data.dataset import SubsequenceRef
from conftest import ZeroBoundProcessor

#: name -> (processor class, config)
CONFIGS = {
    "all-on": (
        QueryProcessor,
        QueryConfig(mode="exact", use_lower_bounds=True, use_group_pruning=True),
    ),
    "no-lower-bounds": (
        QueryProcessor,
        QueryConfig(mode="exact", use_lower_bounds=False, use_group_pruning=True),
    ),
    "no-group-pruning": (
        QueryProcessor,
        QueryConfig(mode="exact", use_lower_bounds=True, use_group_pruning=False),
    ),
    "zero-rank-bound": (ZeroBoundProcessor, QueryConfig(mode="exact")),
    "all-off": (
        ZeroBoundProcessor,
        QueryConfig(mode="exact", use_lower_bounds=False, use_group_pruning=False),
    ),
}


def make_processor(base, name: str) -> QueryProcessor:
    cls, config = CONFIGS[name]
    return cls(base, config)


@pytest.fixture(scope="module")
def query_ref(matters_base):
    index = matters_base.dataset.index_of("MA/GrowthRate")
    return SubsequenceRef(index, 0, 6)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pruning_ablation(benchmark, matters_base, query_ref, name):
    processor = make_processor(matters_base, name)
    match = benchmark(processor.best_match, query_ref)
    stats = processor.last_stats
    benchmark.extra_info["config"] = name
    benchmark.extra_info["distance"] = round(match.distance, 6)
    benchmark.extra_info["groups_pruned"] = stats.groups_pruned
    benchmark.extra_info["members_scanned"] = stats.members_scanned
    benchmark.extra_info["member_dtw_calls"] = stats.member_dtw_calls


def test_ablation_results_identical(benchmark, matters_base, query_ref):
    """Pruning must be behaviour-preserving: same match in every config."""

    def run():
        return [
            make_processor(matters_base, name).best_match(query_ref)
            for name in CONFIGS
        ]

    matches = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len({m.ref for m in matches}) == 1
    assert len({round(m.distance, 12) for m in matches}) == 1


def test_pruning_saves_member_scans(benchmark, matters_base, query_ref):
    """Quantify the work saved by the transfer-inequality group pruning."""

    def run():
        on = make_processor(matters_base, "all-on")
        off = make_processor(matters_base, "all-off")
        on.best_match(query_ref)
        off.best_match(query_ref)
        return on.last_stats.members_scanned, off.last_stats.members_scanned

    scanned_on, scanned_off = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["members_scanned_with_pruning"] = scanned_on
    benchmark.extra_info["members_scanned_without"] = scanned_off
    benchmark.extra_info["scan_reduction"] = (
        round(scanned_off / scanned_on, 2) if scanned_on else float("inf")
    )
    assert scanned_on <= scanned_off

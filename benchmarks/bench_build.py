"""E18: base construction — build seconds and group counts of the one path.

A build is appends to an empty base: every series of the normalised
collection goes, in series order, through ingestion's decide/apply pair
(DESIGN.md §5).  This file times that one path on the E1 headline
collection (50 states x 40 years, lengths 5..24) at the two thresholds the
serving benchmark builds, ST 0.05 and 0.2.

The group counts are the hard gate: the construction is deterministic and
bit-identical on both kernel backends, so a count that moves means the
grouping moved.  The build seconds are pytest-benchmark's three rounds.
"""

import os

import pytest

from repro.core.base import OnexBase
from repro.core.config import BuildConfig
from repro.data.matters import build_matters_collection
from repro.distances import native

#: Windows of lengths 5..24 over the collection, and the groups the one
#: path forms from them at each threshold.
WINDOWS = 23_740
GROUPS = {0.05: 21_744, 0.2: 949}


@pytest.mark.parametrize("similarity_threshold", sorted(GROUPS))
def test_build_seconds_and_groups(benchmark, similarity_threshold):
    dataset = build_matters_collection(
        seed=5, years=40, min_years=34, indicators=("GrowthRate",)
    )
    base = OnexBase(
        dataset,
        BuildConfig(
            similarity_threshold=similarity_threshold, min_length=5, max_length=24
        ),
    )

    stats = benchmark.pedantic(base.build, rounds=3, iterations=1)
    assert stats.subsequences == WINDOWS
    assert stats.groups == GROUPS[similarity_threshold]
    benchmark.extra_info["groups"] = stats.groups
    benchmark.extra_info["kernel"] = native.backend()
    benchmark.extra_info["cpu_count"] = os.cpu_count()

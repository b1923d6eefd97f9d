"""Varying-parameter exploration and base persistence.

Run with::

    python examples/sensitivity_and_persistence.py

Demonstrates the two operational features around the core demo flow:
(1) §2's "showing the changes in the similarity between sequences for
varying parameters" — the match-count sensitivity profile with its
certain/possible bounds from the ED→DTW transfer inequality — and
(2) the server-side preprocessing artifact: saving a built ONEX base to
disk and reattaching it without re-clustering.
"""

import tempfile
import time
from pathlib import Path

from repro import BuildConfig, OnexBase, QueryProcessor, build_matters_collection
from repro.core.sensitivity import similarity_profile
from repro.data.dataset import SubsequenceRef


def main() -> None:
    dataset = build_matters_collection(
        indicators=("GrowthRate",), years=16, min_years=10, seed=42
    )
    base = OnexBase(
        dataset, BuildConfig(similarity_threshold=0.1, min_length=5, max_length=8)
    )
    stats = base.build()
    print(f"Built base: {stats.subsequences} windows -> {stats.groups} groups "
          f"in {stats.build_seconds:.2f}s")

    # --- Sensitivity: how does the answer set grow with the threshold?
    ma = dataset.index_of("MA/GrowthRate")
    query = SubsequenceRef(ma, 0, 6)
    grid = (0.01, 0.02, 0.05, 0.1, 0.15, 0.2)
    profile = similarity_profile(base, query, grid, verify=True)
    print(f"\nMatch counts for MA/GrowthRate[0:6] over {profile.candidates} "
          "candidate subsequences:")
    print(f"  {'ST':>6}  {'certain':>8}  {'exact':>6}  {'possible':>9}")
    for point in profile.points:
        print(f"  {point.threshold:>6.2f}  {point.certain:>8}  "
              f"{point.exact:>6}  {point.possible:>9}")
    print(f"Suggested knee threshold: ST = {profile.knee()}")

    # --- Persistence: save once (base and dataset, one snapshot
    # directory at a fresh path), reload instantly.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matters-growth-base"
        base.save(path)
        size_kb = sum(f.stat().st_size for f in path.iterdir()) / 1024
        started = time.perf_counter()
        reloaded = OnexBase.load(path)
        load_seconds = time.perf_counter() - started
        print(f"\nSaved base: {size_kb:.0f} KiB; reloaded in "
              f"{load_seconds * 1000:.1f} ms "
              f"(vs {stats.build_seconds * 1000:.0f} ms to rebuild)")
        match = QueryProcessor(reloaded).best_match(query)
        print(f"Query against the reloaded base: best match "
              f"{match.series_name} (dist {match.distance:.4f})")


if __name__ == "__main__":
    main()

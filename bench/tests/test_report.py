"""The percentile helper, and BENCHMARK.json against the spec that reads it."""

import json

from bench import ROOT, report, spec


def test_median_is_always_reported():
    assert report.percentile([3.0, 1.0, 2.0], 0.50) == 2.0
    assert report.percentile([], 0.50) is None


def test_tail_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 200))  # 199 samples: 9 beyond the 95th
    assert report.percentile(samples, 0.95) is None
    samples = list(range(1, 201))  # 200 samples: 10 beyond
    assert report.percentile(samples, 0.95) == 190
    assert report.percentile(list(range(1, 101)), 0.90) == 90
    assert report.percentile(list(range(1, 100)), 0.90) is None


def test_benchmark_json_and_spec_describe_the_same_benchmark():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    # spec deploys exactly the workloads the file names, in its order
    assert [w["name"] for w in declared["workloads"]] == [w.name for w in spec.WORKLOADS]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    gated = spec.gated()
    assert any(m.name == "setup_s" and m.bound == max(g.bound for g in gated) for m in gated)
    assert all(0 < m.bound <= 0.25 for m in gated)
    names = [m.name for m in spec.end_to_end()]
    assert len(names) == len(set(names)) == 13, "a metric is gated or reported, not both"
    layers = [m.name for m in spec.per_layer()]
    assert len(layers) == len(set(layers)) and not set(layers) & set(names)

"""Request plans: deterministic per seed, and in the shares the spec states."""

from collections import Counter
from itertools import islice

import numpy as np

from bench import plan, spec


def _catalog() -> plan.Catalog:
    rng = np.random.default_rng(0)
    values = tuple(np.cumsum(rng.normal(size=n)) for n in (34, 36, 40, 38, 35, 40))
    return plan.Catalog(
        dataset="toy",
        names=tuple(f"s{i}" for i in range(len(values))),
        values=values,
        lo=float(min(v.min() for v in values)),
        hi=float(max(v.max() for v in values)),
    )


def _first(stream, n):
    return list(islice(stream, n))


def _rendered(workload_name: str, seed: int, n: int = 200) -> bytes:
    workload = spec.WORKLOAD_BY_NAME[workload_name]
    return plan.render(_first(plan.stream(workload, _catalog(), seed), n))


def test_same_seed_gives_a_byte_identical_stream():
    for workload in spec.WORKLOADS:
        assert _rendered(workload.name, 7) == _rendered(workload.name, 7)


def test_different_seed_gives_a_different_stream():
    for workload in spec.WORKLOADS:
        assert _rendered(workload.name, 7, 50) != _rendered(workload.name, 8, 50)


def test_pooled_workloads_replay_the_single_process_plan():
    assert _rendered("explore_fine", 3) == _rendered("explore_pooled", 3)
    assert _rendered("ingest_durable", 3) == _rendered("ingest_pooled", 3)


def test_an_ingest_stream_alternates_write_and_read():
    requests = _first(plan.stream(spec.WORKLOAD_BY_NAME["ingest_durable"], _catalog(), 2), 200)
    assert all(r.cls == "write" for r in requests[0::2])
    assert all(r.cls in ("similarity", "poll") for r in requests[1::2])


def test_explore_class_shares_within_two_percent():
    draws = 10_000
    ops = Counter(r.op for r in _first(plan.explore_stream(_catalog(), 1), draws))
    browse = ops["seasonal"] + ops["query_preview"] + ops["overview"]
    observed = {**ops, "browse": browse}
    stated = {"k_best": 0.50, "best_match": 0.20, "matches_within": 0.15, "query_batch": 0.05, "browse": 0.10}
    for kind, share in stated.items():
        assert abs(observed[kind] / draws - share) < 0.02, kind
    for op in ("seasonal", "query_preview", "overview"):
        assert abs(ops[op] / draws - 0.10 / 3) < 0.02, op


def test_every_block_of_an_explore_stream_has_the_same_composition():
    requests = _first(plan.explore_stream(_catalog(), 4), 200)
    for block in range(10):
        kinds = Counter(r.op for r in requests[block * 20 : block * 20 + 20])
        assert kinds["k_best"] == 10 and kinds["best_match"] == 4
        assert kinds["matches_within"] == 3 and kinds["query_batch"] == 1
    k_best = [r.params["query"] for r in requests if r.op == "k_best"]
    for pair in range(0, len(k_best) - 1, 2):
        forms = {isinstance(q, dict) for q in k_best[pair : pair + 2]}
        assert forms == {True, False}, "each pair holds one descriptor and one array"


def test_operands_are_half_descriptors_half_arrays_of_the_stated_lengths():
    requests = _first(plan.explore_stream(_catalog(), 2), 10_000)
    operands = [r.params["query"] for r in requests if "query" in r.params]
    descriptors = sum(isinstance(q, dict) for q in operands)
    assert abs(descriptors / len(operands) - 0.5) < 0.02
    lo, hi = spec.QUERY_LENGTHS
    for q in operands:
        length = q["length"] if isinstance(q, dict) else len(q)
        assert lo <= length <= hi


def test_ingest_shares_and_poll_cadence():
    cat = _catalog()
    draws = 10_000
    writes = Counter(r.op for r in _first(plan.writer_stream(cat, 1), draws))
    assert abs(writes["add_series"] / draws - 0.05) < 0.02
    assert writes["add_series"] + writes["append_points"] == draws
    reads = _first(plan.reader_stream(cat, 1), draws)
    assert all(
        (r.op == "poll_events") == ((i + 1) % spec.POLL_EVERY == 0) for i, r in enumerate(reads)
    )
    queries = Counter(r.op for r in reads if r.op != "poll_events")
    share = queries["k_best"] / (queries["k_best"] + queries["best_match"])
    assert abs(share - 0.50 / 0.70) < 0.02


def test_writer_appends_round_robin_in_fours():
    cat = _catalog()
    appends = [r for r in _first(plan.writer_stream(cat, 5), 500) if r.op == "append_points"]
    assert [r.params["series"] for r in appends[:12]] == [cat.names[i % 6] for i in range(12)]
    assert {len(r.params["values"]) for r in appends} == {spec.APPEND_POINTS}


def test_check_sample_is_the_head_of_the_explore_stream():
    cat = _catalog()
    sample = plan.check_sample(cat, 9, 5)
    assert plan.render(sample) == plan.render(_first(plan.explore_stream(cat, 9), 5))
    assert all(r.cls in ("similarity", "range", "batch", "browse") for r in sample)


def test_mix_is_the_shares_the_stream_realises():
    cat = _catalog()
    draws = 10_000
    for workload in (spec.WORKLOAD_BY_NAME["explore_fine"], spec.WORKLOAD_BY_NAME["ingest_durable"]):
        mix = plan.mix(workload)
        assert abs(sum(mix.values()) - 1.0) < 1e-12
        observed = Counter(r.op for r in _first(plan.stream(workload, cat, 6), draws))
        assert set(observed) == set(mix)
        for op, share in mix.items():
            assert abs(observed[op] / draws - share) < 0.02, op

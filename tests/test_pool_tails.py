"""Epoch tails: what a pool worker applies instead of a republished base.

The supervisor publishes a write as a *tail* — the rows and points the
base gained since the last epoch (``OnexBase.tail``) — and a worker
applies it to the base it already maps (``OnexBase.apply_tail``, through
the same ``apply_windows`` half that ingestion runs).  Covered here:

- the apply half, fed a base's ``store_rows`` past a mark, reproduces
  that base's bucket arrays bit for bit, including a bucket the tail
  creates and a multivariate base, whichever backend decided the rows;
- a 2-worker supervisor answers exactly as its own service across
  seeded interleavings of writes, reads on alternating slots, a killed
  worker, full snapshots between tails and a forced WAL compaction;
- a point that normalises to ``inf`` still travels as a tail: tails
  carry raw points only, and the worker normalises them itself.
"""

import json
import os
import signal

import numpy as np
import pytest

from repro.core.config import QueryConfig
from repro.core.engine import OnexEngine
from repro.core.mmap_layout import load_base_snapshot, save_base_snapshot
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.durability import DurabilityManager
from repro.exceptions import ReadOnlyBaseError
from repro.server.protocol import Request
from repro.server.service import OnexService
from repro.server.supervisor import Supervisor
from tests.test_pool import force_snapshot, served_by, tune_pool, wait_for
from tests.test_rank_stage import assert_table_matches_buckets


def _bucket_arrays(base):
    """Every stored array of every bucket, as bytes (NaN-safe identity)."""
    out = {}
    for bucket in base.buckets():
        handles, owners = bucket.store_rows()
        for name, array in (
            ("handles", handles),
            ("owners", owners),
            ("members", bucket.member_matrix),
            ("centroids", bucket.centroids),
            ("ed_radii", bucket.ed_radii),
            ("cheb_radii", bucket.cheb_radii),
            ("offsets", bucket.member_offsets),
        ):
            out[bucket.length, name] = (array.dtype.str, array.shape, array.tobytes())
    return out


def _values(dataset):
    return [(s.name, dict(s.metadata), s.values.tobytes()) for s in dataset]


def _series(rng, n, channels):
    shape = (n,) if channels == 1 else (n, channels)
    return rng.normal(size=shape).cumsum(axis=0)


@pytest.mark.usefixtures("kernel_backend")
class TestApplyHalf:
    @pytest.mark.parametrize(
        "channels, normalize",
        [(1, True), (2, True), (1, False)],
        ids=["univariate", "multivariate", "unnormalised"],
    )
    def test_tail_reproduces_the_bucket_arrays(self, channels, normalize, tmp_path):
        rng = np.random.default_rng(21)
        dataset = TimeSeriesDataset(
            [TimeSeries(f"s{i}", _series(rng, 24, channels)) for i in range(4)],
            name="tail-toy",
        )
        engine = OnexEngine(QueryConfig())
        # Lengths 25..28 have no window yet: the tail creates them.
        engine.load_dataset(
            dataset,
            similarity_threshold=0.2 if normalize else 2.0,
            min_length=6,
            max_length=28,
            normalize=normalize,
        )
        base = engine.base("tail-toy")
        assert max(base.lengths) == 24
        path = save_base_snapshot(base, tmp_path / "epoch-1")
        replica = load_base_snapshot(path, mmap_mode="r")[0]
        replica.rep_table, replica.member_table  # synced, not rebuilt
        mark = base.mark()
        for k in range(3):  # one tail over several writes
            engine.append_points("tail-toy", "s1", _series(rng, 2, channels))
            engine.add_series("tail-toy", TimeSeries(f"new{k}", _series(rng, 12, channels)))
            engine.append_points("tail-toy", f"live{k}", _series(rng, 9, channels))
        engine.append_points("tail-toy", "s2", _series(rng, 5, channels))
        tail = json.loads(json.dumps(base.tail(mark), allow_nan=False))
        replica.apply_tail(tail)

        assert replica.lengths == base.lengths and max(base.lengths) == 28
        assert _bucket_arrays(replica) == _bucket_arrays(base)
        assert replica.stats == base.stats
        assert _values(replica.raw_dataset) == _values(base.raw_dataset)
        assert _values(replica.dataset) == _values(base.dataset)
        assert replica.structure_fingerprint() == base.structure_fingerprint()
        assert_table_matches_buckets(replica)
        # Only the apply half opened up: the base itself stays read-only.
        assert replica.read_only
        with pytest.raises(ReadOnlyBaseError):
            replica.add_series(TimeSeries("late", _series(rng, 12, channels)))
        # Nothing is left to ship once the mark catches up.
        assert base.tail(base.mark()) == {"series": [], "buckets": []}

    def test_second_tail_outgrows_the_first_store(self, tmp_path):
        """The first tail copies s1 off its mmap view into a store of 48
        points and the second grows past it: earlier views keep their bytes."""
        rng, engine = np.random.default_rng(22), OnexEngine(QueryConfig())
        series = [TimeSeries(f"s{i}", _series(rng, 24, 1)) for i in range(3)]
        engine.load_dataset(TimeSeriesDataset(series, name="g"), similarity_threshold=0.2,
                            min_length=6, max_length=8)
        base, held = engine.base("g"), []
        replica = load_base_snapshot(save_base_snapshot(base, tmp_path / "e1"))[0]
        for points in (3, 60):
            mark = base.mark()
            engine.append_points("g", "s1", _series(rng, points, 1))
            held += [(s.values, s.values.tobytes()) for s in (*replica.raw_dataset, *replica.dataset)]
            replica.apply_tail(json.loads(json.dumps(base.tail(mark))))
        assert all(view.tobytes() == saved for view, saved in held)
        assert _bucket_arrays(replica) == _bucket_arrays(base)
        assert _values(replica.raw_dataset) == _values(base.raw_dataset)
        assert _values(replica.dataset) == _values(base.dataset)

    def test_append_takes_seeds_anywhere_in_order(self):
        engine = OnexEngine(QueryConfig())
        rng = np.random.default_rng(4)
        engine.load_dataset(
            TimeSeriesDataset(
                [TimeSeries(f"s{i}", rng.normal(size=30).cumsum()) for i in range(3)],
                name="seeds",
            ),
            similarity_threshold=0.2,
            min_length=6,
            max_length=6,
        )
        bucket = engine.base("seeds").bucket(6)
        known = bucket.group_count
        rows = rng.normal(size=(4, 6))
        handles = np.array([[0, 0], [0, 1], [0, 2], [0, 3]])
        with pytest.raises(Exception, match="seeded in order"):
            bucket.append(np.array([0, known + 1, known, 0]), handles, rows)
        bucket.append(np.array([0, known, 0, known + 1]), handles, rows)
        assert bucket.group_count == known + 2
        assert np.array_equal(bucket.centroids[known:], rows[[1, 3]])


# ----------------------------------------------------------------------
# Pooled equals single-process across write/read interleavings
# ----------------------------------------------------------------------

_LOAD = {
    "source": "electricity",
    "households": 1,
    "similarity_threshold": 0.1,
    "min_length": 4,
    "max_length": 6,
}
_DATASET = "ElectricityLoad-sim"

#: Every kind of step at least once, in an order that puts several
#: writes before a read, a full snapshot after interleaved appends and a
#: compaction between tails; the seeded tail that follows mixes them.
_SKELETON = [
    "append", "read0",
    "append", "new", "add", "read1",
    "append", "read0", "append", "append", "read1",
    "kill", "read",
    "append", "new", "snapshot", "append", "read0", "read1",
    "compact", "append", "read",
]
_STEPS = ("append", "new", "add", "read0", "read1", "read")


@pytest.fixture()
def durable_supervisor(tmp_path, monkeypatch):
    tune_pool(monkeypatch, backoff_base_s=0.05, backoff_cap_s=0.5)
    manager = DurabilityManager(tmp_path / "data", wal_sync="never")
    service = OnexService(QueryConfig(), durability=manager)
    assert service.handle(Request("load_dataset", _LOAD)).ok
    sup = Supervisor(service, workers=2, snapshot_root=tmp_path / "snaps")
    sup.start(timeout=60)
    try:
        yield sup
    finally:
        sup.close()


class _Driver:
    """Runs the steps and checks every read against the supervisor's own
    service: the pooled answer, the slot's epoch, that the pool served it."""

    def __init__(self, sup, seed):
        self.sup = sup
        self.rng = np.random.default_rng(seed)
        self.fresh = 0

    def write(self, op, params):
        response = self.sup.handle(Request(op, {"dataset": _DATASET, **params}))
        assert response.ok, response.error_message

    def step(self, kind):
        rng, base = self.rng, self.sup.engine.base(_DATASET)
        if kind == "append":
            name = base.raw_dataset.names[int(rng.integers(len(base.raw_dataset)))]
            last = float(base.raw_dataset[name].values[-1])
            points = last + rng.normal(scale=0.2, size=int(rng.integers(1, 6)))
            self.write("append_points", {"series": name, "values": points.tolist()})
        elif kind == "new":
            self.fresh += 1
            points = rng.normal(size=int(rng.integers(3, 12))).cumsum()
            self.write(
                "append_points", {"series": f"live{self.fresh}", "values": points.tolist()}
            )
        elif kind == "add":
            self.fresh += 1
            points = rng.normal(size=int(rng.integers(6, 20))).cumsum()
            self.write("add_series", {"name": f"added{self.fresh}", "values": points.tolist()})
        elif kind == "snapshot":
            self.fresh += 1
            force_snapshot(self.sup, _DATASET, series=f"bulk{self.fresh}")
        elif kind == "compact":
            durability = self.sup.durability.get(_DATASET)
            engine = self.sup.engine
            durability.checkpoint(engine.base(_DATASET), engine.stream_state(_DATASET))
        elif kind == "kill":
            pids = self.sup.pool.worker_pids()
            os.kill(pids[0], signal.SIGKILL)
            assert wait_for(
                lambda: self.sup.pool.live_workers == 2
                and self.sup.pool.worker_pids()[0] not in (None, pids[0])
            )
        else:
            self.read(int(rng.integers(2)) if kind == "read" else int(kind[-1]))

    def read(self, slot):
        base = self.sup.engine.base(_DATASET)
        series = base.raw_dataset[0]  # the loaded one
        start = int(self.rng.integers(len(series) - 6))
        query = (series.values[start : start + 6] + self.rng.normal(scale=0.05, size=6)).tolist()
        for op, params in (
            ("describe", {}),
            ("k_best", {"query": query, "k": 3}),
            ("matches_within", {"query": query, "threshold": 0.05}),
        ):
            request = Request(op, {"dataset": _DATASET, **params})
            dispatched = self.sup.pool.dispatched
            with served_by(self.sup.pool, slot):
                pooled = self.sup.handle(request)
            assert self.sup.pool.dispatched == dispatched + 1, op
            local = self.sup._service.handle(request)
            assert pooled.ok and local.ok, (op, pooled.error_message)
            assert pooled.result == local.result, op
        status = self.sup.pool_status()
        epoch = status["published"][_DATASET]["epoch"]
        assert status["workers"][slot]["epochs"] == {_DATASET: epoch}


@pytest.mark.parametrize("seed", [3, 8])
def test_pooled_equals_single_process(durable_supervisor, seed):
    driver = _Driver(durable_supervisor, seed)
    steps = _SKELETON + [
        _STEPS[i] for i in np.random.default_rng(seed).integers(len(_STEPS), size=14)
    ]
    for kind in steps + ["read0", "read1"]:
        driver.step(kind)
    published = durable_supervisor.pool_status()["published"][_DATASET]
    assert published["tails"] > 0  # the last epochs were tails
    assert durable_supervisor.pool.failovers == 0


def test_point_normalised_to_inf_travels_as_a_tail(tmp_path, monkeypatch):
    """A finite point that normalises to ``inf`` under narrow build
    bounds ships raw in a strict-JSON tail, and the worker derives the
    same ``inf``: pooled answers equal the service's, no worker lost."""
    tune_pool(monkeypatch, backoff_base_s=0.05)
    rng = np.random.default_rng(6)
    dataset = TimeSeriesDataset(
        [TimeSeries(f"s{i}", rng.uniform(0.0, 1e-11, size=30)) for i in range(3)],
        name="narrow",
    )
    service = OnexService(QueryConfig())
    service.engine.load_dataset(
        dataset, similarity_threshold=0.2, min_length=4, max_length=6
    )
    sup = Supervisor(service, workers=2, snapshot_root=tmp_path / "snaps")
    sup.start(timeout=60)
    try:
        describe = Request("describe", {"dataset": "narrow"})
        query = Request("k_best", {"dataset": "narrow", "query": [0.0, 5e-12, 1e-11, 0.0], "k": 2})
        assert sup.handle(describe).ok
        for tails, values in enumerate(([5e-12, 2e-12], [1e300], [3e-12]), 1):
            assert sup.handle(
                Request("append_points", {"dataset": "narrow", "series": "s0", "values": values})
            ).ok
            dispatched = sup.pool.dispatched
            for request in (describe, query):
                pooled = sup.handle(request)
                assert pooled.result == service.handle(request).result
            assert sup.pool.dispatched == dispatched + 2
            assert sup.pool_status()["published"]["narrow"]["tails"] == tails
        assert sup.pool.failovers == 0
    finally:
        sup.close()

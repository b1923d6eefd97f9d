"""The supervised pre-fork worker pool and its supervisor (PR 10).

Covers the frame protocol, dispatch and failover semantics, the restart
policy (backoff + flap circuit breaker), degraded-capacity behaviour
(admission-gate scaling, zero-capacity shedding), and the supervisor's
lazy republication — snapshots and the tails after them — that gives
read-your-writes after mutations.
"""

import json
import math
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.config import QueryConfig
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.exceptions import (
    OverloadedError,
    ValidationError,
    WorkerCrashedError,
)
from repro.obs.metrics import REGISTRY
from repro.server import pool as pool_module
from repro.server.http import AdmissionGate, OnexHttpServer
from repro.server.pool import _recv_frame, _send_frame
from repro.server.protocol import Request, Response
from repro.server.service import OnexService
from repro.server.supervisor import Supervisor
from repro.testing import faults


def make_service(name="pool-toy", seed=5, series=4, config=None, timeout_ms=None):
    rng = np.random.default_rng(seed)
    dataset = TimeSeriesDataset(
        [
            TimeSeries(f"s{i}", rng.normal(size=60).cumsum())
            for i in range(series)
        ],
        name=name,
    )
    service = OnexService(config or QueryConfig(), default_timeout_ms=timeout_ms)
    service.engine.load_dataset(
        dataset,
        similarity_threshold=0.3,
        min_length=10,
        max_length=14,
        step=2,
    )
    return service


def query_values(seed=9, n=12):
    return np.random.default_rng(seed).normal(size=n).cumsum().tolist()


def tune_pool(monkeypatch, **timings):
    """Substitute pool timing constants (``backoff_base_s=0.05`` sets
    ``_BACKOFF_BASE_S``); workers forked afterwards inherit the values."""
    for name, value in timings.items():
        monkeypatch.setattr(pool_module, f"_{name.upper()}", value)


@contextmanager
def served_by(pool, index):
    """Hold every other idle slot busy, so slot *index* takes the next
    dispatch."""
    with pool._cond:
        held = [s for s in pool._slots if s.index != index and not s.busy]
        for slot in held:
            slot.busy = True
    try:
        yield
    finally:
        with pool._cond:
            for slot in held:
                slot.busy = False
            pool._cond.notify_all()


def force_snapshot(sup, dataset, series="bulk"):
    """Add a series with more windows than the last snapshot holds, so
    the next publication is a full snapshot and not a tail."""
    rows = sup._publication(dataset).snapshot_rows
    values = np.random.default_rng(1).normal(size=rows + 40).cumsum().tolist()
    assert sup.handle(
        Request("add_series", {"dataset": dataset, "name": series, "values": values})
    ).ok


def wait_for(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture()
def supervisor(tmp_path, monkeypatch):
    tune_pool(monkeypatch, backoff_base_s=0.05, backoff_cap_s=0.5)
    service = make_service()
    sup = Supervisor(service, workers=2, snapshot_root=tmp_path / "snaps")
    sup.start(timeout=60)
    try:
        yield sup
    finally:
        sup.close()


class TestFrameProtocol:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            _send_frame(a, {"op": "x", "params": {"n": [1, 2, 3]}})
            assert _recv_frame(b) == {"op": "x", "params": {"n": [1, 2, 3]}}
        finally:
            a.close()
            b.close()

    def test_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert _recv_frame(b) is None
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((1 << 30).to_bytes(4, "big"))
            with pytest.raises(ConnectionError):
                _recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_response_from_dict(self):
        ok = Response.from_dict({"ok": True, "result": 7, "request_id": "r"})
        assert ok.ok and ok.result == 7 and ok.request_id == "r"
        err = Response.from_dict(
            {
                "ok": False,
                "error": {"type": "DatasetError", "message": "gone"},
                "request_id": "r2",
            }
        )
        assert not err.ok
        assert err.error_type == "DatasetError"
        assert err.request_id == "r2"


def post_raw(url: str, body: bytes) -> tuple[int, dict]:
    """POST *body* to ``/api``; the status and the strictly parsed reply."""

    def no_constants(name):
        raise AssertionError(f"non-JSON constant {name} in the body")

    request = urllib.request.Request(
        f"{url}/api", data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            status, raw = resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        status, raw = exc.code, exc.read()
    return status, json.loads(raw, parse_constant=no_constants)


class TestStrictFrames:
    """Pool frames are strict JSON, encoded apart from the socket, so a
    non-finite value is a typed error and never a worker death."""

    def test_round_trip_rejects_non_finite(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(ValueError):
                _send_frame(a, {"distance": math.inf})
            _send_frame(a, {"distance": 1.5})
            assert _recv_frame(b) == {"distance": 1.5}  # nothing half-sent
        finally:
            a.close()
            b.close()

    def test_non_finite_answer_is_a_500_from_a_live_worker(self, tmp_path, monkeypatch):
        tune_pool(monkeypatch, backoff_base_s=0.05, backoff_cap_s=0.5)
        rng = np.random.default_rng(5)
        dataset = TimeSeriesDataset(
            [TimeSeries(f"s{i}", rng.normal(size=60).cumsum()) for i in range(4)],
            name="raw-toy",
        )
        service = OnexService(QueryConfig())
        service.engine.load_dataset(
            dataset, similarity_threshold=0.3, min_length=10, max_length=14,
            step=2, normalize=False,
        )
        supervisor = Supervisor(service, workers=2, snapshot_root=tmp_path / "snaps")
        supervisor.start(timeout=60)
        server = OnexHttpServer(supervisor)
        server.start()
        try:
            pids = supervisor.pool.worker_pids()
            # Its DTW costs overflow: every distance of the answer is inf.
            overflow = {"dataset": "raw-toy", "query": [1e308] * 3}
            for rid in ("inf-1", "inf-2", "inf-3"):
                body = json.dumps({"op": "best_match", "request_id": rid, "params": overflow})
                status, payload = post_raw(server.url, body.encode())
                assert status == 500, payload
                assert payload["error"]["type"] == "InternalError"
                assert payload["request_id"] == rid
            assert supervisor.pool.failovers == 0
            assert supervisor.pool.worker_pids() == pids
            assert supervisor.pool.dispatched == 3

            body = json.dumps(
                {"op": "k_best", "params": {"dataset": "raw-toy", "query": query_values(), "k": 2}}
            )
            status, payload = post_raw(server.url, body.encode())
            assert status == 200 and payload["ok"], payload

            literal = b'{"op": "k_best", "params": {"dataset": "raw-toy", "query": [NaN, 1, 2], "k": 1}}'
            status, payload = post_raw(server.url, literal)
            assert status == 400
            assert payload["error"]["type"] == "ProtocolError"
            assert "NaN" in payload["error"]["message"]

            # An in-process caller's non-finite request is refused before
            # any worker takes it.
            dispatched = supervisor.pool.dispatched
            response = supervisor.handle(
                Request("k_best", {"dataset": "raw-toy", "query": [math.nan, 1.0], "k": 1})
            )
            assert response.error_type == "ProtocolError"
            assert supervisor.pool.dispatched == dispatched
            assert supervisor.pool.worker_pids() == pids
        finally:
            server.stop()
            supervisor.close()


class TestDispatch:
    def test_results_identical_to_local(self, supervisor, tmp_path):
        """Workers answer as their supervisor's service does: the default
        service, and an exact-mode banded one whose default timeout a
        request without its own ``timeout_ms`` cannot meet."""
        request = Request(
            "k_best",
            {"dataset": "pool-toy", "query": query_values(), "k": 3},
            request_id="same",
        )
        pooled = supervisor.handle(request)
        local = supervisor._service.handle(request)
        assert pooled.ok and local.ok
        assert pooled.result == local.result

        service = make_service(
            name="exact-toy",
            config=QueryConfig(mode="exact", window=2),
            timeout_ms=1e-3,
        )
        sup = Supervisor(service, workers=1, snapshot_root=tmp_path / "exact")
        sup.start(timeout=60)
        try:
            responses = []
            for budget in ({"timeout_ms": 60_000}, {}):
                request = Request(
                    "k_best",
                    {"dataset": "exact-toy", "query": query_values(), "k": 3, **budget},
                    request_id="same",
                )
                responses.append((sup.handle(request), service.handle(request)))
            assert sup.pool.status()["dispatched"] == 2
        finally:
            sup.close()
        (pooled, local), (pooled_late, local_late) = responses
        assert pooled.ok and local.ok
        assert pooled.result == local.result
        assert not pooled_late.ok and not local_late.ok
        assert pooled_late.error_type == local_late.error_type == "DeadlineExceeded"

    def test_read_only_failover_on_kill9(self, supervisor):
        pids = [p for p in supervisor.pool.worker_pids() if p]
        assert len(pids) == 2
        os.kill(pids[0], signal.SIGKILL)
        # The very next dispatch may land on the dead worker; failover
        # must make it succeed anyway.
        response = supervisor.handle(
            Request(
                "best_match",
                {"dataset": "pool-toy", "query": query_values()},
                request_id="after-kill",
            )
        )
        assert response.ok
        assert wait_for(lambda: supervisor.pool.live_workers == 2)
        status = supervisor.pool_status()
        assert sum(w["crashes"] for w in status["workers"]) >= 1
        assert sum(w["restarts"] for w in status["workers"]) >= 3

    def test_non_read_only_crash_surfaces_retryable(self, tmp_path, monkeypatch):
        tune_pool(monkeypatch, backoff_base_s=0.05)
        service = make_service(name="crash-toy")
        with faults.inject("worker.kill", "kill-worker", times=1):
            sup = Supervisor(service, workers=1, snapshot_root=tmp_path / "snaps")
            sup.start(timeout=60)
            try:
                # Drive the pool directly with a mutating op: the armed
                # failpoint (inherited across the fork) kills the worker
                # before it executes, and mutating ops must not silently
                # re-dispatch — the client's request-id retry is the
                # safe replay channel.
                with pytest.raises(WorkerCrashedError) as excinfo:
                    sup.pool.dispatch(
                        Request(
                            "append_points",
                            {
                                "dataset": "crash-toy",
                                "series": "s0",
                                "values": [1.0, 2.0],
                            },
                            request_id="mut-1",
                        )
                    )
                assert excinfo.value.retry_after is not None
            finally:
                sup.close()

    def test_zero_live_workers_sheds_with_retry_after(self, tmp_path, monkeypatch):
        # One crash trips the breaker: the slot stays broken for the
        # whole test, so capacity is provably zero.
        tune_pool(
            monkeypatch, flap_threshold=1, flap_cooldown_s=120.0, backoff_base_s=0.05
        )
        service = make_service(name="zero-toy")
        sup = Supervisor(service, workers=1, snapshot_root=tmp_path / "snaps")
        sup.start(timeout=60)
        try:
            (pid,) = [p for p in sup.pool.worker_pids() if p]
            os.kill(pid, signal.SIGKILL)
            assert wait_for(lambda: sup.pool.live_workers == 0, timeout=10)
            status = sup.pool_status()
            assert status["workers"][0]["state"] == "broken"
            with pytest.raises(OverloadedError) as excinfo:
                sup.handle(
                    Request(
                        "describe",
                        {"dataset": "zero-toy"},
                        request_id="shed-1",
                    )
                )
            assert excinfo.value.retry_after is not None
        finally:
            sup.close()

    def test_hang_detection_kills_and_recovers(self, tmp_path, monkeypatch):
        tune_pool(
            monkeypatch,
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=0.4,
            stall_limit_s=0.2,
            backoff_base_s=0.5,
        )
        service = make_service(name="hang-toy")
        faults.arm("worker.hang", "sleep", seconds=30.0, times=1)
        try:
            sup = Supervisor(service, workers=1, snapshot_root=tmp_path / "snaps")
            sup.start(timeout=60)
            try:
                # The worker goes quiet mid-request; the monitor must
                # SIGKILL it well before the 30s sleep finishes.  With a
                # single seat there is nowhere to fail over, so the
                # dispatch surfaces zero capacity.
                started = time.monotonic()
                with pytest.raises(OverloadedError):
                    sup.pool.dispatch(
                        Request(
                            "describe",
                            {"dataset": "hang-toy"},
                            request_id="hung-1",
                        )
                    )
                assert time.monotonic() - started < 10.0
                status = sup.pool_status()
                assert status["workers"][0]["last_crash_kind"] == "hang"
                # Disarm before the respawn forks, so the replacement
                # worker inherits a clean registry and serves again.
                faults.disarm("worker.hang")
                assert wait_for(lambda: sup.pool.live_workers == 1)
                response = sup.handle(
                    Request(
                        "describe",
                        {"dataset": "hang-toy"},
                        request_id="hung-2",
                    )
                )
                assert response.ok
            finally:
                sup.close()
        finally:
            faults.disarm("worker.hang")


class TestReadYourWrites:
    def test_mutation_republishes_before_next_read(self, supervisor):
        before = supervisor.pool_status()["published"]["pool-toy"]["epoch"]
        added = supervisor.handle(
            Request(
                "add_series",
                {
                    "dataset": "pool-toy",
                    "name": "fresh",
                    "values": np.random.default_rng(2)
                    .normal(size=40)
                    .cumsum()
                    .tolist(),
                },
                request_id="ryw-1",
            )
        )
        assert added.ok
        described = supervisor.handle(
            Request("describe", {"dataset": "pool-toy"}, request_id="ryw-2")
        )
        assert described.ok
        # The dispatched read went to a worker *after* republication, so
        # it must already see the new series.
        assert described.result["series"] == 5
        after = supervisor.pool_status()["published"]["pool-toy"]
        assert after["epoch"] == before + 1
        assert after["dirty"] is False

    def test_busy_worker_cannot_answer_from_a_superseded_epoch(
        self, tmp_path, monkeypatch
    ):
        """Regression: the remap broadcast skipped a worker that was still
        busy when its wait ran out, and that worker then answered from the
        superseded epoch forever.  Epoch-tagged dispatch has no broadcast
        to miss: the worker maps the tagged epoch before it answers."""
        # The old broadcast gave a busy slot this long, then moved on.
        tune_pool(monkeypatch, backoff_base_s=0.05, dispatch_wait_s=0.3)
        service = make_service()
        sup = Supervisor(service, workers=2, snapshot_root=tmp_path / "snaps")
        sup.start(timeout=60)
        try:
            # Arm the hang in slot 0 only: kill it while the fault is
            # armed here, so just its replacement inherits the fault.
            victim = sup.pool.worker_pids()[0]
            faults.arm("worker.hang", "sleep", seconds=1.5, times=1)
            try:
                os.kill(victim, signal.SIGKILL)
                assert wait_for(
                    lambda: sup.pool.live_workers == 2
                    and sup.pool.worker_pids()[0] not in (None, victim)
                )
            finally:
                faults.disarm("worker.hang")
            describe = Request("describe", {"dataset": "pool-toy"})
            held = threading.Thread(target=sup.handle, args=(describe,))
            held.start()
            assert wait_for(lambda: sup.pool_status()["workers"][0]["busy"])
            # Slot 0 sleeps inside its request; write, then read: the
            # read publishes a new epoch and is served by slot 1.
            added = sup.handle(
                Request(
                    "add_series",
                    {
                        "dataset": "pool-toy",
                        "name": "fresh",
                        "values": np.random.default_rng(2)
                        .normal(size=40)
                        .cumsum()
                        .tolist(),
                    },
                )
            )
            assert added.ok
            fresh = sup.handle(describe)
            assert fresh.ok and fresh.result["series"] == 5
            status = sup.pool_status()
            epoch = status["published"]["pool-toy"]["epoch"]
            assert status["workers"][1]["epochs"] == {"pool-toy": epoch}
            assert status["workers"][0]["epochs"] == {"pool-toy": epoch - 1}
            held.join(timeout=30)
            assert not held.is_alive()
            # Both idle: the first free slot, 0, takes the next request.
            after = sup.handle(describe)
            assert sup.pool_status()["workers"][0]["epochs"] == {"pool-toy": epoch}
            assert after.ok
            assert after.result["series"] == 5
            assert after.result["total_points"] == fresh.result["total_points"]
            assert (
                after.result["structure_fingerprint"]
                == service.engine.base("pool-toy").structure_fingerprint()
            )
        finally:
            sup.close()

    def test_idle_workers_skip_intermediate_epochs(self, supervisor):
        """A publication costs idle workers nothing: the slot that next
        serves a read applies every tail it lacks, in one frame."""
        first = supervisor.pool_status()["published"]["pool-toy"]["epoch"]
        for i in range(3):
            assert supervisor.handle(
                Request(
                    "append_points",
                    {"dataset": "pool-toy", "series": "s0", "values": [0.5, 0.25]},
                )
            ).ok
            assert supervisor.handle(
                Request("describe", {"dataset": "pool-toy"})
            ).ok
        status = supervisor.pool_status()
        published = status["published"]["pool-toy"]
        assert published["epoch"] == first + 3 and published["tails"] == 3
        # One client, so slot 0 served every read; slot 1 never applied
        # anything after the epoch it was spawned with.
        assert status["workers"][0]["epochs"] == {"pool-toy": first + 3}
        assert status["workers"][1]["epochs"] == {"pool-toy": first}
        rendered = REGISTRY.render()
        assert f'onex_pool_worker_epoch{{slot="0"}} {first + 3}\n' in rendered
        assert "onex_pool_snapshot_attach_ms_count" in rendered
        # Slot 1 catches up all three tails and answers from the newest.
        describe = Request("describe", {"dataset": "pool-toy"})
        with served_by(supervisor.pool, 1):
            caught_up = supervisor.handle(describe)
        assert supervisor.pool_status()["workers"][1]["epochs"] == {
            "pool-toy": first + 3
        }
        assert caught_up.result == supervisor._service.handle(describe).result

    def test_unmappable_epoch_is_answered_locally(self, supervisor):
        """A worker that cannot map its tagged epoch never answers stale:
        it says so, and the supervisor serves the read itself."""
        force_snapshot(supervisor, "pool-toy")
        # Publish, then break the snapshot before any worker maps it.
        assert supervisor._ensure_published("pool-toy")
        published = supervisor.pool_status()["published"]["pool-toy"]
        assert published["tails"] == 0  # a full snapshot, not a tail
        path = published["path"]
        os.unlink(os.path.join(path, "arrays.bin"))
        response = supervisor.handle(Request("describe", {"dataset": "pool-toy"}))
        assert response.ok
        assert response.result["total_points"] == (
            supervisor._service.handle(
                Request("describe", {"dataset": "pool-toy"})
            ).result["total_points"]
        )
        assert supervisor.pool.live_workers == 2  # a typed refusal, not a crash
        # The next write heals it: a fresh epoch, served by the pool again.
        assert supervisor.handle(
            Request(
                "append_points",
                {"dataset": "pool-toy", "series": "s1", "values": [0.1]},
            )
        ).ok
        before = supervisor.pool.dispatched
        assert supervisor.handle(Request("describe", {"dataset": "pool-toy"})).ok
        assert supervisor.pool.dispatched == before + 1

    def test_failed_tail_is_answered_locally_then_caught_up(
        self, tmp_path, monkeypatch
    ):
        """A worker that fails to apply a tail drops the dataset and says
        so; the supervisor answers that read, and the slot's next frame
        carries the snapshot and every tail after it."""
        tune_pool(monkeypatch, backoff_base_s=0.05)
        service = make_service()
        # Armed before the fork, so each worker fails its first tail once.
        with faults.inject("worker.tail", "raise", times=1):
            sup = Supervisor(service, workers=2, snapshot_root=tmp_path / "snaps")
            sup.start(timeout=60)
        try:
            pids = sup.pool.worker_pids()
            describe = Request("describe", {"dataset": "pool-toy"})
            dispatched = sup.pool.dispatched
            # One tail per write-then-read; each worker fails its first.
            for slot, values in ((1, [0.5, 0.25]), (0, [0.75])):
                assert sup.handle(
                    Request(
                        "append_points",
                        {"dataset": "pool-toy", "series": "s0", "values": values},
                    )
                ).ok
                with served_by(sup.pool, slot):
                    failed = sup.handle(describe)
                assert failed.result == service.handle(describe).result
                assert "pool-toy" not in sup.pool_status()["workers"][slot]["epochs"]
            assert sup.pool.dispatched == dispatched  # both answered locally
            assert sup.pool.worker_pids() == pids and sup.pool.failovers == 0
            # The same worker, live, maps the snapshot again and applies
            # both tails (its failpoint is spent).
            served = sup.handle(describe)
            assert sup.pool.dispatched == dispatched + 1
            status = sup.pool_status()
            published = status["published"]["pool-toy"]
            assert published["tails"] == 2
            assert status["workers"][0]["epochs"] == {"pool-toy": published["epoch"]}
            assert sup.pool.worker_pids() == pids
            assert served.result == service.handle(describe).result
        finally:
            sup.close()

    def test_reload_after_unload_gets_a_new_snapshot_path(self, supervisor):
        old = supervisor.pool_status()["published"]["pool-toy"]
        assert supervisor.handle(
            Request("unload_dataset", {"dataset": "pool-toy"})
        ).ok
        reloaded = make_service(seed=6).engine
        supervisor._service.engine.restore_dataset(reloaded.base("pool-toy"))
        described = supervisor.handle(Request("describe", {"dataset": "pool-toy"}))
        assert described.ok
        assert described.result["structure_fingerprint"] == (
            reloaded.base("pool-toy").structure_fingerprint()
        )
        new = supervisor.pool_status()["published"]["pool-toy"]
        assert new["epoch"] == old["epoch"] + 1 and new["path"] != old["path"]

    def test_unload_retracts_publication(self, supervisor):
        response = supervisor.handle(
            Request(
                "unload_dataset", {"dataset": "pool-toy"}, request_id="un-1"
            )
        )
        assert response.ok
        assert "pool-toy" not in supervisor.pool_status()["published"]


class TestDegradedCapacity:
    def test_gate_resize_validates_and_applies(self):
        gate = AdmissionGate(max_in_flight=8, max_queue=4)
        gate.resize(2)
        assert gate.max_in_flight == 2
        with pytest.raises(ValidationError):
            gate.resize(0)

    def test_capacity_callback_scales_attached_gate(self, tmp_path, monkeypatch):
        tune_pool(
            monkeypatch, flap_threshold=1, flap_cooldown_s=120.0, backoff_base_s=0.05
        )
        service = make_service(name="cap-toy")
        sup = Supervisor(service, workers=2, snapshot_root=tmp_path / "snaps")
        sup.start(timeout=60)
        gate = AdmissionGate(max_in_flight=8, max_queue=4)
        sup.attach_gate(gate)
        try:
            assert gate.max_in_flight == 8
            pids = [p for p in sup.pool.worker_pids() if p]
            os.kill(pids[0], signal.SIGKILL)  # breaker trips: stays dead
            assert wait_for(lambda: gate.max_in_flight == 4, timeout=10)
            assert sup.pool.live_workers == 1
        finally:
            sup.close()

    def test_pool_metrics_registered(self, supervisor):
        supervisor.handle(
            Request(
                "overview", {"dataset": "pool-toy"}, request_id="metrics-1"
            )
        )
        rendered = REGISTRY.render()
        assert "onex_pool_live_workers" in rendered
        assert "onex_pool_worker_restarts_total" in rendered
        assert "onex_pool_dispatch_total" in rendered
        assert "onex_pool_snapshot_publish_total" in rendered

"""Overload and shutdown tests: admission control, shedding, draining.

Pins the server's behaviour at and past its concurrency budget — at most
``max_in_flight`` requests execute, ``max_queue`` more wait, the rest get
an immediate structured 503 with ``Retry-After`` — plus the health/ready
surface, the draining ``stop()``, and the client's narrow retry policy
(read-only operations only, honouring ``Retry-After``).
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.exceptions import OverloadedError, RemoteError, ValidationError
from repro.server.client import OnexClient
from repro.server.http import AdmissionGate, OnexHttpServer, _ServerMetrics
from repro.server.service import OnexService
from repro.testing import faults


@pytest.fixture(autouse=True)
def clean_registry():
    faults.disarm_all()
    yield
    faults.disarm_all()


def _post(url: str, op: str, params: dict) -> tuple[int, dict | None, dict]:
    """POST one request; returns (status, headers, body) without raising."""
    req = urllib.request.Request(
        f"{url}/api",
        data=json.dumps({"op": op, "params": params}).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers or {}), json.loads(exc.read())


_LOAD = {
    "source": "electricity",
    "households": 1,
    "similarity_threshold": 0.1,
    "min_length": 4,
    "max_length": 4,
}
_DATASET = "ElectricityLoad-sim"
_QUERY = {"dataset": _DATASET, "query": [0.1, 0.3, 0.2, 0.4], "k": 2}


class TestAdmissionGate:
    def test_validation(self):
        with pytest.raises(ValidationError):
            AdmissionGate(0)
        with pytest.raises(ValidationError):
            AdmissionGate(1, -1)

    def test_acquire_release(self):
        gate = AdmissionGate(2, 0)
        assert gate.try_acquire() and gate.try_acquire()
        assert gate.in_flight == 2
        assert not gate.try_acquire()  # full, no queue
        assert gate.shed == 1
        gate.release()
        assert gate.try_acquire()

    def test_queued_request_runs_when_slot_frees(self):
        gate = AdmissionGate(1, 1)
        assert gate.try_acquire()
        outcome = []
        waiter = threading.Thread(
            target=lambda: outcome.append(gate.try_acquire())
        )
        waiter.start()
        time.sleep(0.05)
        assert not outcome  # parked in the queue
        gate.release()
        waiter.join(timeout=2)
        assert outcome == [True]
        gate.release()

    def test_close_sheds_new_and_parked(self):
        gate = AdmissionGate(1, 4)
        assert gate.try_acquire()
        outcome = []
        waiter = threading.Thread(
            target=lambda: outcome.append(gate.try_acquire())
        )
        waiter.start()
        time.sleep(0.05)
        gate.close()
        waiter.join(timeout=2)
        assert outcome == [False]
        assert not gate.try_acquire()
        assert gate.shed == 2

    def test_wait_idle(self):
        gate = AdmissionGate(1, 0)
        assert gate.try_acquire()
        assert gate.wait_idle(0.05) == 1  # times out, one still running
        threading.Timer(0.05, gate.release).start()
        assert gate.wait_idle(2.0) == 0


class TestServerMetrics:
    def test_snapshot_quantiles(self):
        metrics = _ServerMetrics(ring_size=8)
        for ms in (1.0, 2.0, 3.0, 4.0):
            metrics.record("k_best", ms)
        snap = metrics.latency_snapshot()
        assert snap["k_best"]["count"] == 4
        assert snap["k_best"]["p50_ms"] == pytest.approx(3.0)
        assert snap["k_best"]["p99_ms"] == pytest.approx(4.0)
        assert metrics.handled == 4

    def test_ring_is_bounded(self):
        metrics = _ServerMetrics(ring_size=4)
        for ms in range(100):
            metrics.record("op", float(ms))
        snap = metrics.latency_snapshot()
        assert snap["op"]["count"] == 4
        assert snap["op"]["p50_ms"] >= 96.0
        assert metrics.handled == 100


class TestOverloadShedding:
    @pytest.fixture()
    def server(self):
        with OnexHttpServer(
            OnexService(), max_in_flight=1, max_queue=1
        ) as srv:
            status, _, body = _post(srv.url, "load_dataset", _LOAD)
            assert status == 200 and body["ok"], body
            yield srv

    def test_sheds_past_capacity_and_accepted_stay_exact(self, server):
        """4x the in-flight cap: extras get 503s, accepted answers exact."""
        unloaded = _post(server.url, "k_best", _QUERY)[2]["result"]["matches"]
        results = []
        lock = threading.Lock()

        def one_request():
            outcome = _post(server.url, "k_best", _QUERY)
            with lock:
                results.append(outcome)

        with faults.inject("server.handle", "sleep", seconds=0.4):
            threads = [threading.Thread(target=one_request) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert len(results) == 8
        accepted = [body for status, _, body in results if status == 200]
        shed = [(headers, body) for status, headers, body in results if status == 503]
        assert accepted and shed
        assert len(shed) >= 6  # cap 1 + queue 1 admit at most 2 of the burst
        # A shed answer never waits on the slow in-flight work: every 503
        # came back before the first accepted request finished.
        statuses = [status for status, _, _ in results]
        assert statuses == sorted(statuses, reverse=True)
        for body in accepted:
            assert body["ok"]
            assert all(m["exact"] for m in body["result"]["matches"])
            assert body["result"]["matches"] == unloaded
        for headers, body in shed:
            assert headers.get("Retry-After") == "1"
            assert body["error"]["type"] == "OverloadedError"
            assert "retry" in body["error"]["message"]

    def test_health_reports_counters_and_latency(self, server):
        _post(server.url, "k_best", _QUERY)
        with urllib.request.urlopen(f"{server.url}/health", timeout=30) as resp:
            health = json.loads(resp.read())
        assert health["status"] == "ok"
        assert health["datasets"] == [_DATASET]
        assert health["in_flight"] == 0
        assert health["handled"] >= 2  # the load + at least one query
        latency = health["latency_ms"]
        assert latency["k_best"]["count"] >= 1
        assert latency["k_best"]["p50_ms"] > 0
        assert latency["k_best"]["p99_ms"] >= latency["k_best"]["p50_ms"]

    def test_ready_while_serving(self, server):
        with urllib.request.urlopen(f"{server.url}/ready", timeout=30) as resp:
            assert json.loads(resp.read()) == {"ready": True, "in_flight": 0}


class TestGracefulShutdown:
    def test_stop_drains_in_flight(self):
        server = OnexHttpServer(OnexService(), max_in_flight=2).start()
        status, _, body = _post(server.url, "load_dataset", _LOAD)
        assert status == 200 and body["ok"]
        results = []
        with faults.inject("server.handle", "sleep", seconds=0.3):
            slow = threading.Thread(
                target=lambda: results.append(_post(server.url, "k_best", _QUERY))
            )
            slow.start()
            time.sleep(0.1)  # let the request reach the handler
            summary = server.stop()
        slow.join(timeout=30)
        assert summary == {"drained": 1, "aborted": 0}
        status, _, body = results[0]
        assert status == 200 and body["ok"]  # finished, not severed

    def test_stop_idempotent(self):
        server = OnexHttpServer(OnexService()).start()
        assert server.stop() == {"drained": 0, "aborted": 0}
        assert server.stop() is None


class TestClientRetries:
    @pytest.fixture()
    def server(self):
        with OnexHttpServer(
            OnexService(), max_in_flight=1, max_queue=0
        ) as srv:
            status, _, body = _post(srv.url, "load_dataset", _LOAD)
            assert status == 200 and body["ok"]
            yield srv

    def _occupy(self, server, seconds):
        """Hold the single execution slot with one slow request."""
        faults.arm("server.handle", "sleep", seconds=seconds, times=1)
        blocker = threading.Thread(
            target=lambda: _post(server.url, "k_best", _QUERY)
        )
        blocker.start()
        time.sleep(0.1)  # let it get admitted
        return blocker

    def test_plain_call_round_trip(self, server):
        client = OnexClient(server.url)
        result = client.call("k_best", _QUERY)
        assert all(m["exact"] for m in result["matches"])
        assert client.health()["datasets"] == [_DATASET]
        assert client.ready() is True

    def test_remote_error_preserves_type(self, server):
        client = OnexClient(server.url)
        with pytest.raises(RemoteError) as excinfo:
            client.call("k_best", {**_QUERY, "dataset": "ghost"})
        assert excinfo.value.error_type == "DatasetError"

    def test_read_only_retry_honours_retry_after(self, server):
        delays = []

        def fake_sleep(seconds):
            delays.append(seconds)
            time.sleep(0.15)  # wait long enough for the slot to free up

        blocker = self._occupy(server, 0.3)
        client = OnexClient(server.url, max_retries=5, sleep=fake_sleep)
        result = client.call("k_best", _QUERY)
        blocker.join(timeout=30)
        assert result["matches"]
        assert client.retries_performed >= 1
        # Every backoff was floored at the server's Retry-After hint (1s).
        assert all(delay >= 1.0 for delay in delays)

    def test_mutating_op_not_retried_when_opted_out(self, server):
        # Durable mutating ops retry by default (request-id dedup makes
        # them idempotent — see test_idempotent_retries.py); opting out
        # restores PR 6's fail-fast behaviour.
        blocker = self._occupy(server, 0.4)
        client = OnexClient(
            server.url, max_retries=5, retry_mutating=False, sleep=lambda s: None
        )
        with pytest.raises(OverloadedError) as excinfo:
            client.call(
                "append_points",
                {"dataset": _DATASET, "series": "live", "values": [0.1, 0.2]},
            )
        blocker.join(timeout=30)
        assert client.retries_performed == 0
        assert excinfo.value.retry_after == 1.0

    def test_non_durable_mutating_op_never_retried(self, server):
        # save_base is mutating but not request-id-deduplicated, so it
        # stays non-retryable even with retry_mutating on.
        blocker = self._occupy(server, 0.4)
        client = OnexClient(server.url, max_retries=5, sleep=lambda s: None)
        with pytest.raises(OverloadedError):
            client.call("save_base", {"dataset": _DATASET, "path": "/tmp/x"})
        blocker.join(timeout=30)
        assert client.retries_performed == 0

    def test_exhausted_retries_raise_overloaded(self, server):
        blocker = self._occupy(server, 0.6)
        client = OnexClient(server.url, max_retries=2, sleep=lambda s: None)
        with pytest.raises(OverloadedError, match="3 attempt"):
            client.call("k_best", _QUERY)
        blocker.join(timeout=30)
        assert client.retries_performed == 2

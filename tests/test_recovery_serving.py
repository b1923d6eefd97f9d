"""Recovery × serving interleaving (PR 10, satellite 3).

A server that binds before WAL replay finishes must answer honestly
during the warm-up window: ``/ready`` says false with a clean 503,
``/api`` sheds with a ``NotReadyError`` envelope plus ``Retry-After``,
and **no request ever observes partially-replayed state**.  Once
recovery completes and the server flips ready, answers reflect the
fully replayed dataset — fingerprint-identical to the pre-crash state.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np

from repro.durability import DurabilityManager
from repro.server.http import OnexHttpServer
from repro.server.protocol import Request
from repro.server.service import OnexService
from repro.testing import faults

_LOAD = {
    "source": "electricity",
    "households": 1,
    "similarity_threshold": 0.1,
    "min_length": 4,
    "max_length": 4,
}
_DATASET = "ElectricityLoad-sim"


def call(service, op, params, request_id=None):
    response = service.handle(Request(op, dict(params), request_id=request_id))
    assert response.ok, (op, response.error_type, response.error_message)
    return response.result


def make_service(data_dir):
    manager = DurabilityManager(data_dir, wal_sync="never")
    return OnexService(durability=manager)


def seed_durable_state(data_dir, appends=5):
    """Load + append acknowledged mutations; returns the pre-crash view."""
    service = make_service(data_dir)
    call(service, "load_dataset", _LOAD)
    rng = np.random.default_rng(42)
    for i in range(appends):
        call(
            service,
            "append_points",
            {
                "dataset": _DATASET,
                "series": "live",
                "values": [float(v) for v in rng.normal(size=3).cumsum()],
            },
            request_id=f"seed-{i}",
        )
    described = call(service, "describe", {"dataset": _DATASET})
    service.close()
    return described


def http_get(url):
    """(status, json payload) without raising on 503."""
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def http_post(url, op, params):
    request = urllib.request.Request(
        f"{url}/api",
        data=json.dumps({"op": op, "params": params}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers or {}), json.loads(exc.read())


class TestNotReadyGate:
    def test_unready_server_sheds_and_flips(self):
        service = OnexService()
        with OnexHttpServer(service, ready=False) as server:
            status, payload = http_get(f"{server.url}/ready")
            assert status == 503 and payload["ready"] is False
            health_status, health = http_get(f"{server.url}/health")
            assert health_status == 200  # liveness stays green
            assert health["ready"] is False

            status, headers, envelope = http_post(
                server.url, "list_datasets", {}
            )
            assert status == 503
            assert envelope["ok"] is False
            assert envelope["error"]["type"] == "NotReadyError"
            assert "Retry-After" in headers

            server.set_ready(True)
            status, payload = http_get(f"{server.url}/ready")
            assert status == 200 and payload["ready"] is True
            status, _, envelope = http_post(server.url, "list_datasets", {})
            assert status == 200 and envelope["ok"] is True


class TestRecoveryServingInterleave:
    def test_requests_during_recovery_never_see_partial_state(self, tmp_path):
        data_dir = tmp_path / "durable"
        before = seed_durable_state(data_dir)

        service = make_service(data_dir)
        with OnexHttpServer(service, ready=False) as server:
            # Slow the replay down so the serving window provably
            # overlaps recovery.
            faults.arm("recovery.dataset", "sleep", seconds=1.0, times=1)
            recovered = threading.Event()

            def run_recovery():
                service.recover()
                recovered.set()

            worker = threading.Thread(target=run_recovery)
            worker.start()
            try:
                observed = []
                deadline = time.monotonic() + 10
                while not recovered.is_set() and time.monotonic() < deadline:
                    status, _, envelope = http_post(
                        server.url, "describe", {"dataset": _DATASET}
                    )
                    observed.append((status, envelope))
                    time.sleep(0.05)
            finally:
                worker.join(timeout=30)
            assert recovered.is_set()
            # Every answer inside the window was a clean shed — a 503
            # NotReadyError envelope — never a 200 over half-replayed
            # state and never a raw 500.
            assert observed, "recovery finished before any probe ran"
            for status, envelope in observed:
                assert status == 503
                assert envelope["error"]["type"] == "NotReadyError"

            server.set_ready(True)
            status, _, envelope = http_post(
                server.url, "describe", {"dataset": _DATASET}
            )
            assert status == 200 and envelope["ok"]
            after = envelope["result"]
            assert (
                after["structure_fingerprint"]
                == before["structure_fingerprint"]
            )
            assert after["total_points"] == before["total_points"]
        service.close()

    def test_ready_flip_requires_full_replay(self, tmp_path):
        """The serve wiring contract: ready only flips after recover()
        returns, so a ready server always answers from replayed state."""
        data_dir = tmp_path / "durable"
        before = seed_durable_state(data_dir)
        service = make_service(data_dir)
        with OnexHttpServer(service, ready=False) as server:
            report = service.recover()
            assert report is not None and report.datasets
            server.set_ready(True)
            status, payload = http_get(f"{server.url}/ready")
            assert status == 200 and payload["ready"] is True
            status, _, envelope = http_post(
                server.url,
                "describe",
                {"dataset": _DATASET},
            )
            assert envelope["result"]["structure_fingerprint"] == (
                before["structure_fingerprint"]
            )
        service.close()

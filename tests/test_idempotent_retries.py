"""Idempotent mutating retries: window unit tests + end-to-end dedup.

The contract (DESIGN.md §8): the client mints one ``request_id`` per
logical mutating call and re-sends it verbatim on every retry; the
service remembers each durable operation's outcome per id, so a
duplicate executes **zero** times and receives the recorded response.
This is what licenses the client to retry ``append_points`` &co. at all.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.durability.idempotency import IdempotencyWindow
from repro.exceptions import OverloadedError
from repro.server import client as client_module
from repro.server.client import OnexClient
from repro.server.http import OnexHttpServer
from repro.server.protocol import Response
from repro.server.service import OnexService
from repro.testing import faults


class TestIdempotencyWindow:
    def test_miss_then_hit(self):
        window = IdempotencyWindow(4)
        assert window.lookup("a") is None
        response = Response.success({"x": 1})
        window.record("a", response)
        assert window.lookup("a") is response
        assert len(window) == 1

    def test_none_id_is_never_remembered(self):
        window = IdempotencyWindow(4)
        window.record(None, Response.success({}))
        assert window.lookup(None) is None
        assert len(window) == 0

    def test_failures_are_remembered_too(self):
        window = IdempotencyWindow(4)
        window.record("bad", Response.failure(ValueError("nope")))
        cached = window.lookup("bad")
        assert cached is not None and not cached.ok

    def test_lru_eviction_at_capacity(self):
        window = IdempotencyWindow(3)
        for key in ("a", "b", "c"):
            window.record(key, Response.success({"k": key}))
        window.lookup("a")  # refresh: "b" is now the oldest
        window.record("d", Response.success({"k": "d"}))
        assert window.lookup("b") is None
        assert window.lookup("a") is not None
        assert window.lookup("d") is not None
        assert len(window) == 3

    def test_clear(self):
        window = IdempotencyWindow(4)
        window.record("a", Response.success({}))
        window.clear()
        assert window.lookup("a") is None and len(window) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            IdempotencyWindow(0)


# ---------------------------------------------------------------------------
# End-to-end over HTTP
# ---------------------------------------------------------------------------

_LOAD = {
    "source": "electricity",
    "households": 1,
    "similarity_threshold": 0.1,
    "min_length": 4,
    "max_length": 4,
}
_DATASET = "ElectricityLoad-sim"
_APPEND = {"dataset": _DATASET, "series": "live", "values": [1.0, 2.0, 3.0, 4.0]}


def _post(url, envelope):
    req = urllib.request.Request(
        f"{url}/api",
        data=json.dumps(envelope).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


def _series_length(client):
    return len(
        client.call("query_preview", {"dataset": _DATASET, "series": "live"})[
            "values"
        ]
    )


class TestHttpDedup:
    @pytest.fixture()
    def server(self):
        with OnexHttpServer(OnexService(), max_in_flight=2) as srv:
            OnexClient(srv.url).call("load_dataset", _LOAD)
            yield srv

    def test_duplicate_request_id_executes_once(self, server):
        envelope = {"op": "append_points", "params": _APPEND, "request_id": "dup-1"}
        first = _post(server.url, envelope)
        second = _post(server.url, envelope)
        assert first["ok"] and second["ok"]
        assert second["result"] == first["result"]
        assert second["request_id"] == "dup-1"
        assert _series_length(OnexClient(server.url)) == 4

    def test_distinct_ids_both_execute(self, server):
        for request_id in ("one", "two"):
            _post(
                server.url,
                {"op": "append_points", "params": _APPEND, "request_id": request_id},
            )
        assert _series_length(OnexClient(server.url)) == 8

    def test_failure_response_is_replayed_not_reexecuted(self, server):
        # Strict JSON that the engine rejects (a NaN literal would be
        # refused earlier, as a 400 that is never recorded).
        envelope = {
            "op": "append_points",
            "params": {**_APPEND, "values": []},
            "request_id": "bad-1",
        }
        first = _post(server.url, envelope)
        second = _post(server.url, envelope)
        assert not first["ok"] and not second["ok"]
        assert second["error"]["type"] == first["error"]["type"]


class TestClientMutatingRetries:
    @pytest.fixture()
    def server(self):
        with OnexHttpServer(
            OnexService(), max_in_flight=1, max_queue=0
        ) as srv:
            OnexClient(srv.url).call("load_dataset", _LOAD)
            yield srv

    def _occupy(self, server, seconds):
        faults.arm("server.handle", "sleep", seconds=seconds, times=1)
        blocker = threading.Thread(
            target=lambda: OnexClient(server.url, max_retries=0).call(
                "list_datasets", {}
            )
        )
        blocker.start()
        time.sleep(0.1)
        return blocker

    def test_shed_then_retried_mutation_executes_exactly_once(
        self, server, monkeypatch
    ):
        def patient_sleep(seconds):
            time.sleep(max(seconds, 0.15))

        monkeypatch.setattr(client_module, "_sleep", patient_sleep)
        blocker = self._occupy(server, 0.3)
        client = OnexClient(server.url, max_retries=5)
        result = client.call("append_points", _APPEND)
        blocker.join(timeout=30)
        assert result["points" if "points" in result else "total_points"] == 4
        assert client.retries_performed >= 1
        assert _series_length(client) == 4  # one execution despite retries

        metrics = client.metrics()
        assert metrics["mutating"]["calls"] == 1
        assert metrics["mutating"]["retries"] >= 1
        assert metrics["mutating"]["last_op"] == "append_points"
        assert metrics["mutating"]["last_attempts"] >= 2
        assert metrics["mutating"]["last_request_id"]

    def test_zero_budget_fails_fast(self, server, monkeypatch):
        monkeypatch.setattr(client_module, "_RETRY_BUDGET_S", 0.0)
        monkeypatch.setattr(client_module, "_sleep", lambda s: None)
        blocker = self._occupy(server, 0.4)
        client = OnexClient(server.url, max_retries=5)
        with pytest.raises(OverloadedError):
            client.call("append_points", _APPEND)
        blocker.join(timeout=30)
        assert client.retries_performed == 0

    def test_retry_reuses_one_request_id(self, server, monkeypatch):
        """Every resend carries the same id — the key dedup hinges on."""
        monkeypatch.setattr(client_module, "_sleep", lambda s: time.sleep(0.15))
        blocker = self._occupy(server, 0.3)
        client = OnexClient(server.url, max_retries=5)
        client.call("append_points", _APPEND)
        blocker.join(timeout=30)
        metrics = client.metrics()
        assert metrics["last_request_id"] == metrics["last_response_request_id"]
        assert metrics["mutating"]["last_request_id"] == metrics["last_request_id"]

    def test_read_only_calls_do_not_touch_mutating_stats(self, server):
        client = OnexClient(server.url)
        client.call("list_datasets", {})
        metrics = client.metrics()
        assert metrics["calls"] == 1
        assert metrics["mutating"]["calls"] == 0
        assert metrics["mutating"]["last_op"] is None

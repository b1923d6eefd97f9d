"""Kill-9-under-load chaos suite for the worker pool (PR 10 gate).

The acceptance contract: under sustained concurrent client load,
``kill -9`` of a pool worker loses **zero acknowledged requests** (every
client call either succeeds — possibly after transparent failover or a
request-id-idempotent retry — or is never acknowledged), and the pool
returns to full capacity within the backoff budget.  Exercised twice:
in-process against a real HTTP server + retrying clients, and
end-to-end against a ``repro serve --workers N`` subprocess whose
worker pids come from ``/health``.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import QueryConfig
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.server import client as client_module
from repro.server.client import OnexClient
from repro.server import pool as pool_module
from repro.server.http import OnexHttpServer
from repro.server.service import OnexService
from repro.server.supervisor import Supervisor

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_service(name="chaos-toy", seed=13):
    rng = np.random.default_rng(seed)
    dataset = TimeSeriesDataset(
        [TimeSeries(f"s{i}", rng.normal(size=60).cumsum()) for i in range(4)],
        name=name,
    )
    service = OnexService(QueryConfig())
    service.engine.load_dataset(
        dataset,
        similarity_threshold=0.3,
        min_length=10,
        max_length=14,
        step=2,
    )
    return service


def wait_for(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestKill9UnderLoad:
    def test_no_acknowledged_request_lost(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pool_module, "_BACKOFF_BASE_S", 0.05)
        monkeypatch.setattr(pool_module, "_BACKOFF_CAP_S", 0.5)
        monkeypatch.setattr(client_module, "_RETRY_BUDGET_S", 30.0)
        # The flap breaker has its own test; here it must not latch a
        # slot open while we deliberately kill workers in a loop.
        monkeypatch.setattr(pool_module, "_FLAP_THRESHOLD", 100)
        service = make_service()
        supervisor = Supervisor(service, workers=2, snapshot_root=tmp_path / "snaps")
        supervisor.start(timeout=60)
        server = OnexHttpServer(supervisor, max_in_flight=8, max_queue=16)
        server.start()
        rng = np.random.default_rng(3)
        queries = [rng.normal(size=12).cumsum().tolist() for _ in range(8)]
        stop = threading.Event()
        failures = []
        successes = [0] * 4
        appended = []

        def reader(worker_idx):
            client = OnexClient(server.url, max_retries=6)
            i = 0
            while not stop.is_set():
                try:
                    result = client.call(
                        "k_best",
                        {
                            "dataset": "chaos-toy",
                            "query": queries[(worker_idx + i) % len(queries)],
                            "k": 2,
                        },
                    )
                    assert result["matches"], "acknowledged empty result"
                    successes[worker_idx] += 1
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append((worker_idx, repr(exc)))
                i += 1

        def writer():
            # Mutating ops ride the request-id idempotency window: every
            # acknowledged append must be applied exactly once.
            client = OnexClient(server.url, max_retries=6)
            i = 0
            while not stop.is_set():
                try:
                    summary = client.call(
                        "append_points",
                        {
                            "dataset": "chaos-toy",
                            "series": "s0",
                            "values": [float(i), float(i) + 0.5],
                        },
                    )
                    appended.append(summary["points"])
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(("writer", repr(exc)))
                i += 1
                time.sleep(0.05)

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(3)
        ] + [threading.Thread(target=writer)]
        try:
            for t in threads:
                t.start()
            kills = 0
            deadline = time.monotonic() + 4.0
            while time.monotonic() < deadline:
                time.sleep(0.8)
                pids = [p for p in supervisor.pool.worker_pids() if p]
                if pids:
                    os.kill(pids[kills % len(pids)], signal.SIGKILL)
                    kills += 1
            stop.set()
            for t in threads:
                t.join(timeout=60)
            assert kills >= 2, "the chaos loop never killed a worker"
            assert failures == [], failures[:5]
            assert sum(successes) > 0 and appended
            # Full capacity back within the backoff budget.
            assert wait_for(
                lambda: supervisor.pool.live_workers == 2, timeout=10
            )
            status = supervisor.pool_status()
            assert sum(w["crashes"] for w in status["workers"]) >= kills - 1
        finally:
            stop.set()
            server.stop()
            supervisor.close()
        # Acknowledged appends really applied: each append indexed its
        # points exactly once (idempotency-window verified server-side).
        total_points = sum(appended)
        preview = service.handle(
            {
                "op": "query_preview",
                "params": {"dataset": "chaos-toy", "series": "s0"},
            }
        )
        assert preview.ok
        assert len(preview.result["values"]) == 60 + total_points


class ServerProcess:
    """One ``repro serve --workers N`` subprocess on an ephemeral port."""

    def __init__(self, *extra_args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        self.banner = []
        self.url = None
        deadline = time.monotonic() + 120
        for line in self.proc.stdout:
            self.banner.append(line.rstrip("\n"))
            match = re.search(r"listening on (http://\S+)", line)
            if match:
                self.url = match.group(1)
                break
            if time.monotonic() > deadline:
                break
        if self.url is None:
            raise RuntimeError(
                "server never announced a URL:\n" + "\n".join(self.banner)
            )

    def wait_ready(self, timeout=120):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                    f"{self.url}/ready", timeout=5
                ) as resp:
                    if json.loads(resp.read()).get("ready"):
                        return
            except urllib.error.HTTPError as exc:
                if exc.code != 503:
                    raise
            except OSError:
                pass
            time.sleep(0.05)
        raise RuntimeError("server never became ready")

    def health(self):
        with urllib.request.urlopen(f"{self.url}/health", timeout=10) as resp:
            return json.loads(resp.read())

    def cleanup(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


@pytest.fixture()
def pooled_server():
    server = ServerProcess("--workers", "2")
    try:
        server.wait_ready()
        yield server
    finally:
        server.cleanup()


class TestServeWorkersEndToEnd:
    def test_kill9_worker_recovers_and_serves(self, pooled_server, monkeypatch):
        monkeypatch.setattr(client_module, "_RETRY_BUDGET_S", 30.0)
        client = OnexClient(pooled_server.url, max_retries=6)
        loaded = client.call(
            "load_dataset",
            {
                "source": "matters",
                "similarity_threshold": 0.08,
                "min_length": 4,
                "max_length": 5,
                "years": 8,
                "min_years": 6,
            },
        )
        dataset = loaded["dataset"]
        query = {"series": "MA/GrowthRate", "start": 0, "length": 5}
        baseline = client.call("best_match", {"dataset": dataset, "query": query})

        pool = client.pool_status()
        assert pool is not None and pool["live"] == 2
        victim = next(w["pid"] for w in pool["workers"] if w["pid"])
        os.kill(victim, signal.SIGKILL)

        # Queries keep answering (failover + retries) and are identical.
        for _ in range(5):
            again = client.call(
                "best_match", {"dataset": dataset, "query": query}
            )
            assert again["connectors"] == baseline["connectors"]

        def back_to_full():
            status = client.pool_status()
            return status["live"] == status["size"] == 2

        assert wait_for(back_to_full, timeout=30)
        status = client.pool_status()
        assert sum(w["crashes"] for w in status["workers"]) >= 1
        assert all(w["pid"] != victim or w["crashes"] for w in status["workers"])

    def test_health_and_ready_report_pool(self, pooled_server):
        health = pooled_server.health()
        assert health["ready"] is True
        assert health["pool"]["size"] == 2
        states = [w["state"] for w in health["pool"]["workers"]]
        assert states == ["live", "live"]
        with urllib.request.urlopen(
            f"{pooled_server.url}/ready", timeout=10
        ) as resp:
            payload = json.loads(resp.read())
        assert payload["ready"] is True
        assert payload["pool"]["live"] == 2


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # A zombie still answers signal 0; it is reaped by init, not serving.
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestNoOrphanedWorkers:
    """A stopped supervisor — gracefully or not — leaves no worker behind."""

    def _worker_pids(self, server):
        pids = [w["pid"] for w in server.health()["pool"]["workers"]]
        assert len(pids) == 2 and all(pids)
        return pids

    def test_sigterm_drains_stops_workers_and_removes_snapshots(self):
        server = ServerProcess("--workers", "2")
        try:
            server.wait_ready()
            pids = self._worker_pids(server)
            server.proc.send_signal(signal.SIGTERM)
            assert server.proc.wait(timeout=30) == 0
            rest = server.proc.stdout.read()
            snapshot_root = re.search(r"snapshots in (\S+?)\)", rest).group(1)
            assert "onex-pool-" in snapshot_root
            assert not os.path.exists(snapshot_root)
            assert wait_for(lambda: not any(map(_alive, pids)), timeout=10)
        finally:
            server.cleanup()

    def test_workers_exit_when_the_supervisor_is_killed(self):
        server = ServerProcess("--workers", "2")
        try:
            server.wait_ready()
            pids = self._worker_pids(server)
            server.proc.kill()  # no handler runs: only EOF tells the workers
            server.proc.wait(timeout=30)
            assert wait_for(lambda: not any(map(_alive, pids)), timeout=10)
        finally:
            server.cleanup()

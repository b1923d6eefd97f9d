"""End-to-end tests of the HTTP JSON API (client/server architecture, §4)."""

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.server.http import OnexHttpServer
from repro.server.service import OnexService

ROOT = Path(repro.__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def server():
    svc = OnexService()
    with OnexHttpServer(svc) as srv:
        yield srv


def post(server, payload):
    data = json.dumps(payload).encode()
    req = urllib.request.Request(
        f"{server.url}/api", data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def get(server, path):
    with urllib.request.urlopen(f"{server.url}{path}", timeout=30) as resp:
        return resp.status, json.loads(resp.read())


class TestHttpApi:
    def test_health(self, server):
        status, payload = get(server, "/health")
        assert status == 200
        assert payload["status"] == "ok"

    def test_full_analyst_session(self, server):
        """Load -> overview -> brush -> similarity search over HTTP."""
        status, payload = post(
            server,
            {
                "op": "load_dataset",
                "params": {
                    "source": "matters",
                    "similarity_threshold": 0.08,
                    "min_length": 4,
                    "max_length": 5,
                    "years": 10,
                    "min_years": 6,
                },
            },
        )
        assert status == 200
        assert payload["ok"], payload
        assert payload["result"]["compaction_ratio"] > 1.0

        status, payload = post(
            server, {"op": "overview", "params": {"dataset": "MATTERS-sim", "limit": 3}}
        )
        assert payload["ok"]
        assert payload["result"]["groups"]

        status, payload = post(
            server,
            {
                "op": "best_match",
                "params": {
                    "dataset": "MATTERS-sim",
                    "query": {"series": "MA/GrowthRate", "start": 0, "length": 5},
                },
            },
        )
        assert payload["ok"], payload
        assert payload["result"]["view"] == "similarity"
        assert payload["result"]["connectors"]

    def test_query_batch_round_trip(self, server):
        """One request answers a whole batch, identically to singles."""
        queries = [
            {"series": "MA/GrowthRate", "start": 0, "length": 5},
            {"series": "CA/GrowthRate", "start": 1, "length": 4},
        ]
        status, payload = post(
            server,
            {
                "op": "query_batch",
                "params": {"dataset": "MATTERS-sim", "queries": queries},
            },
        )
        assert status == 200
        assert payload["ok"], payload
        results = payload["result"]["results"]
        assert len(results) == 2
        for entry, query in zip(results, queries):
            _, single = post(
                server,
                {
                    "op": "best_match",
                    "params": {"dataset": "MATTERS-sim", "query": query},
                },
            )
            assert single["ok"]
            best = entry["matches"][0]
            assert best["match_series"] == single["result"]["match_series"]
            assert best["match_start"] == single["result"]["match_start"]
            assert best["distance"] == pytest.approx(single["result"]["distance"])

    def test_health_reports_loaded_datasets(self, server):
        status, payload = get(server, "/health")
        assert "MATTERS-sim" in payload["datasets"]

    def test_application_error_is_200_ok_false(self, server):
        status, payload = post(
            server, {"op": "describe", "params": {"dataset": "ghost"}}
        )
        assert status == 200
        assert payload["ok"] is False
        assert payload["error"]["type"] == "DatasetError"

    def test_malformed_envelope_is_400(self, server):
        data = json.dumps({"op": "no_such_op"}).encode()
        req = urllib.request.Request(f"{server.url}/api", data=data)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["type"] == "ProtocolError"

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/nope", timeout=30)
        assert excinfo.value.code == 404

    def test_post_wrong_path_404(self, server):
        req = urllib.request.Request(f"{server.url}/elsewhere", data=b"{}")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 404

    def test_stop_idempotent(self):
        srv = OnexHttpServer(OnexService())
        srv.start()
        srv.stop()
        srv.stop()  # second stop must be a no-op


class TestReadWriteLock:
    def test_readers_share(self):
        import threading

        from repro.server.http import ReadWriteLock

        lock = ReadWriteLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # both readers must be inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers_and_writers(self):
        import threading

        from repro.server.http import ReadWriteLock

        lock = ReadWriteLock()
        order = []
        lock.acquire_write()

        def reader():
            with lock.read():
                order.append("reader")

        def writer():
            with lock.write():
                order.append("writer")

        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        for t in threads:
            t.start()
        import time

        time.sleep(0.05)
        assert order == []  # both blocked behind the held write lock
        lock.release_write()
        for t in threads:
            t.join(timeout=5)
        assert sorted(order) == ["reader", "writer"]

    def test_waiting_writer_blocks_new_readers(self):
        import threading
        import time

        from repro.server.http import ReadWriteLock

        lock = ReadWriteLock()
        lock.acquire_read()
        got_write = threading.Event()
        late_read = threading.Event()

        def writer():
            lock.acquire_write()
            got_write.set()
            lock.release_write()

        def late_reader():
            lock.acquire_read()
            late_read.set()
            lock.release_read()

        w = threading.Thread(target=writer)
        w.start()
        time.sleep(0.05)  # let the writer start waiting
        r = threading.Thread(target=late_reader)
        r.start()
        time.sleep(0.05)
        assert not late_read.is_set()  # writer preference holds it back
        lock.release_read()
        w.join(timeout=5)
        r.join(timeout=5)
        assert got_write.is_set() and late_read.is_set()


class TestConcurrentRequests:
    def test_parallel_reads_are_consistent(self, server):
        """Many simultaneous queries against one dataset all succeed and
        agree (they hold the shared side of the dataset lock)."""
        from concurrent.futures import ThreadPoolExecutor

        payload = {
            "op": "best_match",
            "params": {
                "dataset": "MATTERS-sim",
                "query": {"series": "MA/GrowthRate", "start": 0, "length": 5},
            },
        }
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: post(server, payload), range(16)))
        bodies = [body for status, body in results]
        assert all(b["ok"] for b in bodies)
        distances = {b["result"]["distance"] for b in bodies}
        assert len(distances) == 1

    def test_reads_interleave_with_stream_writes(self, server):
        """Queries and appends to one dataset race without corruption."""
        from concurrent.futures import ThreadPoolExecutor

        def append(i):
            return post(
                server,
                {
                    "op": "append_points",
                    "params": {
                        "dataset": "MATTERS-sim",
                        "series": "live-concurrent",
                        "values": [float(i), float(i) + 0.5],
                    },
                },
            )

        def query(_):
            return post(
                server,
                {
                    "op": "best_match",
                    "params": {
                        "dataset": "MATTERS-sim",
                        "query": {"series": "MA/GrowthRate", "start": 0,
                                  "length": 5},
                    },
                },
            )

        with ThreadPoolExecutor(max_workers=8) as pool:
            appends = [pool.submit(append, i) for i in range(10)]
            queries = [pool.submit(query, i) for i in range(10)]
            for f in appends + queries:
                status, body = f.result(timeout=30)
                assert body["ok"], body
        status, body = post(
            server,
            {"op": "describe", "params": {"dataset": "MATTERS-sim"}},
        )
        assert body["ok"]
        assert "live-concurrent" in body["result"]["series_names"]


def test_lock_table_ignores_unknown_dataset_names():
    """Garbage dataset names must not grow the lock table unboundedly."""
    from repro.server.http import DatasetLockManager
    from repro.server.protocol import Request

    loaded = ["real"]
    manager = DatasetLockManager(known=lambda: loaded)
    for i in range(50):
        with manager.guard(Request("describe", {"dataset": f"ghost-{i}"})):
            pass
    assert manager._locks == {}
    with manager.guard(Request("describe", {"dataset": "real"})):
        pass
    assert list(manager._locks) == ["real"]


def raw_http(server, request_bytes: bytes) -> bytes:
    """One raw-socket HTTP exchange (read to EOF; the server closes)."""
    import socket

    host, port = server.address
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(request_bytes)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


def parse_raw(response: bytes) -> tuple[int, dict]:
    head, _, body = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


class TestMalformedRequestsSurvived:
    """Regression: malformed requests must 400, never kill the handler.

    A non-numeric ``Content-Length`` used to raise ``ValueError`` out of
    ``do_POST`` (connection severed, no response); so did pathological
    bodies whose decoding failure was not a ``ProtocolError``.
    """

    def test_malformed_content_length_gets_400(self, server):
        response = raw_http(
            server,
            b"POST /api HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: banana\r\n\r\n",
        )
        status, payload = parse_raw(response)
        assert status == 400
        assert payload["ok"] is False
        assert "Content-Length" in payload["error"]["message"]

    def test_negative_content_length_gets_400(self, server):
        response = raw_http(
            server,
            b"POST /api HTTP/1.1\r\nHost: t\r\nContent-Length: -7\r\n\r\n",
        )
        status, payload = parse_raw(response)
        assert status == 400
        assert payload["ok"] is False

    def test_non_utf8_body_gets_400(self, server):
        body = b"\xff\xfe\x00garbage\x9c"
        request = (
            b"POST /api HTTP/1.1\r\nHost: t\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        status, payload = parse_raw(raw_http(server, request))
        assert status == 400
        assert payload["ok"] is False

    def test_pathologically_nested_body_gets_400(self, server):
        """Deep nesting blows the JSON parser's recursion limit — a
        non-ProtocolError escape path before the fix."""
        body = b"[" * 100_000
        request = (
            b"POST /api HTTP/1.1\r\nHost: t\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        status, payload = parse_raw(raw_http(server, request))
        assert status == 400
        assert payload["ok"] is False
        assert "malformed request body" in payload["error"]["message"]

    def test_server_keeps_serving_after_malformed_requests(self, server):
        for _ in range(3):
            raw_http(
                server,
                b"POST /api HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: nope\r\n\r\n",
            )
        status, payload = get(server, "/health")
        assert status == 200
        assert payload["status"] == "ok"
        status, payload = post(server, {"op": "list_datasets", "params": {}})
        assert status == 200
        assert payload["ok"] is True


class TestSlowClientTimeout:
    """Regression: a client that sends headers with a Content-Length but
    then stalls used to pin a handler thread forever in the body read.
    The per-connection read timeout turns the stall into a 408 envelope;
    a half-body followed by EOF is a clean 400, never a hang."""

    def test_stalled_body_gets_408(self):
        import socket
        import time

        svc = OnexService()
        with OnexHttpServer(svc, read_timeout_s=0.5) as srv:
            host, port = srv.address
            started = time.monotonic()
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(
                    b"POST /api HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 64\r\n\r\n"
                    b'{"op": "list'  # ... and then the client goes quiet
                )
                chunks = []
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break
                    chunks.append(data)
            elapsed = time.monotonic() - started
            status, payload = parse_raw(b"".join(chunks))
            assert status == 408
            assert payload["ok"] is False
            assert payload["error"]["type"] == "ProtocolError"
            assert "timed out" in payload["error"]["message"]
            assert elapsed < 5.0  # bounded by read_timeout_s, not 30s
            # The handler thread is free again: the server still serves.
            status, payload = get(srv, "/health")
            assert status == 200 and payload["status"] == "ok"

    def test_truncated_body_gets_400(self):
        import socket

        svc = OnexService()
        with OnexHttpServer(svc, read_timeout_s=5.0) as srv:
            host, port = srv.address
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(
                    b"POST /api HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 64\r\n\r\n"
                    b'{"op":'
                )
                sock.shutdown(socket.SHUT_WR)  # EOF long before 64 bytes
                chunks = []
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break
                    chunks.append(data)
            status, payload = parse_raw(b"".join(chunks))
            assert status == 400
            assert payload["ok"] is False
            assert "truncated" in payload["error"]["message"]


class TestStrictJson:
    """Regression: a served distance that overflows to ``inf`` was written
    as a bare ``Infinity``, which is not JSON.  Bodies are strict JSON
    now; a payload that cannot be encoded is a typed 500 envelope."""

    @pytest.mark.filterwarnings(
        "ignore:overflow encountered:RuntimeWarning",
        "ignore:invalid value encountered:RuntimeWarning",
    )
    def test_overflowing_match_is_a_typed_500_not_infinity(self, server):
        def no_constants(name):
            raise AssertionError(f"non-JSON constant {name} in the body")

        _, loaded = post(
            server,
            {
                "op": "load_dataset",
                "params": {
                    "source": "electricity",
                    "households": 2,
                    "similarity_threshold": 2.0,
                    "min_length": 4,
                    "max_length": 5,
                    "normalize": False,
                },
            },
        )
        assert loaded["ok"], loaded
        dataset = loaded["result"]["dataset"]
        assert loaded["result"]["groups"] < 1024
        request = urllib.request.Request(
            f"{server.url}/api",
            data=json.dumps(
                {
                    "op": "best_match",
                    "request_id": "strict-json",
                    "params": {"dataset": dataset, "query": [1e308] * 3},
                }
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                status, headers, raw = resp.status, resp.headers, resp.read()
        except urllib.error.HTTPError as exc:
            status, headers, raw = exc.code, exc.headers, exc.read()
        finally:
            post(server, {"op": "unload_dataset", "params": {"dataset": dataset}})
        payload = json.loads(raw, parse_constant=no_constants)
        assert status == 500
        assert payload["ok"] is False
        assert payload["error"]["type"] == "InternalError"
        assert payload["request_id"] == "strict-json"
        assert headers["X-Request-Id"] == "strict-json"

    def test_overflow_on_the_bench_sized_base_returns(self):
        """Regression: on the bench base (23 739 groups, partitioned rank
        stage) the same query spun forever — a NaN band bound selected no
        representative, so the lazy order never advanced.  Run in a child
        process so a hang is a timeout, not a stuck suite."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-W", "ignore::RuntimeWarning", "-c", _OVERFLOW_CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        status, request_id, body = json.loads(done.stdout)

        def no_constants(name):
            raise AssertionError(f"non-JSON constant {name} in the body")

        payload = json.loads(body, parse_constant=no_constants)
        assert status == 500
        assert payload["error"]["type"] == "InternalError"
        assert payload["request_id"] == request_id == "overflow"


#: Loads the ``python -m bench`` dataset unnormalised and sends one
#: overflowing ``best_match``; prints ``[status, X-Request-Id, body]``.
_OVERFLOW_CHILD = """
import json, urllib.error, urllib.request
from repro.server.http import OnexHttpServer
from repro.server.service import OnexService

dataset = {
    "source": "matters", "seed": 5, "years": 40, "min_years": 34,
    "indicators": ["GrowthRate"], "min_length": 5, "max_length": 24,
    "similarity_threshold": 0.05, "normalize": False,
}
with OnexHttpServer(OnexService()) as server:
    def post(payload):
        request = urllib.request.Request(
            f"{server.url}/api", data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as resp:
                return resp.status, resp.headers, resp.read().decode()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.headers, exc.read().decode()

    _, _, loaded = post({"op": "load_dataset", "params": dataset})
    name = json.loads(loaded)["result"]["dataset"]
    status, headers, body = post({
        "op": "best_match", "request_id": "overflow",
        "params": {"dataset": name, "query": [1e308] * 3},
    })
    print(json.dumps([status, headers["X-Request-Id"], body]))
"""

"""The load generator and the two kinds of run.

One process generates all load: one closed-loop client on one
connection, an ``OnexClient(max_retries=0)`` so that a shed request is a
failure and never a hidden retry, on the same core as the server (see
``bench/hostspeed.py``).  :func:`run_timed` measures the end-to-end metrics
with tracing off; :func:`run_traced` replays a fixed number of requests
against the untraced and then the traced server and derives the
per-layer metrics from the spans.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import shutil
import statistics
import threading
import time
import urllib.error
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from bench import hostspeed, layers, oracle, plan, spec
from bench.report import percentile
from bench.server import ServerProcess, rss_mb, session_pids, tree_usage

_EXPLAINABLE = frozenset({"k_best", "best_match", "matches_within", "query_batch"})


def _failures() -> tuple[type[BaseException], ...]:
    from repro.exceptions import OnexError

    return (OnexError, urllib.error.URLError, OSError, http.client.HTTPException)


@dataclass
class Sample:
    index: int
    cls: str
    op: str
    start: float
    end: float
    ok: bool
    request_id: str | None
    detail: dict | None
    #: The mean of the probes before and after it (``bench/hostspeed.py``).
    probe: float
    #: The whole result, kept only by a client that was asked to.
    result: object = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class ClientThread(threading.Thread):
    """One closed-loop analyst: send, wait for the reply, send the next.

    Stops when *stream* ends, or before the first request that would
    start at or after ``stop_at``.
    """

    def __init__(
        self, url: str, stream, *, explain: bool = False, keep_results: bool = False
    ) -> None:
        super().__init__(daemon=True)
        self._url = url
        self._stream = stream
        self._explain = explain
        self._keep = keep_results
        self.stop_at: float | None = None
        self.samples: list[Sample] = []

    def run(self) -> None:
        from repro.server.client import OnexClient

        client = OnexClient(self._url, max_retries=0, timeout_s=spec.REQUEST_TIMEOUT_S)
        failures = _failures()
        before = hostspeed.probe()
        for index, request in enumerate(self._stream):
            if self.stop_at is not None and time.perf_counter() >= self.stop_at:
                return
            params = request.params
            if self._explain and request.op in _EXPLAINABLE:
                params = {**params, "explain": True}
            started = time.perf_counter()
            try:
                result = client.call(request.op, params)
                ok = True
            except failures:
                result, ok = None, False
            ended = time.perf_counter()
            after = hostspeed.probe()
            self.samples.append(
                Sample(
                    index, request.cls, request.op, started, ended, ok,
                    client.last_request_id, layers.detail(request.op, result),
                    (before + after) / 2, result if self._keep else None,
                )
            )
            before = after


class RssSampler(threading.Thread):
    """The highest summed RSS of the server's session seen between
    ``start()`` and ``stop()``, sampled every ``RSS_SAMPLE_SECONDS``; the
    session's processes are counted anew every second."""

    def __init__(self, sid: int) -> None:
        super().__init__(daemon=True)
        self._sid = sid
        self._done = threading.Event()
        self.peak_mb = 0.0

    def run(self) -> None:
        pids: list[int] = []
        census_due = 0.0
        while True:
            if time.monotonic() >= census_due:
                pids = session_pids(self._sid)
                census_due = time.monotonic() + 1.0
            self.peak_mb = max(self.peak_mb, rss_mb(pids))
            if self._done.wait(spec.RSS_SAMPLE_SECONDS):
                return

    def stop(self) -> float:
        self._done.set()
        self.join()
        return self.peak_mb


class Deployment:
    """A workload's server on fresh directories, loaded and ready."""

    def __init__(
        self,
        workload: spec.Workload,
        work_dir: Path,
        *,
        traced: bool = False,
        load_params: dict | None = None,
    ) -> None:
        from repro.server.client import OnexClient

        flags = workload.serve_flags()
        self._dirs = work_dir / f"state-{time.monotonic_ns()}"
        if workload.ingest:
            flags += ["--data-dir", str(self._dirs / "data")]
        elif workload.pooled:
            flags += ["--snapshot-dir", str(self._dirs / "snapshots")]
        self._flags = flags
        self._work_dir = work_dir
        self._traced = traced
        # The server inherits the core the harness settles on.
        hostspeed.settle()
        before = hostspeed.reading()
        self.server = ServerProcess(flags, work_dir, traced=traced).start()
        try:
            self.server.wait_ready()
            self.client = OnexClient(self.server.url, max_retries=0, timeout_s=120.0)
            self.loaded = self.client.call("load_dataset", load_params or workload.load_params())
            self.load_request_id = self.client.last_request_id
            self.setup_s = time.perf_counter() - self.server.spawned_at
            self.setup_slowdown = hostspeed.slowdown([before, hostspeed.reading()])
        except BaseException:
            self.server.stop()
            raise

    def register_monitors(self, catalog: plan.Catalog) -> None:
        for request in plan.monitor_requests(catalog):
            self.client.call(request.op, request.params)

    def state(self) -> dict:
        """What must survive a crash: structure fingerprint and points."""
        info = self.client.call("describe", {"dataset": self.loaded["dataset"]})
        return {
            "structure_fingerprint": info["structure_fingerprint"],
            "total_points": info["total_points"],
            "series": info["series"],
        }

    def crash_and_recover(self) -> tuple[float, float, dict, dict]:
        """``kill -9`` the session, restart on the same directory; returns
        (seconds to /ready, the core's slowdown meanwhile, acknowledged
        state before, state after)."""
        from repro.server.client import OnexClient

        acked = self.state()
        self.server.kill9()
        before = hostspeed.reading()
        self.server = ServerProcess(self._flags, self._work_dir, traced=self._traced).start()
        recover_s = self.server.wait_ready()
        slowdown = hostspeed.slowdown([before, hostspeed.reading()])
        self.client = OnexClient(self.server.url, max_retries=0, timeout_s=120.0)
        return recover_s, slowdown, acked, self.state()

    def close(self) -> None:
        self.server.stop()
        shutil.rmtree(self._dirs, ignore_errors=True)


def _set_up(workload: spec.Workload, work_dir: Path) -> tuple[Deployment, list[Deployment]]:
    """Set up ``SETUP_REPEATS`` times; keep the last deployment running."""
    deployments: list[Deployment] = []
    for _ in range(spec.SETUP_REPEATS):
        if deployments:
            deployments[-1].close()
        deployments.append(Deployment(workload, work_dir))
    return deployments[-1], deployments


def _slices(samples: list[Sample], t_start: float, seconds: float) -> list[dict]:
    width = seconds / spec.SLICES
    out = []
    for i in range(spec.SLICES):
        lo, hi = t_start + i * width, t_start + (i + 1) * width
        inside = [s for s in samples if s.ok and lo <= s.start < hi]
        similarity = [s.ms for s in inside if s.cls == "similarity"]
        out.append(
            {
                "ok_per_s": len(inside) / width,
                "similarity_p50_ms": statistics.median(similarity) if similarity else None,
                "slowdown": hostspeed.slowdown(s.probe for s in inside) if inside else None,
            }
        )
    return out


def plan_rate(samples: list[Sample], mix: dict[str, float]) -> float:
    """Requests per second the closed loop completes at the *planned*
    mix, from the latencies of *samples*.

    One request is always in flight, so the client completes 1 ÷ (mean
    latency) per second, and the mean latency at the planned mix is
    Σ share(op) × mean latency(op).  This equals requests ÷ seconds when
    the samples hold the operations in their planned shares; a window of
    a slow workload does not (2 to 5 ``query_batch`` of 1 s each among 80
    ``explore_coarse`` requests), and weighting by the plan takes that
    draw out of the figure.
    An operation the samples do not hold at all is left out of the mix.
    """
    by_op: dict[str, list[float]] = {}
    for s in samples:
        by_op.setdefault(s.op, []).append(s.ms)
    held = {op: share for op, share in mix.items() if op in by_op}
    if not held:
        return 0.0
    mean_ms = sum(share * statistics.fmean(by_op[op]) for op, share in held.items()) / sum(
        held.values()
    )
    return 1000.0 / mean_ms


def _per_op(done: list[Sample]) -> dict:
    """Per operation: how many OK requests, and their mean latency as
    the clock read it."""
    by_op: dict[str, list[float]] = {}
    for s in done:
        by_op.setdefault(s.op, []).append(s.ms)
    return {op: {"n": len(v), "mean_ms": statistics.fmean(v)} for op, v in sorted(by_op.items())}


def _answer_check_sample(url: str, catalog: plan.Catalog, seed: int) -> tuple[list, list]:
    """Send the check sample, before any load or write; returns
    (requests, served results)."""
    sample = plan.check_sample(catalog, seed)
    thread = ClientThread(url, sample, keep_results=True)
    thread.start()
    thread.join()
    return sample, [s.result if s.ok else None for s in thread.samples]


def _digest(answers: list) -> str:
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


def run_timed(workload: spec.Workload, seed: int, seconds: float, work_dir: Path) -> dict:
    """One untraced run of *workload*: every end-to-end metric."""
    catalog = plan.load_catalog()
    deployment, setups = _set_up(workload, work_dir)
    recovery = None
    try:
        if workload.ingest:
            deployment.register_monitors(catalog)
        sample, answers = _answer_check_sample(deployment.server.url, catalog, seed)
        sid = deployment.server.sid
        cpu = hostspeed.settle(session_pids(sid))
        client = ClientThread(deployment.server.url, plan.stream(workload, catalog, seed))
        client.start()
        time.sleep(spec.WARMUP_SECONDS)
        rss = RssSampler(sid)
        before = tree_usage(sid)
        loadgen_cpu = time.process_time()
        t_start = time.perf_counter()
        client.stop_at = t_start + seconds
        rss.start()
        time.sleep(seconds)
        after = tree_usage(sid)
        # The window is as long as it was measured to be, not as asked.
        t_end = time.perf_counter()
        seconds = t_end - t_start
        loadgen_cpu = time.process_time() - loadgen_cpu
        peak_rss_mb = rss.stop()
        # The request still in flight ends by its reply or by its timeout.
        client.join()
        if workload.ingest:
            recovery = deployment.crash_and_recover()
    finally:
        deployment.close()
    verdict = oracle.Oracle(workload, library=workload.pooled).check(sample, answers)

    # Every request sent during the window, whenever (and whether) its
    # reply came: one that hangs past the window is a failure, not absent.
    window = [s for s in client.samples if t_start <= s.start < t_end]
    done = [s for s in window if s.ok]
    by_class: dict[str, list[float]] = {}
    for s in done:
        by_class.setdefault(s.cls, []).append(s.ms)
    writes = by_class.get("write", [])
    wrote = after["write_bytes"] is not None and before["write_bytes"] is not None
    # How much slower than the reference the core ran while the server
    # worked: each request's probes count for as long as it took.
    pace = hostspeed.slowdown((s.probe for s in done), (s.ms for s in done)) if done else 1.0

    def at_reference(value: float | None, slowdown: float = pace) -> float | None:
        return None if value is None else value / slowdown

    metrics: dict[str, float | None] = {
        "setup_s": statistics.median(d.setup_s / d.setup_slowdown for d in setups),
        # Failed requests held the client as long as they took, and
        # count for nothing.
        "qps": pace * plan_rate(done, plan.mix(workload)) * len(done) / len(window) if window else 0.0,
        "similarity_p50_ms": at_reference(percentile(by_class.get("similarity", []), 0.50)),
        "similarity_p95_ms": at_reference(percentile(by_class.get("similarity", []), 0.95)),
        "range_p50_ms": at_reference(percentile(by_class.get("range", []), 0.50)),
        "write_p50_ms": at_reference(percentile(writes, 0.50)),
        "write_p95_ms": at_reference(percentile(writes, 0.95)),
        "recover_s": at_reference(recovery[0], recovery[1]) if recovery else None,
        "cpu_ms_per_request": (
            at_reference((after["cpu_s"] - before["cpu_s"]) * 1000.0 / len(done)) if done else None
        ),
        "peak_rss_mb": peak_rss_mb,
        "disk_bytes_per_write": (
            (after["write_bytes"] - before["write_bytes"]) / len(writes)
            if writes and wrote
            else None
        ),
        "error_rate": (len(window) - len(done)) / len(window) if window else None,
        "oracle_gap": verdict["oracle_gap"],
    }
    checks = dict(verdict)
    checks["answers_ok"] = oracle.passed(workload, verdict)
    checks["answers_sha256"] = _digest(answers)
    if recovery:
        checks["recovered_state_matches"] = recovery[2] == recovery[3]
    return {
        "workload": workload.name,
        "end_to_end": {
            m.name: metrics[m.name] if m.applies(workload) else None for m in spec.end_to_end()
        },
        "samples": {cls: len(values) for cls, values in sorted(by_class.items())},
        "attempted": len(window),
        "failed": len(window) - len(done),
        # What the clock read, and the slowdowns the metrics above were
        # divided by (multiplied, for qps).
        "as_timed": {
            "cpu": cpu,
            "slowdown": pace,
            "ok_per_s": len(done) / seconds,
            "ops": _per_op(done),
            "setup_runs_s": [d.setup_s for d in setups],
            "setup_slowdowns": [d.setup_slowdown for d in setups],
            "recover_s": recovery[0] if recovery else None,
            "recover_slowdown": recovery[1] if recovery else None,
            "slices": _slices(window, t_start, seconds),
        },
        "loadgen_cpu_frac": loadgen_cpu / seconds,
        "checks": checks,
        "correct": checks["answers_ok"] and checks.get("recovered_state_matches", True),
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def _fixed_pass(
    workload: spec.Workload,
    catalog: plan.Catalog,
    seed: int,
    cap_s: float,
    work_dir: Path,
    *,
    traced: bool,
) -> dict:
    """The fixed request plan against a fresh server, traced or not.

    The client sends ``TRACE_WARMUP_REQUESTS`` unmeasured requests and
    then ``TRACE_REQUESTS`` measured ones, so counts repeat exactly;
    *cap_s* only bounds a workload too slow to finish them.
    """
    from repro.obs.metrics import parse_exposition

    deployment = Deployment(workload, work_dir, traced=traced)
    out: dict = {"loaded": deployment.loaded, "load_request_id": deployment.load_request_id}
    try:
        if workload.ingest:
            deployment.register_monitors(catalog)
        requests = list(
            islice(
                plan.stream(workload, catalog, seed),
                spec.TRACE_WARMUP_REQUESTS + spec.TRACE_REQUESTS,
            )
        )
        client = ClientThread(
            deployment.server.url, requests, explain=traced, keep_results=traced
        )
        sid = deployment.server.sid
        counters_before = parse_exposition(deployment.client.scrape_metrics()) if traced else {}
        before = tree_usage(sid)
        loadgen_cpu = time.process_time()
        started = time.perf_counter()
        client.stop_at = started + cap_s
        client.start()
        client.join()
        elapsed = time.perf_counter() - started
        out.update(
            requests=requests,
            samples=client.samples,
            elapsed=elapsed,
            cpu_util=(tree_usage(sid)["cpu_s"] - before["cpu_s"]) / elapsed,
            loadgen_cpu_frac=(time.process_time() - loadgen_cpu) / elapsed,
        )
        if not traced:
            return out
        out["counters"] = (counters_before, parse_exposition(deployment.client.scrape_metrics()))
        if workload.ingest:
            out["monitors"] = deployment.client.call(
                "poll_events", {"dataset": catalog.dataset, "limit": 1}
            )["monitors"]
        out["span_files"] = deployment.server.flush_spans()
        if workload.ingest:
            out["recovery"] = deployment.crash_and_recover()
            out["recovered_health"] = deployment.client.health()
            out["recovery_span_files"] = deployment.server.flush_spans()
        out["orphans"] = deployment.server.orphans_after_sigterm()
        return out
    finally:
        deployment.close()


def run_traced(workload: spec.Workload, seed: int, seconds: float, work_dir: Path) -> dict:
    """Per-layer metrics of *workload* from a fixed, traced request plan."""
    catalog = plan.load_catalog()
    # Both passes must fit the time one timed run takes.  The untraced
    # one only yields ``trace.overhead_pct``, from the requests it reached.
    reference = _fixed_pass(workload, catalog, seed, 0.25 * seconds, work_dir, traced=False)
    traced = _fixed_pass(workload, catalog, seed, seconds, work_dir, traced=True)
    per_layer, closure = layers.aggregate(workload, traced, reference)
    measured = [s for s in traced["samples"] if s.index >= spec.TRACE_WARMUP_REQUESTS]
    done = [s for s in measured if s.ok]
    # Distances and thresholds of every traced answer; the brute-force
    # gap and the library comparison belong to the timed run.
    verdict = oracle.Oracle(workload).check(
        [traced["requests"][s.index] for s in done],
        [s.result for s in done],
        gap=False,
    )
    samples: dict[str, int] = {}
    for s in done:
        samples[s.cls] = samples.get(s.cls, 0) + 1
    checks = dict(verdict)
    checks["answers_ok"] = oracle.passed(workload, verdict)
    checks["self_time_closure"] = closure
    if "recovery" in traced:
        checks["recovered_state_matches"] = traced["recovery"][2] == traced["recovery"][3]
    return {
        "workload": workload.name,
        "per_layer": per_layer,
        "samples": dict(sorted(samples.items())),
        "attempted": len(measured),
        "failed": len(measured) - len(done),
        "checks": checks,
        "correct": (
            checks["answers_ok"]
            and checks.get("recovered_state_matches", True)
            and abs(closure - 1.0) <= 0.05
        ),
    }

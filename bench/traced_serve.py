"""``python -m bench.traced_serve serve ...``: the real server with spans
recorded around the public entry points of each layer.

Nothing in ``src/`` is edited: every span is recorded here, from the
benchmark's own files, by wrapping the functions the per-layer table
names before ``repro.cli.main`` runs.  Forked pool workers inherit the
wrappers and keep their own record.  On SIGUSR1 each process writes its
spans to ``$ONEX_BENCH_TRACE_DIR/spans-<pid>.json``.
"""

from __future__ import annotations

import functools
import os
import signal
import sys
from contextlib import AbstractContextManager
from pathlib import Path

from bench.spans import Recorder

REC = Recorder()


def _timed(name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with REC.span(name):
            return func(*args, **kwargs)

    return wrapper


def _wrap_method(cls: type, method: str, name: str) -> None:
    setattr(cls, method, _timed(name, getattr(cls, method)))


def _patch_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that is *original* — callers
    that did ``from x import f`` hold their own reference to ``f``."""
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _wrap_function(module, function: str, name: str) -> None:
    original = getattr(module, function)
    _patch_everywhere(original, _timed(name, original))


class _TimedEnter(AbstractContextManager):
    """Times only the acquisition of a context manager (a lock wait)."""

    def __init__(self, inner, name: str) -> None:
        self._inner = inner
        self._name = name

    def __enter__(self):
        with REC.span(self._name):
            return self._inner.__enter__()

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def install() -> None:
    """Wrap the entry points of every layer the per-layer table names."""
    import numpy as np

    import repro.cli  # noqa: F401 - imports every module patched below
    from repro.core import base as core_base
    from repro.core import grouping, mmap_layout
    from repro.core.query import QueryProcessor
    from repro.data import windows
    from repro.distances import dtw, lower_bounds
    from repro.durability import manager, recovery, wal
    from repro.server import http, pool, protocol, service, supervisor
    from repro.stream import ingest, monitor

    # server.http ------------------------------------------------------
    make_handler = http._make_handler

    def traced_make_handler(*args, **kwargs):
        handler = make_handler(*args, **kwargs)
        _wrap_method(handler, "do_POST", "http.request")
        _wrap_method(handler, "_send", "http.encode")
        return handler

    http._make_handler = traced_make_handler

    from_json = protocol.Request.__dict__["from_json"].__func__

    def traced_from_json(cls, text):
        with REC.span("http.parse"):
            request = from_json(cls, text)
            REC.tag_request(request.request_id)
            return request

    protocol.Request.from_json = classmethod(traced_from_json)
    _wrap_method(http.AdmissionGate, "try_acquire", "http.admission_wait")

    guard = http.DatasetLockManager.guard

    def traced_guard(self, request):
        return _TimedEnter(guard(self, request), "http.lock_wait")

    http.DatasetLockManager.guard = traced_guard

    # server.service ---------------------------------------------------
    handle = service.OnexService.handle

    def traced_handle(self, request):
        with REC.span("service.handle") as span:
            # A pool worker has no enclosing HTTP span: the frame that
            # carried the request names it, and its bytes arrived just
            # before this call.
            rid = (
                request.get("request_id")
                if isinstance(request, dict)
                else getattr(request, "request_id", None)
            )
            if rid:
                REC.tag_request(rid)
            pending = REC.take_pending()
            if pending:
                span.add(frame_bytes=pending)
            return handle(self, request)

    service.OnexService.handle = traced_handle
    _wrap_method(service.OnexService, "_match_payload", "service.payload")

    # server.pool / server.supervisor ----------------------------------
    _wrap_method(pool.WorkerPool, "dispatch", "pool.dispatch")
    _wrap_method(supervisor.Supervisor, "_publish_locked", "pool.publish")

    recv_exact = pool._recv_exact

    def counting_recv_exact(sock, n):
        data = recv_exact(sock, n)
        if data is not None:
            REC.count_bytes(len(data))
        return data

    pool._recv_exact = counting_recv_exact

    save_snapshot = mmap_layout.save_base_snapshot

    def traced_save_snapshot(base, directory):
        with REC.span("pool.snapshot") as span:
            path = save_snapshot(base, directory)
            span.add(bytes=_dir_bytes(path))
            return path

    _patch_everywhere(save_snapshot, traced_save_snapshot)

    # core.query -------------------------------------------------------
    _wrap_method(QueryProcessor, "k_best_matches", "query.k_best")
    _wrap_method(QueryProcessor, "matches_within", "query.range")
    _wrap_method(QueryProcessor, "batch_matches", "query.batch")

    # distances --------------------------------------------------------
    kernel = dtw.dtw_distance_batch

    @functools.wraps(kernel)
    def traced_kernel(x, rows, *, window=None, **kwargs):
        n = np.shape(x)[-1]
        batch, m = np.shape(rows)
        band = dtw.effective_band(n, m, window)
        if band is None:
            cells = n * m
        else:
            cells = sum(min(m, i + band + 1) - max(0, i - band) for i in range(n))
        with REC.span("dtw.kernel", {"cells": batch * cells}):
            return kernel(x, rows, window=window, **kwargs)

    _patch_everywhere(kernel, traced_kernel)
    for bound in (
        "lb_kim_batch",
        "lb_keogh_batch",
        "lb_keogh_reverse_batch",
        "lb_kim_endpoints_batch",
    ):
        _wrap_function(lower_bounds, bound, "lb.bounds")

    # core.base / core.grouping / data.windows -------------------------
    _wrap_function(windows, "window_matrix", "build.extract")
    _wrap_function(grouping, "cluster_subsequence_rows", "build.cluster")
    _wrap_method(core_base.OnexBase, "build", "build.base")
    _wrap_method(core_base.OnexBase, "structure_fingerprint", "build.fingerprint")

    # stream -----------------------------------------------------------
    _wrap_method(ingest.StreamIngestor, "append_points", "stream.append")
    _wrap_method(core_base.OnexBase, "index_new_windows", "stream.index")
    _wrap_method(monitor.MonitorRegistry, "on_points", "stream.monitor_scan")

    # durability -------------------------------------------------------
    _wrap_method(wal.WriteAheadLog, "append", "wal.append")
    checkpoint = manager.DatasetDurability.checkpoint

    def traced_checkpoint(self, *args, **kwargs):
        with REC.span("checkpoint.write") as span:
            entry = checkpoint(self, *args, **kwargs)
            span.add(
                bytes=sum(
                    (self.directory / entry[key]).stat().st_size
                    for key in ("base_file", "data_file")
                )
            )
            return entry

    manager.DatasetDurability.checkpoint = traced_checkpoint
    _wrap_function(recovery, "recover_all", "recovery.replay")


def main(argv: list[str] | None = None) -> int:
    trace_dir = os.environ["ONEX_BENCH_TRACE_DIR"]
    install()
    os.register_at_fork(after_in_child=REC.reset)
    signal.signal(signal.SIGUSR1, lambda *_: REC.dump(trace_dir))
    from repro.cli import main as cli_main

    return cli_main(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())

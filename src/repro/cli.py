"""Command-line interface: ``python -m repro <command>``.

Wraps the engine and server for shell use.  Commands mirror the service
operations so everything the HTTP API offers is scriptable:

- ``describe`` — load a source and print collection + base statistics.
- ``query`` — best matches for a brushed series window; ``--starts``
  brushes several windows and submits them as one ``query_batch``;
  ``--window`` constrains every DTW to a Sakoe-Chiba band (engaging the
  exact-band centroid envelopes and the band-limited kernel);
  ``--metric`` swaps the distance metric (any registry name).
- ``seasonal`` — recurring patterns within one series.
- ``thresholds`` — data-driven similarity-threshold suggestions
  (``--samples`` pairs drawn with ``--sample-seed``); reads the loaded
  base's normalised value store, so it answers at serving speed.
- ``sensitivity`` — match-count curve across candidate thresholds.
- ``profile`` — the full sensitivity workflow in one command: the grid
  defaults to the recommender's data-driven quantiles and ambiguous
  members are verified exactly through the batched cascade.
- ``stream`` — replay a series as a live stream against a standing
  pattern monitor (the streaming subsystem end to end).
- ``serve`` — run the HTTP JSON API (the demo's web backend).

Sources: ``matters`` / ``electricity`` (simulated demo collections) or
``ucr:<path>`` for archive-format files.  Output is human-readable by
default; ``--json`` emits machine-readable payloads.  ``--log-level``
enables the library's structured log stream on stderr (``--log-json``
switches it to one JSON object per line); ``query --explain`` attaches
the engine's trace — span tree plus pruning-cascade counters — to the
result.
"""

from __future__ import annotations

import argparse
import json
import sys

import repro
from repro.core.config import QueryConfig
from repro.exceptions import OnexError, RemoteError
from repro.obs.logs import configure_logging
from repro.server.client import OnexClient
from repro.server.http import OnexHttpServer
from repro.server.protocol import Request
from repro.server.service import OnexService

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser: global flags and one subcommand each."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ONEX interactive time series analytics (SIGMOD 2017 reproduction)",
    )
    parser.add_argument("--json", action="store_true", help="emit raw JSON payloads")
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="emit the library's structured log events to "
                             "stderr at this level (default: logging off)")
    parser.add_argument("--log-json", action="store_true",
                        help="with --log-level: one JSON object per log "
                             "line instead of key=value text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--source", default="matters",
                       help="matters | electricity | ucr:<path>")
        p.add_argument("--st", type=float, default=None,
                       help="similarity threshold (default: data-driven)")
        p.add_argument("--min-length", type=int, default=None)
        p.add_argument("--max-length", type=int, default=None)
        p.add_argument("--seed", type=int, default=2013)
        p.add_argument("--indicators", nargs="*", default=None,
                       help="MATTERS indicator subset (e.g. GrowthRate)")
        p.add_argument("--years", type=int, default=16)
        p.add_argument("--min-years", type=int, default=10)
        p.add_argument("--window", type=int, default=None,
                       help="Sakoe-Chiba band radius for all DTW "
                            "evaluations (default: unconstrained; banded "
                            "queries engage the exact-band centroid "
                            "envelopes and the band-limited kernel)")
        p.add_argument("--timeout-ms", type=float, default=None,
                       help="deadline for each long-running operation; an "
                            "exceeded budget yields a structured "
                            "DeadlineExceeded error with progress so far")
        p.add_argument("--allow-partial", action="store_true",
                       help="with --timeout-ms: degrade to the best "
                            "verified partial result (flagged exact=false) "
                            "instead of erroring, where supported")
        p.add_argument("--server", default=None, metavar="URL",
                       help="route every operation to a running ONEX "
                            "server at URL (e.g. http://127.0.0.1:8765) "
                            "instead of executing in-process; read-only "
                            "operations are retried with backoff when the "
                            "server sheds load")

    p = sub.add_parser("describe", help="collection and base statistics")
    add_source_options(p)

    p = sub.add_parser("query", help="best matches for a brushed window")
    add_source_options(p)
    p.add_argument("--series", required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--starts", nargs="+", type=int, default=None,
                   help="brush several windows (one per start) and submit "
                        "them as a single query_batch request")
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--metric", default=None,
                   help="distance metric: dtw (default), euclidean, "
                        "cityblock, chebyshev, derivative_dtw, or "
                        "weighted_dtw; non-DTW metrics answer exactly in "
                        "either mode")
    p.add_argument("--explain", action="store_true",
                   help="trace the query and attach the span tree plus "
                        "pruning-cascade counters to the result (matches "
                        "are identical to the untraced call)")

    p = sub.add_parser("seasonal", help="recurring patterns within one series")
    add_source_options(p)
    p.add_argument("--series", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--remove-level", action="store_true")

    p = sub.add_parser("thresholds", help="similarity-threshold suggestions")
    add_source_options(p)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--samples", type=int, default=2000,
                   help="random subsequence pairs sampled")
    p.add_argument("--sample-seed", type=int, default=0,
                   help="RNG seed of the pair sampling")

    p = sub.add_parser("sensitivity", help="match counts across thresholds")
    add_source_options(p)
    p.add_argument("--series", required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--grid", nargs="+", type=float,
                   default=[0.02, 0.05, 0.1, 0.2])
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser(
        "profile",
        help="verified sensitivity profile over a data-driven threshold grid",
    )
    add_source_options(p)
    p.add_argument("--series", required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--length", type=int, required=True,
                   help="brushed window length (also the length the "
                        "default grid is recommended for)")
    p.add_argument("--grid", nargs="+", type=float, default=None,
                   help="explicit thresholds (default: the recommender's "
                        "quantiles for the brushed length, plus 2x the "
                        "default suggestion)")
    p.add_argument("--no-verify", action="store_true",
                   help="bounds-only curves (skip exact resolution of "
                        "ambiguous members)")

    p = sub.add_parser(
        "stream",
        help="replay a series as a live stream against a standing pattern monitor",
    )
    add_source_options(p)
    p.add_argument("--series", required=True,
                   help="series to brush the pattern from and replay live")
    p.add_argument("--pattern-start", type=int, default=0)
    p.add_argument("--pattern-length", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None,
                   help="raw warping-cost threshold (default: ST * (2m-1))")
    p.add_argument("--chunk", type=int, default=8,
                   help="points appended per simulated arrival")
    p.add_argument("--max-events", type=int, default=10,
                   help="events printed (all events are still counted)")

    p = sub.add_parser("serve", help="run the HTTP JSON API")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--workers", type=int, default=0,
                   help="pre-fork this many worker processes serving "
                        "read-only queries against mmap-shared base "
                        "snapshots; the supervisor restarts crashed "
                        "workers with backoff and sheds cleanly at zero "
                        "capacity (default: 0, single-process)")
    p.add_argument("--snapshot-dir", default=None,
                   help="with --workers: directory for the published mmap "
                        "base snapshots (default: <data-dir>/pool-snapshots, "
                        "or a temporary directory)")
    p.add_argument("--read-timeout-s", type=float, default=30.0,
                   help="per-connection socket read timeout; a client that "
                        "stalls mid-request-body gets a structured 408 "
                        "instead of pinning a handler thread")
    p.add_argument("--mode", choices=("fast", "exact"), default="fast",
                   help="query strategy the service answers with")
    p.add_argument("--window", type=int, default=None,
                   help="Sakoe-Chiba band radius for all DTW evaluations")
    p.add_argument("--max-in-flight", type=int, default=8,
                   help="requests executing concurrently before arrivals "
                        "queue (admission control)")
    p.add_argument("--max-queue", type=int, default=16,
                   help="requests waiting for a slot before arrivals are "
                        "shed with 503 + Retry-After")
    p.add_argument("--drain-timeout", type=float, default=5.0,
                   help="seconds shutdown waits for in-flight requests "
                        "before abandoning them")
    p.add_argument("--default-timeout-ms", type=float, default=None,
                   help="server-side deadline applied to long-running "
                        "operations that carry no timeout_ms of their own")
    p.add_argument("--data-dir", default=None,
                   help="durable state directory: mutating operations are "
                        "write-ahead logged and checkpointed here, and "
                        "startup recovers every stored dataset (latest "
                        "valid checkpoint + WAL tail replay) before "
                        "serving")
    p.add_argument("--wal-sync", choices=("always", "interval", "never"),
                   default="interval",
                   help="WAL fsync policy: per-append (always), group "
                        "commit (interval, default), or OS writeback "
                        "(never); every mode flushes before ack, so "
                        "acknowledged writes survive SIGKILL regardless")
    p.add_argument("--wal-sync-interval-ms", type=float, default=50.0,
                   help="group-commit window for --wal-sync interval")
    p.add_argument("--checkpoint-every", type=int, default=256,
                   help="WAL appends between checkpoints (after which the "
                        "log is compacted)")

    return parser


def _load_params(args: argparse.Namespace) -> dict:
    params: dict = {"source": args.source, "seed": args.seed}
    if args.source == "matters":
        params["years"] = args.years
        params["min_years"] = args.min_years
        if args.indicators:
            params["indicators"] = args.indicators
    if args.st is not None:
        params["similarity_threshold"] = args.st
    if args.min_length is not None:
        params["min_length"] = args.min_length
    if args.max_length is not None:
        params["max_length"] = args.max_length
    return params


def _deadline_options(args: argparse.Namespace) -> dict:
    """The request-level deadline parameters the flags translate to.

    Harmless on operations that ignore them (the service validates and
    applies them only where the protocol documents support).
    """
    opts: dict = {}
    if getattr(args, "timeout_ms", None) is not None:
        opts["timeout_ms"] = args.timeout_ms
        if getattr(args, "allow_partial", False):
            opts["allow_partial"] = True
    return opts


def _call(backend, op: str, params: dict) -> dict:
    """Dispatch one operation in-process or over HTTP (``--server``)."""
    if isinstance(backend, OnexClient):
        return backend.call(op, params)  # RemoteError is an OnexError
    response = backend.handle(Request(op, params))
    if not response.ok:
        raise OnexError(f"{response.error_type}: {response.error_message}")
    return response.result


def _emit(payload, args, human) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        human(payload)


def _print_explain(payload: dict) -> None:
    """Render a result's ``explain`` block (``query --explain``)."""
    explain = payload.get("explain")
    if not explain:
        return
    print(f"explain (request {explain['request_id']}, "
          f"{explain['duration_ms']:.2f} ms):")

    def walk(node: dict, depth: int) -> None:
        attrs = " ".join(
            f"{k}={v}" for k, v in sorted(node.get("attrs", {}).items())
        )
        print(f"  {'  ' * depth}{node['name']:<24} "
              f"{node.get('duration_ms', 0.0):9.3f} ms  {attrs}")
        for child in node.get("children", ()):
            walk(child, depth + 1)

    walk(explain["spans"], 0)
    stats = explain.get("stats")
    if stats:
        shown = {k: v for k, v in sorted(stats.items()) if v}
        print("cascade: " + ", ".join(f"{k}={v}" for k, v in shown.items()))


def _serve(args: argparse.Namespace) -> int:
    """The ``serve`` command: bind first, recover behind the ready gate.

    Startup failures (port already bound, unusable ``--data-dir``) are
    structured :class:`~repro.exceptions.StartupError`\\ s — ``main``
    renders them as one ``error:`` line, never a traceback.  The socket
    binds *before* recovery runs: clients racing a restart see clean
    503s (``/ready`` false, ``NotReadyError`` envelopes) instead of
    connection-refused, and never a partially replayed engine.
    """
    import os
    import shutil
    import signal
    import tempfile
    import threading
    from pathlib import Path

    from repro.exceptions import StartupError

    durability = None
    if args.data_dir is not None:
        data_path = Path(args.data_dir)
        if data_path.exists():
            if not data_path.is_dir():
                raise StartupError(
                    f"--data-dir {args.data_dir} is not a directory"
                )
            if not os.access(data_path, os.R_OK | os.W_OK | os.X_OK):
                raise StartupError(
                    f"--data-dir {args.data_dir} is not readable/writable"
                )
        from repro.durability import DurabilityManager

        try:
            durability = DurabilityManager(
                args.data_dir,
                wal_sync=args.wal_sync,
                wal_sync_interval_ms=args.wal_sync_interval_ms,
                checkpoint_every=args.checkpoint_every,
            )
        except OSError as exc:
            raise StartupError(
                f"cannot open --data-dir {args.data_dir}: {exc}"
            ) from exc
    service = OnexService(
        QueryConfig(mode=args.mode, window=args.window),
        default_timeout_ms=args.default_timeout_ms,
        durability=durability,
    )
    facade = service
    supervisor = None
    snapshot_tmp = None
    if args.workers and args.workers > 0:
        from repro.server.supervisor import Supervisor

        snapshot_root = args.snapshot_dir
        if snapshot_root is None:
            if args.data_dir is not None:
                snapshot_root = str(Path(args.data_dir) / "pool-snapshots")
            else:
                snapshot_root = snapshot_tmp = tempfile.mkdtemp(
                    prefix="onex-pool-"
                )
        supervisor = facade = Supervisor(
            service,
            workers=args.workers,
            snapshot_root=snapshot_root,
        )
    # Bind before recovery so restarts never present connection-refused;
    # the ready gate keeps /api shedding structured 503s until the
    # engine is fully recovered and the pool (if any) is live.
    needs_warmup = durability is not None or supervisor is not None
    server = OnexHttpServer(
        facade,
        host=args.host,
        port=args.port,
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        drain_timeout=args.drain_timeout,
        read_timeout_s=args.read_timeout_s,
        ready=not needs_warmup,
    )
    print(f"ONEX server v{repro.__version__} listening on {server.url} "
          f"(Ctrl-C to stop)")
    print(f"  POST {server.url}/api      JSON protocol envelopes")
    print(f"  GET  {server.url}/health   liveness + dataset fingerprints")
    print(f"  GET  {server.url}/ready    admission-gate readiness")
    print(f"  GET  {server.url}/metrics  Prometheus text exposition")
    if durability is not None:
        print(f"  WAL  {durability.data_dir}  durable state "
              f"(sync={args.wal_sync})")
    if threading.current_thread() is threading.main_thread():
        # A plain ``kill`` takes the Ctrl-C path: drain, stop the pool's
        # workers, remove the temporary snapshot directory.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.start()
        if durability is not None:
            report = facade.recover()
            print(f"recovery: {len(report.datasets)} dataset(s), "
                  f"{report.replayed_records} WAL record(s) replayed in "
                  f"{report.duration_s:.3f}s"
                  + (f", {len(report.errors)} failed" if report.errors else ""))
        if supervisor is not None:
            supervisor.start()
            print(f"pool: {supervisor.pool.live_workers}/"
                  f"{supervisor.pool.size} worker(s) live "
                  f"(snapshots in {supervisor._root})")
        if needs_warmup:
            server.set_ready(True)
        server._thread.join()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        server.stop()
    finally:
        facade.close()
        if snapshot_tmp is not None:
            shutil.rmtree(snapshot_tmp, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    """Run one ``repro`` command line; returns the process exit status."""
    args = build_parser().parse_args(argv)
    if args.log_level is not None:
        configure_logging(args.log_level, json_mode=args.log_json)
    try:
        return _dispatch(args)
    except OnexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "serve":
        return _serve(args)

    if args.server:
        service = OnexClient(args.server)
    else:
        service = OnexService(
            QueryConfig(mode="fast", refine_groups=3, window=args.window)
        )
    deadline_opts = _deadline_options(args)
    try:
        loaded = _call(
            service, "load_dataset", {**_load_params(args), **deadline_opts}
        )
        dataset = loaded["dataset"]
    except RemoteError as exc:
        # A shared server may already hold this dataset — reuse it (the
        # engine quotes the name in the error message).
        if (
            exc.error_type != "DatasetError"
            or "already loaded" not in exc.error_message
        ):
            raise
        dataset = exc.error_message.split("'")[1]

    if args.command == "describe":
        info = _call(service, "describe", {"dataset": dataset})

        def human(payload):
            print(f"{payload['name']}: {payload['series']} series, "
                  f"{payload['total_points']} points, lengths "
                  f"{payload['min_length']}..{payload['max_length']}")
            print(f"base: {payload['groups']} groups, "
                  f"{payload['compaction_ratio']:.1f}x compaction "
                  f"({payload['build_seconds']:.3f}s build)")
            per_length = payload.get("per_length") or []
            if per_length:
                print("per-length breakdown:")
                for entry in per_length:
                    print(f"  len {entry['length']:>3}: "
                          f"{entry['subsequences']:>6} windows -> "
                          f"{entry['groups']:>5} groups")

        _emit(info, args, human)
        return 0

    if args.command == "query":
        explain_opts = {"explain": True} if args.explain else {}
        if args.metric is not None:
            explain_opts["metric"] = args.metric
        if args.starts is not None:
            # One request answers every brushed window (query_batch).
            result = _call(
                service,
                "query_batch",
                {
                    "dataset": dataset,
                    "queries": [
                        {"series": args.series, "start": start,
                         "length": args.length}
                        for start in args.starts
                    ],
                    "k": args.k,
                    **deadline_opts,
                    **explain_opts,
                },
            )

            def human(payload):
                for start, entry in zip(args.starts, payload["results"]):
                    print(f"top {len(entry['matches'])} matches for "
                          f"{args.series}[{start}:]:")
                    for m in entry["matches"]:
                        print(f"  {m['match_series']:<24} "
                              f"start={m['match_start']:<4}"
                              f" dist={m['distance']:.4f}")
                _print_explain(payload)

            _emit(result, args, human)
            return 0
        result = _call(
            service,
            "k_best",
            {
                "dataset": dataset,
                "query": {"series": args.series, "start": args.start,
                          "length": args.length},
                "k": args.k,
                **deadline_opts,
                **explain_opts,
            },
        )

        def human(payload):
            print(f"top {len(payload['matches'])} matches for "
                  f"{args.series}[{args.start}:]:")
            for m in payload["matches"]:
                print(f"  {m['match_series']:<24} start={m['match_start']:<4}"
                      f" dist={m['distance']:.4f}")
            _print_explain(payload)

        _emit(result, args, human)
        return 0

    if args.command == "seasonal":
        params = {
            "dataset": dataset,
            "series": args.series,
            "length": args.length,
            "step": args.step,
            "remove_level": args.remove_level,
            **deadline_opts,
        }
        if args.threshold is not None:
            params["threshold"] = args.threshold
        result = _call(service, "seasonal", params)

        def human(payload):
            print(f"{len(payload['patterns'])} recurring pattern(s) in "
                  f"{payload['series']}:")
            for p in payload["patterns"]:
                starts = [s["start"] for s in p["segments"]]
                print(f"  {len(starts)} occurrences at {starts} "
                      f"(max pairwise DTW {p['max_pairwise_dtw']:.4f})")

        _emit(result, args, human)
        return 0

    if args.command == "thresholds":
        params = {
            "dataset": dataset,
            "length": args.length,
            "samples": args.samples,
            "seed": args.sample_seed,
        }
        result = _call(service, "thresholds", params)

        def human(payload):
            print(f"suggested thresholds for length {payload['length']} "
                  f"({payload['samples']} sampled pairs):")
            for label, value in payload["suggestions"].items():
                print(f"  {label:>4}: {value:.5f}")
            print(f"default: {payload['default']:.5f}")

        _emit(result, args, human)
        return 0

    if args.command == "stream":
        replay_name = f"{args.series}/live"
        monitor = _call(
            service,
            "register_monitor",
            {
                "dataset": dataset,
                "pattern": {"series": args.series, "start": args.pattern_start,
                            "length": args.pattern_length},
                "series": replay_name,
                **({"epsilon": args.epsilon} if args.epsilon is not None else {}),
            },
        )
        preview = _call(
            service, "query_preview", {"dataset": dataset, "series": args.series}
        )
        values = preview["values"]
        appended = 0
        windows = 0
        for i in range(0, len(values), max(1, args.chunk)):
            summary = _call(
                service,
                "append_points",
                {
                    "dataset": dataset,
                    "series": replay_name,
                    "values": values[i : i + max(1, args.chunk)],
                },
            )
            appended += summary["points"]
            windows += summary["windows"]
        # The replay is finite: flush the matchers' pending candidates so
        # a match ending on the last sample is reported too.
        _call(service, "flush_monitors", {"dataset": dataset})
        polled = _call(service, "poll_events", {"dataset": dataset})
        result = {
            "monitor": next(
                m for m in polled["monitors"] if m["monitor"] == monitor["monitor"]
            ),
            "replayed_series": replay_name,
            "points_appended": appended,
            "windows_indexed": windows,
            "events": polled["events"],
        }

        def human(payload):
            mon = payload["monitor"]
            print(f"replayed {payload['points_appended']} points of "
                  f"{args.series} as {payload['replayed_series']} "
                  f"({payload['windows_indexed']} windows indexed)")
            print(f"monitor {mon['monitor']}: pattern length "
                  f"{mon['pattern_length']}, epsilon {mon['epsilon']:.4f}, "
                  f"{mon['windows_checked']} windows checked")
            events = payload["events"]
            print(f"{len(events)} event(s):")
            for e in events[: args.max_events]:
                print(f"  #{e['seq']:<4} {e['kind']:<6} "
                      f"[{e['start']}, {e['end']}] dist={e['distance']:.4f}")
            if len(events) > args.max_events:
                print(f"  ... {len(events) - args.max_events} more")

        _emit(result, args, human)
        return 0

    if args.command in ("sensitivity", "profile"):
        if args.command == "profile":
            grid = args.grid
            if grid is None:
                # Data-driven default: the recommender's quantiles for the
                # brushed length, widened by 2x the default suggestion so
                # the flood-in region is visible too.
                rec = _call(
                    service,
                    "thresholds",
                    {"dataset": dataset, "length": args.length},
                )
                grid = sorted(
                    set(rec["suggestions"].values()) | {2 * rec["default"]}
                )
            verify = not args.no_verify
        else:
            grid, verify = args.grid, args.verify
        result = _call(
            service,
            "sensitivity",
            {
                "dataset": dataset,
                "query": {"series": args.series, "start": args.start,
                          "length": args.length},
                "thresholds": grid,
                "verify": verify,
                **deadline_opts,
            },
        )

        def human(payload):
            print(f"match counts over {payload['candidates']} candidates:")
            for i, st in enumerate(payload["thresholds"]):
                exact = payload["exact"][i]
                exact_txt = f" exact={exact}" if exact is not None else ""
                print(f"  ST={st:<6g} certain={payload['certain'][i]:<6}"
                      f" possible={payload['possible'][i]:<6}{exact_txt}")
            print(f"knee: ST={payload['knee']}")

        _emit(result, args, human)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

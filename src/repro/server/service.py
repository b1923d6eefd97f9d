"""Transport-agnostic ONEX service: JSON requests in, JSON responses out.

Wraps :class:`repro.core.engine.OnexEngine` with the demo's server
workflow: "with a click of a button, analysts can load new data sets into
ONEX" — a ``load_dataset`` request builds the base server-side, after
which exploration operations answer in near real time.  Built-in sources
(``matters``, ``electricity``) cover the demo datasets; ``ucr:<path>``
loads archive-format files.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from typing import TYPE_CHECKING, Any

from repro.core.config import QueryConfig
from repro.core.deadline import Deadline
from repro.core.engine import OnexEngine
from repro.core.validation import as_bool_arg, as_optional_timeout_ms
from repro.data.electricity import build_electricity_collection
from repro.data.matters import build_matters_collection
from repro.data.ucr_format import load_ucr_file
from repro.durability.idempotency import IdempotencyWindow

if TYPE_CHECKING:
    from repro.durability import DurabilityManager
    from repro.durability.recovery import RecoveryReport
from repro.exceptions import DeadlineExceeded, OnexError, ProtocolError
from repro.obs.logs import get_logger, log_event
from repro.obs.metrics import REGISTRY
from repro.obs.trace import new_request_id, span, tracing
from repro.server.protocol import (
    DURABLE_OPERATIONS,
    OPERATION_OPTIONS,
    Request,
    Response,
)
from repro.viz.payloads import (
    overview_payload,
    query_preview_payload,
    seasonal_view_payload,
    similarity_view_payload,
)

__all__ = ["OnexService"]

_LOG = get_logger("service")

_DEDUP_TOTAL = REGISTRY.counter(
    "onex_idempotent_dedup_total",
    "Duplicate mutating requests answered from the idempotency window",
)

#: Request options that parameterise *this* execution, not the mutation
#: itself — stripped from WAL records so replay is deterministic (a
#: deadline that fired live must not re-fire during recovery).
_EXECUTION_ONLY_OPTIONS = ("timeout_ms", "allow_partial", "explain")

#: Explain-capable operations whose payload also carries the query
#: processor's cascade counters (the analytics ops only get spans).
_CASCADE_OPS = frozenset(
    {"best_match", "k_best", "query_batch", "matches_within"}
)

#: Keyword arguments of load_dataset requests forwarded to the engine.
_LOAD_OPTIONS = (
    "similarity_threshold",
    "min_length",
    "max_length",
    "step",
    "normalize",
    "num_workers",
    "build_executor",
)


class OnexService:
    """Handles protocol requests against one engine instance.

    *default_build_workers* applies to ``load_dataset`` requests that do
    not name ``num_workers`` themselves — the ``serve --build-workers``
    deployment knob; explicit request parameters always win.
    *default_timeout_ms* is the server-side deadline applied to every
    long-running operation that does not carry its own ``timeout_ms``
    (see :data:`repro.server.protocol.OPERATION_OPTIONS`).
    """

    def __init__(
        self,
        query_config: QueryConfig | None = None,
        *,
        default_build_workers: int | None = None,
        default_timeout_ms: float | None = None,
        durability: DurabilityManager | None = None,
        idempotency_window: int = 1024,
    ) -> None:
        self._engine = OnexEngine(query_config)
        self._default_build_workers = default_build_workers
        self._default_timeout_ms = as_optional_timeout_ms(
            default_timeout_ms, "default_timeout_ms"
        )
        #: Optional :class:`repro.durability.DurabilityManager` — when
        #: set, durable operations are WAL-logged before acknowledgement
        #: and datasets checkpoint on the manager's cadence.
        self._durability = durability
        # The idempotency window is always on (not gated on durability):
        # retry-after-timeout double execution is a liveness bug even for
        # a RAM-only server.
        self._idempotency = IdempotencyWindow(idempotency_window)
        self.last_recovery = None

    @property
    def engine(self) -> OnexEngine:
        return self._engine

    @property
    def durability(self) -> DurabilityManager | None:
        return self._durability

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def handle(self, request: Request | dict | str | bytes) -> Response:
        """Dispatch one request; *every* failure becomes an error response.

        Every request gets a request ID (the caller's, else a freshly
        minted one) that is echoed in the response envelope.  With
        ``explain=True`` (explain-capable operations only) the dispatch
        runs inside an activated trace and the result payload carries an
        ``"explain"`` object — pure observation, so the result proper is
        bit-identical to the unexplained call.

        Durable operations (:data:`DURABLE_OPERATIONS`) take the
        log-then-execute-then-remember path: a duplicate ``request_id``
        is answered from the idempotency window without re-executing; a
        fresh one is WAL-logged first (an append failure is returned
        *unrecorded*, so the client's retry re-attempts the whole op),
        then executed, and its outcome — success or failure — recorded
        against the id before the response leaves the service.
        """
        request_id: str | None = None
        try:
            if isinstance(request, (str, bytes)):
                request = Request.from_json(request)
            elif isinstance(request, dict):
                request = Request.from_dict(request)
            if request.request_id is None:
                request = replace(request, request_id=new_request_id())
        except (OnexError, ValueError, TypeError, KeyError) as exc:
            return Response.failure(exc)
        request_id = request.request_id
        op = request.op
        if op in DURABLE_OPERATIONS:
            return self._handle_durable(request)
        response = self._execute(request)
        if self._durability is not None and response.ok:
            if op == "load_dataset":
                self._attach_durable(str(response.result["dataset"]))
            elif op == "unload_dataset":
                self._durability.detach(
                    str(request.params["dataset"]), delete=True
                )
        return response

    def _handle_durable(self, request: Request) -> Response:
        request_id = request.request_id
        op = request.op
        name = str(request.params.get("dataset", ""))
        cached = self._idempotency.lookup(request_id)
        if cached is not None:
            _DEDUP_TOTAL.inc(op=op)
            log_event(
                _LOG,
                "info",
                "idempotent.dedup",
                op=op,
                request_id=request_id,
            )
            return cached.with_request_id(request_id)
        handle = (
            self._durability.get(name) if self._durability is not None else None
        )
        if handle is not None:
            wal_params = {
                k: v
                for k, v in request.params.items()
                if k not in _EXECUTION_ONLY_OPTIONS
            }
            try:
                handle.log(op, wal_params, request_id)
            except Exception as exc:
                # The op never ran and was never acknowledged; leaving
                # the window empty makes the client's retry re-attempt
                # (log, execute) from scratch.
                log_event(
                    _LOG,
                    "error",
                    "wal.append_failed",
                    op=op,
                    dataset=name,
                    request_id=request_id,
                    error=str(exc),
                )
                if isinstance(exc, (OnexError, ValueError, OSError)):
                    return Response.failure(exc).with_request_id(request_id)
                return Response.internal_error(exc).with_request_id(request_id)
        response = self._execute(request)
        self._idempotency.record(request_id, response)
        if handle is not None and response.ok:
            self._checkpoint_if_due(name)
        return response

    def _execute(self, request: Request) -> Response:
        """Dispatch one parsed request; never raises."""
        request_id = request.request_id
        op = request.op
        try:
            handler = getattr(self, f"_op_{op}")
            if self._explain_requested(op, request.params):
                with tracing(request_id) as trace:
                    with span(f"op.{op}", op=op):
                        result = handler(request.params)
                result = self._attach_explain(op, request.params, result, trace)
            else:
                result = handler(request.params)
            return Response.success(result).with_request_id(request_id)
        except (OnexError, ValueError, TypeError, KeyError, OSError) as exc:
            if isinstance(exc, DeadlineExceeded):
                log_event(
                    _LOG,
                    "warning",
                    "deadline.expired",
                    op=op,
                    request_id=request_id,
                    stage=exc.stage,
                )
            return Response.failure(exc).with_request_id(request_id)
        except Exception as exc:  # final guard: a handler bug (e.g. an
            # AttributeError or a numpy edge case) must degrade to a
            # structured failure, not sever the connection mid-request.
            return Response.internal_error(exc).with_request_id(request_id)

    # ------------------------------------------------------------------
    # Durability hooks
    # ------------------------------------------------------------------

    def _attach_durable(self, name: str) -> None:
        """Open durability state for a freshly loaded dataset; checkpoint.

        The initial checkpoint is what makes the *load itself* durable
        (the WAL only carries deltas).  Failures are logged, not raised:
        the load already executed, and a response-time error would leave
        the client believing the dataset is absent.
        """
        try:
            handle, _scan = self._durability.attach(name)
            handle.checkpoint(
                self._engine.base(name), self._engine.stream_state(name)
            )
        except Exception as exc:
            log_event(
                _LOG,
                "error",
                "checkpoint.failed",
                dataset=name,
                error=str(exc),
            )

    def _checkpoint_if_due(self, name: str) -> None:
        try:
            self._durability.maybe_checkpoint(
                name, self._engine.base(name), self._engine.stream_state(name)
            )
        except Exception as exc:
            # The op itself succeeded and is WAL-covered; a failed
            # checkpoint costs replay time, not correctness.
            log_event(
                _LOG,
                "error",
                "checkpoint.failed",
                dataset=name,
                error=str(exc),
            )

    def _apply_replayed(self, dataset_name: str, record: Any) -> Response:
        """Replay one WAL record (recovery): execute without re-logging.

        The outcome is recorded in the idempotency window under the
        original request id, so a client retry that lands *after* the
        restart still dedupes against the pre-crash execution.
        """
        request = Request(
            op=record.op, params=record.params, request_id=record.request_id
        )
        response = self._execute(request)
        self._idempotency.record(record.request_id, response)
        return response

    def _mark_recovered(self, dataset_name: str, record: Any) -> None:
        """Reseed the dedup window for a checkpoint-covered WAL record.

        The record's effects are already inside the restored checkpoint,
        so it must not re-execute — but a client retrying it post-crash
        must still dedupe.  The original response payload was not
        persisted; the retry gets an acknowledgement marker instead.
        """
        if not record.request_id:
            return
        response = Response.success(
            {
                "deduplicated": True,
                "recovered": True,
                "op": record.op,
                "dataset": dataset_name,
                "wal_seq": record.seq,
            }
        ).with_request_id(record.request_id)
        self._idempotency.record(record.request_id, response)

    def recover(self) -> RecoveryReport | None:
        """Restore durable datasets (serve startup); returns the report."""
        if self._durability is None:
            return None
        from repro.durability.recovery import recover_all

        report = recover_all(
            self._durability,
            self._engine,
            self._apply_replayed,
            self._mark_recovered,
        )
        self.last_recovery = report
        return report

    def durability_status(self) -> dict | None:
        """Per-dataset WAL/checkpoint positions for /health, or None."""
        if self._durability is None:
            return None
        return {
            "data_dir": str(self._durability.data_dir),
            "datasets": self._durability.status(),
            "last_recovery": (
                self.last_recovery.as_dict()
                if self.last_recovery is not None
                else None
            ),
        }

    def close(self) -> None:
        """Release durability resources (WAL file handles)."""
        if self._durability is not None:
            self._durability.close()

    @staticmethod
    def _explain_requested(op: str, params: dict) -> bool:
        if "explain" not in params:
            return False
        if "explain" not in OPERATION_OPTIONS.get(op, ()):
            raise ProtocolError(f"operation {op!r} does not accept 'explain'")
        return as_bool_arg(params["explain"], "explain")

    def _attach_explain(
        self, op: str, params: dict, result: Any, trace: Any
    ) -> Any:
        explain: dict[str, Any] = {
            "request_id": trace.request_id,
            "duration_ms": trace.root.duration_ms,
            "spans": trace.as_dict(),
        }
        if op in _CASCADE_OPS:
            explain["stats"] = self._engine.last_query_stats(
                str(params["dataset"])
            )
        # Every explain-capable handler returns an object payload.
        result["explain"] = explain
        return result

    def _deadline(self, params: dict) -> Deadline | None:
        """Build the request's deadline from ``timeout_ms``/``allow_partial``.

        A request without ``timeout_ms`` inherits the server default; no
        budget anywhere means no deadline at all (``allow_partial`` alone
        is a no-op — there is nothing to degrade against).  The clock
        starts here, when the operation is dispatched, so queueing ahead
        of the engine does not silently eat the caller's budget.
        """
        timeout_ms = as_optional_timeout_ms(params.get("timeout_ms"))
        allow_partial = params.get("allow_partial")
        allow_partial = (
            False
            if allow_partial is None
            else as_bool_arg(allow_partial, "allow_partial")
        )
        if timeout_ms is None:
            timeout_ms = self._default_timeout_ms
        if timeout_ms is None:
            return None
        return Deadline.after(timeout_ms, allow_partial=allow_partial)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _op_list_datasets(self, params: dict) -> Any:
        return {"datasets": self._engine.dataset_names}

    def _op_load_dataset(self, params: dict) -> Any:
        source = str(params["source"])
        if source == "matters":
            indicators = params.get("indicators")
            dataset = build_matters_collection(
                seed=int(params.get("seed", 2013)),
                years=int(params.get("years", 25)),
                min_years=int(params.get("min_years", 8)),
                indicators=tuple(indicators) if indicators else None,
            )
        elif source == "electricity":
            dataset = build_electricity_collection(
                seed=int(params.get("seed", 417)),
                households=int(params.get("households", 8)),
            )
        elif source.startswith("ucr:"):
            dataset = load_ucr_file(source[len("ucr:") :])
        else:
            raise ProtocolError(
                f"unknown source {source!r} (use 'matters', 'electricity', "
                "or 'ucr:<path>')"
            )
        options = {k: params[k] for k in _LOAD_OPTIONS if k in params}
        if "num_workers" in options:
            options["num_workers"] = int(options["num_workers"])
        elif self._default_build_workers is not None:
            options["num_workers"] = self._default_build_workers
        if "build_executor" in options:
            options["build_executor"] = str(options["build_executor"])
        stats = self._engine.load_dataset(
            dataset, deadline=self._deadline(params), **options
        )
        return {
            "dataset": dataset.name,
            "series": len(dataset),
            "groups": stats.groups,
            "subsequences": stats.subsequences,
            "compaction_ratio": stats.compaction_ratio,
            "build_seconds": stats.build_seconds,
        }

    def _op_unload_dataset(self, params: dict) -> Any:
        self._engine.unload_dataset(str(params["dataset"]))
        return {"unloaded": params["dataset"]}

    def _op_describe(self, params: dict) -> Any:
        name = str(params["dataset"])
        info = self._engine.base(name).raw_dataset.describe()
        # Live base stats (not the load-time snapshot): incremental
        # ingestion updates the per-length breakdown in place.
        stats = self._engine.base(name).stats
        info["groups"] = stats.groups
        info["compaction_ratio"] = stats.compaction_ratio
        info["series_names"] = self._engine.base(name).dataset.names
        info["build_seconds"] = stats.build_seconds
        info["per_length"] = [asdict(s) for s in stats.per_length]
        # Live structure fingerprint (unlike the engine's load-time
        # snapshot): the determinism handle the durability chaos suite
        # compares across a crash/recover boundary.
        info["structure_fingerprint"] = self._engine.base(
            name
        ).structure_fingerprint()
        return info

    def _op_overview(self, params: dict) -> Any:
        groups = self._engine.overview(
            str(params["dataset"]),
            length=params.get("length"),
            limit=int(params.get("limit", 50)),
        )
        return overview_payload(groups)

    def _op_query_preview(self, params: dict) -> Any:
        name = str(params["dataset"])
        series = self._engine.base(name).raw_dataset[str(params["series"])]
        start = int(params.get("start", 0))
        length = int(params.get("length", len(series) - start))
        return query_preview_payload(series, start, length)

    @staticmethod
    def _float_rows(values: Any, name: str = "values") -> list:
        """Coerce a JSON value list — flat (univariate) or nested
        ``[[c1, c2, ...], ...]`` rows (multichannel) — to plain floats."""
        if not isinstance(values, (list, tuple)):
            raise ProtocolError(f"'{name}' must be a list")
        if values and isinstance(values[0], (list, tuple)):
            return [[float(v) for v in row] for row in values]
        return [float(v) for v in values]

    @staticmethod
    def _metric(params: dict) -> str | None:
        """Validate an optional ``metric`` request option at the boundary.

        An unknown name fails here with the registry's ValidationError
        (listing the registered metrics) before any query work starts.
        """
        metric = params.get("metric")
        if metric is None:
            return None
        from repro.distances.registry import get_metric

        get_metric(str(metric))
        return str(metric)

    def _resolve_query(self, name: str, query: Any) -> Any:
        """Queries arrive as a value list or a brushed-series descriptor."""
        if isinstance(query, dict):
            return self._engine.query_from_series(
                name,
                str(query["series"]),
                int(query.get("start", 0)),
                query.get("length"),
            )
        return self._float_rows(query, "query")

    def _match_payload(self, name: str, query: Any, match: Any) -> dict:
        base = self._engine.base(name)
        query_values = (
            base.dataset.values(query)
            if hasattr(query, "series_index")
            else query
        )
        payload = similarity_view_payload(
            query_values, base.member_values(match.ref), match
        )
        payload["group"] = list(match.group)
        payload["exact"] = bool(match.exact)
        return payload

    def _op_best_match(self, params: dict) -> Any:
        name = str(params["dataset"])
        metric = self._metric(params)
        query = self._resolve_query(name, params["query"])
        match = self._engine.best_match(
            name, query, metric=metric, deadline=self._deadline(params)
        )
        return self._match_payload(name, query, match)

    def _op_k_best(self, params: dict) -> Any:
        name = str(params["dataset"])
        metric = self._metric(params)
        query = self._resolve_query(name, params["query"])
        matches = self._engine.k_best_matches(
            name,
            query,
            int(params["k"]),
            metric=metric,
            deadline=self._deadline(params),
        )
        return {"matches": [self._match_payload(name, query, m) for m in matches]}

    def _op_query_batch(self, params: dict) -> Any:
        """Many best-match queries in one request (one lock acquisition,
        one shared-state preparation, stacked kernel execution)."""
        name = str(params["dataset"])
        specs = params["queries"]
        if not isinstance(specs, list) or not specs:
            raise ProtocolError("'queries' must be a non-empty list")
        metric = self._metric(params)
        queries = [self._resolve_query(name, spec) for spec in specs]
        k = int(params.get("k", 1))
        per_query = self._engine.batch_best_matches(
            name, queries, k, metric=metric, deadline=self._deadline(params)
        )
        return {
            "results": [
                {"matches": [self._match_payload(name, q, m) for m in matches]}
                for q, matches in zip(queries, per_query)
            ]
        }

    def _op_matches_within(self, params: dict) -> Any:
        name = str(params["dataset"])
        metric = self._metric(params)
        query = self._resolve_query(name, params["query"])
        matches = self._engine.matches_within(
            name,
            query,
            float(params["threshold"]),
            metric=metric,
            deadline=self._deadline(params),
        )
        return {"matches": [self._match_payload(name, query, m) for m in matches]}

    def _op_seasonal(self, params: dict) -> Any:
        name = str(params["dataset"])
        series_name = str(params["series"])
        kwargs = {}
        for key in ("step", "min_occurrences", "max_patterns"):
            if key in params:
                kwargs[key] = int(params[key])
        if "remove_level" in params:
            kwargs["remove_level"] = as_bool_arg(params["remove_level"], "remove_level")
        for key in ("ed_threshold",):
            if key in params:
                kwargs[key] = float(params[key])
        patterns = self._engine.seasonal_patterns(
            name,
            series_name,
            int(params["length"]),
            float(params["threshold"]) if "threshold" in params else None,
            deadline=self._deadline(params),
            **kwargs,
        )
        series = self._engine.base(name).raw_dataset[series_name]
        return seasonal_view_payload(series, patterns)

    def _op_sensitivity(self, params: dict) -> Any:
        name = str(params["dataset"])
        query = self._resolve_query(name, params["query"])
        profile = self._engine.similarity_profile(
            name,
            query,
            [float(t) for t in params["thresholds"]],
            verify=as_bool_arg(params.get("verify", False), "verify"),
            deadline=self._deadline(params),
        )
        return profile.as_dict()

    def _op_add_series(self, params: dict) -> Any:
        from repro.data.timeseries import TimeSeries

        name = str(params["dataset"])
        series = TimeSeries(
            str(params["name"]),
            self._float_rows(params["values"]),
            metadata=params.get("metadata") or {},
        )
        return self._engine.add_series(name, series)

    def _op_append_points(self, params: dict) -> Any:
        return self._engine.append_points(
            str(params["dataset"]),
            str(params["series"]),
            self._float_rows(params["values"]),
            deadline=self._deadline(params),
        )

    def _op_register_monitor(self, params: dict) -> Any:
        name = str(params["dataset"])
        pattern = self._resolve_query(name, params["pattern"])
        # An explicit JSON null means the same as an absent key.
        epsilon = params.get("epsilon")
        series = params.get("series")
        monitor = params.get("monitor")
        return self._engine.register_monitor(
            name,
            pattern,
            float(epsilon) if epsilon is not None else None,
            series=str(series) if series is not None else None,
            name=str(monitor) if monitor is not None else None,
        )

    def _op_unregister_monitor(self, params: dict) -> Any:
        name = str(params["dataset"])
        self._engine.unregister_monitor(name, str(params["monitor"]))
        return {"unregistered": params["monitor"]}

    def _op_poll_events(self, params: dict) -> Any:
        name = str(params["dataset"])
        events = self._engine.poll_events(
            name,
            since=int(params.get("since", 0)),
            limit=int(params["limit"]) if "limit" in params else None,
        )
        # Read-only: never creates the stream machinery as a side effect.
        registry = self._engine.stream_registry(name)
        return {
            "events": [e.as_dict() for e in events],
            "last_seq": registry.last_seq if registry is not None else 0,
            "monitors": [
                registry.monitor(n).describe() for n in registry.monitor_names
            ]
            if registry is not None
            else [],
            "dropped": registry.dropped if registry is not None else 0,
        }

    def _op_flush_monitors(self, params: dict) -> Any:
        events = self._engine.flush_monitors(str(params["dataset"]))
        return {"events": [e.as_dict() for e in events]}

    def _op_save_base(self, params: dict) -> Any:
        name = str(params["dataset"])
        path = str(params["path"])
        self._engine.base(name).save(path)
        return {"saved": name, "path": path}

    def _op_thresholds(self, params: dict) -> Any:
        rec = self._engine.recommend_thresholds(
            str(params["dataset"]),
            int(params["length"]),
            samples=int(params.get("samples", 2000)),
            seed=int(params.get("seed", 0)),
        )
        return rec.as_dict()

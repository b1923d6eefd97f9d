"""Per-layer metrics from one traced pass.

Times are mean milliseconds per request of the class that uses the
layer, counts are per request, and each comes from the spans the traced
server recorded around that layer's entry points — except the cascade
stage times and counters, which are read from the ``explain`` payload
the server already returns, and a few totals the server already exports
on ``/metrics``.  A layer that does not exist on a workload reads None.
"""

from __future__ import annotations

from statistics import fmean

from bench import hostspeed, spec
from bench import spans as span_tree

_CASCADE_STAGES = (
    "cascade.rep_bounds",
    "cascade.rep_dtw",
    "cascade.refine",
    "cascade.threshold_bucket",
)
_QUERY_CLASSES = ("similarity", "range", "batch")


def detail(op: str, result) -> dict | None:
    """What a client keeps of a response for the per-layer table."""
    if not isinstance(result, dict):
        return None
    if op == "append_points":
        return {"windows": result.get("windows", 0)}
    explain = result.get("explain")
    if not explain:
        return None
    stages = dict.fromkeys(_CASCADE_STAGES, 0.0)
    pending = [explain["spans"]]
    while pending:
        node = pending.pop()
        if node["name"] in stages:
            stages[node["name"]] += node["duration_ms"]
        pending.extend(node.get("children", ()))
    return {"stages": stages, "stats": explain.get("stats") or {}}


def _mean(values) -> float | None:
    values = list(values)
    return fmean(values) if values else None


def _counter(counters: dict, name: str) -> float:
    return sum(counters.get(name, {}).values())


def aggregate(workload: spec.Workload, traced: dict, reference: dict) -> tuple[dict, float]:
    """(per-layer metrics, self-time closure) of one traced pass.

    The closure is Σ self times ÷ Σ ``http.request`` durations over the
    measured requests; spans that nest properly make it 1.
    """
    warm = spec.TRACE_WARMUP_REQUESTS
    measured = [s for s in traced["samples"] if s.ok and s.index >= warm]
    all_spans = span_tree.load(traced["span_files"])
    span_tree.link_workers(all_spans, "pool.dispatch", "service.handle")
    trees = span_tree.request_trees(all_spans, "http.request")
    rows = [(s, trees[s.request_id]) for s in measured if s.request_id in trees]
    totals = [(s, root, span_tree.totals(root)) for s, root in rows]

    def per_request(name: str, field: str = "ms", classes=None):
        return _mean(
            t.get(name, {}).get(field, 0.0)
            for s, _root, t in totals
            if classes is None or s.cls in classes
        )

    out: dict[str, float | None] = dict.fromkeys(m.name for m in spec.per_layer())
    before, after = traced["counters"]

    # server.http
    out["http.request_ms"] = _mean(root.ms for _s, root, _t in totals)
    out["http.parse_ms"] = per_request("http.parse")
    out["http.admission_wait_ms"] = per_request("http.admission_wait")
    out["http.lock_wait_ms"] = per_request("http.lock_wait")
    out["http.encode_ms"] = per_request("http.encode")
    out["http.self_ms"] = _mean(root.self_ms for _s, root, _t in totals)
    out["http.shed_total"] = _counter(after, "onex_server_shed_total") - _counter(
        before, "onex_server_shed_total"
    )
    # server.service
    out["service.handle_ms"] = per_request("service.handle")
    out["service.payload_ms"] = per_request("service.payload")
    out["service.self_ms"] = per_request("service.handle", "self_ms")
    # core.query + distances
    similarity = [s for s in measured if s.cls == "similarity" and s.detail]
    out["query.k_best_ms"] = per_request("query.k_best", classes=("similarity",))
    out["query.range_ms"] = per_request("query.range", classes=("range",))
    out["query.batch_ms"] = per_request("query.batch", classes=("batch",))
    for stage in _CASCADE_STAGES[:3]:
        out[f"{stage}_ms"] = _mean(s.detail["stages"][stage] for s in similarity)
    out["cascade.threshold_bucket_ms"] = _mean(
        s.detail["stages"]["cascade.threshold_bucket"]
        for s in measured
        if s.cls == "range" and s.detail
    )
    stats = [s.detail["stats"] for s in similarity]
    if stats:
        out["cascade.rep_dtw_calls"] = fmean(st["rep_dtw_calls"] for st in stats)
        out["cascade.members_scanned"] = fmean(st["members_scanned"] for st in stats)
        out["cascade.member_dtw_calls"] = fmean(st["member_dtw_calls"] for st in stats)
        reps = sum(st["representatives_total"] for st in stats)
        members = sum(st["members_scanned"] for st in stats)
        out["cascade.rep_prune_ratio"] = (
            sum(st["rep_lb_prunes"] + st["rep_dtw_skipped"] for st in stats) / reps if reps else None
        )
        out["cascade.member_prune_ratio"] = (
            sum(st["member_lb_prunes"] for st in stats) / members if members else 0.0
        )
    out["dtw.kernel_ms"] = per_request("dtw.kernel", classes=_QUERY_CLASSES)
    out["dtw.kernel_calls"] = per_request("dtw.kernel", "count", classes=_QUERY_CLASSES)
    out["dtw.cells"] = _mean(
        sum(sp.attrs.get("cells", 0) for sp in root.walk() if sp.name == "dtw.kernel")
        for s, root, _t in totals
        if s.cls in _QUERY_CLASSES
    )
    out["lb.bounds_ms"] = per_request("lb.bounds", classes=_QUERY_CLASSES)
    # core.base / core.grouping / data.windows: the load_dataset request
    build = trees.get(traced["load_request_id"])
    if build is not None:
        t = span_tree.totals(build)
        out["build.extract_ms"] = t.get("build.extract", {}).get("ms", 0.0)
        out["build.cluster_ms"] = t.get("build.cluster", {}).get("ms", 0.0)
        out["build.merge_ms"] = t.get("build.base", {}).get("self_ms", 0.0)
        out["build.fingerprint_ms"] = t.get("build.fingerprint", {}).get("ms", 0.0)
    out["build.groups"] = traced["loaded"]["groups"]
    out["build.subsequences"] = traced["loaded"]["subsequences"]
    # process
    out["proc.cpu_util"] = traced["cpu_util"]
    out["proc.loadgen_cpu_frac"] = traced["loadgen_cpu_frac"]
    # The same requests on the plain server, each pass at the pace of its
    # own core (``bench/hostspeed.py``): the two passes are seconds apart.
    untraced = {s.index: s for s in reference["samples"] if s.ok}
    pairs = [(untraced[s.index], s) for s in measured if s.index in untraced]
    if pairs:
        base, with_spans = (
            fmean(s.ms for s in side)
            / hostspeed.slowdown((s.probe for s in side), (s.ms for s in side))
            for side in zip(*pairs)
        )
        out["trace.overhead_pct"] = 100.0 * (with_spans - base) / base

    # Publications and checkpoints of the measured phase only: the first
    # read after load_dataset publishes the base during the warm-up.
    measured_from = min((s.start for s in measured), default=0.0)
    phase = [sp for sp in all_spans if sp.start >= measured_from]
    if workload.pooled:
        dispatched = [(s, root, t) for s, root, t in totals if "pool.dispatch" in t]
        out["pool.dispatch_ms"] = _mean(t["pool.dispatch"]["ms"] for _s, _r, t in dispatched)
        out["pool.ipc_ms"] = _mean(t["pool.dispatch"]["self_ms"] for _s, _r, t in dispatched)
        out["pool.frame_bytes"] = _mean(
            sum(sp.attrs.get("frame_bytes", 0) for sp in root.walk())
            for _s, root, _t in dispatched
        )
        busy_ms = sum(
            sp.ms
            for _s, root, _t in dispatched
            for sp in root.walk()
            if sp.name == "service.handle" and sp.key[0] != root.key[0]
        )
        out["pool.worker_busy_frac"] = busy_ms / 1000.0 / (traced["elapsed"] * workload.workers)
        publishes = [sp for sp in phase if sp.name == "pool.publish"]
        snapshots = [sp for sp in phase if sp.name == "pool.snapshot"]
        out["pool.publish_total"] = len(publishes)
        out["pool.publish_ms"] = _mean(sp.ms for sp in publishes)
        out["pool.publish_bytes"] = _mean(sp.attrs.get("bytes", 0) for sp in snapshots)
        out["pool.orphans_after_sigterm"] = traced["orphans"]
    if workload.ingest:
        writes = ("write",)
        out["stream.append_ms"] = per_request("stream.append", classes=writes)
        out["stream.index_ms"] = per_request("stream.index", classes=writes)
        out["stream.monitor_scan_ms"] = per_request("stream.monitor_scan", classes=writes)
        out["stream.windows_per_append"] = _mean(
            s.detail["windows"] for s in measured if s.op == "append_points" and s.detail
        )
        checked = sum(m["windows_checked"] for m in traced["monitors"])
        pruned = sum(m["windows_pruned"] for m in traced["monitors"])
        out["stream.monitor_prune_ratio"] = pruned / checked if checked else None
        out["wal.append_ms"] = per_request("wal.append", classes=writes)
        appends = _counter(after, "onex_wal_appends_total") - _counter(before, "onex_wal_appends_total")
        wal_bytes = _counter(after, "onex_wal_bytes_total") - _counter(before, "onex_wal_bytes_total")
        out["wal.bytes_per_write"] = wal_bytes / appends if appends else None
        out["wal.sync_total"] = _counter(after, "onex_wal_fsyncs_total") - _counter(
            before, "onex_wal_fsyncs_total"
        )
        checkpoints = [sp for sp in phase if sp.name == "checkpoint.write"]
        out["checkpoint.total"] = len(checkpoints)
        out["checkpoint.write_ms"] = _mean(sp.ms for sp in checkpoints)
        out["checkpoint.bytes"] = _mean(sp.attrs.get("bytes", 0) for sp in checkpoints)
        recovered = span_tree.load(traced["recovery_span_files"])
        out["recovery.replay_ms"] = _mean(sp.ms for sp in recovered if sp.name == "recovery.replay")
        last = (traced["recovered_health"].get("durability") or {}).get("last_recovery") or {}
        out["recovery.records"] = last.get("replayed_records")

    self_ms = sum(sp.self_ms for _s, root, _t in totals for sp in root.walk())
    request_ms = sum(root.ms for _s, root, _t in totals)
    return out, (self_ms / request_ms if request_ms else 0.0)

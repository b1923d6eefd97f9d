"""ONEX online query processor (§3.2/§3.3).

Queries run DTW against the compact base instead of the raw data.  Two
strategies are provided (:class:`repro.core.config.QueryConfig`):

``fast`` (the paper's demo behaviour)
    Rank every group representative by length-normalised DTW to the query,
    then exhaustively refine only the best ``refine_groups`` groups.  The
    transfer upper bound guarantees the returned match's DTW is within the
    group radius slack of the representative-level optimum.

``exact``
    Never skip a group unless a *provable* lower bound shows it cannot
    contain a better match.  Returns the true DTW best match over all
    indexed subsequences, usually still far cheaper than a raw scan.

The search is a **two-layer pruning cascade**, cheap bounds first at both
layers:

**Representative layer** (``use_rep_prefilter``, the default): each
bucket's persisted summaries (:class:`repro.core.base.RepresentativeSummary`
— centroid Keogh envelopes, endpoint and min/max summaries) yield batched
LB_Kim / LB_Keogh lower bounds on ``DTW(query, representative)`` without
any DTW kernel call; combined with the ED→DTW transfer bound they
lower-bound every *member* of the group.  Representatives are then visited
best-first with **lazy exact DTW**: a representative's exact distance is
only computed (in bound-ordered chunks, each one ragged kernel call
however many length buckets it spans) when its cheap bound undercuts the
current cutoff — representatives whose bound
exceeds the running k-th best distance never get a DTW call at all.

**Member layer** (both strategies, and the threshold query): surviving
groups are refined through a batched pruning cascade over their stacked
member rows (:attr:`repro.core.base.LengthBucket.member_matrix`); in exact
mode whole *chunks* of verified groups refine through one stacked kernel
call:

1. ``lb_kim_batch`` — constant-time endpoint bound, every member at once;
2. ``lb_keogh_batch`` — envelope bound (equal-length candidates), with
   the query envelope computed once per (length, window) and cached;
3. ``dtw_distance_batch(..., with_path_length=True)`` — exact DTW for all
   surviving members in one anti-diagonal dynamic program, with the
   optimal warping-path length tracked alongside so normalised distances
   need no per-member traceback;
4. ``dtw_path`` — warping-path traceback deferred to the handful of
   matches actually returned to the caller.

Refinement units smaller than ``QueryConfig.batch_min_members`` rows run
the legacy scalar early-abandon scan instead — below that size the batched
kernels' fixed dispatch overhead exceeds the whole computation.

Every stage is provably result-preserving, so the cascade returns exactly
the matches the legacy one-member-at-a-time scan
(``QueryConfig(use_member_batching=False)``) returns — the ablation
benchmarks cross-check this, as they do with the representative prefilter
toggled off.  :class:`QueryStats` counts the work each stage actually
performed, at both layers.

:meth:`QueryProcessor.batch_matches` answers many queries in one call:
shared read-only state (member matrices, representative summaries) is
prepared once, then the queries fan out over a thread pool — the numpy
kernels release the GIL — with results identical to per-query submission.

Distances reported to callers are **normalised DTW** (cost divided by
warping-path length), the unit in which ONEX similarity thresholds are
expressed; ``raw_distance`` carries the unnormalised sum.
"""

from __future__ import annotations

import heapq
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.base import LengthBucket, OnexBase
from repro.core.config import QueryConfig
from repro.core.deadline import Deadline
from repro.data.dataset import SubsequenceRef
from repro.distances.dtw import (
    dtw_distance_batch,
    dtw_distance_early_abandon,
    dtw_path,
    effective_band,
)
from repro.distances.envelope import QueryEnvelopeCache
from repro.distances.lower_bounds import lb_keogh_batch, lb_kim, lb_kim_batch
from repro.distances.metrics import as_sequence
from repro.distances.normalize import minmax_normalize
from repro.distances.registry import MetricSpec, get_metric
from repro.exceptions import DeadlineExceeded, ValidationError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.testing import faults

__all__ = ["Match", "QueryProcessor", "QueryStats"]

_INF = math.inf

#: Representatives evaluated (lazy exact DTW) or drained (refinement) per
#: round of the representative cascade.  Grows geometrically within one
#: query, so adversarial bound distributions cost O(log groups) rounds
#: while the first rounds stay small enough to establish a cutoff before
#: most representatives are touched.
_REP_CHUNK = 16


@dataclass(frozen=True)
class Match:
    """One retrieved subsequence with its similarity to the query.

    ``exact`` is ``True`` for every match a search ran to completion —
    the usual case.  A search that hit its deadline with
    ``allow_partial=True`` returns its best *verified* candidates with
    ``exact=False``: each distance is a true DTW distance, but a better
    match may exist in the unexplored remainder.
    """

    ref: SubsequenceRef
    series_name: str
    distance: float
    raw_distance: float
    path: tuple[tuple[int, int], ...]
    group: tuple[int, int]
    exact: bool = True

    @property
    def start(self) -> int:
        return self.ref.start

    @property
    def length(self) -> int:
        return self.ref.length


@dataclass
class QueryStats:
    """Work counters for one query — the ablation benchmarks read these.

    Representative layer: ``rep_lb_prunes`` counts groups eliminated with
    only the cheap (no-DTW) representative bound, ``rep_dtw_skipped`` the
    representatives whose exact DTW never ran (pruned or left unranked by
    the lazy cascade), ``rep_dtw_calls`` those whose exact DTW did run.
    ``groups_pruned`` totals the provable group-level prunes of either
    kind.  ``batch_queries`` is the number of queries merged into this
    record by :meth:`QueryProcessor.batch_matches` (0 for single queries).
    """

    representatives_total: int = 0
    rep_lb_prunes: int = 0
    rep_dtw_calls: int = 0
    rep_dtw_skipped: int = 0
    groups_pruned: int = 0
    groups_refined: int = 0
    members_scanned: int = 0
    member_lb_prunes: int = 0
    member_dtw_calls: int = 0
    batch_queries: int = 0
    partial_results: int = 0

    def merge(self, other: "QueryStats") -> None:
        for name in vars(other):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict:
        return dict(vars(self))


# Registry-backed totals: every completed query folds its QueryStats in,
# so ``last_stats`` stays the per-call view while /metrics exposes the
# process-wide accumulation (DESIGN.md §7).  ``event`` label values are
# the closed set of QueryStats field names.
_QUERIES_TOTAL = REGISTRY.counter(
    "onex_queries_total",
    "Completed query-layer operations by op, mode, and metric",
)
_QUERY_MS = REGISTRY.histogram(
    "onex_query_ms", "Query-layer wall time per operation (milliseconds)"
)
_CASCADE_TOTAL = REGISTRY.counter(
    "onex_query_cascade_total",
    "Pruning-cascade work counters summed over queries "
    "(event = QueryStats field)",
)


def _publish_query(
    op: str, mode: str, stats: QueryStats, started: float, metric: str = "dtw"
) -> None:
    # ``metric`` label values are the registry's closed name set, so the
    # DESIGN.md §7 cardinality rule holds.
    _QUERIES_TOTAL.inc(op=op, mode=mode, metric=metric)
    _QUERY_MS.observe((time.perf_counter() - started) * 1000.0, op=op)
    for name, value in vars(stats).items():
        if value:
            _CASCADE_TOTAL.inc(float(value), event=name)


@dataclass(order=True)
class _Candidate:
    """Heap entry; ordered by (distance, ref) for deterministic ties."""

    distance: float
    ref: SubsequenceRef = field(compare=True)
    raw: float = field(compare=False)
    path: tuple = field(compare=False)
    group: tuple = field(compare=False)


class QueryProcessor:
    """Executes similarity queries against a built :class:`OnexBase`."""

    def __init__(self, base: OnexBase, config: QueryConfig | None = None) -> None:
        base.stats  # raises NotBuiltError early when unbuilt
        self._base = base
        self._config = config or QueryConfig()
        self._spec: MetricSpec = get_metric(self._config.metric)
        if base.channels > 1 and not self._spec.multivariate:
            raise ValidationError(
                f"metric {self._spec.name!r} supports univariate series "
                f"only; this base indexes {base.channels}-channel series"
            )
        # The classic DTW cascade serves only its original contract:
        # univariate base + metric="dtw" (bit-identical to the
        # pre-registry engine).  Everything else — any other metric, or
        # any metric over a multivariate base — runs the metric scan
        # (DESIGN.md §9), which answers exactly in either query mode.
        self._metric_scan = self._config.metric != "dtw" or base.channels > 1
        self.last_stats = QueryStats()

    @property
    def config(self) -> QueryConfig:
        return self._config

    # ------------------------------------------------------------------
    # Public query API
    # ------------------------------------------------------------------

    def best_match(
        self,
        query,
        *,
        lengths=None,
        normalize: bool = True,
        deadline: Deadline | None = None,
    ) -> Match:
        """The most similar indexed subsequence to *query* (§3.3).

        *query* is an array of raw-unit values (normalised into the base's
        value space when the base was built normalised, unless *normalize*
        is false) or a :class:`SubsequenceRef` into the indexed dataset.
        *lengths* optionally restricts candidate subsequence lengths.
        *deadline* bounds the search cooperatively (default: the config's
        deadline); see :meth:`k_best_matches`.
        """
        matches = self.k_best_matches(
            query, 1, lengths=lengths, normalize=normalize, deadline=deadline
        )
        return matches[0]

    def k_best_matches(
        self,
        query,
        k: int,
        *,
        lengths=None,
        normalize: bool = True,
        deadline: Deadline | None = None,
    ) -> list[Match]:
        """The *k* most similar indexed subsequences, best first.

        With a *deadline*, the cascade checks the budget at every chunk
        boundary: an in-budget search is bit-identical to an unbounded
        one; an exceeded budget raises
        :class:`~repro.exceptions.DeadlineExceeded` reporting partial
        progress — unless the deadline allows partial results, in which
        case the best candidates verified so far return with
        ``Match.exact == False``.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        started = time.perf_counter()
        q = self._resolve_query(query, normalize)
        buckets = self._select_buckets(lengths)
        stats = QueryStats()
        with span(
            "query.k_best", k=k, mode=self._config.mode, qlen=int(q.shape[0])
        ) as sp:
            matches = self._run_search(
                q, buckets, k, stats, deadline=self._deadline(deadline)
            )
            sp.add(
                groups_pruned=stats.groups_pruned,
                rep_dtw_calls=stats.rep_dtw_calls,
                member_dtw_calls=stats.member_dtw_calls,
            )
        self.last_stats = stats
        _publish_query(
            "k_best", self._config.mode, stats, started, self._config.metric
        )
        return matches

    def batch_matches(
        self,
        queries,
        k: int = 1,
        *,
        lengths=None,
        normalize: bool = True,
        max_workers: int | None = None,
        deadline: Deadline | None = None,
    ) -> list[list[Match]]:
        """The *k* best matches for every query of a batch, in one call.

        The multi-query execution layer.  Shared read-only state — each
        bucket's stacked member matrix and representative summaries — is
        prepared once up front.  Exact-mode batches then run the shared
        planner (:meth:`_batch_search_exact`): the heavy kernel stages of
        *all* queries stack into paired batch-DTW calls, per length
        bucket, and those per-bucket kernel jobs fan out over a thread
        pool (the numpy kernels release the GIL, so buckets genuinely
        overlap on multicore hosts).  Fast-mode batches fan whole queries
        out over the pool instead — their per-query work is dominated by
        the ranked refinement walk, which does not stack.  Results are
        identical to submitting each query through
        :meth:`k_best_matches`, in input order; ``last_stats`` afterwards
        holds the merged work counters with ``batch_queries`` set.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        started = time.perf_counter()
        deadline = self._deadline(deadline)
        resolved = [self._resolve_query(query, normalize) for query in queries]
        stats = QueryStats()
        stats.batch_queries = len(resolved)
        if not resolved:
            self.last_stats = stats
            return []
        buckets = self._select_buckets(lengths)
        # Pre-warm everything worker threads would otherwise build
        # concurrently; afterwards the searches only read shared state.
        for bucket in buckets:
            bucket.ensure_member_matrix(self._base.dataset)
            if self._config.use_rep_prefilter and not self._metric_scan:
                bucket.rep_summary
        if max_workers is None:
            max_workers = min(len(resolved), os.cpu_count() or 1)

        if self._config.mode == "exact" and not self._metric_scan:
            # One executor serves every kernel wave of the planner.
            pool = (
                ThreadPoolExecutor(max_workers=max_workers)
                if max_workers > 1
                else None
            )
            try:
                with span(
                    "query.batch", queries=len(resolved), k=k, mode="exact"
                ):
                    results, per_query = self._batch_search_exact(
                        resolved, buckets, k, pool, deadline
                    )
            finally:
                if pool is not None:
                    pool.shutdown(wait=True)
            for one in per_query:
                stats.merge(one)
            self.last_stats = stats
            _publish_query("batch", "exact", stats, started, self._config.metric)
            return results

        def run_one(q: np.ndarray) -> tuple[list[Match], QueryStats]:
            one = QueryStats()
            return self._run_search(q, buckets, k, one, deadline=deadline), one

        # Per-query fan-out (fast mode, and every metric-scan batch):
        # worker threads never see the caller's thread-local trace, so
        # only this enclosing span records — per-query telemetry still
        # merges through the stats objects.
        with span(
            "query.batch", queries=len(resolved), k=k, mode=self._config.mode
        ):
            if max_workers > 1 and len(resolved) > 1:
                with ThreadPoolExecutor(max_workers=max_workers) as pool:
                    outcomes = list(pool.map(run_one, resolved))
            else:
                outcomes = [run_one(q) for q in resolved]
        for _, one in outcomes:
            stats.merge(one)
        self.last_stats = stats
        _publish_query(
            "batch", self._config.mode, stats, started, self._config.metric
        )
        return [matches for matches, _ in outcomes]

    def _batch_search_exact(
        self,
        qs: list[np.ndarray],
        buckets: list[LengthBucket],
        k: int,
        pool: ThreadPoolExecutor | None,
        deadline: Deadline | None = None,
    ) -> tuple[list[list[Match]], list[QueryStats]]:
        """Shared exact-mode planner: one set of kernel calls for a batch.

        Three rounds, all provably result-preserving:

        1. **Seed** — each query refines its single most-promising group
           (smallest cheap representative bound), establishing a finite
           pruning cutoff before any representative DTW runs.
        2. **Representative DTW** — every (query, group) pair whose cheap
           bound survives its query's cutoff is verified exactly, with all
           pairs of a (bucket, query-length) class stacked into one paired
           kernel call; pairs over the cutoff are pruned with no DTW.
        3. **Bulk refinement** — surviving pairs' member rows run the
           lower-bound cascade per query, then one paired DTW call per
           (bucket, class) covers every query's survivors at once.

        Compared to the single-query lazy cascade this trades one round of
        cutoff tightening for cross-query kernel stacking — the per-call
        dispatch cost is paid per *batch* instead of per query.  The
        stacked kernel jobs of rounds 2/3 are pure numpy (GIL released)
        and fan out over a thread pool; every heap update happens on the
        calling thread, so results are deterministic and identical to
        sequential submission.
        """
        cfg = self._config
        Q = len(qs)
        stats = [QueryStats() for _ in qs]
        heaps: list[list[_Negated]] = [[] for _ in qs]
        envs = [QueryEnvelopeCache(q) for q in qs]
        for one in stats:
            for bucket in buckets:
                one.representatives_total += bucket.group_count
        live = [b for b in buckets if b.group_count]
        classes: dict[int, list[int]] = {}
        for qi, q in enumerate(qs):
            classes.setdefault(q.shape[0], []).append(qi)

        def run_jobs(jobs: list) -> list:
            """Run paired-DTW jobs, fanned over the shared pool if any."""
            if pool is not None and len(jobs) > 1:
                return list(pool.map(lambda j: j(), jobs))
            return [job() for job in jobs]

        def assemble(partial: bool) -> tuple[list[list[Match]], list[QueryStats]]:
            results: list[list[Match]] = []
            for qi, heap in enumerate(heaps):
                if not heap:
                    if partial:
                        # This query had no verified candidate when the
                        # budget fired; partial mode degrades it to empty.
                        results.append([])
                        continue
                    raise ValidationError(
                        "no indexed subsequences matched the query"
                    )
                candidates = sorted(wrapper.candidate for wrapper in heap)
                results.append(
                    [self._to_match(c, qs[qi], exact=not partial) for c in candidates]
                )
            return results, stats

        def barrier(stage: str) -> bool:
            """Deadline check between planner rounds (True = stop, partial)."""
            faults.fire("query.rep_chunk")
            if deadline is None or not deadline.expired:
                return False
            if deadline.allow_partial and any(heaps):
                for one in stats:
                    one.partial_results += 1
                return True
            merged = QueryStats()
            for one in stats:
                merged.merge(one)
            best = None
            for heap in heaps:
                if heap:
                    c = min(wrapper.candidate for wrapper in heap)
                    if best is None or c.distance < best["distance"]:
                        best = self._best_summary(c)
            self._raise_deadline(deadline, stage, merged, best)
            return True  # unreachable

        # Cheap group lower bounds per (query, bucket): (Q, G_b) tables,
        # one broadcasted evaluation per (bucket, query-length class).
        glb: list[np.ndarray] = []
        refined: list[np.ndarray] = []
        for bucket in live:
            refined.append(np.zeros((Q, bucket.group_count), dtype=bool))
            table = np.zeros((Q, bucket.group_count))
            if cfg.use_rep_prefilter:
                for qlen, members in classes.items():
                    band = effective_band(qlen, bucket.length, cfg.window)
                    cheap = bucket.rep_summary.cheap_bounds_multi(
                        np.vstack([qs[qi] for qi in members]), band
                    )
                    max_path = qlen + bucket.length - 1
                    table[members] = (
                        np.maximum(cheap - max_path * bucket.cheb_radii, 0.0)
                        / max_path
                    )
            glb.append(table)

        # Round 1: seed each query's cutoff from its best-bound group,
        # all seed refinements stacked like a bulk round.
        if cfg.use_rep_prefilter and live:
            plan: dict[tuple[int, int], list[tuple[int, list[int]]]] = {}
            for qi, q in enumerate(qs):
                b_best = min(
                    range(len(live)), key=lambda b_i: float(glb[b_i][qi].min())
                )
                g_best = int(np.argmin(glb[b_best][qi]))
                refined[b_best][qi, g_best] = True
                plan.setdefault((b_best, q.shape[0]), []).append((qi, [g_best]))
            with span("batch.seed", queries=Q):
                self._batch_refine_stacked(
                    plan, live, qs, k, heaps, stats, envs, run_jobs
                )
        if barrier("batch seed refinement"):
            return assemble(True)

        # Round 2: paired representative DTW for pairs under the cutoff.
        tight: list[np.ndarray] = [
            np.full((Q, b.group_count), _INF) for b in live
        ]
        jobs = []
        job_meta = []
        for b_i, bucket in enumerate(live):
            for qlen, members in classes.items():
                max_path = qlen + bucket.length - 1
                xs, mats, owner_q, owner_g = [], [], [], []
                for qi in members:
                    mask = ~refined[b_i][qi]
                    if cfg.use_rep_prefilter and cfg.use_group_pruning:
                        cutoff = self._cutoff(heaps[qi], k)
                        if math.isfinite(cutoff):
                            passing = mask & (glb[b_i][qi] <= cutoff)
                            pruned = int(mask.sum()) - int(passing.sum())
                            stats[qi].rep_lb_prunes += pruned
                            stats[qi].rep_dtw_skipped += pruned
                            stats[qi].groups_pruned += pruned
                            mask = passing
                    sel = np.nonzero(mask)[0]
                    if not sel.size:
                        continue
                    xs.append(np.broadcast_to(qs[qi], (sel.size, qlen)))
                    mats.append(bucket.centroids[sel])
                    owner_q.append(np.full(sel.size, qi, dtype=np.int64))
                    owner_g.append(sel)
                    stats[qi].rep_dtw_calls += sel.size
                if not xs:
                    continue
                X = np.concatenate(xs)
                M = np.concatenate(mats)
                jobs.append(
                    lambda X=X, M=M: dtw_distance_batch(X, M, window=cfg.window)
                )
                job_meta.append(
                    (b_i, max_path, np.concatenate(owner_q), np.concatenate(owner_g))
                )
        with span("batch.rep_dtw", jobs=len(jobs)) as sp:
            for raws, (b_i, max_path, oq, og) in zip(run_jobs(jobs), job_meta):
                bucket = live[b_i]
                tight[b_i][oq, og] = (
                    np.maximum(raws - max_path * bucket.cheb_radii[og], 0.0)
                    / max_path
                )
                sp.add(pairs=int(oq.size))
        if barrier("batch representative DTW"):
            return assemble(True)

        # Round 3: bulk member refinement — surviving pairs grouped into
        # one stacked cascade per (bucket, class).
        plan = {}
        for b_i, bucket in enumerate(live):
            for qlen, members in classes.items():
                for qi in members:
                    candidates = ~refined[b_i][qi] & np.isfinite(tight[b_i][qi])
                    cutoff = self._cutoff(heaps[qi], k)
                    if cfg.use_group_pruning and math.isfinite(cutoff):
                        passing = candidates & (tight[b_i][qi] <= cutoff)
                        stats[qi].groups_pruned += int(candidates.sum()) - int(
                            passing.sum()
                        )
                        candidates = passing
                    g_list = [int(g) for g in np.nonzero(candidates)[0]]
                    if g_list:
                        plan.setdefault((b_i, qlen), []).append((qi, g_list))
        with span(
            "batch.refine", units=sum(len(v) for v in plan.values())
        ):
            self._batch_refine_stacked(
                plan, live, qs, k, heaps, stats, envs, run_jobs
            )
        return assemble(False)

    def _batch_refine_stacked(
        self,
        plan: dict[tuple[int, int], list[tuple[int, list[int]]]],
        live: list[LengthBucket],
        qs: list[np.ndarray],
        k: int,
        heaps: list[list["_Negated"]],
        stats: list[QueryStats],
        envs: list[QueryEnvelopeCache],
        run_jobs,
    ) -> None:
        """Run one wave of member refinements stacked across queries.

        *plan* maps ``(bucket position, query length)`` to the queries
        refining there and their group lists.  The lower-bound stages run
        per query slice (each against its own cached envelope and
        cutoff); the exact member DTW of every query in a (bucket, class)
        is one paired kernel call, dispatched through *run_jobs* so
        independent buckets can overlap on multicore hosts.  Heap updates
        happen on the calling thread only.
        """
        cfg = self._config
        jobs = []
        job_meta = []
        for (b_i, qlen), entries in plan.items():
            bucket = live[b_i]
            max_path = qlen + bucket.length - 1
            seg_rows: list[tuple[np.ndarray, np.ndarray]] = []
            seg_meta = []
            for qi, g_list in entries:
                if self._scalar_unit(bucket, g_list):
                    # Tiny unit: the scalar path beats any stacking.
                    self._refine_members(
                        qs[qi], bucket, g_list, k, heaps[qi], stats[qi], envs[qi]
                    )
                    continue
                cutoff = self._cutoff(heaps[qi], k)
                stats[qi].groups_refined += len(g_list)
                rows, refs, group_of = self._stacked_members(bucket, g_list)
                survivors = self._member_bound_filter(
                    qs[qi], bucket, rows, stats[qi], envs[qi],
                    cut=cutoff, scale=max_path,
                )
                if not survivors.size:
                    continue
                stats[qi].member_dtw_calls += survivors.size
                seg_rows.append((qs[qi], rows[survivors]))
                seg_meta.append((qi, refs, group_of, survivors, cutoff))
            if not seg_rows:
                continue
            X = np.concatenate(
                [np.broadcast_to(q, (r.shape[0], q.shape[0])) for q, r in seg_rows]
            )
            M = np.concatenate([r for _, r in seg_rows])
            jobs.append(
                lambda X=X, M=M: dtw_distance_batch(
                    X, M, window=cfg.window, with_path_length=True
                )
            )
            job_meta.append((bucket.length, seg_meta))
        for (raws, plens), (length, seg_meta) in zip(run_jobs(jobs), job_meta):
            offset = 0
            for qi, refs, group_of, survivors, cutoff in seg_meta:
                part = slice(offset, offset + survivors.size)
                offset += survivors.size
                self._push_batch_candidates(
                    heaps[qi], k, cutoff, length, refs, group_of,
                    survivors, raws[part], plens[part],
                )

    def _run_search(
        self,
        q: np.ndarray,
        buckets: list[LengthBucket],
        k: int,
        stats: QueryStats,
        deadline: Deadline | None = None,
    ) -> list[Match]:
        before = stats.partial_results
        if self._metric_scan:
            heap = self._metric_search(q, buckets, k, stats, deadline)
        else:
            envelopes = QueryEnvelopeCache(q)
            if self._config.mode == "fast":
                heap = self._search_fast(q, buckets, k, stats, envelopes, deadline)
            else:
                heap = self._search_exact(q, buckets, k, stats, envelopes, deadline)
        if not heap:
            raise ValidationError("no indexed subsequences matched the query")
        partial = stats.partial_results > before
        candidates = sorted(wrapper.candidate for wrapper in heap)
        return [self._to_match(c, q, exact=not partial) for c in candidates]

    def matches_within(
        self,
        query,
        threshold: float,
        *,
        lengths=None,
        normalize: bool = True,
        deadline: Deadline | None = None,
    ) -> list[Match]:
        """Every indexed subsequence with normalised DTW <= *threshold*.

        Uses the transfer bounds in both directions, on both layers:
        groups whose *cheap* representative bound already exceeds the
        threshold are skipped without any DTW at all, groups whose exact
        representative bound exceeds it are skipped without member work,
        and every surviving member is verified exactly.  A fired
        *deadline* with ``allow_partial`` returns the (complete) matches
        of the buckets scanned so far, flagged ``exact=False``.
        """
        if not threshold > 0:
            raise ValidationError(f"threshold must be > 0, got {threshold}")
        started = time.perf_counter()
        deadline = self._deadline(deadline)
        q = self._resolve_query(query, normalize)
        stats = QueryStats()
        with span(
            "query.threshold", threshold=float(threshold), mode=self._config.mode
        ):
            out, partial = self._threshold_scan(
                q, threshold, stats, self._select_buckets(lengths), deadline
            )
        self.last_stats = stats
        _publish_query(
            "threshold", self._config.mode, stats, started, self._config.metric
        )
        if partial:
            out = [replace(m, exact=False) for m in out]
        return sorted(out, key=lambda m: (m.distance, m.ref))

    def _threshold_scan(
        self,
        q: np.ndarray,
        threshold: float,
        stats: QueryStats,
        buckets: list[LengthBucket],
        deadline: Deadline | None,
    ) -> tuple[list[Match], bool]:
        """The per-bucket threshold sweep behind :meth:`matches_within`."""
        if self._metric_scan:
            return self._metric_threshold_scan(
                q, threshold, stats, buckets, deadline
            )
        qlen = q.shape[0]
        cfg = self._config
        envelopes = QueryEnvelopeCache(q)
        out: list[Match] = []
        partial = False
        for bucket in buckets:
            faults.fire("query.refine_unit")
            if deadline is not None and deadline.expired:
                if deadline.allow_partial and out:
                    stats.partial_results += 1
                    partial = True
                    break
                best = None
                if out:
                    m = min(out, key=lambda m: (m.distance, m.ref))
                    best = {
                        "series": m.series_name,
                        "start": m.start,
                        "length": m.length,
                        "distance": m.distance,
                        "exact": False,
                    }
                self._raise_deadline(deadline, "threshold scan", stats, best)
            count = bucket.group_count
            stats.representatives_total += count
            if not count:
                continue
            max_path = qlen + bucket.length - 1
            if cfg.use_rep_prefilter:
                band = effective_band(qlen, bucket.length, cfg.window)
                cheap = bucket.rep_summary.cheap_bounds(q, band)
                alive = (cheap - max_path * bucket.cheb_radii) / max_path <= threshold
                skipped = count - int(alive.sum())
                stats.rep_lb_prunes += skipped
                stats.rep_dtw_skipped += skipped
                stats.groups_pruned += skipped
                candidates = np.nonzero(alive)[0]
            else:
                candidates = np.arange(count)
            if not candidates.size:
                continue
            rep_raws = dtw_distance_batch(
                q, bucket.centroids[candidates], window=cfg.window
            )
            stats.rep_dtw_calls += candidates.size
            lower = (rep_raws - max_path * bucket.cheb_radii[candidates]) / max_path
            keep = lower <= threshold
            stats.groups_pruned += int(candidates.size - keep.sum())
            g_list = [int(g) for g in candidates[keep]]
            if g_list:
                with span(
                    "cascade.threshold_bucket",
                    length=bucket.length,
                    groups=len(g_list),
                ):
                    out.extend(
                        self._threshold_refine(
                            q, bucket, g_list, threshold, stats, envelopes
                        )
                    )
        return out, partial

    # ------------------------------------------------------------------
    # Deadline handling
    # ------------------------------------------------------------------

    def _deadline(self, deadline: Deadline | None) -> Deadline | None:
        """The effective deadline: the per-call one, else the config default."""
        if deadline is None:
            return self._config.deadline
        if not isinstance(deadline, Deadline):
            raise ValidationError(
                f"deadline must be a Deadline, got {type(deadline).__name__}"
            )
        return deadline

    def _best_summary(self, candidate: _Candidate) -> dict:
        """The best-so-far candidate as the dict DeadlineExceeded reports."""
        series = self._base.dataset[candidate.ref.series_index]
        return {
            "series": series.name,
            "start": candidate.ref.start,
            "length": candidate.ref.length,
            "distance": candidate.distance,
            "exact": False,
        }

    def _deadline_fired(
        self,
        deadline: Deadline | None,
        stage: str,
        stats: QueryStats,
        heap: list["_Negated"],
    ) -> bool:
        """Handle an expired deadline at a chunk boundary.

        ``False`` while budget remains (or there is no deadline).  With
        ``allow_partial`` and at least one verified candidate on the
        heap, counts a partial result and returns ``True`` — the caller
        breaks and returns its best-so-far heap.  Otherwise raises
        :class:`DeadlineExceeded` carrying the work counters and the
        best verified candidate, if any.
        """
        if deadline is None or not deadline.expired:
            return False
        if deadline.allow_partial and heap:
            stats.partial_results += 1
            return True
        best = (
            self._best_summary(min(wrapper.candidate for wrapper in heap))
            if heap
            else None
        )
        self._raise_deadline(deadline, stage, stats, best)
        return True  # unreachable

    @staticmethod
    def _raise_deadline(
        deadline: Deadline, stage: str, stats: QueryStats, best: dict | None
    ) -> None:
        """Raise the enriched :class:`DeadlineExceeded` for a fired deadline."""
        progress = {
            "groups_pruned": stats.groups_pruned,
            "groups_refined": stats.groups_refined,
            "rep_dtw_calls": stats.rep_dtw_calls,
            "member_dtw_calls": stats.member_dtw_calls,
            "members_scanned": stats.members_scanned,
        }
        try:
            deadline.check(stage, progress)
        except DeadlineExceeded as exc:
            exc.best = best
            raise
        raise DeadlineExceeded(  # pragma: no cover - expired deadlines raise above
            f"deadline exceeded during {stage}",
            stage=stage,
            progress=progress,
            best=best,
        )

    # ------------------------------------------------------------------
    # Member-layer refinement
    # ------------------------------------------------------------------

    def _scalar_unit(self, bucket: LengthBucket, g_list: list[int]) -> bool:
        """Whether a refinement unit takes the scalar member path.

        The single home of the tiny-unit routing rule: the legacy scalar
        scan when member batching is off, or when the unit's combined
        member count is under ``batch_min_members`` (below which the
        batched kernels' fixed dispatch overhead exceeds the work).
        """
        cfg = self._config
        if not cfg.use_member_batching:
            return True
        return bucket.members_in(g_list) < cfg.batch_min_members

    def _threshold_refine(
        self, q, bucket, g_list, threshold, stats, envelopes
    ) -> list[Match]:
        """Refine surviving groups of one bucket against the threshold."""
        stats.groups_refined += len(g_list)
        if self._scalar_unit(bucket, g_list):
            out: list[Match] = []
            for g_idx in g_list:
                out.extend(
                    self._threshold_refine_scalar(q, bucket, g_idx, threshold, stats)
                )
            return out
        return self._threshold_refine_batched(
            q, bucket, g_list, threshold, stats, envelopes
        )

    def _threshold_refine_scalar(
        self, q, bucket, g_idx, threshold, stats
    ) -> list[Match]:
        """Legacy per-member threshold refinement (scalar early-abandon DTW)."""
        group = bucket.groups[g_idx]
        max_path = q.shape[0] + bucket.length - 1
        raw_cut = threshold * max_path
        out: list[Match] = []
        for ref in group.members:
            stats.members_scanned += 1
            values = self._base.member_values(ref)
            raw = dtw_distance_early_abandon(
                q, values, raw_cut, window=self._config.window
            )
            if math.isinf(raw):
                stats.member_lb_prunes += 1
                continue
            stats.member_dtw_calls += 1
            res = dtw_path(q, values, window=self._config.window)
            if res.normalized_distance <= threshold:
                out.append(
                    self._to_match(
                        _Candidate(
                            distance=res.normalized_distance,
                            ref=ref,
                            raw=res.distance,
                            path=res.path,
                            group=(bucket.length, g_idx),
                        )
                    )
                )
        return out

    def _threshold_refine_batched(
        self, q, bucket, g_list, threshold, stats, envelopes
    ) -> list[Match]:
        """Batched threshold refinement: one stacked cascade per bucket."""
        rows, refs, group_of = self._stacked_members(bucket, g_list)
        max_path = q.shape[0] + bucket.length - 1
        raw_cut = threshold * max_path
        survivors, raws, plens = self._cascade_rows(
            q, bucket, rows, stats, envelopes, cut=raw_cut, scale=1.0
        )
        out: list[Match] = []
        for pos in np.nonzero(raws <= raw_cut)[0]:
            normalized = raws[pos] / plens[pos]
            if normalized <= threshold:
                row = survivors[pos]
                out.append(
                    self._to_match(
                        _Candidate(
                            distance=float(normalized),
                            ref=refs[row],
                            raw=float(raws[pos]),
                            path=None,
                            group=(bucket.length, group_of[row]),
                        ),
                        q,
                    )
                )
        return out

    def _stacked_members(
        self, bucket: LengthBucket, g_list: list[int]
    ) -> tuple[np.ndarray, list[SubsequenceRef], list[int]]:
        """Member rows of several groups stacked, with per-row provenance."""
        bucket.ensure_member_matrix(self._base.dataset)
        refs: list[SubsequenceRef] = []
        group_of: list[int] = []
        for g_idx in g_list:
            members = bucket.groups[g_idx].members
            refs.extend(members)
            group_of.extend([g_idx] * len(members))
        if len(g_list) == 1:
            rows = bucket.member_rows(g_list[0])
        else:
            rows = np.vstack([bucket.member_rows(g) for g in g_list])
        return rows, refs, group_of

    def _cascade_rows(
        self,
        q: np.ndarray,
        bucket: LengthBucket,
        rows: np.ndarray,
        stats: QueryStats,
        envelopes: QueryEnvelopeCache,
        cut: float,
        scale: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the lower-bound cascade and batched DTW over stacked rows.

        A row is pruned when ``bound / scale > cut`` — the k-best path
        passes the normalised-distance cutoff with ``scale = max_path``
        (dividing the bound down is conservative in floats, so a tie the
        legacy path kept is never over-pruned), the threshold path passes
        its raw-cost cut with ``scale = 1``.  Returns ``(survivor_indices,
        raw_distances, path_lengths)`` with counters updated for the work
        performed.
        """
        survivors = self._member_bound_filter(
            q, bucket, rows, stats, envelopes, cut, scale
        )
        if not survivors.size:
            return survivors, np.empty(0), np.empty(0, dtype=np.int64)
        raws, plens = dtw_distance_batch(
            q, rows[survivors], window=self._config.window, with_path_length=True
        )
        stats.member_dtw_calls += survivors.size
        return survivors, raws, plens

    def _member_bound_filter(
        self,
        q: np.ndarray,
        bucket: LengthBucket,
        rows: np.ndarray,
        stats: QueryStats,
        envelopes: QueryEnvelopeCache,
        cut: float,
        scale: float,
    ) -> np.ndarray:
        """Indices of *rows* surviving the LB_Kim → LB_Keogh stages."""
        cfg = self._config
        count = rows.shape[0]
        stats.members_scanned += count
        alive = np.ones(count, dtype=bool)
        if cfg.use_lower_bounds and math.isfinite(cut):
            alive &= lb_kim_batch(q, rows) / scale <= cut
            idx = np.nonzero(alive)[0]
            keogh = self._keogh_bounds(q, bucket, rows, idx, envelopes)
            if keogh is not None:
                alive[idx[keogh / scale > cut]] = False
            stats.member_lb_prunes += count - int(alive.sum())
        return np.nonzero(alive)[0]

    def _refine_members(
        self,
        q: np.ndarray,
        bucket: LengthBucket,
        g_list: list[int],
        k: int,
        heap: list["_Negated"],
        stats: QueryStats,
        envelopes: QueryEnvelopeCache,
    ) -> None:
        """Refine the members of *g_list* (one bucket) against the heap.

        One stacked cascade across all the groups' members when the
        combined row count clears ``batch_min_members`` (and member
        batching is on); the legacy scalar early-abandon scan otherwise.
        Either path yields identical heap contents — the scalar twin is
        also the ablation reference.
        """
        stats.groups_refined += len(g_list)
        members = bucket.members_in(g_list)
        with span(
            "cascade.refine",
            length=bucket.length,
            groups=len(g_list),
            members=members,
        ):
            if self._scalar_unit(bucket, g_list):
                for g_idx in g_list:
                    self._refine_group_scalar(q, bucket, g_idx, k, heap, stats)
                return
            rows, refs, group_of = self._stacked_members(bucket, g_list)
            max_path = q.shape[0] + bucket.length - 1
            cutoff = self._cutoff(heap, k)  # cascade never touches the heap
            survivors, raws, plens = self._cascade_rows(
                q, bucket, rows, stats, envelopes, cut=cutoff, scale=max_path
            )
            if not survivors.size:
                return
            self._push_batch_candidates(
                heap,
                k,
                cutoff,
                bucket.length,
                refs,
                group_of,
                survivors,
                raws,
                plens,
            )

    @staticmethod
    def _push_batch_candidates(
        heap: list["_Negated"],
        k: int,
        cutoff: float,
        length: int,
        refs: list[SubsequenceRef],
        group_of: list[int],
        survivors: np.ndarray,
        raws: np.ndarray,
        plens: np.ndarray,
    ) -> None:
        """Fold one refinement batch's exact distances into the k-best heap.

        Normalised distances come straight out of the batch kernel (the
        tracked path length makes them bit-identical to ``dtw_path``'s),
        so heap maintenance is pure comparisons; a candidate above the
        cutoff can never displace a heap entry and is skipped outright.
        """
        norms = raws / plens
        viable = (
            np.nonzero(norms <= cutoff)[0]
            if math.isfinite(cutoff)
            else np.arange(survivors.size)
        )
        if viable.size > k:
            # Only the k best of this batch can enter the global k-best;
            # keeping everything tied with the k-th smallest distance
            # preserves the deterministic (distance, ref) tie-break.
            kth = np.partition(norms[viable], k - 1)[k - 1]
            viable = viable[norms[viable] <= kth]
        for pos in viable:
            row = survivors[pos]
            candidate = _Candidate(
                distance=float(norms[pos]),
                ref=refs[row],
                raw=float(raws[pos]),
                path=None,
                group=(length, group_of[row]),
            )
            if len(heap) < k:
                heapq.heappush(heap, _Negated(candidate))
            elif candidate < heap[0].candidate:
                heapq.heapreplace(heap, _Negated(candidate))

    def _refine_group_scalar(
        self,
        q: np.ndarray,
        bucket: LengthBucket,
        g_idx: int,
        k: int,
        heap: list["_Negated"],
        stats: QueryStats,
    ) -> None:
        """Legacy one-member-at-a-time refinement (scalar early-abandon DTW).

        Kept as the cross-check twin of the batched cascade — ablation
        benchmarks assert both return identical matches — and as the
        cheaper path for tiny refinement units (``batch_min_members``).
        """
        cfg = self._config
        group = bucket.groups[g_idx]
        qlen = q.shape[0]
        max_path = qlen + bucket.length - 1
        for ref in group.members:
            stats.members_scanned += 1
            cutoff = self._cutoff(heap, k)
            values = self._base.member_values(ref)
            if cfg.use_lower_bounds and math.isfinite(cutoff):
                if lb_kim(q, values) / max_path > cutoff:
                    stats.member_lb_prunes += 1
                    continue
            if math.isfinite(cutoff):
                raw = dtw_distance_early_abandon(
                    q, values, cutoff * max_path, window=cfg.window
                )
                if math.isinf(raw):
                    stats.member_lb_prunes += 1
                    continue
            stats.member_dtw_calls += 1
            res = dtw_path(q, values, window=cfg.window)
            candidate = _Candidate(
                distance=res.normalized_distance,
                ref=ref,
                raw=res.distance,
                path=res.path,
                group=(bucket.length, g_idx),
            )
            if len(heap) < k:
                heapq.heappush(heap, _Negated(candidate))
            elif candidate < heap[0].candidate:
                heapq.heapreplace(heap, _Negated(candidate))

    def _keogh_bounds(
        self,
        q: np.ndarray,
        bucket: LengthBucket,
        rows: np.ndarray,
        idx: np.ndarray,
        envelopes: QueryEnvelopeCache,
    ) -> np.ndarray | None:
        """LB_Keogh of the *idx* rows against the cached query envelope.

        Returns ``None`` when the bound does not apply (candidate length
        differs from the query's).  The envelope radius covers the
        effective DTW band — the full length when DTW is unconstrained —
        which is what makes the bound provable.
        """
        qlen = q.shape[0]
        if qlen != bucket.length or not idx.size:
            return None
        band = effective_band(qlen, bucket.length, self._config.window)
        radius = band if band is not None else bucket.length - 1
        lower, upper = envelopes.get(radius)
        return lb_keogh_batch(rows[idx], lower, upper)

    # ------------------------------------------------------------------
    # Representative-layer search strategies
    # ------------------------------------------------------------------

    def _rep_bound_table(
        self,
        q: np.ndarray,
        live: list[LengthBucket],
        stats: QueryStats,
        *,
        eager: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-representative bound vectors, concatenated across buckets.

        Returns ``(bounds, owners, gids)`` where ``owners``/``gids``
        locate each entry's (bucket position in *live*, group index).
        With ``eager=True`` the bounds are exact representative DTW raws
        (counted in ``rep_dtw_calls``); otherwise the cheap summary
        bounds, no kernel call at all.
        """
        qlen, window = q.shape[0], self._config.window
        counts = np.array([b.group_count for b in live])
        owners = np.repeat(np.arange(len(live)), counts)
        gids = np.arange(owners.size) - (np.cumsum(counts) - counts)[owners]
        with span("cascade.rep_bounds", eager=eager, buckets=len(live)):
            if eager:
                bounds = self._rep_dtw(q, live, owners, gids, stats)
            else:
                bounds = np.concatenate(
                    [
                        b.rep_summary.cheap_bounds(
                            q, effective_band(qlen, b.length, window)
                        )
                        for b in live
                    ]
                )
        return bounds, owners, gids

    def _rep_dtw(
        self,
        q: np.ndarray,
        live: list[LengthBucket],
        owners: np.ndarray,
        gids: np.ndarray,
        stats: QueryStats,
    ) -> np.ndarray:
        """Exact DTW from *q* to representatives ``(owners[i], gids[i])``.

        One ragged kernel call however many length buckets the selection
        spans: centroids are gathered per bucket into one array padded to
        the longest.  Assembled per call, so nothing needs invalidating
        when a bucket grows.
        """
        stats.rep_dtw_calls += owners.size
        lengths = np.array([b.length for b in live], dtype=np.int64)[owners]
        padded = np.zeros((owners.size, int(lengths.max(initial=1))))
        for b_i in np.unique(owners):
            at = np.flatnonzero(owners == b_i)
            bucket = live[b_i]
            padded[at, : bucket.length] = bucket.centroids[gids[at]]
        return dtw_distance_batch(
            q, padded, window=self._config.window, lengths=lengths
        )

    def _search_exact(
        self,
        q: np.ndarray,
        buckets: list[LengthBucket],
        k: int,
        stats: QueryStats,
        envelopes: QueryEnvelopeCache,
        deadline: Deadline | None = None,
    ) -> list["_Negated"]:
        cfg = self._config
        qlen = q.shape[0]
        heap: list[_Negated] = []
        for bucket in buckets:
            stats.representatives_total += bucket.group_count
        live = [b for b in buckets if b.group_count]
        if not live:
            return heap
        max_paths = np.array([qlen + b.length - 1 for b in live], dtype=np.float64)
        radii = np.concatenate([b.cheb_radii for b in live])

        if not cfg.use_rep_prefilter:
            # PR-1 eager path: exact DTW for every representative up
            # front, groups visited in ascending transfer lower bound.
            raws, owners, gids = self._rep_bound_table(q, live, stats, eager=True)
            bounds = (
                np.maximum(raws - max_paths[owners] * radii, 0.0) / max_paths[owners]
            )
            order = np.argsort(bounds, kind="stable")
            for pos in range(order.size):
                faults.fire("query.refine_unit")
                if self._deadline_fired(
                    deadline, "eager representative refinement", stats, heap
                ):
                    return heap
                idx = order[pos]
                cutoff = self._cutoff(heap, k)
                if cfg.use_group_pruning and bounds[idx] > cutoff:
                    stats.groups_pruned += order.size - pos
                    break
                self._refine_members(
                    q, live[owners[idx]], [int(gids[idx])], k, heap, stats, envelopes
                )
            return heap

        # Two-layer lazy cascade: cheap summary bounds rank every group,
        # exact representative DTW runs in chunked batches only for groups
        # whose cheap bound undercuts the running cutoff, and verified
        # groups drain into stacked member refinements.
        cheap, owners, gids = self._rep_bound_table(q, live, stats, eager=False)
        bounds = np.maximum(cheap - max_paths[owners] * radii, 0.0) / max_paths[owners]
        order = np.argsort(bounds, kind="stable")
        ordered_bounds = bounds[order]
        total = order.size
        ptr = 0
        chunk = _REP_CHUNK
        exact_heap: list[tuple[float, int, int]] = []
        while ptr < total or exact_heap:
            faults.fire("query.rep_chunk")
            if self._deadline_fired(
                deadline, "representative cascade", stats, heap
            ):
                return heap
            cutoff = self._cutoff(heap, k)
            next_cheap = float(ordered_bounds[ptr]) if ptr < total else _INF
            next_exact = exact_heap[0][0] if exact_heap else _INF
            if cfg.use_group_pruning and min(next_cheap, next_exact) > cutoff:
                remaining = total - ptr
                stats.rep_lb_prunes += remaining
                stats.rep_dtw_skipped += remaining
                stats.groups_pruned += remaining + len(exact_heap)
                break
            if next_cheap <= next_exact:
                take = order[ptr : ptr + chunk]
                if cfg.use_group_pruning and math.isfinite(cutoff):
                    # The chunk is sorted by bound: only the prefix at or
                    # under the cutoff can still matter this round.
                    viable = int(
                        np.searchsorted(
                            ordered_bounds[ptr : ptr + take.size],
                            cutoff,
                            side="right",
                        )
                    )
                    take = take[: max(viable, 1)]
                ptr += take.size
                chunk *= 2
                with span("cascade.rep_dtw", batch=int(take.size)):
                    b_is, g_ids = owners[take], gids[take]
                    raws = self._rep_dtw(q, live, b_is, g_ids, stats)
                    paths = max_paths[b_is]
                    tight = np.maximum(raws - paths * radii[take], 0.0) / paths
                    for entry in zip(tight.tolist(), b_is.tolist(), g_ids.tolist()):
                        heapq.heappush(exact_heap, entry)
            else:
                # Drain verified groups (tight bound within the cutoff and
                # under every unevaluated cheap bound) into one stacked
                # refinement per bucket.  The top entry is always
                # drainable here: this branch implies next_exact <
                # next_cheap, and the prune check above (same guard, same
                # cutoff) would have stopped the loop were it over the
                # cutoff.
                _, b_i, g_idx = heapq.heappop(exact_heap)
                drained: dict[int, list[int]] = {b_i: [g_idx]}
                count = 1
                while exact_heap and count < chunk:
                    tight, b_i, g_idx = exact_heap[0]
                    if tight > next_cheap:
                        break
                    if cfg.use_group_pruning and tight > cutoff:
                        break
                    heapq.heappop(exact_heap)
                    drained.setdefault(b_i, []).append(g_idx)
                    count += 1
                for b_i, g_list in drained.items():
                    faults.fire("query.refine_unit")
                    if self._deadline_fired(
                        deadline, "member refinement", stats, heap
                    ):
                        return heap
                    self._refine_members(
                        q, live[b_i], g_list, k, heap, stats, envelopes
                    )
        return heap

    def _search_fast(
        self,
        q: np.ndarray,
        buckets: list[LengthBucket],
        k: int,
        stats: QueryStats,
        envelopes: QueryEnvelopeCache,
        deadline: Deadline | None = None,
    ) -> list["_Negated"]:
        cfg = self._config
        qlen = q.shape[0]
        heap: list[_Negated] = []
        for bucket in buckets:
            stats.representatives_total += bucket.group_count
        live = [b for b in buckets if b.group_count]
        if not live:
            return heap
        # The ranking estimate divides raw DTW by the minimum possible
        # warping-path length — a consistent estimator, exact whenever the
        # optimal path takes no detours.
        scales = np.array([max(qlen, b.length) for b in live], dtype=np.float64)

        if not cfg.use_rep_prefilter:
            # Eager ranking: exact DTW to every representative, then
            # refine in ascending estimate order.
            raws, owners, gids = self._rep_bound_table(q, live, stats, eager=True)
            order = np.argsort(raws / scales[owners], kind="stable")
            for rank in range(order.size):
                faults.fire("query.refine_unit")
                if self._deadline_fired(
                    deadline, "eager representative refinement", stats, heap
                ):
                    return heap
                if rank >= cfg.refine_groups and len(heap) >= k:
                    break
                idx = order[rank]
                self._refine_members(
                    q, live[owners[idx]], [int(gids[idx])], k, heap, stats, envelopes
                )
            return heap

        # Lazy ranking: cheap bounds on the estimate order the queue; a
        # representative's exact DTW runs (chunk-batched) only while its
        # bound could still place it among the refined groups.
        cheap, owners, gids = self._rep_bound_table(q, live, stats, eager=False)
        bounds = cheap / scales[owners]
        order = np.argsort(bounds, kind="stable")
        ordered_bounds = bounds[order]
        total = order.size
        ptr = 0
        chunk = _REP_CHUNK
        exact_heap: list[tuple[float, int, int]] = []
        refined = 0
        while ptr < total or exact_heap:
            faults.fire("query.rep_chunk")
            if self._deadline_fired(
                deadline, "representative ranking", stats, heap
            ):
                break
            if refined >= cfg.refine_groups and len(heap) >= k:
                break
            # An exact entry is the true next-best only once no
            # unevaluated bound can undercut or tie it.
            while ptr < total and (
                not exact_heap or ordered_bounds[ptr] <= exact_heap[0][0]
            ):
                take = order[ptr : ptr + chunk]
                ptr += take.size
                chunk *= 2
                with span("cascade.rep_dtw", batch=int(take.size)):
                    b_is, g_ids = owners[take], gids[take]
                    est = self._rep_dtw(q, live, b_is, g_ids, stats) / scales[b_is]
                    for entry in zip(est.tolist(), b_is.tolist(), g_ids.tolist()):
                        heapq.heappush(exact_heap, entry)
            if not exact_heap:
                break
            _, b_i, g_idx = heapq.heappop(exact_heap)
            self._refine_members(q, live[b_i], [g_idx], k, heap, stats, envelopes)
            refined += 1
        stats.rep_dtw_skipped += total - ptr
        return heap

    @staticmethod
    def _cutoff(heap: list, k: int) -> float:
        """Current k-th best normalised distance (inf until k found)."""
        if len(heap) < k:
            return _INF
        return heap[0].candidate.distance

    # ------------------------------------------------------------------
    # Metric scan (non-DTW metrics, and any metric over multivariate)
    # ------------------------------------------------------------------

    def _metric_buckets(
        self, q: np.ndarray, buckets: list[LengthBucket], stats: QueryStats
    ) -> list[LengthBucket]:
        """Buckets the active metric can scan for this query.

        Elastic metrics (the DTW family) compare across lengths and scan
        everything; the Lp family requires candidates of the query's own
        length, and an unindexed query length is a clear caller error
        rather than an empty result.
        """
        for bucket in buckets:
            stats.representatives_total += bucket.group_count
        if self._spec.elastic:
            return [b for b in buckets if b.group_count]
        qlen = q.shape[0] // self._base.channels
        live = [b for b in buckets if b.group_count and b.length == qlen]
        if not live:
            lengths = self._base.lengths
            raise ValidationError(
                f"metric {self._spec.name!r} compares equal lengths only; "
                f"query length {qlen} is not among the {len(lengths)} "
                f"indexed lengths ({lengths[0]}..{lengths[-1]})"
            )
        return live

    def _metric_distances(
        self, q: np.ndarray, rows: np.ndarray, length: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(raw, normalized)`` metric distances from *q* to stacked rows.

        One vectorised kernel call when the registered metric has a batch
        kernel for this shape; otherwise a scalar ``pair`` loop — the
        brute-force-verified fallback every metric is guaranteed to have.
        """
        spec = self._spec
        channels = self._base.channels
        window = self._config.window
        if spec.batch is not None:
            out = spec.batch(q, rows, length, channels, window)
            if out is not None:
                return out
        count = rows.shape[0]
        raws = np.empty(count)
        norms = np.empty(count)
        for i in range(count):
            raws[i], norms[i] = spec.pair_shaped(
                q, rows[i], length, channels, window
            )
        return raws, norms

    def _metric_group_bounds(
        self, q: np.ndarray, bucket: LengthBucket, stats: QueryStats
    ) -> np.ndarray:
        """Per-group lower bounds from representative distances and radii.

        The registered bound family maps the normalized distance from the
        query to each representative, plus the stored ``ed_radius`` /
        ``cheb_radius`` (which are exactly the flattened-row mean-abs and
        max-abs member radii, for any channel count), to a provable lower
        bound on the distance to *any* member of the group.
        """
        _, rep_norms = self._metric_distances(q, bucket.centroids, bucket.length)
        stats.rep_dtw_calls += bucket.group_count
        return self._spec.lower_bound(
            rep_norms, bucket.ed_radii, bucket.cheb_radii
        )

    def _metric_refine(
        self,
        q: np.ndarray,
        bucket: LengthBucket,
        g_list: list[int],
        k: int,
        heap: list["_Negated"],
        stats: QueryStats,
    ) -> None:
        """Verify every member of *g_list* exactly and fold into the heap."""
        stats.groups_refined += len(g_list)
        rows, refs, group_of = self._stacked_members(bucket, g_list)
        stats.members_scanned += rows.shape[0]
        raws, norms = self._metric_distances(q, rows, bucket.length)
        stats.member_dtw_calls += rows.shape[0]
        cutoff = self._cutoff(heap, k)
        viable = (
            np.nonzero(norms <= cutoff)[0]
            if math.isfinite(cutoff)
            else np.arange(norms.size)
        )
        if viable.size > k:
            kth = np.partition(norms[viable], k - 1)[k - 1]
            viable = viable[norms[viable] <= kth]
        for pos in viable:
            candidate = _Candidate(
                distance=float(norms[pos]),
                ref=refs[pos],
                raw=float(raws[pos]),
                # Non-DTW metrics (and the multivariate scan) define no
                # warping path; matches carry an empty one.
                path=(),
                group=(bucket.length, group_of[pos]),
            )
            if len(heap) < k:
                heapq.heappush(heap, _Negated(candidate))
            elif candidate < heap[0].candidate:
                heapq.heapreplace(heap, _Negated(candidate))

    def _metric_search(
        self,
        q: np.ndarray,
        buckets: list[LengthBucket],
        k: int,
        stats: QueryStats,
        deadline: Deadline | None = None,
    ) -> list["_Negated"]:
        """k-best scan under the registry metric — exact in either mode.

        Per bucket: when the metric registers a lower-bound family, the
        best-bounded group is refined first to establish a finite cutoff,
        then every group whose bound exceeds the running cutoff is pruned
        with no member work; metrics without a bound verify every member
        (the brute-force-verified path).  Deadlines behave exactly as in
        the DTW cascade: checked at bucket boundaries, partial results
        only when the deadline allows them.
        """
        cfg = self._config
        heap: list[_Negated] = []
        with span(
            "cascade.metric_scan", metric=self._spec.name, buckets=len(buckets)
        ):
            for bucket in self._metric_buckets(q, buckets, stats):
                faults.fire("query.refine_unit")
                if self._deadline_fired(deadline, "metric scan", stats, heap):
                    return heap
                bucket.ensure_member_matrix(self._base.dataset)
                if self._spec.lower_bound is not None and cfg.use_group_pruning:
                    lbs = self._metric_group_bounds(q, bucket, stats)
                    order = np.argsort(lbs, kind="stable")
                    self._metric_refine(
                        q, bucket, [int(order[0])], k, heap, stats
                    )
                    rest = order[1:]
                    cutoff = self._cutoff(heap, k)
                    if math.isfinite(cutoff):
                        keep = rest[lbs[rest] <= cutoff]
                        pruned = int(rest.size - keep.size)
                        stats.rep_lb_prunes += pruned
                        stats.groups_pruned += pruned
                        rest = keep
                    g_list = [int(g) for g in rest]
                else:
                    g_list = list(range(bucket.group_count))
                if g_list:
                    self._metric_refine(q, bucket, g_list, k, heap, stats)
        return heap

    def _metric_threshold_scan(
        self,
        q: np.ndarray,
        threshold: float,
        stats: QueryStats,
        buckets: list[LengthBucket],
        deadline: Deadline | None,
    ) -> tuple[list[Match], bool]:
        """Threshold sweep under the registry metric (exact matches).

        Group-level pruning against the *threshold* itself where the
        metric registers a bound family; full member verification
        everywhere else.  Partial-deadline semantics match
        :meth:`_threshold_scan`: completed buckets' matches return
        flagged inexact.
        """
        cfg = self._config
        out: list[Match] = []
        partial = False
        for bucket in self._metric_buckets(q, buckets, stats):
            faults.fire("query.refine_unit")
            if deadline is not None and deadline.expired:
                if deadline.allow_partial and out:
                    stats.partial_results += 1
                    partial = True
                    break
                best = None
                if out:
                    m = min(out, key=lambda m: (m.distance, m.ref))
                    best = {
                        "series": m.series_name,
                        "start": m.start,
                        "length": m.length,
                        "distance": m.distance,
                        "exact": False,
                    }
                self._raise_deadline(deadline, "metric threshold scan", stats, best)
            bucket.ensure_member_matrix(self._base.dataset)
            candidates = np.arange(bucket.group_count)
            if self._spec.lower_bound is not None and cfg.use_group_pruning:
                lbs = self._metric_group_bounds(q, bucket, stats)
                keep = lbs <= threshold
                pruned = int(candidates.size - keep.sum())
                stats.rep_lb_prunes += pruned
                stats.groups_pruned += pruned
                candidates = candidates[keep]
            if not candidates.size:
                continue
            g_list = [int(g) for g in candidates]
            stats.groups_refined += len(g_list)
            rows, refs, group_of = self._stacked_members(bucket, g_list)
            stats.members_scanned += rows.shape[0]
            raws, norms = self._metric_distances(q, rows, bucket.length)
            stats.member_dtw_calls += rows.shape[0]
            for pos in np.nonzero(norms <= threshold)[0]:
                out.append(
                    self._to_match(
                        _Candidate(
                            distance=float(norms[pos]),
                            ref=refs[pos],
                            raw=float(raws[pos]),
                            path=(),
                            group=(bucket.length, group_of[pos]),
                        )
                    )
                )
        return out, partial

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _resolve_query(self, query, normalize: bool) -> np.ndarray:
        channels = self._base.channels
        if isinstance(query, SubsequenceRef):
            values = self._base.dataset.values(query)
            # Multivariate refs resolve to (length, channels) blocks; the
            # search works on the channel-flattened row layout.
            return values.ravel() if channels > 1 else values
        if channels > 1:
            q = np.asarray(query, dtype=np.float64)
            if q.ndim != 2 or q.shape[1] != channels:
                raise ValidationError(
                    f"query for a {channels}-channel base must be 2-D "
                    f"(length, {channels}), got shape {q.shape}"
                )
            if q.shape[0] < 2:
                raise ValidationError(
                    f"query must have at least 2 time steps, got {q.shape[0]}"
                )
            if not np.all(np.isfinite(q)):
                raise ValidationError("query contains NaN or infinite entries")
            bounds = self._base.normalization_bounds
            if normalize and bounds is not None:
                q = minmax_normalize(q, lo=bounds[0], hi=bounds[1])
            return np.ascontiguousarray(q).ravel()
        q = as_sequence(query, name="query")
        bounds = self._base.normalization_bounds
        if normalize and bounds is not None:
            q = minmax_normalize(q, lo=bounds[0], hi=bounds[1])
        return q

    def _select_buckets(self, lengths) -> list[LengthBucket]:
        if lengths is None:
            return self._base.buckets()
        chosen = sorted(set(int(n) for n in lengths))
        return [self._base.bucket(n) for n in chosen]

    def _to_match(
        self, candidate, q: np.ndarray | None = None, *, exact: bool = True
    ) -> Match:
        inner = candidate.candidate if isinstance(candidate, _Negated) else candidate
        series = self._base.dataset[inner.ref.series_index]
        path = inner.path
        if path is None:
            # Batched refinement defers the warping-path traceback to the
            # few matches actually returned; resolve it here.
            path = dtw_path(
                q, self._base.member_values(inner.ref), window=self._config.window
            ).path
        return Match(
            ref=inner.ref,
            series_name=series.name,
            distance=inner.distance,
            raw_distance=inner.raw,
            path=path,
            group=inner.group,
            exact=exact,
        )


class _Negated:
    """Max-heap adapter so ``heap[0]`` is the *worst* kept candidate."""

    __slots__ = ("candidate",)

    def __init__(self, candidate: _Candidate) -> None:
        self.candidate = candidate

    def __lt__(self, other: "_Negated") -> bool:
        return other.candidate < self.candidate

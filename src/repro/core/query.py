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

The search is a **staged pruning cascade**, cheap bounds first at every
stage (DESIGN.md §1):

**Rank**: one pass over the base's
:class:`repro.core.base.RepresentativeTable` — every representative of
every length, one row each — yields LB_Kim (ragged, from the endpoints)
and min/max-band LB_Keogh (closed form, ``O(G log n)``) lower bounds on
``DTW(query, representative)`` without any DTW kernel call; combined
with the ED→DTW transfer bound they lower-bound every *member* of the
group.  The bound order is consumed lazily (:class:`_LazyOrder`): only
the prefix a search reaches is ever sorted.  There is no eager twin:
under the trivial sound bound (zeros from
:meth:`QueryProcessor._rank_bounds`) this one path verifies every
representative up front, which is how the tests witness that rank
pruning changes no answer (DESIGN.md §1).

**Lazy verify**: representatives are visited best-first and a
representative's exact distance is only computed (in bound-ordered
chunks, each one ragged kernel call however many length buckets it
spans) when its cheap bound undercuts the current cutoff —
representatives whose bound exceeds the running k-th best distance never
get a DTW call at all.

**Refine** (:meth:`QueryProcessor._refine`, the one member stage every
operation drives): a chunk of groups of *any* lengths, named by their
representative-table rows, is read off the base's
:class:`repro.core.base.MemberTable` (one row per member, every length),
then

1. *select* the chunk's members with one mask over the table's owner
   column; *bound* them — LB_Kim from the table's endpoint column, and
   LB_Keogh against the cached query envelope for the rows of the
   query's own length, read from that bucket's member matrix; *load* the
   values of the survivors only into one stack padded to their widest;
2. one ragged cost-only ``dtw_distance_batch(..., lengths=)`` call for
   the survivors;
3. a second, path-length-tracking call only for rows whose
   ``raw / (n + m - 1)`` is within the cut — a necessary condition for
   ``raw / path_length`` to be, since no warping path is longer;
4. one ``dtw_path_batch`` call — the warping paths of the matches
   actually returned, all of them at once, when the answer is final
   (:meth:`QueryProcessor._matches`).

The operations differ in their stopping rule only, and name groups by
their table rows.  Exact k-best drains verified groups best-first —
ascending ``(tight bound, representative distance)`` — in doubling
chunks that start small, so the closest groups set a near-final cutoff
before the bulk of the base meets the member bounds; fast mode refines its top ``refine_groups`` groups in one call;
the threshold query verifies the groups its rank pass leaves alive in
length-sorted chunks, one representative call and one stage call per
chunk with the threshold as the cut.  Every prune is a strict
``bound > cut`` on a sound lower bound and the heap breaks distance ties
by reference, so any refinement order returns exactly what a brute-force
scan returns.  :class:`QueryStats` counts the work each stage actually
performed.

:meth:`QueryProcessor.batch_matches` answers many queries in one call by
running the single-query path on each, inline and in input order, so
results are those of per-query submission by construction.

Distances reported to callers are **normalised DTW** (cost divided by
warping-path length), the unit in which ONEX similarity thresholds are
expressed; ``raw_distance`` carries the unnormalised sum.
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from repro.core.base import LengthBucket, OnexBase
from repro.core.config import QueryConfig
from repro.core.deadline import Deadline
from repro.data.dataset import SubsequenceRef
from repro.distances.dtw import dtw_distance_batch, dtw_path_batch, effective_band
from repro.distances.envelope import QueryEnvelopeCache
from repro.distances.lower_bounds import (
    lb_keogh_batch,
    lb_kim_endpoints_batch,
)
from repro.distances.metrics import as_sequence
from repro.distances.normalize import minmax_normalize
from repro.distances.registry import MetricSpec, get_metric
from repro.exceptions import DeadlineExceeded, InvariantError, ValidationError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.testing import faults

__all__ = ["Match", "QueryProcessor", "QueryStats"]

_INF = math.inf

#: First chunk of each of the cascade's two schedules — representatives
#: verified (lazy exact DTW) per round, and verified groups drained into
#: one refinement call.  Each doubles on its own within one query, so
#: adversarial bound distributions cost O(log groups) rounds while the
#: first rounds stay small enough to establish a cutoff before most
#: representatives, or most members, are touched.  A first drain of 64, or
#: of every bound-0 group at once, measured no faster (DESIGN.md §1).
_REP_CHUNK = 16
#: Bound-ordered prefix the lazy rank order sorts first; it doubles on
#: demand.  The representative schedule above has consumed 1008 rows after
#: six rounds, which is where a k-best over the 21 741-group floor stops
#: (~950 representatives verified), so the usual query sorts one block.
_ORDER_BLOCK = 1024
#: A threshold chunk spans the lengths ``L .. 1.5 L``: the ragged kernel
#: computes every row at the chunk's widest length, so no row is padded by
#: more than half its own width.  Over the 5..24 floor that is four chunks
#: (5-7, 8-12, 13-19, 20-24): measured at ST 0.05, 10.1 kernel calls per
#: range query instead of 46.3 for 1.15x its ``dtw.cells`` (span 1.25:
#: 14.8 calls, 1.09x; span 2: 7.5 calls, 1.28x; wall time flat from 1.25
#: to 1.6, worse outside — benchmarks/bench_rep_cascade.py gates the calls).
_THRESHOLD_SPAN = 1.5


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
    kind.  Member layer: of the ``members_scanned`` rows selected,
    ``member_lb_prunes`` fell to LB_Kim/LB_Keogh, ``member_dtw_calls`` got
    a raw DTW cost and ``member_path_calls`` — those whose raw cost could
    still be within the cut — a tracked path length as well.
    ``batch_queries`` is the number of queries summed into this
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
    member_path_calls: int = 0
    batch_queries: int = 0
    partial_results: int = 0

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
    group: tuple = field(compare=False)


class _Refined(NamedTuple):
    """Member rows one refinement call verified, as parallel arrays.

    Row ``i`` is the window ``handles[i] = (series_index, start)`` of
    ``lengths[i]`` points in group ``gids[i]`` of its length bucket, at
    normalised distance ``norms[i]`` (raw cost ``raws[i]``).
    """

    norms: np.ndarray
    raws: np.ndarray
    handles: np.ndarray
    lengths: np.ndarray
    gids: np.ndarray


class _Reps(NamedTuple):
    """The representatives one query ranks: aligned columns of the base's
    :class:`~repro.core.base.RepresentativeTable` — the table's own when
    every length is searched (*rows* ``None``), else its *rows*."""

    rows: np.ndarray | None
    lengths: np.ndarray
    gids: np.ndarray
    radii: np.ndarray

    def at(self, take: np.ndarray) -> np.ndarray:
        """The table rows of the positions *take* — what the member stage
        and the drivers' queues name groups by."""
        return take if self.rows is None else self.rows[take]


class _LazyOrder:
    """``np.argsort(bounds, kind="stable")``, sorted a prefix at a time.

    ``order[:ready]`` / ``values[:ready]`` are, element for element, the
    head of the full stable argsort and the bounds in that order.  A
    search that stops after a few hundred of 20 000 representatives pays
    one O(G) partition and a sort of the block it reaches instead of the
    full O(G log G) sort.  Each extension splits the unsorted rest at a
    pivot *value* (ties with the pivot all come along, so a block
    boundary never separates equal bounds) and stable-sorts the block;
    the rest stays in index order, which is what makes every block's
    sort the global tie-break.
    """

    def __init__(self, bounds: np.ndarray, block: int = _ORDER_BLOCK) -> None:
        self.size = bounds.size
        self._block = block
        self.order = np.empty(self.size, dtype=np.int64)
        self.values = np.empty(self.size)
        self.ready = 0
        self._rest = np.arange(self.size)
        self._rest_values = bounds

    def upto(self, stop: int) -> None:
        """Make ``order[:stop]`` and ``values[:stop]`` valid."""
        stop = min(stop, self.size)
        while self.ready < stop:
            rest, values = self._rest, self._rest_values
            want = max(stop - self.ready, self.ready, self._block)
            if want < rest.size:
                block = values <= np.partition(values, want - 1)[want - 1]
                self._rest, self._rest_values = rest[~block], values[~block]
                rest, values = rest[block], values[block]
            if not rest.size:
                # A NaN bound compares false with every pivot.
                raise InvariantError(
                    f"bound order made no progress at {self.ready} of {self.size}"
                )
            by_bound = np.argsort(values, kind="stable")
            end = self.ready + rest.size
            self.order[self.ready : end] = rest[by_bound]
            self.values[self.ready : end] = values[by_bound]
            self.ready = end


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
        query: ArrayLike | SubsequenceRef,
        *,
        lengths: Iterable[int] | None = None,
        normalize: bool = True,
        deadline: Deadline | None = None,
    ) -> Match:
        """The most similar indexed subsequence to *query* (§3.3).

        *query* is an array of raw-unit values (normalised into the base's
        value space when the base was built normalised, unless *normalize*
        is false) or a :class:`SubsequenceRef` into the indexed dataset.
        *lengths* optionally restricts candidate subsequence lengths.
        *deadline* bounds the search cooperatively; see
        :meth:`k_best_matches`.
        """
        matches = self.k_best_matches(
            query, 1, lengths=lengths, normalize=normalize, deadline=deadline
        )
        return matches[0]

    def k_best_matches(
        self,
        query: ArrayLike | SubsequenceRef,
        k: int,
        *,
        lengths: Iterable[int] | None = None,
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
            sp.add(**stats.as_dict())
        self.last_stats = stats
        _publish_query(
            "k_best", self._config.mode, stats, started, self._config.metric
        )
        return matches

    def batch_matches(
        self,
        queries: Iterable[ArrayLike | SubsequenceRef],
        k: int = 1,
        *,
        lengths: Iterable[int] | None = None,
        normalize: bool = True,
        deadline: Deadline | None = None,
    ) -> list[list[Match]]:
        """The *k* best matches for every query of a batch, in one call.

        The multi-query driver: every query runs the single-query search
        (:meth:`_run_search`) inline, in input order, so results are those
        of submitting each query through :meth:`k_best_matches`.
        ``last_stats`` afterwards holds the summed work counters with
        ``batch_queries`` set.

        A fired *deadline* raises as in :meth:`k_best_matches`; with
        ``allow_partial`` the batch degrades per query instead, as long
        as some query has verified candidates — finished queries keep
        their exact answers, an interrupted one returns its best so far
        flagged ``exact=False``, and one with nothing verified yet
        returns an empty list.
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
        outcomes: list[list[Match] | DeadlineExceeded] = []
        with span(
            "query.batch", queries=len(resolved), k=k, mode=self._config.mode
        ) as sp:
            for q in resolved:
                try:
                    outcomes.append(
                        self._run_search(q, buckets, k, stats, deadline=deadline)
                    )
                except DeadlineExceeded as exc:
                    if not deadline.allow_partial:
                        raise
                    outcomes.append(exc)
            sp.add(**stats.as_dict())
        self.last_stats = stats
        _publish_query(
            "batch", self._config.mode, stats, started, self._config.metric
        )
        expired = [out for out in outcomes if isinstance(out, DeadlineExceeded)]
        if len(expired) == len(outcomes):
            raise expired[0]
        return [[] if isinstance(out, DeadlineExceeded) else out for out in outcomes]

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
        return self._matches(q, candidates, exact=not partial)

    def matches_within(
        self,
        query: ArrayLike | SubsequenceRef,
        threshold: float,
        *,
        lengths: Iterable[int] | None = None,
        normalize: bool = True,
        deadline: Deadline | None = None,
    ) -> list[Match]:
        """Every indexed subsequence with normalised DTW <= *threshold*.

        Uses the transfer bounds in both directions, on both layers:
        groups whose *cheap* representative bound already exceeds the
        threshold are skipped without any DTW at all, groups whose exact
        representative bound exceeds it are skipped without member work,
        and every surviving member is verified exactly.  Candidates are
        verified in length-sorted chunks (lengths ``L .. 1.5 L``) and the
        deadline is checked before each: a fired *deadline* with
        ``allow_partial`` returns the (complete) matches of the chunks
        verified so far — the shortest lengths — flagged ``exact=False``.
        """
        if not threshold > 0:
            raise ValidationError(f"threshold must be > 0, got {threshold}")
        started = time.perf_counter()
        deadline = self._deadline(deadline)
        q = self._resolve_query(query, normalize)
        stats = QueryStats()
        with span(
            "query.threshold", threshold=float(threshold), mode=self._config.mode
        ) as sp:
            found, partial = self._threshold_scan(
                q, threshold, stats, self._select_buckets(lengths), deadline
            )
            matches = self._matches(q, sorted(found), exact=not partial)
            sp.add(**stats.as_dict())
        self.last_stats = stats
        _publish_query(
            "threshold", self._config.mode, stats, started, self._config.metric
        )
        return matches

    def _threshold_scan(
        self,
        q: np.ndarray,
        threshold: float,
        stats: QueryStats,
        buckets: list[LengthBucket],
        deadline: Deadline | None,
    ) -> tuple[list[_Candidate], bool]:
        """The range driver of the cascade behind :meth:`matches_within`.

        One rank pass over the table marks the groups whose cheap bound
        cannot rule them out; they are then verified a length-sorted
        chunk at a time (``_THRESHOLD_SPAN``): one ragged representative
        DTW call, then one member refinement of the groups it keeps, with
        the threshold as the cut.  The failpoint and the deadline check
        open every chunk, ahead of its first kernel call.  Returns the
        verified candidates of every chunk and whether a deadline cut the
        scan short; the caller resolves their warping paths in one call.
        """
        if self._metric_scan:
            return self._metric_threshold_scan(
                q, threshold, stats, buckets, deadline
            )
        envelopes = QueryEnvelopeCache(q)
        out: list[_Candidate] = []
        reps = self._reps(buckets, stats)
        max_paths = (q.shape[0] + reps.lengths - 1).astype(np.float64)
        cheap = self._rank_bounds(q, reps)
        alive = (cheap - max_paths * reps.radii) / max_paths <= threshold
        candidates = np.flatnonzero(alive)
        skipped = alive.size - candidates.size
        stats.rep_lb_prunes += skipped
        stats.rep_dtw_skipped += skipped
        stats.groups_pruned += skipped
        candidates = candidates[np.argsort(reps.lengths[candidates], kind="stable")]
        lengths = reps.lengths[candidates]
        stop = 0
        while stop < candidates.size:
            faults.fire("query.refine_unit")
            if self._deadline_fired(deadline, "threshold scan", stats, out):
                return out, True
            start, widest = stop, int(lengths[stop] * _THRESHOLD_SPAN)
            stop = int(np.searchsorted(lengths, widest, side="right"))
            take = candidates[start:stop]
            raws = self._rep_dtw(q, lengths[start:stop], reps.gids[take], stats)
            lower = (raws - max_paths[take] * reps.radii[take]) / max_paths[take]
            keep = take[lower <= threshold]
            stats.groups_pruned += take.size - keep.size
            if keep.size:
                with span(
                    "cascade.threshold_bucket", groups=int(keep.size), widest=widest
                ):
                    found = self._refine(
                        q, reps.at(keep), threshold, stats, envelopes
                    )
                    out.extend(self._within(found, threshold))
        return out, False

    # ------------------------------------------------------------------
    # Deadline handling
    # ------------------------------------------------------------------

    def _deadline(self, deadline: Deadline | None) -> Deadline | None:
        """*deadline*, type-checked."""
        if deadline is not None and not isinstance(deadline, Deadline):
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
        verified: Iterable[_Candidate],
    ) -> bool:
        """Handle an expired deadline at a chunk boundary.

        ``False`` while budget remains (or there is no deadline).
        *verified* yields the candidates verified so far (read only once
        the deadline fired).  With ``allow_partial`` and at least one of
        them, counts a partial result and returns ``True`` — the caller
        breaks and returns its best-so-far result.  Otherwise raises
        :class:`DeadlineExceeded` carrying the work counters and the
        best verified candidate, if any.
        """
        if deadline is None or not deadline.expired:
            return False
        best = min(verified, default=None)
        if deadline.allow_partial and best is not None:
            stats.partial_results += 1
            return True
        try:
            deadline.check(
                stage,
                {
                    "groups_pruned": stats.groups_pruned,
                    "groups_refined": stats.groups_refined,
                    "rep_dtw_calls": stats.rep_dtw_calls,
                    "member_dtw_calls": stats.member_dtw_calls,
                    "members_scanned": stats.members_scanned,
                },
            )
        except DeadlineExceeded as exc:
            exc.best = None if best is None else self._best_summary(best)
            raise
        return True  # unreachable: an expired deadline's check raises

    # ------------------------------------------------------------------
    # Member-layer refinement
    # ------------------------------------------------------------------

    def _stack(self, lengths: np.ndarray, picks: np.ndarray, matrix: str) -> np.ndarray:
        """Rows ``picks[i]`` of the *matrix* (``"centroids"`` or
        ``"member_matrix"``) of the length-``lengths[i]`` buckets, zero-
        padded into one stack as wide as the longest.  *lengths* ascend,
        so each bucket fills one slice."""
        padded = np.zeros((picks.size, int(lengths[-1])))
        edges = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), picks.size]
        for lo, hi in zip(edges, edges[1:]):
            length = int(lengths[lo])
            source = getattr(self._base.bucket(length), matrix)
            padded[lo:hi, :length] = source.take(picks[lo:hi], axis=0)
        return padded

    def _refine(
        self,
        q: np.ndarray,
        table_rows: np.ndarray,
        cut: float,
        stats: QueryStats,
        envelopes: QueryEnvelopeCache,
        k: int | None = None,
    ) -> _Refined:
        """The member stage: every member of the groups at the
        representative-table rows *table_rows* that can still be within
        *cut*, verified exactly.

        The groups may span any lengths.  Their members are read off the
        base's :class:`~repro.core.base.MemberTable` in three steps:
        *select* (the members whose owner is wanted, one mask over the
        table), *bound* (LB_Kim from the table's endpoint column, LB_Keogh
        from the query-length bucket's ``member_matrix`` for those rows
        only) and *load* (values padded into a stack for the bound's
        survivors only; handles and group ids for the rows returned).
        *cut* is a normalised distance — the running k-th best of a
        k-best search (``inf`` until k are found) or the threshold of a
        range query — and every test against it is a strict prune on a
        sound lower bound of ``raw / path_length``: the member bounds and
        then the raw cost itself, each divided by the longest possible
        path ``n + m - 1`` (dividing down is conservative in floats too,
        so a tie is never pruned).  With *k*, the call's own k-th
        smallest ``raw / max(n, m)`` — an upper bound on its k-th
        normalised distance, no path being shorter — tightens the cut
        before path lengths are tracked.  Returns the rows that passed,
        which is a superset of the members within *cut*, with the raw
        costs and path lengths of the one call that tracked both.
        """
        cfg = self._config
        qlen = q.shape[0]
        stats.groups_refined += table_rows.size
        members = self._base.member_table
        at = members.select(table_rows)
        count = at.size
        stats.members_scanned += count
        lengths = members.lengths[at]
        if cfg.use_lower_bounds and math.isfinite(cut):
            max_paths = (qlen + lengths - 1).astype(np.float64)
            # ``take``: a row gather several times faster than ``[at]``.
            kim = lb_kim_endpoints_batch(q, members.endpoints.take(at, axis=0), lengths)
            alive = kim / max_paths <= cut
            same = np.flatnonzero(alive & (lengths == qlen))
            if same.size:
                # Equal lengths: the envelope radius covers the effective
                # DTW band — the full length when DTW is unconstrained —
                # which is what makes LB_Keogh provable.
                band = effective_band(qlen, qlen, cfg.window)
                lower, upper = envelopes.get(qlen - 1 if band is None else band)
                matrix = self._base.bucket(qlen).member_matrix
                rows = matrix.take(members.rows[at[same]], axis=0)
                keogh = lb_keogh_batch(rows, lower, upper)
                alive[same[keogh / max_paths[same] > cut]] = False
            at, lengths = at[alive], lengths[alive]
            stats.member_lb_prunes += count - at.size
        stats.member_dtw_calls += at.size
        raws = plens = np.empty(0)
        if at.size:
            by_length = np.argsort(lengths, kind="stable")
            at, lengths = at[by_length], lengths[by_length]
            rows = self._stack(lengths, members.rows[at], "member_matrix")
            # Raw cost first — unless no row can fail the raw test anyway
            # (no cut yet, and no k-th row to take one from): then the
            # path-length call below is the only one needed.
            if math.isfinite(cut) or (k is not None and at.size > k):
                costs = dtw_distance_batch(q, rows, window=cfg.window, lengths=lengths)
                if k is not None and at.size >= k:
                    optimistic = costs / np.maximum(qlen, lengths)
                    cut = min(cut, float(np.partition(optimistic, k - 1)[k - 1]))
                passed = costs / (qlen + lengths - 1).astype(np.float64) <= cut
                at, lengths, rows = at[passed], lengths[passed], rows[passed]
            if at.size:
                stats.member_path_calls += at.size
                raws, plens = dtw_distance_batch(
                    q, rows, window=cfg.window, with_path_length=True, lengths=lengths
                )
        return _Refined(
            raws / plens, raws, members.handles.take(at, axis=0), lengths, members.gids[at]
        )

    @staticmethod
    def _candidates(found: _Refined, positions: np.ndarray) -> Iterator[_Candidate]:
        """Heap entries for the rows *positions* of one refinement's output."""
        for pos in positions.tolist():
            series, start = found.handles[pos].tolist()
            length = int(found.lengths[pos])
            yield _Candidate(
                distance=float(found.norms[pos]),
                ref=SubsequenceRef(series, start, length),
                raw=float(found.raws[pos]),
                group=(length, int(found.gids[pos])),
            )

    def _within(self, found: _Refined, threshold: float) -> Iterator[_Candidate]:
        """The rows of one refinement's output within *threshold*."""
        return self._candidates(found, np.flatnonzero(found.norms <= threshold))

    def _push(self, heap: list["_Negated"], k: int, found: _Refined) -> None:
        """Fold one refinement's exact distances into the k-best heap.

        Heap maintenance is pure comparisons on ``(distance, ref)``; a
        candidate above the cutoff can never displace a heap entry and is
        skipped outright.
        """
        norms = found.norms
        viable = np.flatnonzero(norms <= self._cutoff(heap, k))
        if viable.size > k:
            # Only the k best of this batch can enter the global k-best;
            # keeping everything tied with the k-th smallest distance
            # preserves the deterministic (distance, ref) tie-break.
            kth = np.partition(norms[viable], k - 1)[k - 1]
            viable = viable[norms[viable] <= kth]
        for candidate in self._candidates(found, viable):
            if len(heap) < k:
                heapq.heappush(heap, _Negated(candidate))
            elif candidate < heap[0].candidate:
                heapq.heapreplace(heap, _Negated(candidate))

    # ------------------------------------------------------------------
    # Representative-layer search strategies
    # ------------------------------------------------------------------

    def _reps(self, buckets: list[LengthBucket], stats: QueryStats) -> _Reps:
        """The rank stage's input: the table columns of *buckets*' groups
        (the shared entry of the exact, fast and threshold drivers)."""
        table = self._base.rep_table
        reps = _Reps(None, table.lengths, table.gids, table.radii)
        if len(buckets) != len(self._base.lengths):
            rows = table.rows_of(b.length for b in buckets)
            reps = _Reps(rows, table.lengths[rows], table.gids[rows], table.radii[rows])
        stats.representatives_total += reps.gids.size
        return reps

    def _rank_bounds(self, q: np.ndarray, reps: _Reps) -> np.ndarray:
        """Lower bounds on raw ``DTW(q, representative)`` for every row of
        *reps* — one pass over the base table, no kernel call.  Any sound
        bound returns the same answers; all zeros is the tests' witness."""
        with span("cascade.rep_bounds", reps=int(reps.gids.size)):
            return self._base.rep_table.cheap_bounds(
                q, reps.rows, self._config.window
            )

    def _rep_dtw(
        self, q: np.ndarray, lengths: np.ndarray, gids: np.ndarray, stats: QueryStats
    ) -> np.ndarray:
        """Exact DTW from *q* to the representatives ``gids[i]`` of the
        length-``lengths[i]`` buckets.

        One ragged kernel call however many length buckets the selection
        spans.  The rows are taken bucket by bucket (a stable sort by
        length, :meth:`_stack`); the result is put back in the callers'
        order.  Assembled per call, so nothing needs invalidating when a
        bucket grows.
        """
        stats.rep_dtw_calls += gids.size
        raws = np.empty(gids.size)
        if not gids.size:
            return raws
        by_length = np.argsort(lengths, kind="stable")
        lengths = lengths[by_length]
        padded = self._stack(lengths, gids[by_length], "centroids")
        raws[by_length] = dtw_distance_batch(
            q, padded, window=self._config.window, lengths=lengths
        )
        return raws

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
        heap: list[_Negated] = []
        reps = self._reps(buckets, stats)
        lengths, gids, radii = reps.lengths, reps.gids, reps.radii
        max_paths = (q.shape[0] + lengths - 1).astype(np.float64)
        # Verified groups, best first: (transfer lower bound on any
        # member, representative's own optimistic distance, length, table
        # row) — within a length, table rows ascend with the group index.
        # The bound is 0 for every group whose representative lies within
        # its radius of the query — at a coarse threshold, nearly all —
        # and there the representative's distance is what says where the
        # best members are.
        exact_heap: list[tuple[float, float, int, int]] = []

        def verify(take: np.ndarray) -> None:
            with span("cascade.rep_dtw", batch=int(take.size)):
                paths, at = max_paths[take], lengths[take]
                raws = self._rep_dtw(q, at, gids[take], stats)
                tight = np.maximum(raws - paths * radii[take], 0.0) / paths
                for entry in zip(
                    tight.tolist(),
                    (raws / paths).tolist(),
                    at.tolist(),
                    reps.at(take).tolist(),
                ):
                    heapq.heappush(exact_heap, entry)

        # Cheap summary bounds rank every group; exact representative DTW
        # runs in chunks only for groups whose cheap bound undercuts the
        # running cutoff.
        cheap = self._rank_bounds(q, reps)
        ranked = _LazyOrder(np.maximum(cheap - max_paths * radii, 0.0) / max_paths)
        total = ranked.size
        ptr = 0
        rep_chunk = _REP_CHUNK
        drain_chunk = _REP_CHUNK
        while ptr < total or exact_heap:
            faults.fire("query.rep_chunk")
            verified = (w.candidate for w in heap)
            if self._deadline_fired(
                deadline, "representative cascade", stats, verified
            ):
                return heap
            cutoff = self._cutoff(heap, k)
            ranked.upto(ptr + rep_chunk)
            next_cheap = float(ranked.values[ptr]) if ptr < total else _INF
            next_exact = exact_heap[0][0] if exact_heap else _INF
            if cfg.use_group_pruning and min(next_cheap, next_exact) > cutoff:
                remaining = total - ptr
                stats.rep_lb_prunes += remaining
                stats.rep_dtw_skipped += remaining
                stats.groups_pruned += remaining + len(exact_heap)
                break
            if next_cheap <= next_exact:
                take = ranked.order[ptr : ptr + rep_chunk]
                if cfg.use_group_pruning and math.isfinite(cutoff):
                    # The chunk is sorted by bound: only the prefix at or
                    # under the cutoff can still matter this round.
                    viable = int(
                        np.searchsorted(
                            ranked.values[ptr : ptr + take.size],
                            cutoff,
                            side="right",
                        )
                    )
                    take = take[: max(viable, 1)]
                ptr += take.size
                rep_chunk *= 2
                verify(take)
                continue
            # Drain verified groups (tight bound within the cutoff and
            # under every unevaluated cheap bound) into ONE refinement
            # call, whatever lengths they span.  The top entry is always
            # drainable here: this branch implies next_exact < next_cheap,
            # and the prune check above (same guard, same cutoff) would
            # have stopped the loop were it over the cutoff.
            faults.fire("query.refine_unit")
            verified = (w.candidate for w in heap)
            if self._deadline_fired(deadline, "member refinement", stats, verified):
                return heap
            units = [heapq.heappop(exact_heap)]
            while exact_heap and len(units) < drain_chunk:
                tight = exact_heap[0][0]
                if tight > next_cheap or (cfg.use_group_pruning and tight > cutoff):
                    break
                units.append(heapq.heappop(exact_heap))
            drain_chunk *= 2
            self._refine_into(heap, k, q, units, stats, envelopes)
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
        heap: list[_Negated] = []
        reps = self._reps(buckets, stats)
        lengths, gids = reps.lengths, reps.gids
        table = self._base.rep_table
        # The ranking estimate divides raw DTW by the minimum possible
        # warping-path length — a consistent estimator, exact whenever the
        # optimal path takes no detours.
        scales = np.maximum(q.shape[0], lengths).astype(np.float64)
        exact_heap: list[tuple[float, int, int]] = []

        def rank(take: np.ndarray) -> None:
            with span("cascade.rep_dtw", batch=int(take.size)):
                at = lengths[take]
                est = self._rep_dtw(q, at, gids[take], stats) / scales[take]
                for entry in zip(est.tolist(), at.tolist(), reps.at(take).tolist()):
                    heapq.heappush(exact_heap, entry)

        # Lazy ranking: cheap bounds on the estimate order the queue; a
        # representative's exact DTW runs (chunk-batched) only while its
        # bound could still place it among the refined groups.
        ranked = _LazyOrder(self._rank_bounds(q, reps) / scales)
        total = ranked.size
        ptr = 0
        chunk = _REP_CHUNK
        # The refined set is the top ``refine_groups`` groups of the
        # ranking, extended until it holds k members: known from the
        # cardinalities alone, so it refines in one call — and until that
        # call nothing is verified, so a fired deadline always raises.
        units: list[tuple[float, int, int]] = []
        members = 0
        while ptr < total or exact_heap:
            faults.fire("query.rep_chunk")
            self._deadline_fired(deadline, "representative ranking", stats, ())
            if len(units) >= cfg.refine_groups and members >= k:
                break
            # An exact entry is the true next-best only once no
            # unevaluated bound can undercut or tie it.
            while ptr < total:
                ranked.upto(ptr + chunk)
                if exact_heap and ranked.values[ptr] > exact_heap[0][0]:
                    break
                take = ranked.order[ptr : ptr + chunk]
                ptr += take.size
                chunk *= 2
                rank(take)
            _, length, row = unit = heapq.heappop(exact_heap)
            units.append(unit)
            members += self._base.bucket(length).members_in([int(table.gids[row])])
        stats.rep_dtw_skipped += total - ptr
        if units:
            faults.fire("query.refine_unit")
            self._deadline_fired(deadline, "member refinement", stats, ())
            self._refine_into(heap, k, q, units, stats, envelopes)
        return heap

    def _refine_into(
        self,
        heap: list["_Negated"],
        k: int,
        q: np.ndarray,
        units: list[tuple],
        stats: QueryStats,
        envelopes: QueryEnvelopeCache,
    ) -> None:
        """Refine the ``(..., table row)`` *units* in one stage call
        against the heap's cutoff and fold the result into the heap."""
        with span("cascade.refine", groups=len(units)):
            table_rows = np.array([unit[-1] for unit in units], dtype=np.int64)
            found = self._refine(
                q, table_rows, self._cutoff(heap, k), stats, envelopes, k
            )
            self._push(heap, k, found)

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

    def _metric_verify(
        self, q: np.ndarray, bucket: LengthBucket, g_ids: np.ndarray, stats: QueryStats
    ) -> _Refined:
        """Exact metric distances to every member of groups *g_ids*,
        selected through the base's member table as :meth:`_refine` does."""
        stats.groups_refined += g_ids.size
        members = self._base.member_table
        at = members.select(self._base.rep_table.rows_of([bucket.length])[g_ids])
        stats.members_scanned += at.size
        raws, norms = self._metric_distances(
            q, bucket.member_matrix[members.rows[at]], bucket.length
        )
        stats.member_dtw_calls += at.size
        return _Refined(
            norms, raws, members.handles[at], members.lengths[at], members.gids[at]
        )

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
                verified = (w.candidate for w in heap)
                if self._deadline_fired(deadline, "metric scan", stats, verified):
                    return heap
                if self._spec.lower_bound is not None and cfg.use_group_pruning:
                    lbs = self._metric_group_bounds(q, bucket, stats)
                    order = np.argsort(lbs, kind="stable")
                    self._push(
                        heap, k, self._metric_verify(q, bucket, order[:1], stats)
                    )
                    rest = order[1:]
                    cutoff = self._cutoff(heap, k)
                    if math.isfinite(cutoff):
                        keep = rest[lbs[rest] <= cutoff]
                        pruned = int(rest.size - keep.size)
                        stats.rep_lb_prunes += pruned
                        stats.groups_pruned += pruned
                        rest = keep
                else:
                    rest = np.arange(bucket.group_count)
                if rest.size:
                    self._push(heap, k, self._metric_verify(q, bucket, rest, stats))
        return heap

    def _metric_threshold_scan(
        self,
        q: np.ndarray,
        threshold: float,
        stats: QueryStats,
        buckets: list[LengthBucket],
        deadline: Deadline | None,
    ) -> tuple[list[_Candidate], bool]:
        """Threshold sweep under the registry metric (exact matches).

        Group-level pruning against the *threshold* itself where the
        metric registers a bound family; full member verification
        everywhere else.  Partial-deadline semantics match
        :meth:`_threshold_scan`: completed buckets' matches return
        flagged inexact.
        """
        cfg = self._config
        out: list[_Candidate] = []
        for bucket in self._metric_buckets(q, buckets, stats):
            faults.fire("query.refine_unit")
            if self._deadline_fired(deadline, "metric threshold scan", stats, out):
                return out, True
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
            found = self._metric_verify(q, bucket, candidates, stats)
            out.extend(self._within(found, threshold))
        return out, False

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _resolve_query(
        self, query: ArrayLike | SubsequenceRef, normalize: bool
    ) -> np.ndarray:
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

    def _select_buckets(self, lengths: Iterable[int] | None) -> list[LengthBucket]:
        if lengths is None:
            return self._base.buckets()
        chosen = sorted(set(int(n) for n in lengths))
        return [self._base.bucket(n) for n in chosen]

    def _matches(
        self, q: np.ndarray, candidates: list[_Candidate], *, exact: bool
    ) -> list[Match]:
        """A final answer's *candidates* as matches, in their order.

        The cascade ranks on tracked path *lengths*; the paths themselves
        are traced here, for the returned candidates only and all of them
        in one ragged kernel call.  Non-DTW metrics (and the multivariate
        scan) define no warping path: their matches carry an empty one.
        """
        base = self._base
        if self._metric_scan or not candidates:
            paths: list[tuple] = [()] * len(candidates)
        else:
            lengths = np.array([c.ref.length for c in candidates])
            rows = np.zeros((lengths.size, int(lengths.max())))
            for row, c in zip(rows, candidates):
                row[: c.ref.length] = base.member_values(c.ref)
            paths = dtw_path_batch(
                q, rows, window=self._config.window, lengths=lengths
            ).paths()
        return [
            Match(
                ref=c.ref,
                series_name=base.dataset[c.ref.series_index].name,
                distance=c.distance,
                raw_distance=c.raw,
                path=path,
                group=c.group,
                exact=exact,
            )
            for c, path in zip(candidates, paths)
        ]


class _Negated:
    """Max-heap adapter so ``heap[0]`` is the *worst* kept candidate."""

    __slots__ = ("candidate",)

    def __init__(self, candidate: _Candidate) -> None:
        self.candidate = candidate

    def __lt__(self, other: "_Negated") -> bool:
        return other.candidate < self.candidate

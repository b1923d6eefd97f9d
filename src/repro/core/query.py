"""ONEX online query processor (§3.2/§3.3).

Every query — k-best, best match, the similarity-threshold query and a
batch of them — is one best-first **walk** over the base's
:class:`repro.core.base.RepresentativeTable` (DESIGN.md §1), with three
parameters:

- a **bound family**: DTW's rank bounds — LB_Kim and the min/max band
  from the table, no kernel call — with the ED→DTW transfer slack, which
  lower-bound every member of a group; or a registry metric's
  ``lower_bound`` over its distances to the representatives; or none,
  and every group is a unit;
- a **kernel pair**: one ragged batch DTW call per chunk of
  representatives and :meth:`QueryProcessor._refine` for members, or the
  metric's ``batch``/``pair`` on both;
- a **stopping rule**: the k-heap cutoff (exact k-best), the top
  ``refine_groups`` groups holding k members (``fast``, the paper's demo
  behaviour; DTW only — a registry metric is exact in both modes) or a
  fixed threshold (the range query).

The rank keys are consumed lazily (:class:`_LazyOrder`): only the prefix
a walk reaches is sorted.  Representatives are verified in doubling
chunks while their key undercuts the cut, and verified groups drain into
refinement best first by ``(tight bound, representative distance)``.
The member stage selects a chunk's members off the
:class:`repro.core.base.MemberTable`, bounds them (LB_Kim, and LB_Keogh
at the query's length), computes raw costs in one ragged call and path
lengths only for rows within the cut; the warping paths of the returned
matches are traced in one ``dtw_path_batch`` call
(:meth:`QueryProcessor._matches`).  Every prune is a strict
``bound > cut`` on a sound lower bound and the heap breaks distance ties
by reference, so any order returns what a brute-force scan returns.
There is no eager twin: the walk under all-zero rank bounds verifies
every representative, which is how the tests witness that pruning
changes no answer.  :class:`QueryStats` counts the work done.

Distances reported to callers are **normalised** (DTW cost over the
warping-path length, the unit ONEX thresholds are expressed in);
``raw_distance`` carries the unnormalised cost.
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from repro.core.base import LengthBucket, OnexBase
from repro.core.config import QueryConfig
from repro.core.deadline import Deadline
from repro.data.dataset import SubsequenceRef
from repro.distances import native
from repro.distances.bounds import transfer_lower
from repro.distances.dtw import dtw_distance_batch, dtw_path_batch, effective_band
from repro.distances.envelope import QueryEnvelopeCache
from repro.distances.lower_bounds import (
    lb_keogh_batch,
    lb_kim_endpoints_batch,
)
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
#: A threshold chunk spans the lengths ``L .. 1.5 L``, four chunks over the
#: 5..24 floor (5-7, 8-12, 13-19, 20-24).  It is the range query's deadline
#: and partial-result unit.  On the NumPy path it also bounds the padding:
#: that kernel computes every row at the chunk's widest length, so no row
#: is padded by more than half its own width (measured at ST 0.05: 10.1
#: kernel calls per range query instead of 46.3 for 1.15x its
#: ``dtw.cells``; span 1.25: 14.8 calls, 1.09x; span 2: 7.5 calls, 1.28x).
#: The native walk computes each block of 64 at its own widest row.
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

    def __init__(self, bounds: np.ndarray) -> None:
        self.size = bounds.size
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
            want = max(stop - self.ready, self.ready, _ORDER_BLOCK)
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


class _Best:
    """The k-heap stopping rule of exact k-best: the walk stops once no
    key undercuts the k-th best distance refined so far, its cut (``inf``
    until k are found)."""

    rank_stage = "representative cascade"
    refine_stage = "member refinement"
    span = "cascade.refine"

    def __init__(self, k: int) -> None:
        self.k = k
        self.heap: list[_Negated] = []

    def cut(self) -> float:
        return self.heap[0].candidate.distance if len(self.heap) >= self.k else _INF

    def found(self) -> Iterator[_Candidate]:
        return (wrapper.candidate for wrapper in self.heap)

    def fold(self, found: _Refined) -> None:
        """Fold one refinement's exact distances into the k-best heap.

        Heap maintenance is pure comparisons on ``(distance, ref)``; a
        candidate above the cut can never displace a heap entry and is
        skipped outright.
        """
        norms = found.norms
        viable = np.flatnonzero(norms <= self.cut())
        if viable.size > self.k:
            # Only the k best of this batch can enter the global k-best;
            # keeping everything tied with the k-th smallest distance
            # preserves the deterministic (distance, ref) tie-break.
            kth = np.partition(norms[viable], self.k - 1)[self.k - 1]
            viable = viable[norms[viable] <= kth]
        for candidate in _candidates(found, viable):
            if len(self.heap) < self.k:
                heapq.heappush(self.heap, _Negated(candidate))
            elif candidate < self.heap[0].candidate:
                heapq.heapreplace(self.heap, _Negated(candidate))


class _Top(_Best):
    """The fast stopping rule: the top ``groups`` groups of the ranking,
    extended until they hold k members — known from the group sizes
    alone — refined in one call.  Nothing is refined before that call, so
    the cut stays ``inf`` and a fired deadline always raises."""

    rank_stage = "representative ranking"

    def __init__(self, k: int, groups: int) -> None:
        super().__init__(k)
        self.groups = groups


class _Within:
    """The range stopping rule: a fixed cut, *threshold*, and every
    candidate within it kept."""

    refine_stage = "threshold scan"
    span = "cascade.threshold_bucket"
    k = None

    def __init__(self, threshold: float) -> None:
        self.threshold = threshold
        self.kept: list[_Candidate] = []

    def cut(self) -> float:
        return self.threshold

    def found(self) -> list[_Candidate]:
        return self.kept

    def fold(self, found: _Refined) -> None:
        self.kept.extend(_candidates(found, np.flatnonzero(found.norms <= self.threshold)))


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
        # Only DTW on a univariate base walks on the table's rank bounds
        # and answers with warping paths (DESIGN.md §9).
        self._warps = self._config.metric == "dtw" and base.channels == 1
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
        q = self._base.resolve_query(query, normalize)
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
        resolved = [self._base.resolve_query(query, normalize) for query in queries]
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
        cfg = self._config
        # A registry metric is exact in both modes: only DTW ranks fast.
        fast = cfg.mode == "fast" and self._warps
        rule = _Top(k, cfg.refine_groups) if fast else _Best(k)
        partial = self._walk(q, buckets, rule, stats, deadline)
        if not rule.heap:
            raise ValidationError("no indexed subsequences matched the query")
        return self._matches(q, sorted(rule.found()), exact=not partial)

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
        q = self._base.resolve_query(query, normalize)
        stats = QueryStats()
        with span(
            "query.threshold", threshold=float(threshold), mode=self._config.mode
        ) as sp:
            rule = _Within(threshold)
            buckets = self._select_buckets(lengths)
            partial = self._walk(q, buckets, rule, stats, deadline)
            matches = self._matches(q, sorted(rule.found()), exact=not partial)
            sp.add(**stats.as_dict())
        self.last_stats = stats
        _publish_query(
            "threshold", self._config.mode, stats, started, self._config.metric
        )
        return matches

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

    # ------------------------------------------------------------------
    # The walk over the representative table
    # ------------------------------------------------------------------

    def _reps(self, buckets: list[LengthBucket], stats: QueryStats) -> _Reps:
        """The representatives a walk ranks: the table columns of
        *buckets*' groups, counted into ``representatives_total``."""
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
        length-``lengths[i]`` buckets, in the callers' order: one ragged
        kernel call however many lengths they span, its rows taken bucket
        by bucket (:meth:`_stack`) and assembled per call, so nothing
        needs invalidating when a bucket grows."""
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

    def _family(
        self, q: np.ndarray, buckets: list[LengthBucket], fast: bool, stats: QueryStats
    ) -> tuple[_Reps, np.ndarray, Callable | None, Callable]:
        """The bound family and kernel pair of a walk: the representatives
        it ranks, their rank keys (normalised, no kernel call), ``verify``
        (a chunk's tight group bounds and representative distances, one
        kernel call) and ``refine`` (the member stage).

        DTW on a univariate base keys on the table's cheap bounds less the
        transfer slack (fast: over ``max(n, m)``, the estimate's scale,
        with no slack) and refines through :meth:`_refine`.  A registry
        metric keys every group at 0, bounds a chunk through its
        ``lower_bound`` family and runs its kernel on every member; with
        no family, or group pruning off, ``verify`` is ``None`` and every
        group is a unit.
        """
        if self._warps:
            reps = self._reps(buckets, stats)
            envelopes = QueryEnvelopeCache(q)
            cheap = self._rank_bounds(q, reps)
            if fast:
                # Raw DTW over the shortest possible warping path: a
                # consistent estimator, exact when the path takes no detours.
                scales = np.maximum(q.shape[0], reps.lengths).astype(np.float64)
                keys = cheap / scales

                def verify(take: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                    raws = self._rep_dtw(q, reps.lengths[take], reps.gids[take], stats)
                    estimate = raws / scales[take]
                    return estimate, estimate

            else:
                qlen = q.shape[0]
                paths = (qlen + reps.lengths - 1).astype(np.float64)
                keys = transfer_lower(cheap, qlen, reps.lengths, reps.radii) / paths

                def verify(take: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                    lengths = reps.lengths[take]
                    raws = self._rep_dtw(q, lengths, reps.gids[take], stats)
                    tight = transfer_lower(raws, qlen, lengths, reps.radii[take])
                    return tight / paths[take], raws / paths[take]

            def refine(rows: np.ndarray, cut: float, k: int | None) -> _Refined:
                return self._refine(q, rows, cut, stats, envelopes, k)

            return reps, keys, verify, refine

        spec = self._spec
        live = [b for b in buckets if b.group_count]
        if not spec.elastic:
            qlen = q.shape[0] // self._base.channels
            live = [b for b in live if b.length == qlen]
            if not live:
                lengths = self._base.lengths
                raise ValidationError(
                    f"metric {spec.name!r} compares equal lengths only; "
                    f"query length {qlen} is not among the {len(lengths)} "
                    f"indexed lengths ({lengths[0]}..{lengths[-1]})"
                )
        reps = self._reps(live, stats)

        def bound(take: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # ``ed_radius``/``cheb_radius`` are the flattened rows' mean-abs
            # and max-abs member radii for any channel count.
            stats.rep_dtw_calls += take.size
            tight, near = np.empty(take.size), np.empty(take.size)
            gids = reps.gids[take]
            for bucket, at in self._per_length(reps.lengths[take]):
                g = gids[at]
                near[at] = self._metric_distances(q, bucket.centroids[g], bucket.length)[1]
                tight[at] = spec.lower_bound(near[at], bucket.ed_radii[g], bucket.cheb_radii[g])
            return tight, near

        def scan(rows: np.ndarray, cut: float, k: int | None) -> _Refined:
            members = self._base.member_table
            at = members.select(rows)
            stats.groups_refined += rows.size
            stats.members_scanned += at.size
            stats.member_dtw_calls += at.size
            lengths = members.lengths[at]
            raws, norms = np.empty(at.size), np.empty(at.size)
            for bucket, mine in self._per_length(lengths):
                values = bucket.member_matrix[members.rows[at[mine]]]
                raws[mine], norms[mine] = self._metric_distances(q, values, bucket.length)
            return _Refined(norms, raws, members.handles[at], lengths, members.gids[at])

        bounded = spec.lower_bound is not None and self._config.use_group_pruning
        return reps, np.zeros(reps.gids.size), bound if bounded else None, scan

    def _walk(
        self,
        q: np.ndarray,
        buckets: list[LengthBucket],
        rule: _Best | _Within,
        stats: QueryStats,
        deadline: Deadline | None,
    ) -> bool:
        """Walk the representative table to the stopping *rule*, folding
        what it refines into *rule*; ``True`` when a deadline cut it short.

        Verified groups wait in ``pending``, keyed ``(tight bound,
        representative distance, length, table row)``.  A k-heap or fast
        step (the whole fast walk, where :func:`native.walk` runs it)
        opens with the ``query.rep_chunk`` failpoint and a deadline
        check, then verifies the next chunk of the lazy key order (16,
        doubling, trimmed to the cut) while its first key is no greater
        than the best pending one, else drains pending groups — into one
        refinement per chunk of 16, doubling (k-heap), or one at a time
        into the choice it refines once (fast).  The range rule's cut is
        fixed, so order does not matter: each step verifies the next
        ``_THRESHOLD_SPAN`` of the groups its keys admit, in length order
        (one :func:`native.walk` call where the kernels loaded), and
        refines what the tight bounds keep.  Every refinement, and a range
        step before its verify, opens with the ``query.refine_unit``
        failpoint and a deadline check.
        """
        prune, window = self._config.use_group_pruning, self._config.window
        fast, ranged = isinstance(rule, _Top), isinstance(rule, _Within)
        reps, keys, verify, refine = self._family(q, buckets, fast, stats)
        # The native walk, a fast one whole and a range one a chunk at a
        # time, reads the centroids in place from these stores.
        stores = []
        if (fast or ranged) and self._warps and keys.size and native.KERNEL is not None:
            stores = [(b.length, *b.native_stores()) for b in buckets]
        if fast and stores:
            # One native call, one failpoint and check; a NaN hands it back.
            faults.fire("query.rep_chunk")
            if self._deadline_fired(deadline, rule.rank_stage, stats, rule.found()):
                return True
            columns = (reps.lengths, reps.gids, reps.rows)
            with span("cascade.rep_dtw") as sp:
                walked = native.walk(
                    q, columns, stores, window, keys=keys, k=rule.k, groups=rule.groups
                )
                sp.add(batch=0 if walked is None else walked[1])
            if walked is not None:
                rows, verified = walked
                stats.rep_dtw_calls += verified
                stats.rep_dtw_skipped += keys.size - verified
                faults.fire("query.refine_unit")
                if self._deadline_fired(deadline, rule.refine_stage, stats, rule.found()):
                    return True
                with span(rule.span, groups=int(rows.size)):
                    rule.fold(refine(rows, rule.cut(), rule.k))
                return False
        pending: list[tuple[float, float, int, int]] = []

        def visit(take: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """The tight bounds and representative distances of *take*."""
            if verify is None:
                return np.zeros(take.size), np.zeros(take.size)
            with span("cascade.rep_dtw", batch=int(take.size)):
                return verify(take)

        def table_rows(take: np.ndarray) -> np.ndarray:
            # Groups are named by table row, as the member stage reads them.
            return take if reps.rows is None else reps.rows[take]

        def within(take: np.ndarray, cut: float) -> np.ndarray:
            """The table rows of *take* whose tight bounds are within *cut*."""
            if stores:
                columns = (reps.lengths[take], reps.gids[take], table_rows(take))
                with span("cascade.rep_dtw", batch=int(take.size)):
                    walked = native.walk(
                        q, columns, stores, window, radii=reps.radii[take], threshold=cut
                    )
                if walked is not None:
                    stats.rep_dtw_calls += walked[1]
                    return walked[0]
            return table_rows(take[visit(take)[0] <= cut])

        if ranged:
            ranked = None
            order = np.flatnonzero(keys <= rule.threshold) if prune else np.arange(keys.size)
            skipped = keys.size - order.size
            stats.rep_lb_prunes += skipped
            stats.rep_dtw_skipped += skipped
            stats.groups_pruned += skipped
            order = order[np.argsort(reps.lengths[order], kind="stable")]
            lengths = reps.lengths[order]
        else:
            ranked = _LazyOrder(keys)
        total = order.size if ranked is None else keys.size
        ptr, rep_chunk, drain_chunk, members = 0, _REP_CHUNK, _REP_CHUNK, 0
        chosen: list[tuple] = []  # fast: the groups it will refine
        while True:
            take, units, done = None, [], False
            exhausted = ptr == total and not pending
            if ranked is not None and not exhausted:
                faults.fire("query.rep_chunk")
                if self._deadline_fired(deadline, rule.rank_stage, stats, rule.found()):
                    return True
            cut = rule.cut() if prune else _INF
            if ranked is None:
                if ptr == total:
                    return False
                widest = int(lengths[ptr] * _THRESHOLD_SPAN)
                stop = int(np.searchsorted(lengths, widest, side="right"))
                take, ptr = order[ptr:stop], stop
            else:
                ranked.upto(ptr + rep_chunk)
                next_cheap = float(ranked.values[ptr]) if ptr < total else _INF
                next_exact = pending[0][0] if pending else _INF
                full = fast and len(chosen) >= rule.groups and members >= rule.k
                if exhausted or full or min(next_cheap, next_exact) > cut:
                    # What was never verified fell to its rank key, what
                    # was, to its tight bound: proofs the fast rule does
                    # not make — it skips them, and refines its choice.
                    unverified = total - ptr
                    stats.rep_dtw_skipped += unverified
                    if not fast:
                        stats.rep_lb_prunes += unverified
                        stats.groups_pruned += unverified + len(pending)
                    units, done = chosen, True
                elif ptr < total and next_cheap <= next_exact:
                    # The chunk is sorted by key: only the prefix within
                    # the cut can still matter this round.
                    take = ranked.order[ptr : ptr + rep_chunk]
                    keyed = ranked.values[ptr : ptr + take.size]
                    take = take[: max(int(np.searchsorted(keyed, cut, side="right")), 1)]
                    ptr, rep_chunk = ptr + take.size, rep_chunk * 2
                    tight, near = visit(take)
                    at, named = reps.lengths[take].tolist(), table_rows(take).tolist()
                    for entry in zip(tight.tolist(), near.tolist(), at, named):
                        heapq.heappush(pending, entry)
                    continue
                else:
                    # The top pending group is under every unverified key,
                    # and within the cut, or the walk would have stopped.
                    limit, ceiling = 1 if fast else drain_chunk, min(next_cheap, cut)
                    while pending and len(units) < limit and pending[0][0] <= ceiling:
                        units.append(heapq.heappop(pending))
                    drain_chunk *= 2
                    if fast:
                        chosen += units
                        gids = self._base.rep_table.gids
                        for _, _, length, row in units:
                            bucket = self._base.bucket(length)
                            members += bucket.members_in([int(gids[row])])
                        continue
            if units or take is not None:
                faults.fire("query.refine_unit")
                if self._deadline_fired(deadline, rule.refine_stage, stats, rule.found()):
                    return True
            if take is None:
                rows = np.array([unit[-1] for unit in units], dtype=np.int64)
            else:
                # A range step: verify the chunk, refine what its tight
                # bounds keep within the threshold, prune the rest.
                rows = within(take, cut)
                stats.groups_pruned += take.size - rows.size
            if rows.size:
                with span(rule.span, groups=int(rows.size)):
                    rule.fold(refine(rows, rule.cut(), rule.k))
            if done:
                return False

    # ------------------------------------------------------------------
    # Registry-metric kernels
    # ------------------------------------------------------------------

    def _per_length(self, lengths: np.ndarray) -> Iterator[tuple[LengthBucket, np.ndarray]]:
        """Each bucket among *lengths*, with the positions of its rows."""
        for length in np.unique(lengths).tolist():
            yield self._base.bucket(length), np.flatnonzero(lengths == length)

    def _metric_distances(
        self, q: np.ndarray, rows: np.ndarray, length: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(raw, normalized)`` metric distances from *q* to stacked rows.

        One vectorised kernel call when the registered metric has a batch
        kernel; otherwise (``weighted_dtw``) a scalar ``pair`` loop.
        """
        spec = self._spec
        channels = self._base.channels
        window = self._config.window
        if spec.batch is not None:
            return spec.batch(q, rows, length, channels, window)
        shape = (-1, channels) if channels > 1 else (-1,)
        pairs = [spec.pair(q.reshape(shape), row.reshape(shape), window) for row in rows]
        raws, norms = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
        return raws, norms

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

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
        if not self._warps or not candidates:
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

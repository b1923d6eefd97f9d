"""The ONEX base: compact, Euclidean-prepared index of similarity groups.

Offline phase (§3.1 / Fig. 1 top): every subsequence of the loaded
collection within the configured length range is clustered, per length,
into similarity groups using the cheap ``ED_n`` distance.  The base keeps
only the group representatives (centroids), radii, and member handles —
typically orders of magnitude fewer representatives than raw subsequences,
which is what makes DTW-based online exploration interactive.

The base is persisted, dataset included, with :meth:`OnexBase.save` and
read back with :meth:`OnexBase.load` (the one on-disk layout lives in
:mod:`repro.core.mmap_layout`), mirroring the demo's server-side
preprocessing-on-load workflow.
"""

from __future__ import annotations

import hashlib
import operator
import time
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import SupportsIndex

import numpy as np
from numpy.typing import ArrayLike

from repro.core.config import BuildConfig
from repro.core.deadline import Deadline
from repro.core.grouping import (
    SimilarityGroup,
    cluster_subsequence_rows,
    mean_prescreen_cutoff,
)
from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.data.windows import (
    rows_to_series_starts,
    window_counts,
    window_matrix,
)
from repro.distances.envelope import keogh_envelope_batch
from repro.distances.lower_bounds import lb_keogh_reverse_batch, lb_kim_endpoints_batch
from repro.distances.normalize import minmax_normalize
from repro.exceptions import (
    BuildWorkerError,
    DatasetError,
    NotBuiltError,
    ReadOnlyBaseError,
    ValidationError,
)
from repro.obs.logs import get_logger, log_event
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.testing import faults

_LOG = get_logger("build")

# Registry-backed build telemetry: per-build LengthBuildStats stay the
# per-call view; these accumulate across every build in the process.
_BUILDS_TOTAL = REGISTRY.counter(
    "onex_builds_total", "Completed base constructions"
)
_BUILD_WINDOWS = REGISTRY.counter(
    "onex_build_windows_total", "Subsequence windows indexed by builds"
)
_BUILD_GROUPS = REGISTRY.counter(
    "onex_build_groups_total", "Similarity groups created by builds"
)
_BUILD_SECONDS = REGISTRY.counter(
    "onex_build_seconds_total", "Wall seconds spent in base construction"
)
_BUILD_RETRIES = REGISTRY.counter(
    "onex_build_shard_retries_total",
    "Build shards re-run serially after a pool-worker crash",
)
_BUILD_LAST = REGISTRY.gauge(
    "onex_build_last_seconds", "Duration of the most recent base build"
)

__all__ = [
    "BaseStats",
    "LengthBucket",
    "LengthBuildStats",
    "MemberTable",
    "OnexBase",
    "RepresentativeTable",
    "WindowAssignments",
]


@dataclass(frozen=True)
class LengthBuildStats:
    """Construction telemetry for one subsequence length.

    ``seconds`` is the wall-clock cost of that length's shard (extraction
    + clustering), measured inside the job — on the worker when the build
    is fanned out, so the per-length numbers expose the shard balance the
    scheduler achieved.  Lengths indexed after the build by incremental
    ingestion report ``seconds == 0.0``.
    """

    length: int
    subsequences: int
    groups: int
    seconds: float


@dataclass(frozen=True)
class BaseStats:
    """Construction summary (reported by E1/E7/E18 benchmarks)."""

    subsequences: int
    groups: int
    lengths: int
    build_seconds: float
    per_length: tuple[LengthBuildStats, ...] = ()

    @property
    def compaction_ratio(self) -> float:
        """Raw subsequences per representative — the data-reduction factor."""
        return self.subsequences / self.groups if self.groups else float("nan")


@dataclass(frozen=True)
class WindowAssignments:
    """The windows one ingestion call indexed and where each landed.

    Parallel arrays, one entry per window of series ``series_index`` in
    (length, start) order: the window's ``lengths`` and ``starts``, the
    ``groups`` it was assigned to within its length's bucket and whether
    it ``created`` its group.  The streaming monitors use these as their
    group-level prefilter input.  Of ``centroids`` (window, same-length
    representative) pairs in scope, the mean prescreen let ``evaluated``
    through to exact ``ED_n``.
    """

    series_index: int
    lengths: np.ndarray
    starts: np.ndarray
    groups: np.ndarray
    created: np.ndarray
    centroids: int = 0
    evaluated: int = 0

    def __len__(self) -> int:
        return self.lengths.shape[0]


def _grown(
    array: np.ndarray, used: int, minimum: int = 16, needed: int = 0
) -> np.ndarray:
    """Return *array* reallocated to at least twice *used* rows.

    The shared amortised-doubling step of the growable stores (bucket
    stacks here, stream buffers in :mod:`repro.stream.buffer`); the first
    *used* rows are preserved, the rest left uninitialised.  *needed*
    raises the floor when one append must fit more than double.
    """
    capacity = max(minimum, 2 * used, needed)
    grown = np.empty((capacity,) + array.shape[1:], dtype=array.dtype)
    grown[:used] = array[:used]
    return grown


class _ColumnTable:
    """Parallel column stores that only ever grow at their end.

    Each name in ``_COLUMNS`` is a store ``_name`` of capacity rows and a
    public view ``name`` of the first ``count`` rows.
    """

    _COLUMNS: tuple[str, ...] = ()
    #: Rows held; the columns are views of that many rows.
    count: int

    def _publish(self, count: int) -> None:
        """Expose the first *count* rows of every store as the columns."""
        self.count = count
        for name in self._COLUMNS:
            setattr(self, name, getattr(self, "_" + name)[:count])

    def _reserve(self, used: int, stop: int) -> None:
        """Grow every store to hold *stop* rows, keeping its first *used*
        (amortised doubling)."""
        if stop > getattr(self, "_" + self._COLUMNS[0]).shape[0]:
            for name in self._COLUMNS:
                store = _grown(getattr(self, "_" + name), used, needed=stop)
                setattr(self, "_" + name, store)


class RepresentativeTable(_ColumnTable):
    """Every representative of a base, all lengths, in one table.

    One row per similarity group in arrival order — the buckets' groups
    by ascending length as of the first use, then every group ingestion
    seeds, as it is seeded — so the table only ever grows at its end and
    nothing invalidates it.  A bucket's centroid stack is the only stored
    description of its representatives; every column here is derived from
    it (and from the radii) and is what the rank stage of the query
    cascade reads for *all* lengths at once: the LB_Kim ``endpoints``
    ``(G, 4)``, the min/max band ``lo``/``hi``, the Chebyshev ``radii``
    of the transfer bound, and the ``(lengths, gids)`` address of each
    row's group — its bucket's length and its index there.  A row's
    index is also the group's name in the :class:`MemberTable` beside
    it, and the query drivers carry groups as table rows.
    :class:`OnexBase` owns it and keeps it current at the one place
    groups are seeded and grown (``index_new_windows``).
    """

    _COLUMNS = ("endpoints", "lo", "hi", "radii", "lengths", "gids")
    endpoints: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    radii: np.ndarray
    lengths: np.ndarray
    gids: np.ndarray

    def __init__(self, buckets: list["LengthBucket"]) -> None:
        total = sum(b.group_count for b in buckets)
        self._endpoints = np.empty((total, 4))
        self._lo, self._hi, self._radii = np.empty((3, total))
        self._lengths, self._gids = np.empty((2, total), dtype=np.int64)
        #: ``length -> table rows`` of that bucket's groups, in group order.
        self._rows: dict[int, np.ndarray] = {}
        #: ``length -> bucket``: where a banded bound reads its centroids.
        self._buckets: dict[int, "LengthBucket"] = {}
        self._publish(0)
        self.sync((bucket, ()) for bucket in buckets)

    def rows_of(self, lengths: Iterable[int]) -> np.ndarray:
        """Table rows of every group of the given bucket *lengths*, ascending."""
        held = [self._rows[n] for n in lengths if n in self._rows]
        return np.sort(np.concatenate(held)) if held else np.empty(0, dtype=np.int64)

    def sync(self, touched: Iterable[tuple["LengthBucket", ArrayLike]]) -> None:
        """For each ``(bucket, grown)``: append the rows of the bucket's
        groups the table does not hold yet and re-read the radii of its
        groups *grown* (by new members)."""
        stop = self.count
        for bucket, grown in touched:
            known = self._rows.get(bucket.length, np.empty(0, dtype=np.int64))
            first, start = known.size, stop
            stop = start + bucket.group_count - first
            if stop > start:
                self._reserve(start, stop)
                fresh = bucket.centroids[first:]
                self._endpoints[start:stop] = fresh[:, [0, 1, -2, -1]]
                # min/max over the short axis as a fold over its columns:
                # the same values as ``fresh.min(axis=1)``/``.max(axis=1)``
                # (min and max are exact) at a third of the cost.
                lo, hi = self._lo[start:stop], self._hi[start:stop]
                lo[:] = hi[:] = fresh[:, 0]
                for column in fresh.T[1:]:
                    np.minimum(lo, column, out=lo)
                    np.maximum(hi, column, out=hi)
                self._radii[start:stop] = bucket.cheb_radii[first:]
                self._lengths[start:stop] = bucket.length
                self._gids[start:stop] = np.arange(first, bucket.group_count)
                known = np.concatenate([known, np.arange(start, stop)])
                self._rows[bucket.length] = known
                self._buckets[bucket.length] = bucket
            grown = np.asarray(grown, dtype=np.int64)
            self._radii[known[grown]] = bucket.cheb_radii[grown]
        self._publish(stop)

    def cheap_bounds(
        self,
        query: np.ndarray,
        rows: np.ndarray | None = None,
        band: int | None = None,
    ) -> np.ndarray:
        """Lower bounds on raw ``DTW(query, representative)`` for *rows*
        (default: all), with no DTW kernel call.

        LB_Kim from the endpoints and the min/max band bound hold for any
        length and any warping band.  Under a finite Sakoe–Chiba *band*
        the rows of the query's own length are tightened by LB_Keogh
        against their centroids' envelopes, computed here at exactly that
        radius — so they are valid for every band and as tight as the
        band allows.
        """
        endpoints, lengths, lo, hi = self.endpoints, self.lengths, self.lo, self.hi
        if rows is not None:
            endpoints, lengths, lo, hi = endpoints[rows], lengths[rows], lo[rows], hi[rows]
        # ``fmax``: where a term overflowed to NaN (``inf - inf`` in the
        # band bound's rounding margin) the other term stands.
        bounds = np.fmax(
            lb_kim_endpoints_batch(query, endpoints, lengths),
            lb_keogh_reverse_batch(query, lo[:, None], hi[:, None]),
        )
        if band is not None:
            same = np.flatnonzero(lengths == query.shape[0])
            if same.size:
                gids = self.gids[same if rows is None else rows[same]]
                centroids = self._buckets[query.shape[0]].centroids[gids]
                keogh = lb_keogh_reverse_batch(
                    query, *keogh_envelope_batch(centroids, band)
                )
                bounds[same] = np.fmax(bounds[same], keogh)
        return bounds


class MemberTable(_ColumnTable):
    """Every member of a base, all lengths, in one table.

    One row per member in arrival order — each bucket's store rows by
    ascending length as of the first use, then every member ingestion
    appends, as it is appended — so, like the
    :class:`RepresentativeTable` beside it, the table only ever grows at
    its end.  Values stay in the buckets; the columns are what the refine
    stage reads to select, bound and address members of *all* lengths at
    once: ``owner`` (the :class:`RepresentativeTable` row of the member's
    group), the LB_Kim ``endpoints`` ``(M, 4)``, ``lengths``, ``rows``
    (the member's row in its bucket's ``member_matrix``), the
    ``(series_index, start)`` ``handles`` and ``gids`` (its group's index
    in the bucket).  Appended members join groups in any order, so one
    group's rows need not be contiguous: :meth:`select` finds them by
    owner.
    """

    _COLUMNS = ("owner", "endpoints", "lengths", "rows", "handles", "gids")
    owner: np.ndarray
    endpoints: np.ndarray
    lengths: np.ndarray
    rows: np.ndarray
    handles: np.ndarray
    gids: np.ndarray

    def __init__(self, buckets: list["LengthBucket"], reps: RepresentativeTable) -> None:
        total = sum(b.member_count for b in buckets)
        self._owner, self._lengths, self._rows, self._gids = np.empty(
            (4, total), dtype=np.int64
        )
        self._endpoints = np.empty((total, 4))
        self._handles = np.empty((total, 2), dtype=np.int64)
        #: ``length -> store rows`` of that bucket the table holds.
        self._held: dict[int, int] = {}
        #: Rows of the representative table the owners index.
        self.groups = 0
        self._publish(0)
        self.sync(buckets, reps)

    def sync(self, buckets: Iterable["LengthBucket"], reps: RepresentativeTable) -> None:
        """Append the store rows of *buckets* the table does not hold yet;
        *reps*, already synced, names their groups."""
        stop = self.count
        for bucket in buckets:
            first, start = self._held.get(bucket.length, 0), stop
            stop = start + bucket.member_count - first
            if stop == start:
                continue
            self._reserve(start, stop)
            handles, gids = bucket.store_rows(first)
            self._owner[start:stop] = reps.rows_of([bucket.length])[gids]
            self._endpoints[start:stop] = bucket.member_matrix[first:, [0, 1, -2, -1]]
            self._lengths[start:stop] = bucket.length
            self._rows[start:stop] = np.arange(first, bucket.member_count)
            self._handles[start:stop] = handles
            self._gids[start:stop] = gids
            self._held[bucket.length] = bucket.member_count
        self._publish(stop)
        self.groups = reps.count

    def select(self, table_rows: np.ndarray) -> np.ndarray:
        """Rows, ascending, of every member of the groups at the
        representative-table rows *table_rows*."""
        wanted = np.zeros(self.groups, dtype=bool)
        wanted[table_rows] = True
        return np.flatnonzero(wanted[self.owner])


class _GroupsView(Sequence):
    """``bucket.groups``: a bucket's groups as a sequence, made on demand.

    The bucket's arrays are its only stored state: a
    :class:`SimilarityGroup` (and its tuple of ``SubsequenceRef``) is
    built from them, and memoised on the bucket, only when indexed — so
    building, attaching and appending cost nothing per group and a reader
    pays for the handful of groups it looks at.  Concurrent readers at
    worst build the same group twice.  A view is made per access and the
    bucket keeps none, so no reference cycle delays the unmapping of a
    dropped read-only base.
    """

    __slots__ = ("_bucket",)

    def __init__(self, bucket: "LengthBucket") -> None:
        self._bucket = bucket

    def __len__(self) -> int:
        return self._bucket.group_count

    def __getitem__(
        self, index: SupportsIndex | slice
    ) -> SimilarityGroup | list[SimilarityGroup]:
        bucket = self._bucket
        count = bucket.group_count
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(count))]
        i = operator.index(index)
        if i < 0:
            i += count
        if not 0 <= i < count:
            raise IndexError("group index out of range")
        group = bucket._built.get(i)
        if group is None:
            length = bucket.length
            _, handles, _ = bucket.group_rows(np.array([i]))
            group = bucket._built[i] = SimilarityGroup(
                length=length,
                centroid=bucket.centroids[i],
                members=tuple(
                    SubsequenceRef(si, st, length) for si, st in handles.tolist()
                ),
                ed_radius=float(bucket.ed_radii[i]),
                cheb_radius=float(bucket.cheb_radii[i]),
            )
        return group


class LengthBucket:
    """All similarity groups for one subsequence length.

    **Arrays are the only stored state.**  One row per group: the stacked
    representatives (``centroids``), both radius vectors and the
    cumulative ``member_offsets``; one row per member, in one physical
    row order: its values (``member_matrix``), its ``(series_index,
    start)`` handle and — once anything was appended — its owning group.
    Stacking is what lets the query processor bound every representative
    of a length, and refine whole groups, in single vectorised
    operations.  Counts, the structure fingerprint, the snapshot writer
    and every query read only these arrays; ``groups`` is a view that
    builds a :class:`SimilarityGroup` when one is asked for, and nothing
    on the build, load, append, query or save path asks.

    The rows a bucket is constructed with are group-contiguous, so a
    group's rows are index arithmetic over the offsets.  A *writable*
    bucket grows in place with amortised doubling (``append``, driven by
    ``OnexBase.add_series`` and the :mod:`repro.stream` subsystem): new
    rows land at the end of the stores in arrival order and ``_row_group``
    names every row's owner from then on.  One lookup, :meth:`group_rows`,
    resolves groups to rows in both regimes; :meth:`store_rows` reads the
    rows themselves, in store order, for the base's :class:`MemberTable`,
    through which the query stage finds members of every length at once.
    """

    def __init__(
        self,
        length: int,
        handles: np.ndarray,
        offsets: np.ndarray,
        member_matrix: np.ndarray,
        centroids: np.ndarray,
        ed_radii: np.ndarray,
        cheb_radii: np.ndarray,
        channels: int = 1,
        *,
        writable: bool,
    ) -> None:
        """Adopt the stacked arrays of a bucket *without copying them*.

        *handles* is the ``(M, 2)`` member-handle array, *offsets* the
        ``(G+1,)`` group offsets into it and into the ``(M, width)``
        *member_matrix*; the other three are the per-group stacks.  The
        stores are the given arrays themselves (capacity == count), so
        mmap-backed arrays stay mmap-backed and N worker processes share
        one page-cache copy.  Only a *writable* bucket accepts appends
        (the arrays must then be private: radii and offsets are updated
        in place, and the first append finds each store full and
        reallocates it through ``_grown``); otherwise they raise
        :class:`~repro.exceptions.ReadOnlyBaseError`.
        """
        self.length = int(length)
        #: Channels per time step; multivariate buckets store every row
        #: channel-flattened (C-order ``(length, channels)``, width
        #: ``length * channels``) so clustering, radii, and persistence
        #: are identical to the univariate layout.
        self.channels = int(channels)
        self.writable = writable
        count = int(offsets.shape[0]) - 1
        rows = int(offsets[-1])
        width = self.length * self.channels
        for name, array, shape in (
            ("member handles", handles, (rows, 2)),
            ("member matrix", member_matrix, (rows, width)),
            ("centroid stack", centroids, (count, width)),
            ("ED radius vector", ed_radii, (count,)),
            ("Chebyshev radius vector", cheb_radii, (count,)),
        ):
            if array.shape != shape:
                raise ValidationError(f"{name} shape {array.shape} != {shape}")
        self._group_count = count
        self._row_count = rows
        self._handle_store = handles
        self._offset_store = offsets
        self._member_store = member_matrix
        self._centroid_store = centroids
        self._ed_store = ed_radii
        self._cheb_store = cheb_radii
        #: Owning group of every store row; built by the first append
        #: (until then the rows are exactly the construction rows).
        self._row_group: np.ndarray | None = None
        #: Groups the ``groups`` view has built; an append drops the ones
        #: it grows.
        self._built: dict[int, SimilarityGroup] = {}
        #: Row means of the centroids, the column incremental assignment
        #: prescreens with: derived, never persisted, and kept only where
        #: assignment can happen.
        self._mean_store = centroids.mean(axis=1) if writable else None

    @property
    def groups(self) -> _GroupsView:
        """The groups as :class:`SimilarityGroup` values, built on demand."""
        return _GroupsView(self)

    @property
    def group_count(self) -> int:
        return self._group_count

    @property
    def member_count(self) -> int:
        return self._row_count

    @property
    def centroids(self) -> np.ndarray:
        """Stacked group representatives (live view; do not mutate)."""
        return self._centroid_store[: self._group_count]

    @property
    def ed_radii(self) -> np.ndarray:
        """Per-group max ``ED_n(member, representative)`` (live view)."""
        return self._ed_store[: self._group_count]

    @property
    def cheb_radii(self) -> np.ndarray:
        """Per-group Chebyshev radius feeding the transfer bounds (view)."""
        return self._cheb_store[: self._group_count]

    @property
    def centroid_means(self) -> np.ndarray:
        """Row mean of every representative (live view; writable buckets)."""
        return self._mean_store[: self._group_count]

    @property
    def member_offsets(self) -> np.ndarray:
        """Cumulative member counts delimiting groups in logical order.

        A live ``(G+1,)`` view (do not mutate): group ``g`` has
        ``offsets[g+1] - offsets[g]`` members.
        """
        return self._offset_store[: self._group_count + 1]

    @property
    def cardinalities(self) -> np.ndarray:
        """Member count of every group, as a fresh ``(G,)`` array."""
        return np.diff(self.member_offsets)

    def members_in(self, g_list: list[int]) -> int:
        """Combined member count of the groups *g_list* (builds no group)."""
        offset = self._offset_store.item
        return sum(offset(g + 1) - offset(g) for g in g_list)

    def group_rows(
        self, g_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the members of groups *g_idx* live: their store rows (to
        index :attr:`member_matrix`), ``(series_index, start)`` handles
        and owning groups, row for row — index arithmetic only, no group
        is built.  The one lookup that resolves a bucket's groups (the
        query stage resolves them base-wide, through the
        :class:`MemberTable`); *g_idx* indexes like ``groups[i]``
        (negatives wrap, out of range raises ``IndexError``).

        While no append has happened the rows are the construction
        ranges the offsets delimit, group by group as *g_idx* names
        them; afterwards ``_row_group`` names every row's owner, appended
        ones included, and the rows come in store order (within a group
        that is arrival order, the order of its ``members``).
        """
        if self._row_group is None:
            offsets = self.member_offsets
            lo = offsets[:-1][g_idx]
            counts = offsets[1:][g_idx] - lo
            owner = np.repeat(g_idx % self._group_count, counts)
            first = np.repeat(lo - (np.cumsum(counts) - counts), counts)
            rows = first + np.arange(owner.size)
        else:
            wanted = np.zeros(self._group_count, dtype=bool)
            wanted[g_idx] = True
            row_group = self._row_group[: self._row_count]
            rows = np.flatnonzero(wanted[row_group])
            owner = row_group[rows]
        return rows, self._handle_store[rows], owner

    def store_rows(self, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """``(handles, owners)`` of the store rows from *first* on, in
        store order: each row's ``(series_index, start)`` and group."""
        if self._row_group is None:
            owners = np.repeat(np.arange(self._group_count), self.cardinalities)
        else:
            owners = self._row_group[: self._row_count]
        return self._handle_store[first : self._row_count], owners[first:]

    def _logical_order(self) -> np.ndarray | None:
        """Store rows in group-contiguous order; None while they already are.

        A group's rows ascend in arrival order, so a stable sort of the
        per-row group index is exactly "group by group, members in
        ``members`` order".
        """
        if self._row_group is None:
            return None
        group_of = self._row_group[: self._row_count]
        if (group_of[1:] >= group_of[:-1]).all():
            return None
        return np.argsort(group_of, kind="stable")

    @property
    def member_handles(self) -> np.ndarray:
        """``(M, 2)`` ``(series_index, start)`` of every member, group by
        group as :attr:`member_offsets` delimits (a view while no append
        has interleaved the rows, else a gathered copy)."""
        order = self._logical_order()
        handles = self._handle_store[: self._row_count]
        return handles if order is None else handles[order]

    @property
    def member_matrix(self) -> np.ndarray:
        """Every member's values as one 2-D array (live view).

        Row order is group-contiguous right after ``build()``/``load()``;
        rows appended by incremental ingestion live at the end, in arrival
        order — resolve groups' rows with :meth:`group_rows`, and use
        :meth:`stacked_member_matrix` where group-contiguous order matters.
        """
        return self._member_store[: self._row_count]

    def member_rows(self, g_idx: int) -> np.ndarray:
        """Values of group *g_idx*'s members, ordered as its ``members``."""
        return self._member_store[self.group_rows(np.array([g_idx]))[0]]

    def stacked_member_matrix(self) -> np.ndarray:
        """Member values in group-contiguous order (for persistence).

        Returns the store itself (no copy) while its rows are still
        group-contiguous; after interleaved appends one fancy-index
        gather over the logical row order.
        """
        order = self._logical_order()
        return self.member_matrix if order is None else self.member_matrix[order]

    def _reserve(self, stores: tuple[str, ...], used: int, needed: int) -> None:
        """Reallocate each of the named *stores* that cannot hold *needed*
        rows, keeping its first *used* (amortised doubling)."""
        for name in stores:
            store = getattr(self, name)
            if needed > store.shape[0]:
                setattr(self, name, _grown(store, used, needed=needed))

    def append(
        self, owners: np.ndarray, handles: np.ndarray, rows: np.ndarray
    ) -> None:
        """Append members — *rows* of values with their ``(series_index,
        start)`` *handles* — to the groups *owners*, growing the stores in
        place with amortised doubling.

        Owners at or past ``group_count`` name new groups: their seeds —
        one row each, the representative — lead the call, ascending from
        ``group_count``, and any later row may join them.  For a join the
        caller guarantees the construction invariant (``ED_n`` to the
        representative within the group radius).  Radii are updated
        exactly and no representative moves, so existing members'
        guarantees are untouched.
        """
        if not self.writable:
            raise ReadOnlyBaseError(
                f"length-{self.length} bucket is attached read-only"
            )
        known = self._group_count
        total = max(known, int(owners.max()) + 1)
        if self._row_group is None:
            self._row_group = self.store_rows()[1]
        if total > known:
            if not np.array_equal(owners[: total - known], np.arange(known, total)):
                raise ValidationError(
                    f"new groups must be seeded first, ascending from {known}"
                )
            seeds = rows[: total - known]
            self._reserve(
                ("_centroid_store", "_ed_store", "_cheb_store", "_mean_store"),
                known,
                total,
            )
            self._reserve(("_offset_store",), known + 1, total + 1)
            self._centroid_store[known:total] = seeds
            self._ed_store[known:total] = 0.0
            self._cheb_store[known:total] = 0.0
            self._mean_store[known:total] = seeds.mean(axis=1)
            self._offset_store[known + 1 : total + 1] = self._offset_store[known]
            self._group_count = total
        start, stop = self._row_count, self._row_count + rows.shape[0]
        self._reserve(("_member_store", "_handle_store", "_row_group"), start, stop)
        self._member_store[start:stop] = rows
        self._handle_store[start:stop] = handles
        self._row_group[start:stop] = owners
        self._row_count = stop
        deviations = np.abs(rows - self._centroid_store[owners])
        np.maximum.at(self._ed_store, owners, deviations.mean(axis=1))
        np.maximum.at(self._cheb_store, owners, deviations.max(axis=1))
        self._offset_store[1 : total + 1] += np.cumsum(
            np.bincount(owners, minlength=total)
        )
        if self._built:
            for g_idx in owners.tolist():
                self._built.pop(g_idx, None)


def _build_length_shard(
    series_values: list[np.ndarray],
    length: int,
    step: int,
    group_radius: float,
) -> dict | None:
    """Build one length's groups from raw series values (shared-nothing).

    The unit of work of the sharded build pipeline: strided window
    extraction plus the batched clustering, returning a payload of plain
    arrays — stacked centroids, radii, and flat member-row indices with
    group offsets — so the result pickles cheaply across a
    :class:`~concurrent.futures.ProcessPoolExecutor` boundary.  No handle
    is created here; the parent resolves rows to ``(series_index, start)``
    handles arithmetically during reassembly.  The window matrix stays
    behind: re-extracting it on the parent is cheaper than pickling it
    through the result pipe.  Returns ``None`` when no series is long
    enough for *length*.
    """
    started = time.perf_counter()
    faults.fire("build.shard", length=length)
    matrix, _ = window_matrix(series_values, length, step)
    if matrix.shape[0] == 0:
        return None
    groups = cluster_subsequence_rows(matrix, group_radius)
    count = len(groups)
    centroids = np.empty((count, matrix.shape[1]), dtype=np.float64)
    offsets = np.empty(count + 1, dtype=np.int64)
    offsets[0] = 0
    for g, group in enumerate(groups):
        centroids[g] = group.centroid
        offsets[g + 1] = offsets[g] + group.rows.shape[0]
    return {
        "length": length,
        "windows": matrix.shape[0],
        "centroids": centroids,
        "ed_radii": np.fromiter((g.ed_radius for g in groups), np.float64, count),
        "cheb_radii": np.fromiter(
            (g.cheb_radius for g in groups), np.float64, count
        ),
        "member_rows": np.concatenate([g.rows for g in groups]),
        "offsets": offsets,
        "seconds": time.perf_counter() - started,
    }


class OnexBase:
    """The compact ONEX base over one dataset."""

    def __init__(self, dataset: TimeSeriesDataset, config: BuildConfig) -> None:
        if len(dataset) == 0:
            raise DatasetError("cannot build a base over an empty dataset")
        self._config = config
        self._raw_dataset = dataset
        self._norm_bounds = dataset.global_bounds() if config.normalize else None
        self._dataset = dataset.normalized() if config.normalize else dataset
        self._buckets: dict[int, LengthBucket] = {}
        self._rep_table: RepresentativeTable | None = None
        self._member_table: MemberTable | None = None
        self._stats: BaseStats | None = None
        #: Shards re-run serially after a worker crash in the last build.
        self.build_shard_retries = 0
        #: True for mmap-attached bases served by pool workers: every
        #: mutation path raises :class:`ReadOnlyBaseError` (writes belong
        #: to the supervisor, which republishes a fresh snapshot).
        self.read_only = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def build(self, deadline: Deadline | None = None) -> BaseStats:
        """Run the offline clustering; idempotent (rebuilds from scratch).

        The construction is a sharded pipeline over the configured length
        range: each length is an independent, shared-nothing job
        (:func:`_build_length_shard` — strided extraction plus the batched
        clustering) and ``BuildConfig.num_workers`` fans the jobs over a
        :class:`~concurrent.futures.ProcessPoolExecutor` (``num_workers=1``
        runs the same jobs in-process with no executor).  Shard payloads
        are merged in ascending length order regardless of completion
        order, and the clustering itself is deterministic, so every worker
        count produces an identical base — :meth:`structure_fingerprint`
        equality is asserted by the tests and the E18 benchmark gate.

        A crashed or killed pool worker loses only its shard: the build
        re-runs that length serially in the parent (determinism makes the
        retry bit-identical; ``build_shard_retries`` counts them) and
        raises :class:`~repro.exceptions.BuildWorkerError` only when the
        serial retry fails too.  A *deadline* is checked between merged
        shards and raises with per-length progress.
        """
        started = time.perf_counter()
        self._buckets = {}
        self._rep_table = self._member_table = None
        self.build_shard_retries = 0
        cfg = self._config
        lengths = list(range(cfg.min_length, cfg.max_length + 1))
        series_values = [s.values for s in self._dataset]
        workers = min(cfg.num_workers, len(lengths))
        total_subsequences = 0
        total_groups = 0
        per_length: list[LengthBuildStats] = []

        def merge(payloads: Iterable[dict | None]) -> None:
            # Consumed lazily and in submission (= ascending length)
            # order, so at most one shard's window matrix is alive on
            # the parent at a time — the serial build's peak memory.
            nonlocal total_subsequences, total_groups
            for payload in payloads:
                faults.fire("build.merge")
                if deadline is not None:
                    deadline.check(
                        "base build",
                        {
                            "lengths_merged": len(per_length),
                            "lengths_total": len(lengths),
                            "groups": total_groups,
                        },
                    )
                if payload is None:
                    continue
                with span(
                    "build.merge_shard",
                    length=payload["length"],
                    windows=payload["windows"],
                ):
                    bucket = self._assemble_bucket(payload)
                self._buckets[bucket.length] = bucket
                total_subsequences += payload["windows"]
                total_groups += bucket.group_count
                per_length.append(
                    LengthBuildStats(
                        length=bucket.length,
                        subsequences=payload["windows"],
                        groups=bucket.group_count,
                        seconds=payload["seconds"],
                    )
                )

        if workers <= 1:
            merge(
                _build_length_shard(series_values, length, cfg.step, cfg.group_radius)
                for length in lengths
            )
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(
                        _build_length_shard,
                        series_values,
                        length,
                        cfg.step,
                        cfg.group_radius,
                    )
                    for length in lengths
                ]

                def drain() -> Iterator[dict | None]:
                    # Still ascending length order — submit-per-shard
                    # (instead of pool.map) is what lets one crashed
                    # worker lose only its own shard.
                    for length, future in zip(lengths, futures):
                        try:
                            yield future.result()
                        except Exception as exc:
                            # A killed worker surfaces as BrokenExecutor
                            # (and poisons every later future of the
                            # pool); each failed shard re-runs
                            # serially in the parent, bit-identically.
                            self.build_shard_retries += 1
                            _BUILD_RETRIES.inc()
                            log_event(
                                _LOG,
                                "warning",
                                "build.shard_retry",
                                length=length,
                                error=str(exc),
                                error_type=type(exc).__name__,
                            )
                            try:
                                yield _build_length_shard(
                                    series_values,
                                    length,
                                    cfg.step,
                                    cfg.group_radius,
                                )
                            except Exception as retry_exc:
                                raise BuildWorkerError(
                                    f"build shard for length {length} failed "
                                    f"in a pool worker ({exc}) and again on "
                                    "serial retry"
                                ) from retry_exc

                merge(drain())
        if not self._buckets:
            raise DatasetError(
                "no subsequences in the configured length range "
                f"[{cfg.min_length}, {cfg.max_length}]"
            )
        build_seconds = time.perf_counter() - started
        self._stats = BaseStats(
            subsequences=total_subsequences,
            groups=total_groups,
            lengths=len(self._buckets),
            build_seconds=build_seconds,
            per_length=tuple(per_length),
        )
        _BUILDS_TOTAL.inc()
        _BUILD_WINDOWS.inc(total_subsequences)
        _BUILD_GROUPS.inc(total_groups)
        _BUILD_SECONDS.inc(build_seconds)
        _BUILD_LAST.set(build_seconds)
        return self._stats

    def _assemble_bucket(self, payload: dict) -> LengthBucket:
        """Reassemble one shard payload into a live :class:`LengthBucket`.

        Runs on the parent: member rows are resolved to ``(series_index,
        start)`` handles with one ``searchsorted`` over the per-series
        window counts and the bucket's refinement matrix is gathered from
        a re-extracted window matrix; the payload's stacked arrays become
        the bucket's stores as they are.  Bit-identical whether the shard
        ran in-process or in a worker (the payload arrays round-trip
        through pickle exactly).
        """
        length = payload["length"]
        step = self._config.step
        matrix, _ = window_matrix([s.values for s in self._dataset], length, step)
        counts = window_counts(
            [len(s) for s in self._dataset], length, step
        )
        member_rows = payload["member_rows"]
        series_idx, starts = rows_to_series_starts(member_rows, counts, step)
        return LengthBucket(
            length,
            np.column_stack((series_idx, starts)).astype(np.int64, copy=False),
            payload["offsets"],
            matrix[member_rows],
            payload["centroids"],
            payload["ed_radii"],
            payload["cheb_radii"],
            channels=self._dataset.channels,
            writable=True,
        )

    @classmethod
    def from_attached(
        cls,
        raw_dataset: TimeSeriesDataset,
        norm_dataset: TimeSeriesDataset,
        config: BuildConfig,
        norm_bounds: tuple[float, float] | None,
        buckets: dict[int, LengthBucket],
        stats: "BaseStats",
        *,
        read_only: bool = False,
    ) -> "OnexBase":
        """Assemble a built base from pre-attached parts, copying nothing.

        The mmap snapshot loader's constructor: unlike ``__init__`` it
        does not renormalise the dataset (*norm_dataset* is handed in,
        typically wrapping the snapshot's own normalised arrays), so an
        entirely mmap-backed base touches no series values at open time.
        """
        self = object.__new__(cls)
        self._config = config
        self._raw_dataset = raw_dataset
        self._norm_bounds = norm_bounds
        self._dataset = norm_dataset
        self._buckets = dict(buckets)
        self._rep_table = self._member_table = None
        self._stats = stats
        self.build_shard_retries = 0
        self.read_only = read_only
        return self

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def config(self) -> BuildConfig:
        return self._config

    @property
    def dataset(self) -> TimeSeriesDataset:
        """The (normalised, when configured) dataset the base indexes."""
        return self._dataset

    @property
    def raw_dataset(self) -> TimeSeriesDataset:
        """The dataset exactly as loaded, before normalisation."""
        return self._raw_dataset

    @property
    def normalization_bounds(self) -> tuple[float, float] | None:
        """The (lo, hi) captured at build time, or None when unnormalised.

        Queries must map raw values with *these* bounds — not the current
        dataset extremes, which :meth:`add_series` may have widened.
        """
        return self._norm_bounds

    @property
    def channels(self) -> int:
        """Channels per time step of the indexed dataset (1 = univariate)."""
        return self._dataset.channels

    @property
    def is_built(self) -> bool:
        return bool(self._buckets)

    @property
    def stats(self) -> BaseStats:
        if self._stats is None:
            raise NotBuiltError("base not built yet; call build()")
        return self._stats

    @property
    def lengths(self) -> list[int]:
        """Indexed subsequence lengths, ascending."""
        self._require_built()
        return sorted(self._buckets)

    def bucket(self, length: int) -> LengthBucket:
        self._require_built()
        try:
            return self._buckets[length]
        except KeyError:
            raise DatasetError(
                f"length {length} not indexed (available: "
                f"{self.lengths[0]}..{self.lengths[-1]})"
            ) from None

    def buckets(self) -> list[LengthBucket]:
        self._require_built()
        return [self._buckets[length] for length in self.lengths]

    @property
    def rep_table(self) -> RepresentativeTable:
        """The base-wide representative table the rank stage reads.

        Built on first use after ``build()`` or an attach (one pass of
        column reads over the buckets' centroid stacks) and from then on
        only extended, under the callers' exclusive write-side lock, where
        ingestion seeds and grows groups.  Readers never mutate a
        published table: racing first readers at worst each build one
        and the last assignment wins with an equivalent object.
        """
        table = self._rep_table
        if table is None:
            table = self._rep_table = RepresentativeTable(self.buckets())
        return table

    @property
    def member_table(self) -> MemberTable:
        """The base-wide member table the refine stage reads.

        Built on first use from the buckets' stores and :attr:`rep_table`
        (one pass per bucket), extended beside it where ingestion appends
        members and dropped with it; the same reader rules hold.
        """
        table = self._member_table
        if table is None:
            table = self._member_table = MemberTable(self.buckets(), self.rep_table)
        return table

    def group(self, length: int, index: int) -> SimilarityGroup:
        bucket = self.bucket(length)
        if not 0 <= index < bucket.group_count:
            raise DatasetError(
                f"group index {index} out of range for length {length}"
            )
        return bucket.groups[index]

    def member_values(self, ref: SubsequenceRef) -> np.ndarray:
        """Resolve a member handle against the indexed dataset."""
        return self._dataset.values(ref)

    def validate(self) -> None:
        """Re-check every group invariant (slow; used by tests/debugging)."""
        self._require_built()
        for bucket in self.buckets():
            for group in bucket.groups:
                group.validate(self._dataset, self._config.group_radius)

    def _require_built(self) -> None:
        if not self._buckets:
            raise NotBuiltError("base not built yet; call build()")

    def _require_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyBaseError(
                f"base over {self._raw_dataset.name!r} is read-only "
                "(mmap-attached); mutations belong to the supervisor"
            )

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------

    def add_series(self, series: TimeSeries) -> dict:
        """Index one new series into the built base without a rebuild.

        New windows are assigned with **fixed** representatives: a window
        joins the nearest existing group when it sits within the
        construction radius of that group's centroid (which is *not*
        moved, so every existing member's guarantee is untouched and the
        new member's holds by the assignment test); otherwise it seeds a
        new singleton group.  Radii are updated exactly.  Compared to a
        full rebuild this can only produce extra groups, never invariant
        violations — ``validate()`` passes afterwards.  Member rows are
        appended to each bucket's stacked member matrix in place, so the
        series is queryable through the batched cascade immediately, with
        no re-gather of existing members.

        Values are normalised with the bounds captured at build time, so
        distances remain comparable with the existing base; a series
        exceeding those bounds maps outside [0, 1] (documented, allowed).

        Returns a summary dict (windows indexed, groups joined/created).
        """
        self._require_built()
        self._require_writable()
        if not isinstance(series, TimeSeries):
            raise ValidationError(
                f"expected TimeSeries, got {type(series).__name__}"
            )
        if series.name in self._raw_dataset:
            raise DatasetError(f"duplicate series name: {series.name!r}")
        self._raw_dataset.add(series)
        if self._norm_bounds is not None:
            lo, hi = self._norm_bounds
            normalized = series.with_values(
                minmax_normalize(series.values, lo=lo, hi=hi)
            )
            self._dataset.add(normalized)
        series_index = self._dataset.index_of(series.name)
        assignments = self.index_new_windows(series_index, 0)
        created = int(assignments.created.sum())
        return {
            "series": series.name,
            "windows": len(assignments),
            "joined_existing_groups": len(assignments) - created,
            "new_groups": created,
        }

    def index_new_windows(
        self, series_index: int, previous_length: int
    ) -> WindowAssignments:
        """Index every window of series *series_index* completed by growth
        beyond *previous_length* points (0 indexes the whole series).

        The incremental-ingestion kernel shared by :meth:`add_series`,
        the streaming ingestor and WAL replay: :meth:`_assign_windows`
        decides each length's windows and the bucket takes them in one
        ``append``.  What does not depend on the length — the window
        means of the prescreen, the handles, the representative-table
        sync, the stats — is done once per call.  Returns the
        :class:`WindowAssignments` of the indexed windows, in (length,
        start) order.
        """
        self._require_built()
        self._require_writable()
        cfg = self._config
        values = self._dataset[series_index].values
        n = values.shape[0]
        channels = self.channels
        plan: list[tuple[int, np.ndarray]] = []
        for length in range(cfg.min_length, min(cfg.max_length, n) + 1):
            # Windows already indexed have starts <= previous_length - length
            # on the step grid; resume from the next grid point.
            first = max(0, previous_length - length + 1)
            first = -(-first // cfg.step) * cfg.step
            if first <= n - length:
                plan.append((length, np.arange(first, n - length + 1, cfg.step)))
        if not plan:
            none = np.empty(0, dtype=np.int64)
            return WindowAssignments(series_index, none, none, none, none > 0)
        sizes = [at.size for _, at in plan]
        lengths = np.repeat([length for length, _ in plan], sizes)
        starts = np.concatenate([at for _, at in plan])
        handles = np.column_stack((np.full(starts.size, series_index), starts))
        # Every window mean from one running sum over the tail the windows
        # cover.  A running sum of m terms is off by at most m * eps *
        # sum|v| and a mean is the difference of two over the window's
        # width: the prescreen is widened by that much (slack).
        tail = int(starts.min())
        flat = values[tail:].reshape(n - tail, -1).sum(axis=1)
        csum = np.concatenate(([0.0], np.cumsum(flat)))
        widths = lengths * channels
        means = (csum[starts + lengths - tail] - csum[starts - tail]) / widths
        slack = 2.0 * flat.size * np.finfo(float).eps * np.abs(flat).sum() / widths[0]
        groups = np.empty(starts.size, dtype=np.int64)
        created = np.zeros(starts.size, dtype=bool)
        scope = evaluated = 0
        touched: list[tuple[LengthBucket, np.ndarray]] = []
        per_length = {s.length: s for s in self.stats.per_length}
        for (length, at), size, stop in zip(plan, sizes, np.cumsum(sizes).tolist()):
            rows = slice(stop - size, stop)
            bucket = self._buckets.get(length)
            if bucket is None:
                bucket = self._buckets[length] = LengthBucket(
                    length,
                    np.empty((0, 2), dtype=np.int64),
                    np.zeros(1, dtype=np.int64),
                    np.empty((0, length * channels)),
                    np.empty((0, length * channels)),
                    np.empty(0),
                    np.empty(0),
                    channels=channels,
                    writable=True,
                )
            # Channel-flatten multivariate windows to the stored row layout.
            windows = values[at[:, None] + np.arange(length)].reshape(size, -1)
            scope += size * bucket.group_count
            owners, seeds, joined, scanned = self._assign_windows(
                bucket, windows, means[rows], slack
            )
            evaluated += scanned
            groups[rows] = owners
            created[rows][seeds] = True  # a slice is a view
            # Store order: the call's seeds, then its joins.
            order = np.array(seeds + joined)
            bucket.append(owners[order], handles[rows][order], windows[order])
            touched.append((bucket, owners[joined]))
            prev = per_length.get(length) or LengthBuildStats(length, 0, 0, 0.0)
            per_length[length] = LengthBuildStats(
                length, prev.subsequences + size, prev.groups + len(seeds), prev.seconds
            )
        if self._rep_table is not None:
            self._rep_table.sync(touched)
            if self._member_table is not None:
                self._member_table.sync((b for b, _ in touched), self._rep_table)
        old = self.stats
        self._stats = BaseStats(
            subsequences=old.subsequences + starts.size,
            groups=old.groups + int(created.sum()),
            lengths=len(self._buckets),
            build_seconds=old.build_seconds,
            per_length=tuple(per_length[n] for n in sorted(per_length)),
        )
        return WindowAssignments(
            series_index, lengths, starts, groups, created, scope, evaluated
        )

    #: Windows per row block of the assignment; bounds the distance
    #: temporary at block x prescreened centroids x length.
    _ASSIGN_BLOCK = 128

    def _assign_windows(
        self, bucket: LengthBucket, windows: np.ndarray, means: np.ndarray, slack: float
    ) -> tuple[np.ndarray, list[int], list[int], int]:
        """Decide the groups of same-length *windows* against *bucket*'s
        fixed representatives (the bucket is read, not changed).

        The rule: nearest representative by ``ED_n``, groups seeded
        earlier in the call included, lowest group on ties; join within
        the group radius, else seed.  Exact ``ED_n`` runs only where it
        can matter: ``ED_n(w, c) >= |mean(w) - mean(c)|``, so each row
        block is evaluated against the ascending columns whose mean is
        within the radius (plus the builder's float margin, plus *slack*
        for how *means* were summed) of some window of the block.  A
        minimum within the radius survives with all of its ties, so the
        first-of-ties argmin over the survivors is the full table's; a
        minimum beyond it seeds either way, unless an incremental scan of
        the call's own seeds — winning on strictly smaller distance only
        — finds one within the radius.

        Returns each window's group, the windows that seeded theirs (new
        groups count up from ``bucket.group_count`` in that order), the
        joining windows group by group in order of each group's first
        join, and how many (window, representative) pairs were evaluated.
        """
        radius = self._config.group_radius
        existing, width = bucket.group_count, windows.shape[1]
        centroids = bucket.centroids
        cmeans = bucket.centroid_means
        cutoff = mean_prescreen_cutoff(radius, means, cmeans) + slack
        fresh = np.empty_like(windows)  # representatives seeded by this call
        owners: list[int] = []
        seeds: list[int] = []
        joins: dict[int, list[int]] = {}
        evaluated = 0
        for b0 in range(0, windows.shape[0], self._ASSIGN_BLOCK):
            block = windows[b0 : b0 + self._ASSIGN_BLOCK]
            nb = block.shape[0]
            near = np.abs(cmeans - means[b0 : b0 + nb, None]) <= cutoff
            cols = np.flatnonzero(near.any(axis=0))
            best_idx, best = [0] * nb, [np.inf] * nb
            if cols.size:
                # sum / width is mean() without its Python-level wrapper.
                dists = np.abs(
                    block[:, None, :] - centroids[None, cols, :]
                ).sum(axis=2) / width
                best_idx = cols[np.argmin(dists, axis=1)].tolist()
                best = dists.min(axis=1).tolist()
                evaluated += dists.size
            for at, (g_idx, dist) in enumerate(zip(best_idx, best), b0):
                row = windows[at]
                if seeds:
                    fresh_d = np.abs(fresh[: len(seeds)] - row).sum(axis=1) / width
                    f_idx = int(np.argmin(fresh_d))
                    if float(fresh_d[f_idx]) < dist:
                        g_idx, dist = existing + f_idx, float(fresh_d[f_idx])
                if dist <= radius:
                    joins.setdefault(g_idx, []).append(at)
                else:
                    g_idx = existing + len(seeds)
                    fresh[len(seeds)] = row
                    seeds.append(at)
                owners.append(g_idx)
        joined = [at for members in joins.values() for at in members]
        return np.array(owners), seeds, joined, evaluated

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> dict[str, str]:
        """Persist the built base **and its dataset** as a snapshot directory.

        A thin delegate to the one on-disk writer
        (:mod:`repro.core.mmap_layout`, durable mode): *path* becomes a
        directory of ``arrays.bin`` + ``meta.json``, fsynced and hashed.
        *path* must not exist — a directory cannot be replaced atomically,
        so an earlier save is kept intact by never touching it
        (:class:`~repro.exceptions.PersistenceError`; save to a fresh path).
        Returns ``{file name: sha256}`` of the two files as written (the
        checkpoint manifest's hashes, at no second read).
        """
        from repro.core.mmap_layout import _write_snapshot

        return _write_snapshot(self, path, durable=True)

    @classmethod
    def load(cls, path: str | Path) -> "OnexBase":
        """Load a saved base as a private, writable base over its own dataset.

        ``arrays.bin`` is checked against the recorded sha256 and the
        assembled structure against the stored fingerprint; anything
        unreadable (missing, truncated, a ``.npz`` archive, another
        format) raises :class:`~repro.exceptions.PersistenceError`.
        """
        from repro.core.mmap_layout import load_base_snapshot

        return load_base_snapshot(path, mmap_mode=None, verify=True)[0]

    def structure_fingerprint(self) -> str:
        """Content hash of the built structure (groups, radii, members).

        Covers, per ascending length: the stacked centroid matrix, both
        radius vectors, the group member offsets, and every member's
        ``(series_index, start)`` handle — everything the query layers
        read, nothing timing-dependent.  Two bases are result-identical
        iff their structure fingerprints match; the build scheduler's
        determinism gate (serial vs process-pool builds, E18 and
        ``tests/test_build_pipeline.py``) compares these.
        """
        self._require_built()
        digest = hashlib.sha256()
        for length in self.lengths:
            bucket = self._buckets[length]
            digest.update(np.int64(length).tobytes())
            for array in (
                bucket.centroids,
                bucket.ed_radii,
                bucket.cheb_radii,
                bucket.member_offsets,
                bucket.member_handles,
            ):
                digest.update(np.ascontiguousarray(array))
        return digest.hexdigest()

    def __repr__(self) -> str:
        if not self._buckets:
            return "OnexBase(unbuilt)"
        return (
            f"OnexBase(lengths={self.lengths[0]}..{self.lengths[-1]}, "
            f"groups={self.stats.groups}, "
            f"compaction={self.stats.compaction_ratio:.1f}x)"
        )

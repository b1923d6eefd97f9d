"""The ONEX base: compact, Euclidean-prepared index of similarity groups.

Offline phase (§3.1 / Fig. 1 top): every subsequence of the loaded
collection within the configured length range is grouped, per length,
into similarity groups using the cheap ``ED_n`` distance — series by
series, by the same decide/apply pair that ingestion appends with.  The
base keeps only the group representatives, radii, and member handles —
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
import weakref
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import SupportsIndex

import numpy as np
from numpy.typing import ArrayLike

from repro.core.config import BuildConfig
from repro.core.deadline import Deadline
from repro.core.grouping import _LB_MARGIN, SimilarityGroup, assign_rows
from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.distances import native
from repro.distances.envelope import keogh_envelope_batch
from repro.distances.lower_bounds import lb_keogh_reverse_batch, lb_kim_endpoints_batch
from repro.distances.metrics import as_sequence
from repro.distances.normalize import minmax_normalize
from repro.exceptions import (
    DatasetError,
    InvariantError,
    NotBuiltError,
    ReadOnlyBaseError,
    ValidationError,
)
from repro.obs.metrics import REGISTRY
from repro.testing import faults

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
    """One subsequence length's bucket: its member (``subsequences``) and
    group counts as they stand."""

    length: int
    subsequences: int
    groups: int


@dataclass(frozen=True)
class BaseStats:
    """Summary of a built base (reported by E1/E7/E18 benchmarks): the
    sums of its buckets' counts, and the build's wall seconds."""

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
    it ``created`` its group.  The streaming monitors check the
    pattern-length windows among them.  Of ``centroids`` (window,
    same-length representative) pairs in scope, the mean prescreen let
    ``evaluated`` through to exact ``ED_n``.
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
    stacks, table columns and the series of :meth:`OnexBase.grow_series`);
    the first *used* rows are preserved, the rest left uninitialised.
    *needed* raises the floor when one append must fit more than double.
    """
    capacity = max(minimum, 2 * used, needed)
    grown = np.empty((capacity,) + array.shape[1:], dtype=array.dtype)
    grown[:used] = array[:used]
    return grown


def _endpoints(flat: np.ndarray, at: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """``row[[0, 1, -2, -1]]`` of every row laid end to end in *flat*, row
    ``r`` at offset ``at[r]`` and ``widths[r]`` wide, in one gather."""
    ends = at + widths
    return flat[np.column_stack((at, at + 1, ends - 2, ends - 1))]


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
    it, and the query walk names groups by table row.
    :class:`OnexBase` owns it and keeps it current at the one place
    groups are seeded and grown (``apply_windows``, through
    :meth:`extend`).
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
        self._add_groups(buckets)

    def rows_of(self, lengths: Iterable[int]) -> np.ndarray:
        """Table rows of every group of the given bucket *lengths*, ascending."""
        held = [self._rows[n] for n in lengths if n in self._rows]
        if len(held) == 1:  # one bucket's rows are ascending already
            return held[0]
        return np.sort(np.concatenate(held)) if held else np.empty(0, dtype=np.int64)

    def _add_groups(self, buckets: Iterable["LengthBucket"]) -> None:
        """Append a row for every group of *buckets* the table does not
        hold yet, bucket by bucket in group order."""
        start = stop = self.count
        seeds, radii, firsts, lengths = [], [], [], []
        for bucket in buckets:
            held = self._rows.get(bucket.length, np.empty(0, dtype=np.int64))
            if bucket.group_count > held.size:
                rows = np.arange(stop, stop + bucket.group_count - held.size)
                self._rows[bucket.length] = np.concatenate([held, rows])
                self._buckets[bucket.length] = bucket
                seeds.append(bucket.centroids[held.size :])
                radii.append(bucket.cheb_radii[held.size :])
                firsts.append(held.size)
                lengths.append(bucket.length)
                stop += rows.size
        if stop == start:
            return
        # The centroids laid end to end: one gather for the endpoints and
        # one reduceat each for min and max, whatever the number of lengths.
        sizes = [rows.shape[0] for rows in seeds]
        flat = np.concatenate([rows.ravel() for rows in seeds])
        widths = np.repeat([rows.shape[1] for rows in seeds], sizes)
        at = np.cumsum(widths) - widths
        self._reserve(start, stop)
        self._endpoints[start:stop] = _endpoints(flat, at, widths)
        self._lo[start:stop] = np.minimum.reduceat(flat, at)
        self._hi[start:stop] = np.maximum.reduceat(flat, at)
        self._radii[start:stop] = np.concatenate(radii)
        self._lengths[start:stop] = np.repeat(lengths, sizes)
        skips = np.cumsum(sizes) - sizes - firsts  # table offset - group index
        self._gids[start:stop] = np.arange(stop - start) - np.repeat(skips, sizes)
        self._publish(stop)

    def extend(
        self, appended: list[tuple["LengthBucket", np.ndarray]], cheb: np.ndarray
    ) -> np.ndarray:
        """Bring the table along an append: rows for the groups the
        appended buckets seeded, then each appended row's Chebyshev
        deviation *cheb* folded into its group's radius, as
        :meth:`LengthBucket.append` folds it.  *appended* pairs each
        bucket with its appended rows' groups; returns their table rows."""
        self._add_groups(bucket for bucket, _ in appended)
        rows = np.concatenate([self._rows[b.length][owners] for b, owners in appended])
        np.maximum.at(self._radii, rows, cheb)
        return rows

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
        bounds = None
        if native.KERNEL is not None:  # the NumPy bounds below in one C pass
            columns = (self.endpoints, self.lo, self.hi, self.lengths)
            bounds = native.rank_bounds(as_sequence(query, name="x"), columns, rows)
        if bounds is None:
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
            lengths = self.lengths if rows is None else self.lengths[rows]
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
        #: Rows of the representative table the owners index.
        self.groups = 0
        self._publish(0)
        for bucket in buckets:
            handles, gids = bucket.store_rows()
            self.extend(
                reps.count,
                reps.rows_of([bucket.length])[gids],
                bucket.member_matrix[:, [0, 1, -2, -1]],
                bucket.length,
                np.arange(bucket.member_count),
                handles,
                gids,
            )

    def extend(self, groups: int, owner: np.ndarray, *columns: ArrayLike) -> None:
        """Append members: their *owner* rows, then one value per member
        for each further column of ``_COLUMNS`` in order (a scalar holds
        for all); *groups* is the representative table's row count."""
        start = self.count
        stop = start + owner.shape[0]
        self._reserve(start, stop)
        for name, column in zip(self._COLUMNS, (owner, *columns)):
            getattr(self, "_" + name)[start:stop] = column
        self._publish(stop)
        self.groups = groups

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
    representatives (``centroids``), both radius vectors and the member
    count (``member_offsets`` is its running sum, derived when read); one
    row per member, in store order — the one row order, in memory and on
    disk: its values (``member_matrix``), its ``(series_index, start)``
    handle and its owning group.  Stacking is what lets the query
    processor bound every representative of a length, and refine whole
    groups, in single vectorised operations.  Counts, the structure
    fingerprint, the snapshot writer and every query read only these
    arrays; ``groups`` is a view that builds a :class:`SimilarityGroup`
    when one is asked for, and nothing on the build, load, append, query
    or save path asks.

    A *writable* bucket grows in place with amortised doubling
    (``append``, driven by ``OnexBase.build``, ``OnexBase.add_series``
    and the :mod:`repro.stream` subsystem), new rows landing at the end
    of the stores in arrival order, so a group's rows need not be
    contiguous.  :meth:`group_rows` resolves groups to
    rows by owner; :meth:`store_rows` reads the rows themselves for the
    snapshot writer and the base's :class:`MemberTable`, through which
    the query stage finds members of every length at once.
    """

    def __init__(
        self,
        length: int,
        handles: np.ndarray,
        owners: np.ndarray,
        member_matrix: np.ndarray,
        centroids: np.ndarray,
        ed_radii: np.ndarray,
        cheb_radii: np.ndarray,
        channels: int = 1,
        *,
        writable: bool,
    ) -> None:
        """Adopt the stacked arrays of a bucket *without copying them*.

        *handles* is the ``(M, 2)`` member-handle array, *owners* the
        ``(M,)`` group of each of its rows and of the rows of the ``(M,
        width)`` *member_matrix*; the other three are the per-group
        stacks.  The stores are the given arrays themselves (capacity ==
        count), so mmap-backed arrays stay mmap-backed and N worker
        processes share one page-cache copy; only the per-group member
        counts are derived from *owners* into an array of their own, and
        an owner outside the groups raises
        :class:`~repro.exceptions.ValidationError`.  Only a *writable*
        bucket accepts appends (the arrays must then be private: radii
        are updated in place, and the first append finds each store full
        and reallocates it through ``_grown``); otherwise they raise
        :class:`~repro.exceptions.ReadOnlyBaseError`.
        """
        self.length = int(length)
        #: Channels per time step; multivariate buckets store every row
        #: channel-flattened (C-order ``(length, channels)``, width
        #: ``length * channels``) so grouping, radii, and persistence
        #: are identical to the univariate layout.
        self.channels = int(channels)
        self.writable = writable
        count, rows = len(centroids), len(owners)
        width = self.length * self.channels
        for name, array, shape in (
            ("member owners", owners, (rows,)),
            ("member handles", handles, (rows, 2)),
            ("member matrix", member_matrix, (rows, width)),
            ("centroid stack", centroids, (count, width)),
            ("ED radius vector", ed_radii, (count,)),
            ("Chebyshev radius vector", cheb_radii, (count,)),
        ):
            if array.shape != shape:
                raise ValidationError(f"{name} shape {array.shape} != {shape}")
        if rows and owners.min() < 0:
            raise ValidationError("member owners name a negative group")
        #: Members per group: appends count them in place, where the
        #: running sum would be rewritten from the first grown group on.
        self._count_store = np.bincount(owners, minlength=count)
        if self._count_store.shape[0] != count:
            raise ValidationError(
                f"member owners name group {self._count_store.shape[0] - 1} "
                f"of {count}"
            )
        self._group_count = count
        self._row_count = rows
        self._handle_store = handles
        self._member_store = member_matrix
        self._centroid_store = centroids
        self._ed_store = ed_radii
        self._cheb_store = cheb_radii
        #: Owning group of every store row.
        self._row_group = owners
        #: Groups the ``groups`` view has built; an append drops the ones
        #: it grows.
        self._built: dict[int, SimilarityGroup] = {}
        #: Row means of the centroids, the column incremental assignment
        #: prescreens with: derived, never persisted, and kept only where
        #: assignment can happen.
        self._mean_store = centroids.mean(axis=1) if writable else None
        self._addressed: tuple = ()  # native_stores: weak stores, addresses

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
        """Running sum of the member counts: a fresh ``(G+1,)`` array,
        group ``g`` has ``offsets[g+1] - offsets[g]`` members."""
        offsets = np.zeros(self._group_count + 1, dtype=np.int64)
        np.cumsum(self._count_store[: self._group_count], out=offsets[1:])
        return offsets

    def native_stores(self) -> tuple[int, int]:
        """Addresses of the (C-contiguous) centroid stack and ``int64`` member
        counts, which the native fast walk reads in place: cached per store,
        held weakly so that no copy of the bucket reads another's memory."""
        stores, held = (self._centroid_store, self._count_store), self._addressed
        if not held or held[0]() is not stores[0] or held[1]() is not stores[1]:
            if not all(a.flags.c_contiguous for a in stores):  # the C reads rows by offset
                raise InvariantError(f"length-{self.length} stores are not C-contiguous")
            held = self._addressed = (*map(weakref.ref, stores), *(a.ctypes.data for a in stores))
        return held[2:]

    @property
    def cardinalities(self) -> np.ndarray:
        """Member count of every group, as a fresh ``(G,)`` array."""
        return self._count_store[: self._group_count].copy()

    def members_in(self, g_list: list[int]) -> int:
        """Combined member count of the groups *g_list* (builds no group)."""
        count = self._count_store.item
        return sum(count(g) for g in g_list)

    def group_rows(
        self, g_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the members of groups *g_idx* live: their store rows (to
        index :attr:`member_matrix`), ``(series_index, start)`` handles
        and owning groups, row for row — index arithmetic only, no group
        is built.  The one lookup that resolves a bucket's groups (the
        query stage resolves them base-wide, through the
        :class:`MemberTable`); *g_idx* indexes like ``groups[i]``
        (negatives wrap, out of range raises ``IndexError``).  Rows come
        in store order; within a group that is arrival order, the order
        of its ``members``.
        """
        wanted = np.zeros(self._group_count, dtype=bool)
        wanted[g_idx] = True
        row_group = self._row_group[: self._row_count]
        rows = np.flatnonzero(wanted[row_group])
        return rows, self._handle_store[rows], row_group[rows]

    def store_rows(self, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """``(handles, owners)`` of the store rows from *first* on, in
        store order: each row's ``(series_index, start)`` and group."""
        stop = self._row_count
        return self._handle_store[first:stop], self._row_group[first:stop]

    @property
    def member_matrix(self) -> np.ndarray:
        """Every member's values as one 2-D array, in store order (live
        view); resolve groups' rows with :meth:`group_rows`."""
        return self._member_store[: self._row_count]

    def member_rows(self, g_idx: int) -> np.ndarray:
        """Values of group *g_idx*'s members, ordered as its ``members``."""
        return self._member_store[self.group_rows(np.array([g_idx]))[0]]

    def _reserve(self, stores: tuple[str, ...], used: int, needed: int) -> None:
        """Reallocate each of the named *stores* that cannot hold *needed*
        rows, keeping its first *used* (amortised doubling)."""
        for name in stores:
            store = getattr(self, name)
            if needed > store.shape[0]:
                setattr(self, name, _grown(store, used, needed=needed))

    def make_private(self) -> None:
        """Copy a read-only bucket's stores out of its mapping, so that it
        accepts :meth:`append` from now on (a no-op on a writable bucket).

        The mapping itself stays write-protected; the copies get the
        doubling headroom of ``_grown`` and the centroid means are derived
        here.  How a pool worker applies the rows its supervisor appended.
        """
        if self.writable:
            return
        rows, count = self._row_count, self._group_count
        for name, used in (
            ("_handle_store", rows),
            ("_member_store", rows),
            ("_row_group", rows),
            ("_count_store", count),
            ("_centroid_store", count),
            ("_ed_store", count),
            ("_cheb_store", count),
        ):
            setattr(self, name, _grown(getattr(self, name), used))
        self._mean_store = self.centroids.mean(axis=1)
        self.writable = True

    def append(
        self, owners: np.ndarray, handles: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Append members — *rows* of values with their ``(series_index,
        start)`` *handles* — to the groups *owners*, growing the stores in
        place with amortised doubling.

        Owners at or past ``group_count`` name new groups, numbered in the
        order they are seeded: a new group's first row is its seed — the
        representative — and any later row may join it, so one call may
        replay the rows of several earlier ones.  For a join the caller
        guarantees the construction invariant (``ED_n`` to the
        representative within the group radius).  Radii are maxima,
        updated exactly, and no representative moves, so existing
        members' guarantees are untouched and any grouping of the same
        rows into calls gives the same stores.  Returns each row's
        Chebyshev deviation from its representative, which the radii took.
        """
        if not self.writable:
            raise ReadOnlyBaseError(
                f"length-{self.length} bucket is attached read-only"
            )
        known = self._group_count
        # The highest group named so far rises at each new group's first
        # row; seeded in order, it rises by one each time.
        top = np.maximum.accumulate(np.maximum(owners, known - 1))
        total = int(top[-1]) + 1
        if total > known:
            rises = np.empty(top.shape, dtype=bool)
            rises[0] = top[0] >= known
            np.not_equal(top[1:], top[:-1], out=rises[1:])
            first = np.flatnonzero(rises)
            if first.size != total - known:
                raise ValidationError(
                    f"new groups must be seeded in order from {known}, "
                    "each at its first row"
                )
            seeds = rows[first]
            self._reserve(
                ("_centroid_store", "_ed_store", "_cheb_store", "_mean_store"),
                known,
                total,
            )
            self._reserve(("_count_store",), known, total)
            self._centroid_store[known:total] = seeds
            self._ed_store[known:total] = 0.0
            self._cheb_store[known:total] = 0.0
            # sum / width is mean() without its Python-level wrapper.
            self._mean_store[known:total] = seeds.sum(axis=1) / seeds.shape[1]
            self._count_store[known:total] = 0
            self._group_count = total
        start, stop = self._row_count, self._row_count + rows.shape[0]
        self._reserve(("_member_store", "_handle_store", "_row_group"), start, stop)
        self._member_store[start:stop] = rows
        self._handle_store[start:stop] = handles
        self._row_group[start:stop] = owners
        self._row_count = stop
        deviations = np.abs(rows - self._centroid_store[owners])
        width = deviations.shape[1]
        cheb = deviations.max(axis=1)
        np.maximum.at(self._ed_store, owners, deviations.sum(axis=1) / width)
        np.maximum.at(self._cheb_store, owners, cheb)
        np.add.at(self._count_store, owners, 1)
        if self._built:
            for g_idx in owners.tolist():
                self._built.pop(g_idx, None)
        return cheb


class OnexBase:
    """The compact ONEX base over one dataset."""

    def __init__(self, dataset: TimeSeriesDataset, config: BuildConfig) -> None:
        if len(dataset) == 0:
            raise DatasetError("cannot build a base over an empty dataset")
        self._config = config
        self._raw_dataset = dataset
        self._norm_bounds = dataset.global_bounds() if config.normalize else None
        self._dataset = dataset.normalized() if config.normalize else dataset
        self._series_stores: dict[tuple[int, int], np.ndarray] = {}
        self._buckets: dict[int, LengthBucket] = {}
        self._rep_table: RepresentativeTable | None = None
        self._member_table: MemberTable | None = None
        #: The build's wall seconds; the counts are read off the buckets.
        self._build_seconds = 0.0
        #: True for mmap-attached bases served by pool workers: every
        #: mutation path raises :class:`ReadOnlyBaseError` (writes belong
        #: to the supervisor, which republishes a fresh snapshot).
        self.read_only = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def build(self, deadline: Deadline | None = None) -> BaseStats:
        """Index every series, in series order, into fresh buckets;
        idempotent (rebuilds from scratch).

        A build is appends to an empty base: each series goes through
        ingestion's decide/apply pair (:meth:`_index_windows`), so a
        representative is its group's first window and never moves, and
        building N series gives the structure of building the first and
        :meth:`add_series`-ing the rest.  A *deadline* is checked before
        each series and raises with the progress so far.  The buckets are
        published only after the last series, so a build that raises
        leaves the base as it was: unbuilt, or the previous build intact.
        """
        started = time.perf_counter()
        cfg = self._config
        fresh = OnexBase.from_attached(
            self._raw_dataset, self._dataset, cfg, self._norm_bounds, {}, 0.0
        )
        total = len(self._dataset)
        for index in range(total):
            faults.fire("build.series", series=index)
            if deadline is not None:
                deadline.check(
                    "base build",
                    {
                        "series_indexed": index,
                        "series_total": total,
                        "groups": sum(b.group_count for b in fresh._buckets.values()),
                    },
                )
            fresh._index_windows(index, 0)
        if not fresh._buckets:
            raise DatasetError(
                "no subsequences in the configured length range "
                f"[{cfg.min_length}, {cfg.max_length}]"
            )
        self._buckets = fresh._buckets
        self._rep_table = self._member_table = None
        self._build_seconds = time.perf_counter() - started
        stats = self.stats
        _BUILDS_TOTAL.inc()
        _BUILD_WINDOWS.inc(stats.subsequences)
        _BUILD_GROUPS.inc(stats.groups)
        _BUILD_SECONDS.inc(stats.build_seconds)
        _BUILD_LAST.set(stats.build_seconds)
        return stats

    @classmethod
    def from_attached(
        cls,
        raw_dataset: TimeSeriesDataset,
        norm_dataset: TimeSeriesDataset,
        config: BuildConfig,
        norm_bounds: tuple[float, float] | None,
        buckets: dict[int, LengthBucket],
        build_seconds: float,
        *,
        read_only: bool = False,
    ) -> "OnexBase":
        """Assemble a built base from pre-attached parts, copying nothing.

        The mmap snapshot loader's constructor: unlike ``__init__`` it
        does not renormalise the dataset (*norm_dataset* is handed in,
        typically wrapping the snapshot's own normalised arrays), so an
        entirely mmap-backed base touches no series values at open time.
        *build_seconds* is the saved build's wall time (see :attr:`stats`).
        """
        self = object.__new__(cls)
        self._config = config
        self._raw_dataset = raw_dataset
        self._norm_bounds = norm_bounds
        self._dataset = norm_dataset
        self._series_stores = {}
        self._buckets = dict(buckets)
        self._rep_table = self._member_table = None
        self._build_seconds = build_seconds
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
        """The buckets' member and group counts, length by length and
        summed, with the build's wall seconds."""
        per_length = tuple(
            LengthBuildStats(bucket.length, bucket.member_count, bucket.group_count)
            for bucket in self.buckets()
        )
        return BaseStats(
            subsequences=sum(entry.subsequences for entry in per_length),
            groups=sum(entry.groups for entry in per_length),
            lengths=len(per_length),
            build_seconds=self._build_seconds,
            per_length=per_length,
        )

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

    def grow_series(
        self, name: str, values: ArrayLike, metadata: dict | None = None
    ) -> tuple[int, int, np.ndarray]:
        """Append the points *values* to series *name*, creating it (with
        *metadata*) on first contact; the one way a series gains points.

        Returns ``(series index, previous length, normalised chunk)``;
        the caller indexes the windows the points complete.  Raises, with
        nothing changed, when the base is unbuilt or read-only or the
        chunk is invalid.
        """
        self._require_built()
        self._require_writable()
        return self._grow_series(name, values, metadata)

    def _grow_series(
        self, name: str, values: ArrayLike, metadata: dict | None = None
    ) -> tuple[int, int, np.ndarray]:
        """:meth:`grow_series` without the writable check, which
        :meth:`apply_tail` also runs on a read-only base.

        The chunk is checked and normalised pointwise with the build-time
        bounds (so chunk by chunk equals the whole series at once) before
        anything changes.  Raw and normalised points then land in stores
        this base owns, grown by amortised doubling (a series' first
        growth copies its current values), and each dataset gets a
        read-only view of the stored prefix: views handed out earlier keep
        their bytes, since growth only writes past them.
        """
        if not isinstance(name, str) or not name:
            raise ValidationError("series name must be a non-empty string")
        chunk = np.asarray(values, dtype=np.float64)
        channels = self.channels
        if channels == 1:
            if chunk.ndim != 1 or chunk.size == 0:
                raise ValidationError(
                    "appended values must be a non-empty 1-D sequence, got "
                    f"shape {chunk.shape}"
                )
        elif chunk.ndim != 2 or chunk.shape[0] == 0 or chunk.shape[1] != channels:
            raise ValidationError(
                f"appended values must be a non-empty (points, {channels}) "
                f"array for this {channels}-channel series, got shape "
                f"{chunk.shape}"
            )
        if not np.all(np.isfinite(chunk)):
            raise ValidationError("appended values contain NaN/inf")
        normalized = chunk
        if self._norm_bounds is not None:
            lo, hi = self._norm_bounds
            normalized = minmax_normalize(chunk, lo=lo, hi=hi)
        raw = self._raw_dataset
        new = name not in raw
        if new:
            index, previous, metadata = len(raw), 0, metadata or {}
        else:
            index = raw.index_of(name)
            previous, metadata = len(raw[index]), raw[index].metadata
        stop = previous + chunk.shape[0]
        datasets = [(raw, chunk)]
        if self._dataset is not raw:
            datasets.append((self._dataset, normalized))
        for which, (dataset, points) in enumerate(datasets):
            store = self._series_stores.get(
                (which, index), chunk[:0] if new else dataset[index].values
            )
            if stop > store.shape[0]:
                store = self._series_stores[which, index] = _grown(
                    store, previous, needed=stop
                )
            store[previous:stop] = points
            view = store[:stop]
            view.flags.writeable = False
            series = TimeSeries._wrap(name, view, metadata)
            if new:
                dataset.add(series)
            else:
                dataset.replace_series(series)
        return index, previous, normalized

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
        if not isinstance(series, TimeSeries):
            raise ValidationError(
                f"expected TimeSeries, got {type(series).__name__}"
            )
        if series.name in self._raw_dataset:
            raise DatasetError(f"duplicate series name: {series.name!r}")
        series_index = self.grow_series(series.name, series.values, series.metadata)[0]
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
        the streaming ingestor and WAL replay: :meth:`_index_windows` on a
        built, writable base.
        """
        self._require_built()
        self._require_writable()
        return self._index_windows(series_index, previous_length)

    def _index_windows(
        self, series_index: int, previous_length: int
    ) -> WindowAssignments:
        """:meth:`index_new_windows` without its checks, which
        :meth:`build` also runs, series by series, on an empty base.

        Two halves.  The decide half places every length's windows in one
        call of the native ``assign_windows`` (:mod:`repro.distances.native`)
        when it loaded, else of its reference, :meth:`_assign_windows`,
        length by length.  The apply half, :meth:`apply_windows`, appends
        them — the one path by which a pool worker also applies what this
        process appended.  Returns the :class:`WindowAssignments` of the
        indexed windows, in (length, start) order.
        """
        cfg = self._config
        step = cfg.step
        values = self._dataset[series_index].values
        n = values.shape[0]
        # Per length: the first start past the windows already indexed
        # (starts <= previous_length - length, on the step grid) and the
        # number of windows from there.
        plan = []
        for length in range(cfg.min_length, min(cfg.max_length, n) + 1):
            first = -(-max(0, previous_length - length + 1) // step) * step
            if first <= n - length:
                plan.append((length, first, (n - length - first) // step + 1))
        if not plan:
            none = np.empty(0, dtype=np.int64)
            return WindowAssignments(series_index, none, none, none, none > 0)
        spans, firsts, counts = (list(column) for column in zip(*plan))
        total = sum(counts)
        lengths = np.repeat(spans, counts)
        before = np.cumsum(counts) - counts
        starts = np.repeat(np.subtract(firsts, step * before), counts)
        starts += step * np.arange(total)
        handles = np.column_stack((np.full(total, series_index), starts))
        # Every window mean from one running sum over the tail the windows
        # cover.  A running sum of m terms is off by at most m * eps *
        # sum|v| and a mean is the difference of two over the window's
        # width: the prescreen is widened by that much (slack).
        tail = int(starts.min())
        flat = values[tail:].reshape(n - tail, -1).sum(axis=1)
        csum = np.concatenate(([0.0], np.cumsum(flat)))
        widths = lengths * self.channels
        means = (csum[starts + lengths - tail] - csum[starts - tail]) / widths
        slack = 2.0 * flat.size * np.finfo(float).eps * np.abs(flat).sum() / widths[0]
        buckets = [self._bucket_for(length) for length in spans]
        scope = sum(b.group_count * count for b, count in zip(buckets, counts))
        if native.KERNEL is not None:
            stacks = [(b.centroids, b.centroid_means) for b in buckets]
            groups, created, order, evaluated = native.assign_windows(
                values, step, plan, stacks, means, slack, cfg.group_radius, _LB_MARGIN
            )
        else:
            groups, created, order, evaluated = self._assign_windows(
                buckets, counts, lengths, handles, means, slack
            )
        self.apply_windows(lengths, groups[order], handles[order])
        return WindowAssignments(
            series_index, lengths, starts, groups, created, scope, evaluated
        )

    def _bucket_for(self, length: int) -> LengthBucket:
        """The bucket of *length*, created empty (and writable) if missing."""
        bucket = self._buckets.get(length)
        if bucket is None:
            width = length * self.channels
            bucket = self._buckets[length] = LengthBucket(
                length,
                np.empty((0, 2), dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty((0, width)),
                np.empty((0, width)),
                np.empty(0),
                np.empty(0),
                channels=self.channels,
                writable=True,
            )
        return bucket

    def _gather(
        self, lengths: np.ndarray, handles: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The values of the windows of *lengths* at *handles*,
        channel-flattened to the stored row layout and laid end to end,
        with each window's offset there: one fancy index per series."""
        channels = self.channels
        widths = lengths * channels
        ends = np.cumsum(widths)
        at = ends - widths
        index = np.arange(ends[-1]) + np.repeat(handles[:, 1] * channels - at, widths)
        series = handles[:, 0]
        if (series == series[0]).all():  # what one ingestion call appends
            return self._dataset[int(series[0])].values.reshape(-1)[index], at
        flat = np.empty(index.size)
        owner = np.repeat(series, widths)
        for number in np.unique(series).tolist():
            mine = owner == number
            flat[mine] = self._dataset[number].values.reshape(-1)[index[mine]]
        return flat, at

    def apply_windows(
        self, lengths: np.ndarray, owners: np.ndarray, handles: np.ndarray
    ) -> None:
        """The apply half of ingestion: append the windows of *lengths* at
        *handles* to the groups *owners* — one entry per window, a
        length's windows together in its store order (see
        :meth:`LengthBucket.append` for how owners seed groups) — then
        extend both tables once.

        A bucket is created if missing and made private if attached
        read-only; the windows are gathered from this base's own
        (normalised) series, which must already hold the points.  This is
        the one path by which rows enter a bucket after a build: the
        decide half of :meth:`index_new_windows` feeds it, and so does
        :meth:`apply_tail` with rows another process decided.
        """
        if not lengths.size:
            return
        values, at = self._gather(lengths, handles)
        cuts = np.flatnonzero(lengths[1:] != lengths[:-1]) + 1
        bounds = [0, *cuts.tolist(), lengths.size]
        heads = np.array(bounds[:-1])
        appended: list[tuple[LengthBucket, np.ndarray]] = []
        cheb, stored = [], []
        for lo, hi, length, offset in zip(
            bounds, bounds[1:], lengths[heads].tolist(), at[heads].tolist()
        ):
            count = hi - lo
            bucket = self._bucket_for(length)
            bucket.make_private()
            width = length * self.channels
            stored.append(bucket.member_count - lo)
            window = values[offset : offset + count * width].reshape(count, width)
            cheb.append(bucket.append(owners[lo:hi], handles[lo:hi], window))
            appended.append((bucket, owners[lo:hi]))
        reps = self._rep_table
        if reps is not None:
            table_rows = reps.extend(appended, np.concatenate(cheb))
            if self._member_table is not None:
                self._member_table.extend(
                    reps.count,
                    table_rows,
                    _endpoints(values, at, lengths * self.channels),
                    lengths,
                    np.repeat(stored, np.diff(bounds)) + np.arange(lengths.size),
                    handles,
                    owners,
                )

    # ------------------------------------------------------------------
    # Tails: what a base gained since a mark, as another process applies it
    # ------------------------------------------------------------------

    def mark(self) -> tuple[dict[int, int], list[int]]:
        """Where this base stands: each bucket's store rows and each
        series' points.  :meth:`tail` reads what was added after it."""
        return (
            {length: b.member_count for length, b in self._buckets.items()},
            [len(s) for s in self._raw_dataset],
        )

    def tail(self, mark: tuple[dict[int, int], list[int]]) -> dict:
        """Everything this base gained since *mark*, as plain JSON values.

        ``series``: ``[index, name, metadata, raw]`` per series that
        grew — the raw points appended since the mark, which are finite,
        so the tail is always strict JSON; ``name`` and ``metadata`` are
        set only for a series the mark did not hold.  ``buckets``:
        ``[length, owners, handles]`` per bucket that grew —
        :meth:`LengthBucket.store_rows` past the mark, handles flattened.
        Nothing derivable is carried: :meth:`apply_tail` normalises the
        points, gathers windows from them, and radii follow from the rows.
        """
        rows, points = mark
        series = []
        for index, values in enumerate(self._raw_dataset):
            seen = points[index] if index < len(points) else 0
            if len(values) > seen:
                new = index >= len(points)
                series.append([
                    index,
                    values.name if new else None,
                    dict(values.metadata) if new else None,
                    values.values[seen:].tolist(),
                ])
        buckets = []
        for length in sorted(self._buckets):
            bucket = self._buckets[length]
            first = rows.get(length, 0)
            if bucket.member_count > first:
                handles, owners = bucket.store_rows(first)
                buckets.append([length, owners.tolist(), handles.ravel().tolist()])
        return {"series": series, "buckets": buckets}

    def apply_tail(self, tail: dict) -> None:
        """Apply a :meth:`tail` read off another base at this base's state:
        grow the series through :meth:`_grow_series`, then append the rows
        through :meth:`apply_windows`.  A read-only (attached) base accepts
        this — its touched buckets become private — while every other
        mutation path still raises."""
        self._require_built()
        for index, name, metadata, points in tail["series"]:
            self._grow_series(name or self._raw_dataset[index].name, points, metadata)
        lengths, owners, handles = [], [], []
        for length, grown, at in tail["buckets"]:
            lengths.append(np.full(len(grown), int(length)))
            owners += grown
            handles += at
        if lengths:
            self.apply_windows(
                np.concatenate(lengths),
                np.array(owners, dtype=np.int64),
                np.array(handles, dtype=np.int64).reshape(-1, 2),
            )

    def _assign_windows(
        self,
        buckets: list[LengthBucket],
        counts: list[int],
        lengths: np.ndarray,
        handles: np.ndarray,
        means: np.ndarray,
        slack: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The decide half without the native kernel, and the reference
        ``native.assign_windows`` answers to bit for bit: the windows of
        *lengths* at *handles*, ``counts[i]`` of them against ``buckets[i]``
        (read, not changed), placed by :func:`~repro.core.grouping.assign_rows`
        with *slack* for how *means* were summed.  Returns each window's
        group, whether it seeded it, the store order and the prescreen's
        exact evaluations, as that function does, over all lengths.
        """
        windows, at = self._gather(lengths, handles)
        groups = np.empty(lengths.size, dtype=np.int64)
        created = np.zeros(lengths.size, dtype=bool)
        order: list[int] = []
        evaluated = lo = 0
        for bucket, count in zip(buckets, counts):
            width = bucket.length * self.channels
            block = windows[at[lo] : at[lo] + count * width].reshape(count, width)
            mine, seeded, placed, pairs = assign_rows(
                block,
                means[lo : lo + count],
                bucket.centroids,
                bucket.centroid_means,
                self._config.group_radius,
                slack,
            )
            groups[lo : lo + count] = mine
            created[lo : lo + count] = seeded
            order += [lo + i for i in placed]
            evaluated += pairs
            lo += count
        return groups, created, np.array(order, dtype=np.int64), evaluated

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
        ``(series_index, start)`` handle, group by group (a stable sort
        of the owners, so the store order appends left is not seen) —
        everything the query layers read, nothing timing-dependent.  Two
        bases are result-identical iff their structure fingerprints
        match; a build equals a first-series build plus
        :meth:`add_series` of the rest by this hash
        (``tests/test_build_pipeline.py``).
        """
        self._require_built()
        digest = hashlib.sha256()
        for length in self.lengths:
            bucket = self._buckets[length]
            handles, owners = bucket.store_rows()
            digest.update(np.int64(length).tobytes())
            for array in (
                bucket.centroids,
                bucket.ed_radii,
                bucket.cheb_radii,
                bucket.member_offsets,
                handles[np.argsort(owners, kind="stable")],
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

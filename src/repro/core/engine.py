"""The ONEX engine facade — Fig. 1's architecture as one object.

The engine owns named datasets and their bases (preprocessing layer),
routes exploratory operations to the query processor (middle layer), and
exposes the summaries the visual-analytics layer consumes.  The demo's
client/server module (:mod:`repro.server`) is a thin JSON wrapper around
this class; examples and benchmarks drive it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.base import BaseStats, OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.query import Match, QueryProcessor
from repro.core.seasonal import SeasonalPattern, find_seasonal_patterns
from repro.core.sensitivity import SensitivityProfile, similarity_profile
from repro.core.threshold import ThresholdRecommendation, recommend_thresholds
from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.distances.normalize import minmax_normalize
from repro.exceptions import DatasetError, ValidationError

__all__ = ["LoadedDataset", "OnexEngine"]


@dataclass
class LoadedDataset:
    """One dataset registered with the engine, plus its built base.

    ``ingestor`` is the dataset's streaming write path, created lazily on
    the first streaming operation (:mod:`repro.stream`).
    """

    dataset: TimeSeriesDataset
    base: OnexBase
    processor: QueryProcessor
    stats: BaseStats
    ingestor: object | None = None
    #: Structure fingerprint captured at load time — the determinism
    #: handle surfaced by ``GET /health`` (incremental ingestion after
    #: load intentionally does not refresh it).
    fingerprint: str | None = None
    #: Lazily built processors for per-request metric overrides, keyed by
    #: metric name; ``processor`` stays the default-config one.
    metric_processors: dict = field(default_factory=dict)
    #: The processor that answered the most recent query operation —
    #: what ``last_query_stats`` (and thus ``explain``) reads.
    active_processor: QueryProcessor | None = None


class OnexEngine:
    """Facade over preprocessing, querying, and analytics summaries."""

    def __init__(self, query_config: QueryConfig | None = None) -> None:
        self._query_config = query_config or QueryConfig()
        self._loaded: dict[str, LoadedDataset] = {}

    # ------------------------------------------------------------------
    # Data loading (the demo's "Data Loading into ONEX" step)
    # ------------------------------------------------------------------

    def load_dataset(
        self,
        dataset: TimeSeriesDataset,
        *,
        similarity_threshold: float | None = None,
        min_length: int | None = None,
        max_length: int | None = None,
        step: int = 1,
        normalize: bool = True,
        num_workers: int = 1,
        build_executor: str = "process",
        deadline=None,
    ) -> BaseStats:
        """Register *dataset* and build its ONEX base.

        When *similarity_threshold* is omitted it is chosen data-driven via
        the threshold recommender at a mid-range subsequence length.  The
        length range defaults to the collection's shortest series length on
        both ends widened down to half of it — a pragmatic default that
        keeps preprocessing proportional to the data.

        *num_workers* fans the per-length build shards over a process (or
        thread, per *build_executor*) pool; every setting produces an
        identical base, so it is purely a build-latency knob.  A
        *deadline* (:class:`~repro.core.deadline.Deadline`) bounds the
        build cooperatively, checked between merged shards; when it
        fires, no partially built dataset is registered.
        """
        if dataset.name in self._loaded:
            raise DatasetError(f"dataset {dataset.name!r} already loaded")
        shortest, _ = dataset.length_range()
        if max_length is None:
            max_length = shortest
        if min_length is None:
            min_length = max(2, max_length // 2)
        if similarity_threshold is None:
            probe = max(2, min(max_length, (min_length + max_length) // 2))
            similarity_threshold = recommend_thresholds(
                dataset, probe, normalize=normalize
            ).default
        config = BuildConfig(
            similarity_threshold=similarity_threshold,
            min_length=min_length,
            max_length=max_length,
            step=step,
            normalize=normalize,
            num_workers=num_workers,
            build_executor=build_executor,
        )
        base = OnexBase(dataset, config)
        stats = base.build(deadline)
        self._loaded[dataset.name] = LoadedDataset(
            dataset=dataset,
            base=base,
            processor=QueryProcessor(base, self._query_config),
            stats=stats,
            fingerprint=base.structure_fingerprint(),
        )
        return stats

    def restore_dataset(
        self,
        dataset: TimeSeriesDataset,
        base: OnexBase,
        *,
        monitors=(),
        event_seq: int = 0,
        stream_counters: dict | None = None,
        fingerprint: str | None = None,
    ) -> BaseStats:
        """Register an already-built *base* (checkpoint recovery path).

        Unlike :meth:`load_dataset` nothing is rebuilt: *base* and its
        *dataset* come out of a checkpoint's snapshot directory.
        *monitors* / *event_seq* / *stream_counters*
        re-seed the streaming layer from the checkpoint manifest so a
        restarted server continues event numbering monotonically; the
        ingestor is created eagerly whenever any of them is present.
        *fingerprint* supplies a precomputed structure fingerprint —
        pool workers attaching an mmap snapshot pass the stored one so
        registration does not fault every page in just to rehash it.
        """
        if dataset.name in self._loaded:
            raise DatasetError(f"dataset {dataset.name!r} already loaded")
        entry = LoadedDataset(
            dataset=dataset,
            base=base,
            processor=QueryProcessor(base, self._query_config),
            stats=base.stats,
            fingerprint=(
                fingerprint
                if fingerprint is not None
                else base.structure_fingerprint()
            ),
        )
        self._loaded[dataset.name] = entry
        if monitors or event_seq or stream_counters:
            from repro.stream import StreamIngestor

            ingestor = StreamIngestor(base)
            ingestor.registry.restore(monitors, event_seq)
            if stream_counters:
                ingestor.restore_counters(**stream_counters)
            entry.ingestor = ingestor
        return entry.stats

    def add_series(self, dataset_name: str, series) -> dict:
        """Index one new series into a loaded dataset incrementally.

        Uses the base's fixed-representative update (invariant-safe, no
        rebuild); the series becomes immediately queryable.
        """
        return self._entry(dataset_name).base.add_series(series)

    def unload_dataset(self, name: str) -> None:
        self._entry(name)
        del self._loaded[name]

    # ------------------------------------------------------------------
    # Streaming ingestion and live monitoring (repro.stream)
    # ------------------------------------------------------------------

    def stream(self, dataset_name: str):
        """The dataset's :class:`~repro.stream.StreamIngestor` (lazy)."""
        from repro.stream import StreamIngestor

        entry = self._entry(dataset_name)
        if entry.ingestor is None:
            entry.ingestor = StreamIngestor(entry.base)
        return entry.ingestor

    def append_points(
        self, dataset_name: str, series_name: str, values, deadline=None
    ) -> dict:
        """Append live points to a series, indexing completed windows.

        The series is created on first contact; values are raw units,
        normalised with the base's build-time bounds.  Returns the ingest
        summary, including any monitor events the append emitted.
        """
        return self.stream(dataset_name).append_points(series_name, values, deadline)

    def register_monitor(
        self,
        dataset_name: str,
        pattern,
        epsilon: float | None = None,
        *,
        series: str | None = None,
        name: str | None = None,
        normalize: bool = True,
    ) -> dict:
        """Create a standing pattern query over live appends.

        *pattern* is raw-unit values (normalised into the base's value
        space like any query, unless *normalize* is false) or a
        :class:`~repro.data.dataset.SubsequenceRef` into the indexed
        dataset.  *epsilon* is a summed L1 warping cost in that value
        space; omitted, it defaults to the build similarity threshold
        times the maximal warping-path length ``2m - 1`` — the raw-cost
        equivalent of one ONEX similarity threshold at pattern length
        ``m``.  Returns the monitor's description payload.
        """
        entry = self._entry(dataset_name)
        base = entry.base
        if isinstance(pattern, SubsequenceRef):
            values = base.dataset.values(pattern)
        else:
            values = np.asarray([float(v) for v in pattern], dtype=np.float64)
            bounds = base.normalization_bounds
            if normalize and bounds is not None:
                values = minmax_normalize(values, lo=bounds[0], hi=bounds[1])
        if epsilon is None:
            epsilon = base.config.similarity_threshold * (2 * len(values) - 1)
        monitor = self.stream(dataset_name).registry.register(
            values, float(epsilon), series=series, name=name
        )
        return monitor.describe()

    def unregister_monitor(self, dataset_name: str, name: str) -> None:
        """Remove a standing query; pending events stay pollable."""
        registry = self.stream_registry(dataset_name)
        if registry is None:
            raise DatasetError(f"no monitor named {name!r} (registered: [])")
        registry.unregister(name)

    def stream_state(self, dataset_name: str) -> dict:
        """Checkpointable streaming state (monitors, event seq, counters).

        Read-only like :meth:`stream_registry` — a dataset that never
        streamed reports the empty state without creating an ingestor.
        """
        entry = self._entry(dataset_name)
        ingestor = entry.ingestor
        if ingestor is None:
            return {"event_seq": 0, "monitors": [], "stream_counters": {}}
        snap = ingestor.registry.snapshot()
        return {
            "event_seq": snap["event_seq"],
            "monitors": snap["monitors"],
            "stream_counters": ingestor.counters(),
        }

    def stream_registry(self, dataset_name: str):
        """The dataset's monitor registry, or None before any streaming.

        Unlike :meth:`stream` this never creates the ingestor, so
        read-only callers (event polling under a shared lock) stay free
        of side effects.
        """
        entry = self._entry(dataset_name)
        return entry.ingestor.registry if entry.ingestor is not None else None

    def poll_events(self, dataset_name: str, since: int = 0, limit: int | None = None) -> list:
        """Monitor events with ``seq > since``, oldest first."""
        registry = self.stream_registry(dataset_name)
        return registry.poll(since, limit) if registry is not None else []

    def flush_monitors(self, dataset_name: str) -> list:
        """Flush pending SPRING candidates into events (end of stream).

        SPRING defers a report until no in-flight path can beat it, so a
        finite replay can end with its best match still pending; this
        emits those candidates.  Flushing mid-stream is allowed but, as
        with the reference matcher's ``finish``, a later overlapping
        match may then be reported again.
        """
        registry = self.stream_registry(dataset_name)
        return registry.flush() if registry is not None else []

    @property
    def dataset_names(self) -> list[str]:
        return sorted(self._loaded)

    def base(self, name: str) -> OnexBase:
        return self._entry(name).base

    def stats(self, name: str) -> BaseStats:
        return self._entry(name).stats

    def fingerprint(self, name: str) -> str | None:
        """The dataset's load-time base structure fingerprint."""
        return self._entry(name).fingerprint

    def refresh_fingerprint(self, name: str) -> str | None:
        """Recompute and store the dataset's structure fingerprint.

        Recovery calls this after the WAL tail replay: the snapshot taken
        at :meth:`restore_dataset` reflects the checkpoint, not the
        replayed mutations, and /health must report the served state.
        """
        entry = self._entry(name)
        entry.fingerprint = entry.base.structure_fingerprint()
        return entry.fingerprint

    def fingerprints(self) -> dict[str, str | None]:
        """Load-time structure fingerprints of every loaded dataset."""
        return {
            name: entry.fingerprint
            for name, entry in sorted(self._loaded.items())
        }

    def last_query_stats(self, name: str) -> dict:
        """The dataset processor's most recent ``QueryStats`` counters."""
        entry = self._entry(name)
        processor = entry.active_processor or entry.processor
        return processor.last_stats.as_dict()

    def _processor(self, name: str, metric: str | None = None) -> QueryProcessor:
        """The dataset's query processor for *metric* (default: config's).

        Processors are immutable over their config, so per-metric
        overrides get their own lazily built, cached instance; the
        default metric reuses the load-time processor, keeping the
        default path untouched.  An unknown metric name fails here in
        ``QueryConfig.__post_init__`` with a :class:`ValidationError`
        listing the registered names.
        """
        entry = self._entry(name)
        if metric is None or metric == self._query_config.metric:
            processor = entry.processor
        else:
            processor = entry.metric_processors.get(metric)
            if processor is None:
                config = replace(self._query_config, metric=str(metric))
                processor = QueryProcessor(entry.base, config)
                entry.metric_processors[metric] = processor
        entry.active_processor = processor
        return processor

    # ------------------------------------------------------------------
    # Exploratory operations (§3.3)
    # ------------------------------------------------------------------

    def best_match(self, dataset_name: str, query, *, metric=None, **kwargs) -> Match:
        """Best match for a sample sequence (Fig. 2's similarity search)."""
        return self._processor(dataset_name, metric).best_match(query, **kwargs)

    def k_best_matches(
        self, dataset_name: str, query, k: int, *, metric=None, **kwargs
    ) -> list[Match]:
        return self._processor(dataset_name, metric).k_best_matches(
            query, k, **kwargs
        )

    def batch_best_matches(
        self, dataset_name: str, queries, k: int = 1, *, metric=None, **kwargs
    ) -> list[list[Match]]:
        """The *k* best matches for every query of a batch, in one call.

        The multi-query execution layer
        (:meth:`repro.core.query.QueryProcessor.batch_matches`): shared
        prune state is prepared once, kernel stages stack across queries,
        and per-bucket kernel jobs fan out over a thread pool.  Results
        are identical to per-query :meth:`k_best_matches` calls.
        """
        return self._processor(dataset_name, metric).batch_matches(
            queries, k, **kwargs
        )

    def matches_within(
        self, dataset_name: str, query, threshold: float, *, metric=None, **kwargs
    ) -> list[Match]:
        return self._processor(dataset_name, metric).matches_within(
            query, threshold, **kwargs
        )

    def seasonal_patterns(
        self, dataset_name: str, series_name: str, length: int, threshold: float | None = None, **kwargs
    ) -> list[SeasonalPattern]:
        """Recurring patterns within one series (Fig. 4's Seasonal View)."""
        entry = self._entry(dataset_name)
        if threshold is None:
            threshold = entry.base.config.similarity_threshold
        series = entry.dataset[series_name]
        return find_seasonal_patterns(series, length, threshold, **kwargs)

    def recommend_thresholds(
        self, dataset_name: str, length: int, **kwargs
    ) -> ThresholdRecommendation:
        entry = self._entry(dataset_name)
        # The built base answers the sampling from its normalised value store.
        kwargs.setdefault("base", entry.base)
        return recommend_thresholds(entry.dataset, length, **kwargs)

    def similarity_profile(
        self, dataset_name: str, query, thresholds, **kwargs
    ) -> SensitivityProfile:
        """Match-count sensitivity across thresholds (§2's "varying
        parameters" exploration)."""
        return similarity_profile(
            self._entry(dataset_name).base, query, thresholds, **kwargs
        )

    # ------------------------------------------------------------------
    # Summaries for the visual layer
    # ------------------------------------------------------------------

    def overview(self, dataset_name: str, *, length: int | None = None, limit: int = 50) -> list[dict]:
        """Overview Pane payload: representatives with group cardinality.

        Groups are sorted by cardinality (the pane's colour intensity) and
        truncated to *limit*; *length* picks one indexed length (default:
        the longest, matching the demo's full-series overview).
        """
        base = self._entry(dataset_name).base
        if length is None:
            length = base.lengths[-1]
        bucket = base.bucket(length)
        cardinalities = bucket.cardinalities
        # Stable: equal cardinalities keep ascending group order.
        ranked = np.argsort(-cardinalities, kind="stable")[:limit].tolist()
        centroids = bucket.centroids
        return [
            {
                "group": (length, g),
                "cardinality": int(cardinalities[g]),
                "representative": centroids[g].tolist(),
            }
            for g in ranked
        ]

    def query_from_series(
        self, dataset_name: str, series_name: str, start: int = 0, length: int | None = None
    ) -> SubsequenceRef:
        """Build a query ref by brushing a stored series (Query Preview)."""
        entry = self._entry(dataset_name)
        series = entry.dataset[series_name]
        if length is None:
            length = len(series) - start
        if length < 2:
            raise ValidationError("brushed query must have at least 2 points")
        series.subsequence(start, length)  # validates the window
        return SubsequenceRef(entry.dataset.index_of(series_name), start, length)

    def _entry(self, name: str) -> LoadedDataset:
        try:
            return self._loaded[name]
        except KeyError:
            raise DatasetError(
                f"dataset {name!r} not loaded (loaded: {self.dataset_names})"
            ) from None

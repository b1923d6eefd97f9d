"""Seeded, stationary request plans.

The harness generates every request here from ``--seed``; the server
only ever sees the generated JSON.  Two runs at one seed send
byte-identical request streams (and ``explore_pooled`` replays
``explore_fine``'s plan exactly).
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from bench import spec


@dataclass(frozen=True)
class Catalog:
    """What the generator knows of the dataset: names and raw values."""

    dataset: str
    names: tuple[str, ...]
    values: tuple[np.ndarray, ...]
    lo: float
    hi: float


def catalog_of(dataset) -> Catalog:
    """The catalog of a :class:`repro.data.dataset.TimeSeriesDataset`."""
    lo, hi = dataset.global_bounds()
    return Catalog(
        dataset=dataset.name,
        names=tuple(dataset.names),
        values=tuple(np.asarray(s.values, dtype=float) for s in dataset),
        lo=float(lo),
        hi=float(hi),
    )


def build_dataset():
    """The MATTERS collection the server's ``load_dataset`` will build."""
    from repro.data.matters import build_matters_collection

    p = spec.DATASET_PARAMS
    return build_matters_collection(
        seed=p["seed"],
        years=p["years"],
        min_years=p["min_years"],
        indicators=tuple(p["indicators"]),
    )


def load_catalog() -> Catalog:
    return catalog_of(build_dataset())


@dataclass(frozen=True)
class Planned:
    """One request of a plan, with the class every table groups it by."""

    op: str
    params: dict

    @property
    def cls(self) -> str:
        return spec.OP_CLASS[self.op]


def render(requests) -> bytes:
    """Canonical bytes of a request sequence (what determinism means)."""
    return b"\n".join(
        json.dumps({"op": r.op, "params": r.params}, sort_keys=True).encode()
        for r in requests
    )


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _cycled(rng: np.random.Generator, items) -> Iterator:
    """Endless seeded draws in which every run of ``len(items)`` holds
    each item exactly once.

    Request cost differs tenfold between kinds, operand forms and query
    lengths; drawing those independently would make two seeds' windows
    differ mostly in how many expensive requests they happened to hold.
    Fixing the composition leaves the seed the choice of order, window
    and noise.
    """
    items = list(items)
    while True:
        for i in rng.permutation(len(items)):
            yield items[i]


def _block(mix: dict[str, int]) -> list[str]:
    return [kind for kind, count in mix.items() for _ in range(count)]


#: Brushed lengths in four bands, shortest to longest.
_LENGTH_BANDS = np.array_split(np.arange(spec.QUERY_LENGTHS[0], spec.QUERY_LENGTHS[1] + 1), 4)


def _lengths(rng: np.random.Generator) -> Iterator[int]:
    """Endless seeded query lengths: every length equally often, dealt
    in rounds of one length from each band.

    A query's cost grows with the square of its length (an exact k_best
    of 6-10 points costs 46 ms, of 21-24 points 218 ms), and a slow
    workload's window holds a few dozen requests — one ``query_batch`` of
    four long windows against one of four short ones moved its qps by a
    tenth.  The seed still decides which length of a band comes when.
    """
    while True:
        bands = [iter(rng.permutation(band)) for band in _LENGTH_BANDS]
        for _ in range(max(len(band) for band in _LENGTH_BANDS)):
            for i in rng.permutation(len(bands)):
                length = next(bands[i], None)
                if length is not None:
                    yield int(length)


def _windows(rng: np.random.Generator, cat: Catalog) -> Iterator[tuple[int, int, int]]:
    """(series, start, length) of seeded windows of the dataset."""
    for length in _lengths(rng):
        series = int(rng.integers(len(cat.names)))
        length = min(length, len(cat.values[series]))
        start = int(rng.integers(0, len(cat.values[series]) - length + 1))
        yield series, start, length


def _operands(rng: np.random.Generator, cat: Catalog) -> Iterator:
    """Alternately (in seeded order) brushed descriptors and explicit
    noisy value arrays."""
    windows = _windows(rng, cat)
    for brushed in _cycled(rng, (True, False)):
        series, start, length = next(windows)
        if brushed:
            yield {"series": cat.names[series], "start": start, "length": length}
        else:
            noise = rng.normal(0.0, spec.NOISE_SHARE * (cat.hi - cat.lo), length)
            yield (cat.values[series][start : start + length] + noise).tolist()


def explore_stream(cat: Catalog, seed: int) -> Iterator[Planned]:
    rng = _rng(seed, 0)
    ds = cat.dataset
    # One operand source per kind, so each kind sees every form and length.
    operands = {kind: _operands(rng, cat) for kind in spec.EXPLORE_MIX}
    browse = _cycled(rng, ("seasonal", "query_preview", "overview"))
    windows = _windows(rng, cat)
    for kind in _cycled(rng, _block(spec.EXPLORE_MIX)):
        if kind == "k_best":
            params = {"dataset": ds, "query": next(operands[kind]), "k": spec.K_BEST}
        elif kind == "best_match":
            params = {"dataset": ds, "query": next(operands[kind])}
        elif kind == "matches_within":
            params = {
                "dataset": ds, "query": next(operands[kind]), "threshold": spec.RANGE_THRESHOLD,
            }
        elif kind == "query_batch":
            queries = [next(operands[kind]) for _ in range(spec.BATCH_SIZE)]
            params = {"dataset": ds, "queries": queries, "k": 1}
        else:
            kind = next(browse)
            series, start, length = next(windows)
            params = {"dataset": ds}
            if kind == "seasonal":
                params.update(series=cat.names[series], length=spec.SEASONAL_LENGTH)
            elif kind == "query_preview":
                params.update(series=cat.names[series], start=start, length=length)
        yield Planned(kind, params)


def reader_stream(cat: Catalog, seed: int) -> Iterator[Planned]:
    """The ingest reads: the similarity mix plus a poll every 10th."""
    rng = _rng(seed, 1)
    operands = {kind: _operands(rng, cat) for kind in spec.READER_MIX}
    kinds = _cycled(rng, _block(spec.READER_MIX))
    sent = 0
    while True:
        sent += 1
        if sent % spec.POLL_EVERY == 0:
            yield Planned("poll_events", {"dataset": cat.dataset, "limit": 20})
            continue
        kind = next(kinds)
        params = {"dataset": cat.dataset, "query": next(operands[kind])}
        if kind == "k_best":
            params["k"] = spec.K_BEST
        yield Planned(kind, params)


def _walk(rng: np.random.Generator, cat: Catalog, origin: float, points: int) -> list[float]:
    steps = rng.normal(0.0, spec.NOISE_SHARE * (cat.hi - cat.lo), points)
    return np.clip(origin + np.cumsum(steps), cat.lo, cat.hi).tolist()


def writer_stream(cat: Catalog, seed: int) -> Iterator[Planned]:
    """The ingest writes: 4-point appends round-robin, 5 % new series."""
    rng = _rng(seed, 2)
    last = [float(v[-1]) for v in cat.values]
    appended = added = 0
    for kind in _cycled(rng, _block(spec.WRITER_MIX)):
        if kind == "add_series":
            added += 1
            origin = float(rng.uniform(cat.lo, cat.hi))
            yield Planned(
                "add_series",
                {
                    "dataset": cat.dataset,
                    "name": f"bench/{seed}-{added}",
                    "values": _walk(rng, cat, origin, spec.ADD_SERIES_POINTS),
                },
            )
            continue
        series = appended % len(cat.names)
        appended += 1
        values = _walk(rng, cat, last[series], spec.APPEND_POINTS)
        last[series] = values[-1]
        yield Planned(
            "append_points",
            {"dataset": cat.dataset, "series": cat.names[series], "values": values},
        )


def stream(workload: spec.Workload, cat: Catalog, seed: int) -> Iterator[Planned]:
    """The request stream of *workload*'s one closed-loop client.  An
    ingest stream alternates write and read, so every read follows a
    write (on a pool it finds the published snapshot stale)."""
    if not workload.ingest:
        return explore_stream(cat, seed)
    return chain.from_iterable(zip(writer_stream(cat, seed), reader_stream(cat, seed)))


def _shares(mix: dict[str, int], scale: float = 1.0) -> dict[str, float]:
    total = sum(mix.values())
    return {kind: scale * count / total for kind, count in mix.items()}


def mix(workload: spec.Workload) -> dict[str, float]:
    """The share of each operation in *workload*'s stream, as planned."""
    if workload.ingest:
        polls = 0.5 / spec.POLL_EVERY
        return {
            **_shares(spec.WRITER_MIX, 0.5),
            "poll_events": polls,
            **_shares(spec.READER_MIX, 0.5 - polls),
        }
    explore = _shares(spec.EXPLORE_MIX)
    browse = explore.pop("browse") / 3
    explore.update(seasonal=browse, query_preview=browse, overview=browse)
    return explore


def check_sample(cat: Catalog, seed: int, size: int = spec.CHECK_SAMPLE) -> list[Planned]:
    """The first read requests of the explore plan.

    Every workload answers this same sample (before any write), which is
    what lets pooled answers be compared with single-process ones.
    """
    return list(islice(explore_stream(cat, seed), size))


def monitor_requests(cat: Catalog) -> list[Planned]:
    """The two standing pattern monitors ingest workloads register at set-up."""
    return [
        Planned(
            "register_monitor",
            {
                "dataset": cat.dataset,
                "monitor": f"bench-monitor-{i}",
                "pattern": {"series": cat.names[i], "start": start, "length": length},
            },
        )
        for i, (start, length) in enumerate(((0, 12), (5, 8)))
    ]

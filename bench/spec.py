"""What the benchmark measures: the dataset, the load model, the five
workloads' deployments and every metric.

``BENCHMARK.json`` at the repo root is the one place that names the
workloads (with their reasons), the per-layer metrics and the end-to-end
metrics the driver gates on, with units, directions and bounds; this
module reads it (:func:`declared`) and adds only what that file has no
key for: how each workload is deployed, and the end-to-end metrics that
are reported without being gated.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from bench import ROOT

#: The ROADMAP floor: 50 series, 23 740 subsequences.
DATASET_PARAMS: dict = {
    "source": "matters",
    "seed": 5,
    "years": 40,
    "min_years": 34,
    "indicators": ["GrowthRate"],
    "min_length": 5,
    "max_length": 24,
}

#: The load is one closed-loop client on one connection, with no pause:
#: the simulated analyst waits for the reply and brushes the next window
#: at once, so exactly one of load generator and server runs at any time
#: (see ``bench/hostspeed.py`` for why nothing may run beside them).
#:
#: A reply later than this is a failure (the client's socket timeout),
#: so a request that hangs is counted in ``error_rate`` and cannot hold
#: the run open.
REQUEST_TIMEOUT_S = 10.0
#: ``peak_rss_mb`` samples the summed RSS of the server's session this
#: often during the window.
RSS_SAMPLE_SECONDS = 0.1
DEFAULT_SEED = 12
#: Untimed warm-up under load before the measured window opens.
WARMUP_SECONDS = 1.0
#: The window is also summarised as this many equal slices so a result
#: file carries its own within-run spread.
SLICES = 5
#: Times ``setup_s`` is taken per run (spawn -> /ready -> load_dataset);
#: the median is reported.
SETUP_REPEATS = 3
#: Read requests at the head of the explore plan that form the check sample.
CHECK_SAMPLE = 10
#: Traced run: fixed request counts so that counts repeat exactly.
TRACE_WARMUP_REQUESTS = 2
TRACE_REQUESTS = 60
#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

RANGE_THRESHOLD = 0.02
K_BEST = 5
BATCH_SIZE = 4
SEASONAL_LENGTH = 8
APPEND_POINTS = 4
ADD_SERIES_POINTS = 36
POLL_EVERY = 10
QUERY_LENGTHS = (6, 24)
#: Gaussian noise on explicit-array operands, as a share of the
#: dataset's raw value range: the best match is no longer the distance-0
#: self-hit (median top-1 distance 0.004), yet a range query of a noisy
#: window still returns tens of matches (median 18, none empty; at 2 %
#: the median is 6 and one in thirteen is empty).
NOISE_SHARE = 0.005

#: Requests of each kind in every run of 20 of an explore_* stream:
#: 50 % k_best, 20 % best_match, 15 % range, 5 % batch, 10 % browse.
EXPLORE_MIX: dict[str, int] = {
    "k_best": 10,
    "best_match": 4,
    "matches_within": 3,
    "query_batch": 1,
    "browse": 2,
}
#: Operation -> request class used in every table.
OP_CLASS: dict[str, str] = {
    "k_best": "similarity",
    "best_match": "similarity",
    "matches_within": "range",
    "query_batch": "batch",
    "seasonal": "browse",
    "query_preview": "browse",
    "overview": "browse",
    "append_points": "write",
    "add_series": "write",
    "poll_events": "poll",
}
#: The ingest reader: the similarity class in its explore proportions.
READER_MIX: dict[str, int] = {"k_best": 5, "best_match": 2}
#: The ingest writer: 95 % appends, 5 % new series.
WRITER_MIX: dict[str, int] = {"append_points": 19, "add_series": 1}


@functools.cache
def declared() -> dict:
    """``BENCHMARK.json``, read once."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Workload:
    """How one workload named in ``BENCHMARK.json`` is deployed."""

    name: str
    similarity_threshold: float
    mode: str
    workers: int
    ingest: bool

    @property
    def pooled(self) -> bool:
        return self.workers > 0

    def load_params(self) -> dict:
        """The ``load_dataset`` request that builds this workload's base."""
        return {**DATASET_PARAMS, "similarity_threshold": self.similarity_threshold}

    def serve_flags(self) -> list[str]:
        """``repro serve`` flags that differ from the defaults."""
        flags = ["--mode", self.mode, "--max-queue", "64"]
        if self.workers:
            flags += ["--workers", str(self.workers)]
        if self.ingest:
            flags += ["--checkpoint-every", "64"]
        return flags


WORKLOADS: tuple[Workload, ...] = (
    Workload("explore_fine", 0.05, "fast", 0, False),
    Workload("explore_coarse", 0.2, "exact", 0, False),
    Workload("explore_pooled", 0.05, "fast", 2, False),
    Workload("ingest_durable", 0.05, "fast", 0, True),
    Workload("ingest_pooled", 0.05, "fast", 2, True),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    #: ``None`` = no timing bound (error_rate / oracle_gap may not rise).
    bound: float | None = None
    #: Which workloads it applies to: "all", "explore" or "ingest".
    on: str = "all"

    def applies(self, workload: Workload) -> bool:
        return self.on == "all" or (self.on == "ingest") == workload.ingest


def gated() -> tuple[Metric, ...]:
    """The end-to-end metrics the driver rejects a later PR on.  Each
    applies to every workload and is never 0."""
    return tuple(
        Metric(m["name"], m["unit"], m["better"], m["bound"]) for m in declared()["end_to_end"]
    )


#: Printed, written to the result file and judged by ``bench.compare``
#: with these bounds, but not gated: they apply to some workloads only,
#: can be ``null``, or spread wider than the largest bound allowed.
REPORTED: tuple[Metric, ...] = (
    Metric("similarity_p50_ms", "ms", "lower", 0.25),
    Metric("similarity_p95_ms", "ms", "lower", 0.25),
    Metric("range_p50_ms", "ms", "lower", 0.25, on="explore"),
    Metric("write_p50_ms", "ms", "lower", 0.25, on="ingest"),
    Metric("write_p95_ms", "ms", "lower", 0.25, on="ingest"),
    Metric("recover_s", "s", "lower", 0.25, on="ingest"),
    Metric("cpu_ms_per_request", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.25),
    Metric("disk_bytes_per_write", "B", "lower", 0.10, on="ingest"),
    Metric("error_rate", "ratio", "lower"),
    Metric("oracle_gap", "ratio", "lower"),
)


def end_to_end() -> tuple[Metric, ...]:
    return gated() + REPORTED


def per_layer() -> tuple[Metric, ...]:
    return tuple(Metric(m["name"], m["unit"], m["better"]) for m in declared()["per_layer"])

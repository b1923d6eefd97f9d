"""Process-wide metrics registry with Prometheus text exposition.

Three instrument kinds, all label-aware and thread-safe:

- :class:`Counter` — monotone float accumulator (``inc``);
- :class:`Gauge` — last-write-wins value (``set`` / ``inc``);
- :class:`Histogram` — fixed-bucket cumulative histogram (``observe``)
  with ``_bucket{le=...}`` / ``_sum`` / ``_count`` exposition and
  bucket-interpolated quantile estimates.

The module-level :data:`REGISTRY` is the single process-wide instance
that the query cascade, base build, stream layer, and HTTP server all
publish into; ``GET /metrics`` renders it with :func:`render`, and
``GET /health`` reads its request figures from the same histogram.  The
per-call telemetry (``QueryStats``, ``LengthBuildStats``) remains as
*views* — their totals are folded into this registry at operation
boundaries.

A small exposition parser (:func:`parse_exposition`) lives here too so
tests and the load benchmark can round-trip the text format without an
external Prometheus client.

Cardinality rules (see DESIGN.md §7): label values must come from small
closed sets (operation names, outcome classes, stage names).  Dataset
names, request IDs, and anything user-controlled never become labels.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "histogram_quantile",
    "parse_exposition",
    "render",
]

# Default buckets suit millisecond-scale request latencies.
DEFAULT_BUCKETS = (
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(
        '%s="%s"' % (k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in pairs
    )
    return "{%s}" % body


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared plumbing: a name, help text, and per-label-set series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not name or not all(c.isalnum() or c == "_" for c in name):
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: dict[_LabelKey, object] = {}

    def labels_seen(self) -> list[dict[str, str]]:
        with self._lock:
            return [dict(key) for key in sorted(self._series)]


class Counter(_Metric):
    """Monotonically increasing accumulator."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: str) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(value)

    def value(self, **labels: str) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def _render(self) -> Iterable[str]:
        with self._lock:
            items = sorted(self._series.items())
        for key, value in items:
            yield f"{self.name}{_format_labels(key)} {_format_value(value)}"


class Gauge(_Metric):
    """Last-write-wins instantaneous value."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, value: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(value)

    def value(self, **labels: str) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def _render(self) -> Iterable[str]:
        with self._lock:
            items = sorted(self._series.items())
        for key, value in items:
            yield f"{self.name}{_format_labels(key)} {_format_value(value)}"


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets  # per-bucket (non-cumulative)
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket histogram; buckets are upper bounds, +Inf implied."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds or any(
            not math.isfinite(b) for b in bounds
        ):
            raise ValueError("histogram buckets must be finite and non-empty")
        self.buckets = bounds

    def observe(self, value: float, **labels: str) -> None:
        value = float(value)
        key = _label_key(labels)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets) + 1
                )
            series.counts[idx] += 1
            series.sum += value
            series.count += 1

    def snapshot(self, **labels: str) -> dict:
        """Cumulative bucket counts plus sum/count for one label set."""
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return {"buckets": [], "sum": 0.0, "count": 0}
            counts = list(series.counts)
            total, n = series.sum, series.count
        cumulative, running = [], 0
        for bound, c in zip(self.buckets + (math.inf,), counts):
            running += c
            cumulative.append((bound, running))
        return {"buckets": cumulative, "sum": total, "count": n}

    def _render(self) -> Iterable[str]:
        with self._lock:
            items = sorted(
                (key, list(s.counts), s.sum, s.count)
                for key, s in self._series.items()
            )
        for key, counts, total, n in items:
            running = 0
            for bound, c in zip(self.buckets + (math.inf,), counts):
                running += c
                le = (("le", _format_value(bound)),)
                yield (
                    f"{self.name}_bucket{_format_labels(key, le)} "
                    f"{running}"
                )
            yield f"{self.name}_sum{_format_labels(key)} {_format_value(total)}"
            yield f"{self.name}_count{_format_labels(key)} {n}"


def histogram_quantile(
    buckets: Iterable[tuple[float, float]], q: float
) -> float:
    """Estimate a quantile from cumulative ``(le, count)`` buckets.

    Linear interpolation inside the winning bucket, Prometheus-style;
    values in the +Inf bucket clamp to the largest finite bound.  NaN
    when the histogram is empty.
    """
    pairs = sorted((float(le), float(c)) for le, c in buckets)
    if not pairs or pairs[-1][1] <= 0:
        return float("nan")
    total = pairs[-1][1]
    rank = max(0.0, min(1.0, float(q))) * total
    prev_bound, prev_count = 0.0, 0.0
    for bound, count in pairs:
        if count >= rank:
            if bound == math.inf:
                return prev_bound
            if count == prev_count:
                return bound
            frac = (rank - prev_count) / (count - prev_count)
            return prev_bound + frac * (bound - prev_bound)
        prev_bound, prev_count = bound, count
    return prev_bound


class MetricsRegistry:
    """Creates-or-returns instruments by name; renders the whole set.

    Re-registering an existing name returns the existing instrument
    (histogram bucket layouts must match); registering the same name as
    a different kind raises ``ValueError`` — silent shadowing would make
    exposition ambiguous.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}"
                    )
                if existing.buckets != tuple(sorted(float(b) for b in buckets)):
                    raise ValueError(
                        f"histogram {name!r} re-registered with different "
                        "buckets"
                    )
                return existing
            metric = Histogram(name, help, buckets)
            self._metrics[name] = metric
            return metric

    def _get_or_create(self, cls, name: str, help: str):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}"
                    )
                return existing
            metric = cls(name, help)
            self._metrics[name] = metric
            return metric

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        with self._lock:
            metrics = [self._metrics[n] for n in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric._render())
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every instrument (tests only — not thread-drain safe)."""
        with self._lock:
            self._metrics.clear()


def parse_exposition(text: str) -> dict[str, dict[_LabelKey, float]]:
    """Parse Prometheus text format into ``{name: {label_key: value}}``.

    Handles the subset :func:`MetricsRegistry.render` emits (no escapes
    beyond ``\\\\`` and ``\\"``, no exemplars/timestamps) — enough for the
    round-trip tests and the load benchmark's scrape.
    """
    out: dict[str, dict[_LabelKey, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        body, _, raw_value = line.rpartition(" ")
        if not body:
            raise ValueError(f"unparseable exposition line: {line!r}")
        if body.endswith("}"):
            name, _, label_body = body.partition("{")
            labels = _parse_labels(label_body[:-1])
        else:
            name, labels = body, ()
        value = float(raw_value.replace("+Inf", "inf"))
        out.setdefault(name, {})[labels] = value
    return out


def _parse_labels(body: str) -> _LabelKey:
    pairs: list[tuple[str, str]] = []
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        key = body[i:eq]
        if body[eq + 1] != '"':
            raise ValueError(f"unquoted label value in {body!r}")
        j = eq + 2
        chunk: list[str] = []
        while body[j] != '"':
            if body[j] == "\\":
                j += 1
            chunk.append(body[j])
            j += 1
        pairs.append((key, "".join(chunk)))
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return tuple(sorted(pairs))


#: The process-wide registry every layer publishes into.
REGISTRY = MetricsRegistry()


def render() -> str:
    """Render :data:`REGISTRY` as Prometheus text."""
    return REGISTRY.render()

"""Percentiles, host facts, the printed tables and the result file."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path

from bench import ROOT, spec


def percentile(samples, q: float) -> float | None:
    """Nearest-rank *q*-quantile, or None when fewer than
    ``MIN_SAMPLES_BEYOND`` samples lie beyond it (the estimate would be
    one of a handful of outliers).  The median is always reported; the
    sample count printed beside it says how much it is worth."""
    ordered = sorted(samples)
    if not ordered:
        return None
    if q <= 0.5:
        return float(statistics.median(ordered))
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < spec.MIN_SAMPLES_BEYOND:
        return None
    return float(ordered[rank - 1])


def host_facts(seed: int, seconds: float) -> dict:
    import numpy

    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "cpu_count": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "window_s": seconds,
    }


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if value == 0 or abs(value) >= 1000:
        return f"{value:.0f}"
    return f"{value:.4g}"


def table(title: str, metrics, results: dict[str, dict], key: str) -> str:
    """One row per metric, one column per workload; ``-`` = does not apply."""
    names = list(results)
    width = max(len(m.name) for m in metrics) + 2
    lines = [title, f"{'metric':<{width}}{'unit':<7}" + "".join(f"{n:>16}" for n in names)]
    for metric in metrics:
        cells = [_cell((results[name].get(key) or {}).get(metric.name)) for name in names]
        if all(c == "-" for c in cells):
            continue
        lines.append(
            f"{metric.name:<{width}}{metric.unit:<7}" + "".join(f"{c:>16}" for c in cells)
        )
    return "\n".join(lines)


def layer_shares(result: dict) -> str:
    """Per-layer ms as a share of ``http.request_ms`` for one traced run."""
    layers = result.get("per_layer") or {}
    request_ms = layers.get("http.request_ms")
    if not request_ms:
        return ""
    lines = [
        f"{result['workload']}: ms per request of the class that uses the layer, "
        f"as a share of http.request_ms = {request_ms:.3f} ms (mean of all classes)"
    ]
    for metric in spec.per_layer():
        value = layers.get(metric.name)
        per_request = not metric.name.startswith(("build.", "recovery.", "checkpoint.", "pool.publish"))
        if metric.unit == "ms" and value is not None and per_request:
            lines.append(f"  {metric.name:<30}{value:>10.3f} ms {100 * value / request_ms:>7.1f} %")
    return "\n".join(lines)


def print_results(results: dict[str, dict], traced: bool) -> None:
    if traced:
        print(table("per-layer metrics (traced run)", spec.per_layer(), results, "per_layer"))
        for result in results.values():
            shares = layer_shares(result)
            if shares:
                print(shares)
    else:
        print(table("end-to-end metrics (tracing off)", spec.end_to_end(), results, "end_to_end"))
    for name, result in results.items():
        counts = result.get("samples") or {}
        timed = result.get("as_timed")
        clock = (
            f"; the clock read {timed['ok_per_s']:.4g} OK/s on core {timed['cpu']}"
            f" running {timed['slowdown']:.3f} x the reference loop time"
            if timed
            else ""
        )
        print(f"{name}: samples per class {counts}{clock}; checks {result.get('checks')}")


def write_result(path: Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)

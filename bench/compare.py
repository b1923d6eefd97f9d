"""``python -m bench.compare BASE.json NEW.json [BASE2.json NEW2.json ...]``

One row per (workload, end-to-end metric): the base median, the new
median, their ratio with its base, and a verdict.

- ``regressed``  the new median is worse than the base median by more
  than the metric's bound (``error_rate``: any increase; ``oracle_gap``:
  an increase beyond 1e-9).
- ``improved``   with fewer than ten pairs: better by more than the
  bound.  With ten or more (run them alternating which side goes first):
  the new side wins at least nine tenths of the pairs, ties counting for
  neither, and the medians differ by more than the base's own
  interquartile range.
- ``unresolved`` the base runs themselves spread wider than the bound,
  or one side has no value.
- ``unchanged``  otherwise.

Exits non-zero on any ``regressed`` row.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from bench import spec

_GAP_TOLERANCE = 1e-9
_PAIRS_FOR_WIN_RULE = 10


def _worse_by(metric: spec.Metric, base: float, new: float) -> float:
    """Relative change in the bad direction (negative = better)."""
    change = (new - base) / abs(base) if base else float(new != base)
    return change if metric.better == "lower" else -change


def _iqr(values: list[float]) -> float | None:
    if len(values) < 4:
        return None
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(metric: spec.Metric, base: list, new: list) -> dict:
    """Judge one metric on one workload from paired base/new values."""
    bound = metric.bound
    pairs = [(b, n) for b, n in zip(base, new) if b is not None and n is not None]
    if not pairs:
        skipped = all(b is None for b in base) and all(n is None for n in new)
        return {"verdict": None if skipped else "unresolved", "base": None, "new": None, "ratio": None}
    base_values = [b for b, _ in pairs]
    base_median = statistics.median(base_values)
    new_median = statistics.median(n for _, n in pairs)
    row = {
        "base": base_median,
        "new": new_median,
        "ratio": new_median / base_median if base_median else None,
        "pairs": len(pairs),
    }
    if bound is None:
        # error_rate and oracle_gap: no increase allowed.
        tolerance = _GAP_TOLERANCE if metric.name == "oracle_gap" else 0.0
        worse = new_median > base_median + tolerance
        better = new_median < base_median - tolerance
        row["verdict"] = "regressed" if worse else "improved" if better else "unchanged"
        return row
    worse_by = _worse_by(metric, base_median, new_median)
    iqr = _iqr(base_values)
    noisy = iqr is not None and base_median and iqr / abs(base_median) > bound
    if worse_by > bound:
        row["verdict"] = "regressed"
    elif len(pairs) >= _PAIRS_FOR_WIN_RULE:
        wins = sum(_worse_by(metric, b, n) < 0 for b, n in pairs)
        decided = sum(b != n for b, n in pairs)
        clear = abs(new_median - base_median) > iqr
        if decided and wins >= 0.9 * len(pairs) and clear:
            row["verdict"] = "improved"
        else:
            row["verdict"] = "unresolved" if noisy else "unchanged"
    elif noisy:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "improved" if worse_by < -bound else "unchanged"
    return row


def _workloads(path: str) -> dict:
    document = json.loads(Path(path).read_text())
    if document.get("traced"):
        raise SystemExit(f"{path}: a traced result holds no end-to-end metrics")
    return document["workloads"]


def compare(paths: list[str]) -> list[dict]:
    bases = [_workloads(p) for p in paths[0::2]]
    news = [_workloads(p) for p in paths[1::2]]
    rows = []
    for workload in spec.WORKLOADS:
        if not any(workload.name in doc for doc in bases + news):
            continue
        for metric in spec.end_to_end():

            def values(docs):
                return [
                    (doc.get(workload.name, {}).get("end_to_end") or {}).get(metric.name)
                    for doc in docs
                ]

            row = verdict(metric, values(bases), values(news))
            if row["verdict"] is not None:
                rows.append({"workload": workload.name, "metric": metric.name, "unit": metric.unit, **row})
    return rows


def _number(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(paths)
    print(f"{'workload':<16}{'metric':<22}{'unit':<7}{'base':>11}{'new':>11}  {'ratio (of base)':<22}verdict")
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}x of {_number(row['base'])}"
        print(
            f"{row['workload']:<16}{row['metric']:<22}{row['unit']:<7}"
            f"{_number(row['base']):>11}{_number(row['new']):>11}  {ratio:<22}{row['verdict']}"
        )
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    print(f"{len(rows)} rows, {len(regressed)} regressed, "
          f"{sum(r['verdict'] == 'unresolved' for r in rows)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

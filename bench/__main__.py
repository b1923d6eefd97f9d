"""``python -m bench``: run the benchmark.

With ``--workload`` one workload runs and the last line of standard
output is the result object the benchmark contract asks for; without it
all five run.  ``--trace 1`` is the separate traced run that yields the
per-layer metrics.  Every run prints each metric by name with its unit,
checks the served answers, writes a result file under ``.bench_work/``
and exits non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

from bench import ROOT, SRC, report, spec

WORK_ROOT = ROOT / ".bench_work"


def _parser() -> argparse.ArgumentParser:
    run_seconds = spec.declared()["run_seconds"]
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=run_seconds,
        help="measured window; in a traced run, the cap on each fixed-count pass",
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="result file (default: under .bench_work/results/)")
    return parser


def _contract_line(result: dict, traced: bool) -> str:
    """The one JSON object the driver reads.  It needs a number for every
    metric, so a layer that is absent on this workload reads 0 here (and
    null in the result file)."""
    if traced:
        metrics = {
            m.name: {"value": result["per_layer"][m.name] or 0, "unit": m.unit}
            for m in spec.per_layer()
        }
    else:
        metrics = {
            m.name: {"value": result["end_to_end"][m.name], "unit": m.unit}
            for m in spec.gated()
        }
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": max(1, result["attempted"]),
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not SRC.is_dir():
        print(f"bench: {SRC} is missing; nothing to benchmark", file=sys.stderr)
        return 2
    from bench import driver

    # A terminated harness must still tear its servers down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = [spec.WORKLOAD_BY_NAME[args.workload]] if args.workload else list(spec.WORKLOADS)
    traced = bool(args.trace)
    work_dir = WORK_ROOT / f"run-{os.getpid()}-{time.monotonic_ns()}"
    facts = report.host_facts(args.seed, args.seconds)
    results: dict[str, dict] = {}
    try:
        for workload in workloads:
            run = driver.run_traced if traced else driver.run_timed
            results[workload.name] = run(workload, args.seed, args.seconds, work_dir / workload.name)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    single, pooled = results.get("explore_fine"), results.get("explore_pooled")
    if single and pooled and not traced:
        # Same plan, same base, different deployment: the answers must agree.
        same = single["checks"]["answers_sha256"] == pooled["checks"]["answers_sha256"]
        pooled["checks"]["pooled_equals_single"] = same
        pooled["correct"] = pooled["correct"] and same
    report.print_results(results, traced)
    correct = all(r["correct"] for r in results.values())
    document = {"host": facts, "traced": traced, "correct": correct, "workloads": results}
    kind = "trace" if traced else "timed"
    scope = args.workload or "all"
    out = args.out or WORK_ROOT / "results" / f"{kind}-{scope}-seed{args.seed}.json"
    report.write_result(ROOT / out, document)
    print(f"host: {facts}")
    print(f"result file: {out}")
    if args.workload:
        print(_contract_line(results[args.workload], traced))
    else:
        print(json.dumps({"correct": correct, "workloads": list(results)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

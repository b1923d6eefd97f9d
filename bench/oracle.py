"""Correctness of served answers against an in-process rebuild.

The harness rebuilds the workload's dataset in its own process and
checks answers up to three ways: every returned distance is the true DTW
distance of the returned window to the query; no range result exceeds
its threshold; and, for a pooled deployment, the served payload equals
what a single-process ``OnexService`` over the same rebuilt base answers.
``oracle_gap`` compares each served top-1 with
:class:`repro.baselines.brute_force.BruteForceSearcher`.
"""

from __future__ import annotations

import json

import numpy as np

from bench import spec
from bench.plan import Planned, build_dataset

_TOLERANCE = 1e-9


class Oracle:
    """*library* also rebuilds the base, to compare whole payloads."""

    def __init__(self, workload: spec.Workload, *, library: bool = False) -> None:
        from repro.baselines.brute_force import BruteForceSearcher

        params = workload.load_params()
        raw = build_dataset()
        self._bounds = raw.global_bounds()
        self._dataset = raw.normalized()
        self._lengths = range(params["min_length"], params["max_length"] + 1)
        self._brute = BruteForceSearcher(self._dataset)
        self._service = None
        if library:
            from repro.core.config import QueryConfig
            from repro.server.service import OnexService

            self._service = OnexService(QueryConfig(mode=workload.mode))
            loaded = self._service.handle({"op": "load_dataset", "params": params})
            if not loaded.ok:
                raise RuntimeError(f"oracle could not build the base: {loaded.error_message}")

    def _query_values(self, operand) -> np.ndarray:
        from repro.distances.normalize import minmax_normalize

        if isinstance(operand, dict):
            values = self._dataset[operand["series"]].values
            return values[operand["start"] : operand["start"] + operand["length"]]
        lo, hi = self._bounds
        return minmax_normalize(np.asarray(operand, dtype=float), lo=lo, hi=hi)

    def _true_distance(self, query: np.ndarray, match: dict) -> float | None:
        """None for a window of points appended during the run: the
        rebuild does not hold them (points already loaded never change)."""
        from repro.distances.dtw import dtw_path

        start, length = match["match_start"], len(match["match"])
        if match["match_series"] not in self._dataset:
            return None
        values = self._dataset[match["match_series"]].values
        if start + length > len(values):
            return None
        return dtw_path(query, values[start : start + length]).normalized_distance

    @staticmethod
    def _answers(request: Planned, served: dict) -> list[tuple[object, list[dict]]]:
        """(query operand, its matches) pairs of one query-family answer."""
        if request.op == "query_batch":
            return [
                (operand, entry["matches"])
                for operand, entry in zip(request.params["queries"], served["results"])
            ]
        if request.op == "best_match":
            return [(request.params["query"], [served])]
        return [(request.params["query"], served["matches"])]

    def check(self, requests: list[Planned], answers: list, *, gap: bool = True) -> dict:
        """Verdict over *requests*; *answers* are the served results
        (``None`` where the request failed).  The gap and the library
        comparison assume the dataset as loaded, so they are for answers
        that predate any write."""
        wrong_distance = over_threshold = library_mismatch = unanswered = 0
        gaps: list[float] = []
        for request, served in zip(requests, answers):
            if served is None:
                unanswered += 1
                continue
            if self._service is not None:
                local = self._service.handle({"op": request.op, "params": request.params})
                if not local.ok or json.loads(json.dumps(local.result)) != served:
                    library_mismatch += 1
            if request.cls not in ("similarity", "range", "batch"):
                continue
            for operand, matches in self._answers(request, served):
                query = self._query_values(operand)
                for match in matches:
                    true = self._true_distance(query, match)
                    if true is not None and abs(true - match["distance"]) > _TOLERANCE:
                        wrong_distance += 1
                    if request.op == "matches_within" and (
                        match["distance"] > request.params["threshold"] + _TOLERANCE
                    ):
                        over_threshold += 1
                if gap and request.cls == "similarity" and matches:
                    best = self._brute.best_match(query, self._lengths).distance
                    gaps.append((matches[0]["distance"] - best) / max(best, 1e-9))
        return {
            "checked": len(requests),
            "unanswered": unanswered,
            "wrong_distance": wrong_distance,
            "over_threshold": over_threshold,
            "library_mismatch": library_mismatch if self._service is not None else None,
            "oracle_gap": float(np.mean(gaps)) if gaps else None,
            "gap_samples": len(gaps),
        }


def passed(workload: spec.Workload, verdict: dict) -> bool:
    """Exact mode makes the oracle gap a hard gate: it must be 0 there."""
    clean = not (
        verdict["unanswered"]
        or verdict["wrong_distance"]
        or verdict["over_threshold"]
        or verdict["library_mismatch"]
    )
    if workload.mode == "exact" and verdict["gap_samples"]:
        clean = clean and abs(verdict["oracle_gap"]) <= _TOLERANCE
    return clean

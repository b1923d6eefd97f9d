"""Unit tests for the fault-injection registry (repro.testing.faults).

The chaos suites (test_deadline, test_overload, test_build_resilience)
lean on these semantics, so they are pinned directly: arming, firing,
bounded trigger counts, scoping, and the per-action behaviours.
"""

import time

import pytest

from repro.testing import faults


class TestRegistry:
    def test_fire_with_nothing_armed_is_noop(self):
        faults.fire("query.rep_chunk")  # must not raise

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            faults.arm("query.rep_chunk", "explode")

    def test_raise_action(self):
        faults.arm("p", "raise")
        with pytest.raises(faults.FaultInjectedError, match="injected fault"):
            faults.fire("p")

    def test_custom_error(self):
        boom = RuntimeError("custom")
        faults.arm("p", "raise", error=boom)
        with pytest.raises(RuntimeError, match="custom"):
            faults.fire("p")

    def test_other_points_unaffected(self):
        faults.arm("p", "raise")
        faults.fire("q")  # different point: no-op

    def test_times_bounds_triggers(self):
        faults.arm("p", "raise", times=2)
        for _ in range(2):
            with pytest.raises(faults.FaultInjectedError):
                faults.fire("p")
        faults.fire("p")  # third fire: exhausted, passes through

    def test_disarm(self):
        faults.arm("p", "raise")
        faults.disarm("p")
        faults.fire("p")

    def test_inject_scopes_fault(self):
        with faults.inject("p", "raise"):
            with pytest.raises(faults.FaultInjectedError):
                faults.fire("p")
        faults.fire("p")  # disarmed on exit

    def test_inject_disarms_on_error(self):
        with pytest.raises(faults.FaultInjectedError):
            with faults.inject("p", "raise"):
                faults.fire("p")
        faults.fire("p")

    def test_sleep_action_blocks(self):
        faults.arm("p", "sleep", seconds=0.05)
        started = time.perf_counter()
        faults.fire("p")
        assert time.perf_counter() - started >= 0.04

    def test_kill_worker_spares_arming_process(self):
        # The pid guard: the process that armed the fault passes through
        # (a real worker death is exercised in test_build_resilience).
        faults.arm("p", "kill-worker")
        faults.fire("p")


class TestTornWrite:
    def test_truncates_and_raises(self, tmp_path):
        path = tmp_path / "artifact.bin"
        path.write_bytes(b"x" * 100)
        faults.arm("p", "torn-write")
        with pytest.raises(faults.FaultInjectedError, match="torn write"):
            faults.fire("p", path=str(path))
        assert path.stat().st_size == 50

    def test_without_path_still_raises(self):
        faults.arm("p", "torn-write")
        with pytest.raises(faults.FaultInjectedError):
            faults.fire("p")

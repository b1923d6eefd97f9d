"""The throughput estimate and the host-speed factor, on hand-made samples."""

import pytest

from bench import hostspeed
from bench.driver import Sample, plan_rate


def _sample(op: str, ms: float, probe: float = hostspeed.REFERENCE_S) -> Sample:
    return Sample(0, "similarity", op, 0.0, ms / 1000.0, True, None, None, probe)


def test_plan_rate_equals_the_count_when_the_samples_hold_the_planned_mix():
    mix = {"fast": 0.75, "slow": 0.25}
    # three fast requests of 100 ms and one slow of 700 ms = 4 in 1 s
    samples = [_sample("fast", 100.0)] * 3 + [_sample("slow", 700.0)]
    assert plan_rate(samples, mix) == pytest.approx(4.0)


def test_plan_rate_does_not_move_with_the_draw_of_slow_requests():
    mix = {"fast": 0.75, "slow": 0.25}
    lucky = [_sample("fast", 100.0)] * 9 + [_sample("slow", 700.0)]
    unlucky = [_sample("fast", 100.0)] * 3 + [_sample("slow", 700.0)] * 3
    assert plan_rate(lucky, mix) == pytest.approx(plan_rate(unlucky, mix)) == pytest.approx(4.0)


def test_an_operation_the_samples_do_not_hold_is_left_out_of_the_mix():
    mix = {"fast": 0.75, "slow": 0.25}
    assert plan_rate([_sample("fast", 100.0)], mix) == pytest.approx(10.0)
    assert plan_rate([], mix) == 0.0


def test_slowdown_is_the_weighted_mean_probe_over_the_reference():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.slowdown([ref, ref]) == pytest.approx(1.0)
    assert hostspeed.slowdown([ref, 2 * ref]) == pytest.approx(1.5)
    # a request that took three times as long counts three times
    assert hostspeed.slowdown([ref, 2 * ref], [100.0, 300.0]) == pytest.approx(1.75)


def test_a_core_half_as_fast_reports_the_same_rate():
    """Twice the latency at twice the probe time is the same program."""
    mix = {"fast": 1.0}
    for factor in (1.0, 2.0):
        samples = [_sample("fast", 100.0 * factor, hostspeed.REFERENCE_S * factor)] * 4
        pace = hostspeed.slowdown((s.probe for s in samples), (s.ms for s in samples))
        assert pace * plan_rate(samples, mix) == pytest.approx(10.0)

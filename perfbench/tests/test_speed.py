"""The speed probe: intervals leave the probes out; one factor scales a run."""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from speed import REFERENCE_PROBE_S, Sample, SpeedProbe, interval, reference_factor  # noqa: E402


def test_only_probes_inside_the_interval_are_left_out():
    inside = [Sample(2.0, 2.004, 0.004), Sample(5.0, 5.005, 0.005)]
    outside = [Sample(-1.0, -0.99, 0.5), Sample(9.999, 10.001, 0.5)]
    took = interval(inside + outside, 0.0, 10.0)
    assert took.wall_s == 10.0
    assert took.busy_s == pytest.approx(0.009)
    assert took.raw_s == pytest.approx(9.991)


def test_the_factor_is_the_reference_over_the_median_probe():
    assert reference_factor([0.001, 0.004, 0.002]) == pytest.approx(REFERENCE_PROBE_S / 0.002)
    # A host twice as slow measures twice the time and half the factor.
    assert reference_factor([0.004, 0.008]) * 2 * 7.0 == pytest.approx(
        reference_factor([0.002, 0.004]) * 7.0
    )


def test_the_timer_probes_while_running_and_stops_after():
    sampler = SpeedProbe(period_s=0.01)
    sampler.start()
    try:
        result, took = sampler.timed(time.sleep, 0.2)
    finally:
        sampler.stop()
    assert result is None
    assert len(sampler.samples) >= 5
    assert took.busy_s > 0
    assert took.raw_s == pytest.approx(took.wall_s - took.busy_s)
    count = len(sampler.cpu_times())
    time.sleep(0.05)
    assert len(sampler.cpu_times()) == count


def test_without_a_period_nothing_is_probed():
    sampler = SpeedProbe(period_s=0)
    sampler.start()
    _, took = sampler.timed(time.sleep, 0.05)
    sampler.stop()
    assert sampler.samples == []
    assert took.busy_s == 0

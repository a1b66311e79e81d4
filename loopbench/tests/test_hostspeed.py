"""Tests of the host speed factor and how run.py applies it."""

import pytest

import hostspeed
from run import Segment, end_to_end


def test_factor_is_reference_over_median():
    assert hostspeed.factor([30.0, 10.0, 20.0]) == pytest.approx(hostspeed.REFERENCE_MS / 20.0)


def test_reference_task_is_the_same_on_every_run():
    def walk(sessions):
        return [(s.topic, s.at) for session in sessions for s in session.values()]

    assert walk(hostspeed.WALK) == walk(hostspeed._sessions()[1])
    assert len(hostspeed.WALK) == hostspeed.WALK_SESSIONS
    assert hostspeed.task_ms() > 0.0


def test_times_scale_down_and_rates_up_on_a_slow_host():
    # The same set-up measured on a host twice as slow: every time doubles,
    # every rate halves, memory stays. At the reference speed they agree.
    def seg(slow: float) -> Segment:
        s = Segment(0.2 * slow, speed=1.0 / slow, rss_mb=20.0)
        s.slices = [(1.0 * slow, 500, 0.5 * slow, [2_000_000 * slow] * 3)] * 2
        return s

    fast, slow = end_to_end([seg(1.0)]), end_to_end([seg(2.0)])
    for name in fast:
        assert slow[name][0] == pytest.approx(fast[name][0]), name
    measured = end_to_end([seg(2.0)], at_reference=False)
    assert measured["setup_s"][0] == pytest.approx(0.4)
    assert measured["publishes_per_s"][0] == pytest.approx(250.0)
    assert measured["latency_p50_ms"][0] == pytest.approx(4.0)
    assert measured["broker_cpu_us_per_msg"][0] == pytest.approx(2000.0)
    assert measured["broker_rss_mb"][0] == 20.0

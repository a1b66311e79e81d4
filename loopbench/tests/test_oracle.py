"""Tests of the benchmark's own checks: the oracle, the percentile rule and
the failure counting. Run with ``python3 -m pytest loopbench/tests``."""

import math

import pytest

import workloads
from oracle import (
    MIN_P99_SAMPLES,
    Circle,
    DeliveryChecker,
    Expect,
    Fence,
    Filter,
    distance_m,
    expected_delivery,
    p99,
    percentile,
    topic_matches,
    track_length_m,
    winding_inside,
)

DEG_M = math.pi * 6_371_000.0 / 180.0  # one degree of a great circle
SQUARE = ((1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0))
BLOCK = b"\x01" + bytes(20)


def test_distance_is_arc_length():
    assert distance_m((0.0, 0.0), (1.0, 0.0)) == pytest.approx(DEG_M, rel=1e-12)
    assert distance_m((0.0, 0.0), (0.0, 90.0)) == pytest.approx(90 * DEG_M, rel=1e-12)
    assert distance_m((10.0, 20.0), (10.0, 20.0)) == 0.0


def test_circle_inside_and_outside_by_hand():
    # 0.005 deg north of the centre is 556 m away, 0.01 deg is 1112 m.
    inside = Circle("inside", 1000.0, (0.0, 0.0))
    outside = Circle("outside", 1000.0, (0.0, 0.0))
    assert inside.passes((0.005, 0.0)) and not inside.passes((0.01, 0.0))
    assert outside.passes((0.01, 0.0)) and not outside.passes((0.005, 0.0))
    assert inside.margin_m((0.01, 0.0)) == pytest.approx(0.01 * DEG_M - 1000.0)


def test_winding_number_fence():
    assert winding_inside((0.0, 0.0), SQUARE)
    assert winding_inside((1.0, 0.0), SQUARE)  # on an edge
    assert not winding_inside((0.0, 1.5), SQUARE)
    assert not winding_inside((2.0, 2.0), SQUARE)


def test_topic_matcher():
    assert topic_matches("a/+/c", "a/b/c")
    assert topic_matches("a/#", "a")
    assert not topic_matches("a/+", "a/b/c")
    assert not topic_matches("#", "$SYS/x")


def _expect(pub_at, circle=None, fences=(), qos=1, sub_at=(0.0, 0.0)):
    filters = (Filter("t/x", 2, circle),)
    block = BLOCK if pub_at is not None else None
    return expected_delivery("t/x", qos, pub_at, block, filters, fences, sub_at, True)


def test_expected_delivery_radius_and_fail_closed():
    circle = Circle("inside", 1000.0, (0.0, 0.0))
    assert _expect((0.005, 0.0), circle) == Expect(True, 1, BLOCK)
    assert _expect((0.01, 0.0), circle) == Expect(False)
    assert _expect(None, circle) == Expect(False)  # no location, no constrained delivery
    assert _expect(None) == Expect(True, 1, None)  # a plain filter still passes


def test_expected_delivery_fences():
    static = Fence("t/#", SQUARE)
    assert _expect((5.0, 5.0), fences=(static,)).deliver
    assert not _expect((5.0, 5.0), fences=(static,), sub_at=(3.0, 0.0)).deliver
    # A dynamic fence is placed on the publisher: the subscriber at the
    # origin is inside it only while the publisher is within 1 degree.
    dynamic = Fence("t/x", SQUARE, dynamic=True)
    assert _expect((0.5, -0.5), fences=(dynamic,)).deliver
    assert not _expect((0.0, 1.5), fences=(dynamic,)).deliver
    assert not _expect(None, fences=(dynamic,)).deliver
    assert _expect((0.0, 1.5), fences=(Fence("other", SQUARE, dynamic=True),)).deliver


def test_qos_is_min_of_publish_and_best_granted():
    filters = (Filter("t/x", 1), Filter("t/+", 2, Circle("outside", 10.0, (0.0, 0.0))))
    far, near = (1.0, 0.0), (0.0, 0.0)
    assert expected_delivery("t/x", 2, far, BLOCK, filters, (), None, False) == Expect(True, 2, BLOCK)
    assert expected_delivery("t/x", 2, near, BLOCK, filters, (), None, False) == Expect(True, 1, None)
    assert expected_delivery("t/x", 0, far, BLOCK, filters, (), None, False).qos == 0


def test_flipped_radius_kind_is_caught():
    """A broker that reads the kind byte backwards delivers the complement;
    the checker must mark those publishes failed."""
    w = workloads.build("geo-route-large", 3)
    circle = w.main_filters[0].circle
    flipped = Circle("outside" if circle.kind == "inside" else "inside", circle.radius_m, circle.center)
    checker = DeliveryChecker()
    for seq in range(len(w.route)):
        checker.publish(seq, w.topic, b"p%d" % seq, w.expect(seq, False))
    for seq, at in enumerate(w.route):
        wrong = expected_delivery(w.topic, 1, at, workloads.geo_block(at), (Filter(w.topic, 1, flipped),),
                                  w.fences, w.sub_at, True)
        if wrong.deliver:
            checker.deliver(seq, w.topic, wrong.qos, b"p%d" % seq, wrong.geo)
    checker.finish()
    assert checker.failed_between(0, len(w.route)) > len(w.route) // 3
    assert set(checker.failed.values()) >= {"unexpected or duplicate delivery", "never delivered"}


def test_failure_counting():
    checker = DeliveryChecker()
    want = Expect(True, 1, BLOCK)
    for seq in range(6):
        checker.publish(seq, "t", b"%d" % seq, want if seq != 4 else Expect(False))
    assert checker.deliver(0, "t", 1, b"0", BLOCK)
    assert checker.deliver(2, "t", 1, b"2", BLOCK)  # intact, but 1 was skipped
    assert not checker.deliver(3, "t", 0, b"3", BLOCK)  # wrong QoS
    assert not checker.deliver(4, "t", 1, b"4", BLOCK)  # not expected at all
    assert not checker.deliver(0, "t", 1, b"0", BLOCK)  # duplicate
    assert not checker.deliver(99, "t", 1, b"", None)  # names no publish
    checker.finish()  # 5 never arrived
    assert sorted(checker.failed) == [0, 1, 3, 4, 5]
    assert checker.failed[1] == "missing or out of order"
    assert checker.failed[5] == "never delivered"
    assert checker.stray == 1
    assert checker.failed_between(2, 6) == 3


def test_wrong_payload_topic_and_block_are_caught():
    checker = DeliveryChecker()
    for seq in range(3):
        checker.publish(seq, "t", b"%d" % seq, Expect(True, 0, BLOCK))
    assert not checker.deliver(0, "t", 0, b"x", BLOCK)
    assert not checker.deliver(1, "u", 0, b"1", BLOCK)
    assert not checker.deliver(2, "t", 0, b"2", b"\x01" + bytes(19) + b"\x01")
    assert sorted(checker.failed) == [0, 1, 2]


def test_percentile_rule():
    assert percentile([5.0, 1.0, 3.0], 50.0) == 3.0
    assert percentile(list(range(1, 101)), 99.0) == 99
    assert p99([1.0] * (MIN_P99_SAMPLES - 1)) is None
    samples = list(range(MIN_P99_SAMPLES))
    assert p99(samples) == 989


def test_track_length_sums_segments():
    assert track_length_m([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0)]) == pytest.approx(2 * DEG_M)


@pytest.mark.parametrize("name", ["plain-qos0", "geo-route-large", "qos2-geo-churn"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_workloads_are_seeded_and_valid(name, seed):
    w = workloads.build(name, seed)
    workloads.validate(w)
    assert workloads.build(name, seed) == w
    assert w.round_publishes >= 50


def test_validate_rejects_a_phantom_that_would_receive():
    w = workloads.build("geo-route-large", 0)
    for bad in (
        workloads.Phantom("ph-bad", (Filter("geo/+/track", 0),)),
        workloads.Phantom("ph-bad", (Filter("probe/#", 0),)),
        # A circle that holds the whole route lets every fix through.
        workloads.Phantom("ph-bad", (Filter("geo/#", 0, Circle("inside", 50e3, w.sub_at)),)),
        # A fence around the phantom's own location passes it.
        workloads.Phantom("ph-bad", (Filter("geo/#", 0),), w.sub_at, ((None, Fence("geo/#", w.fences[1].points)),)),
    ):
        with pytest.raises(AssertionError, match="matches"):
            workloads.validate(workloads.replace(w, phantoms=w.phantoms + (bad,)))


@pytest.mark.parametrize("name", ["geo-route-large", "qos2-geo-churn"])
def test_matching_phantoms_exercise_every_rejection(name):
    """Some phantoms match the timed topic: the broker must reject each
    one by radius, by fence, or for want of a location."""
    w = workloads.build(name, 5)
    matching = [ph for ph in w.phantoms if any(topic_matches(f.topic, w.topic) for f in ph.filters)]
    assert {f.circle.kind for ph in matching for f in ph.filters if f.circle} == {"inside", "outside"}
    fenced = [ph for ph in matching if ph.fences]
    assert any(ph.at is None for ph in fenced)
    assert any(ph.at is not None and anchor is None for ph in fenced for anchor, _ in ph.fences)
    assert any(ph.at is not None and anchor is not None for ph in fenced for anchor, _ in ph.fences)
    assert len(fenced) < len(matching)


def test_deliveries_to_phantoms_are_recorded():
    """A phantom has no socket, so a wrong verdict for it would vanish;
    the broker host records every delivery route() chooses for one."""
    from broker_host import watch_phantoms
    from mqttg.broker import BrokerState
    from mqttg.codec import TopicFilter

    route = BrokerState.route
    try:
        wrong = watch_phantoms({"ph-1"})
        state = BrokerState()
        for sid, topic in (("ph-1", "t/#"), ("ph-2", "u/#"), ("live", "t/x")):
            state.open_session(sid)
            state.subscribe(sid, (TopicFilter(topic, 0, None),))
        assert {d.client_id for d in state.route("pub", "t/x", 0, None)} == {"ph-1", "live"}
        assert wrong == ["ph-1"]
    finally:
        BrokerState.route = route

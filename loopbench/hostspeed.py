"""A fixed reference task that times how fast the host runs at a moment.

The host is a shared VM whose processor speed drifts by up to 2x on its
own, in steps that last from seconds to tens of minutes. A raw time from
one stretch cannot be compared with one from another. So run.py times
this task on the benchmark's core right before each set-up and right
after its timed window, and reports each set-up's timings at a fixed
reference speed: times are multiplied, rates divided, by the set-up's
factor REFERENCE_MS / measured ms.

The task is shaped like the broker's hot loop, so that it slows when the
broker slows: it walks sessions scattered over an 11 MB pool, as route()
walks the broker's table, matches each subscription's filter against a
topic with the oracle's matcher and measures the distance from each
subscription's point to a fix. It is pure Python and imports nothing
from mqttg, so a change to the program moves the measured timings and
leaves the factor alone. The pool and the walk are the same on every run,
whatever the workload and seed.
"""

from __future__ import annotations

import random
import statistics
import time

from oracle import distance_m, topic_matches

REFERENCE_MS = 20.0  # the task's CPU time at the reference speed
SAMPLES = 3  # timings of the task per call of sample()
POOL_SESSIONS = 30_000  # two subscriptions each
WALK_SESSIONS = 1_500  # walked per timing, in a fixed scattered order
TOPIC = "fleet/17/track"
FIX = (48.2, 16.4)


class _Sub:
    __slots__ = ("topic", "at")

    def __init__(self, topic: str, at: tuple[float, float]):
        self.topic, self.at = topic, at


def _sessions() -> tuple[list[dict], list[dict]]:
    """The pool of sessions, and the ones a walk visits, in its order."""
    rng = random.Random(0)
    roots = ("fleet", "geo", "plain", "churn", "sensor")

    def sub() -> _Sub:
        topic = f"{rng.choice(roots)}/{rng.randrange(40)}/{rng.choice(('track', '+', '#'))}"
        return _Sub(topic, (rng.uniform(-60, 60), rng.uniform(-170, 170)))

    pool = [{"a": sub(), "b": sub()} for _ in range(POOL_SESSIONS)]
    return pool, [pool[i] for i in rng.sample(range(POOL_SESSIONS), WALK_SESSIONS)]


POOL, WALK = _sessions()


def task_ms() -> float:
    """CPU milliseconds of one walk, on this thread."""
    t0 = time.thread_time_ns()
    hits = 0
    for session in WALK:
        for s in session.values():
            hits += topic_matches(s.topic, TOPIC)
            hits += distance_m(s.at, FIX) < 5e6
    return (time.thread_time_ns() - t0) / 1e6


def sample() -> list[float]:
    return [task_ms() for _ in range(SAMPLES)]


def factor(samples: list[float]) -> float:
    """REFERENCE_MS over the median sample: below 1 on a slow host."""
    return REFERENCE_MS / statistics.median(samples)

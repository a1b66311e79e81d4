"""Loopback benchmark of the mqttg broker.

    python3 loopbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The broker runs in its own process
(broker_host.py); this process is the load generator. Both are pinned to
one core and run with a fixed PYTHONHASHSEED; the generator runs as a
SCHED_BATCH task, the broker as a normal one. An untraced run sets the
broker up once for every SETUP_S seconds of S, in turn; on each set-up it
warms up, then measures whole rounds for SETUP_S seconds, cut into slices
of at least SLICE_S seconds. A fixed reference task (hostspeed.py) is
timed right before each set-up and right after its window; each
set-up's timings are reported at the reference speed, so that the host's
own drift in speed cancels. Set-up time, broker CPU per publish and peak
RSS are medians over the set-ups; throughput and latency are medians over
the slices of all set-ups. So neither one slow stretch nor one broker
process that happens to run slow sets a figure. A traced run measures S
seconds on one set-up. Every publish is checked against the oracle; the
event log, the publisher's distance and the deliveries route() chose for
phantom sessions are checked after each broker has stopped. The last line of output is one JSON object: correct,
attempted, failed and metrics (the end-to-end metrics, or with --trace 1
the per-layer ones).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".loopbench-out"
SETUP_S = 1.0
SLICE_S = 0.5
CLK_TCK = os.sysconf("SC_CLK_TCK")


class BrokerProcess:
    """The broker's process and its command pipe."""

    def __init__(self, workload: str, seed: int, trace: bool):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "broker_host.py"), workload, str(seed), str(OUT), "1" if trace else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            _, port, own_s = self._line(60.0).split()  # "READY <port> <seconds>"
            self.port, self.own_s = int(port), float(own_s)
        except BaseException:
            self.stop()
            raise

    def _line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("broker process gave no reply")
        return line

    def mark(self) -> dict:
        self.proc.stdin.write("MARK\n")
        self.proc.stdin.flush()
        return json.loads(self._line(30.0))

    def cpu_s(self) -> float:
        """User plus system time of every thread, from /proc/<pid>/stat."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int | None:
        """Stop the broker. Returns how many deliveries route() chose for
        phantom sessions, or None if the broker gave no count."""
        wrong = None
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("STOP\n")
                self.proc.stdin.flush()
                wrong = int(self._line(30.0).split()[1])  # "BYE <n>"
                self.proc.wait(timeout=30)
            except (OSError, RuntimeError, IndexError, ValueError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        return wrong


@dataclass
class Segment:
    """One set-up of the broker and the window measured on it."""

    setup_s: float
    speed: float = 1.0  # hostspeed factor: REFERENCE_MS / the reference task's ms
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    window_s: float = 0.0
    rss_mb: float = 0.0
    gen_cpu_s: float = 0.0
    slices: list = field(default_factory=list)  # (seconds, publishes, broker CPU s, latencies ns)
    marks: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def segment(w, seed: int, seconds: float, trace: bool) -> Segment:
    """Launch a broker, set it up, warm it up, measure, stop and check it."""
    import hostspeed
    from loadgen import LoadGen, Stall

    ref_ms = hostspeed.sample()  # the reference task, before and after
    t0 = time.perf_counter()
    broker = BrokerProcess(w.name, seed, trace)
    gen = LoadGen(w, broker.port)
    seg = Segment(0.0)
    try:
        gen.setup()
        seg.setup_s = time.perf_counter() - t0 - broker.own_s
        gen.run_steps(w.warmup_steps)
        gen.drain()
        gen.barrier()
        if trace:
            seg.marks.append(broker.mark())
        gen.timed_from = gen.checker.published
        gen_cpu0 = time.process_time()
        start = mark = (time.perf_counter(), 0, broker.cpu_s(), 0)
        while True:
            gen.run_round()
            now = time.perf_counter()
            if now - mark[0] >= SLICE_S:
                cpu = broker.cpu_s()
                seg.slices.append((now - mark[0], gen.completed - mark[1], cpu - mark[2], gen.latencies_ns[mark[3]:]))
                mark = (now, gen.completed, cpu, len(gen.latencies_ns))
                if now - start[0] >= seconds:
                    break
        gen.drain()
        seg.window_s = time.perf_counter() - start[0]
        seg.gen_cpu_s = time.process_time() - gen_cpu0
        gen.timed_to = gen.checker.published
        seg.completed = gen.completed
        seg.rss_mb = broker.peak_rss_mb()
        gen.barrier()
        if trace:
            seg.marks.append(broker.mark())
            gen.barrier()  # a second barrier measures what one costs
            seg.marks.append(broker.mark())
        ref_ms += hostspeed.sample()  # the broker is idle after the barrier
        gen.finish()
    except Stall as exc:
        seg.problems.append(str(exc))
        seg.window_s = 0.0
        gen.checker.finish()
        for seq in gen.open:
            gen.checker.fail(seq, "flow never completed")
    finally:
        gen.close()
        wrong = broker.stop()
    seg.speed = hostspeed.factor(ref_ms)
    if wrong is None:
        seg.problems.append("the broker process did not stop cleanly")
    elif wrong:
        seg.problems.append(f"route() chose {wrong} deliveries to phantom sessions")

    if seg.window_s:
        seg.problems += check_event_log(w, gen)
    seg.problems += gen.errors
    if gen.checker.stray:
        seg.problems.append(f"{gen.checker.stray} deliveries named no publish")
    first = gen.timed_from if gen.timed_from is not None else gen.checker.published
    end = gen.timed_to if gen.timed_to is not None else gen.checker.published
    seg.attempted, seg.failed = end - first, gen.checker.failed_between(first, end)
    early = gen.checker.failed_between(0, first)
    if early:
        seg.problems.append(f"{early} set-up or warm-up publishes failed")
    for seq, why in sorted(gen.checker.failed.items())[:20]:
        print(f"FAILED publish {seq}: {why}")
    return seg


def check_event_log(w, gen) -> list[str]:
    """PUBLISH rows equal the publishes sent, and the publisher's DISCONNECT
    distance equals the summed length of the fixes it sent."""
    from oracle import track_length_m

    with open(OUT / f"{w.name}-events.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    publishes = [r for r in rows if r["event"] == "PUBLISH"]
    if len(publishes) != gen.checker.published or any(r["client_id"] != gen.pub.name for r in publishes):
        problems.append(f"event log has {len(publishes)} PUBLISH rows for {gen.checker.published} publishes")
    ends = [r for r in rows if r["event"] == "DISCONNECT" and r["client_id"] == gen.pub.name]
    want = track_length_m(gen.track)
    got = float(ends[-1]["distance_m"]) if ends else None
    # The log prints six decimals, so a zero-length track is held to 1e-6 m.
    if got is None or abs(got - want) > 1e-6 * max(want, 1.0):
        problems.append(f"publisher DISCONNECT distance {got} m, route sums to {want:.6f} m")
    return problems


def end_to_end(segs, at_reference: bool = True) -> dict:
    """The end-to-end metrics, with each set-up's times multiplied and
    rates divided by its speed factor; as measured if not at_reference."""
    from oracle import percentile

    med = statistics.median
    speed = {id(seg): seg.speed if at_reference else 1.0 for seg in segs}
    slices = [(dt, k, lat, speed[id(seg)]) for seg in segs for dt, k, _, lat in seg.slices]
    return {
        "setup_s": (med(seg.setup_s * speed[id(seg)] for seg in segs), "s"),
        "publishes_per_s": (med(k / dt / f for dt, k, _, f in slices), "1/s"),
        "latency_p50_ms": (med(percentile(lat, 50.0) / 1e6 * f for _, _, lat, f in slices), "ms"),
        "broker_cpu_us_per_msg": (med(sum(s[2] for s in seg.slices) / sum(s[1] for s in seg.slices) * 1e6 * speed[id(seg)] for seg in segs), "us"),
        "broker_rss_mb": (med(seg.rss_mb for seg in segs), "MB"),
    }


def per_layer(seg: Segment) -> dict:
    """Per-layer metrics from three broker snapshots: before the timed
    window, after it and its barrier, and after one more barrier. Window
    figures are (second - first) - (third - second), which removes the
    closing barrier's own packets, so counts repeat exactly. Per-call
    times cover the broker's whole life, set-up and probe included, so
    every layer has calls on every workload. Times are at the reference
    speed, like the end-to-end ones."""
    marks = seg.marks
    first, second, third = marks
    n = seg.completed

    def window_of(group: str, key: str) -> int:
        a, b, c = (m[group].get(key, 0) for m in marks)
        return (b - a) - (c - b)

    def per_call_us(key: str) -> float:
        return third["ns"][key] / third["calls"][key] / 1e3 * seg.speed

    cpu_us = ((second["cpu_s"] - first["cpu_s"]) - (third["cpu_s"] - second["cpu_s"])) * 1e6
    ctx = (second["ctx"] - first["ctx"]) - (third["ctx"] - second["ctx"])
    return {
        "netio.recv_calls_per_frame": (window_of("calls", "netio.recv") / window_of("calls", "netio.read_frame"), "count"),
        "netio.read_frame_us": (per_call_us("netio.read_frame"), "us"),
        "codec.decode_us": (per_call_us("codec.decode"), "us"),
        "codec.encode_us": (per_call_us("codec.encode"), "us"),
        "topics.matches_per_publish": (window_of("calls", "topics.match") / n, "count"),
        "broker.route_us": (per_call_us("broker.route"), "us"),
        "geo.radius_checks_per_publish": (window_of("calls", "geo.radius") / n, "count"),
        "geo.pip_per_publish": (window_of("calls", "geo.pip") / n, "count"),
        "geo.resolve_per_publish": (window_of("calls", "geo.resolve") / n, "count"),
        "geo.pip_us": (per_call_us("geo.pip"), "us"),
        "broker.subscribe_us": (per_call_us("broker.subscribe"), "us"),
        "broker.unsubscribe_us": (per_call_us("broker.unsubscribe"), "us"),
        "broker.update_location_us": (per_call_us("broker.update_location"), "us"),
        "broker.alloc_pid_us": (per_call_us("broker.alloc_pid"), "us"),
        "eventlog.emit_us": (per_call_us("eventlog.emit"), "us"),
        "eventlog.rows_per_msg": (window_of("calls", "eventlog.emit") / n, "count"),
        "broker.threads": (second["threads"], "count"),
        "broker.ctx_switches_per_msg": (ctx / n, "count"),
        "broker.unattributed_us_per_msg": ((cpu_us - window_of("ns", "root") / 1e3) / n * seg.speed, "us"),
        "loadgen.cpu_share": (seg.gen_cpu_s / seg.window_s, "ratio"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED="0"))
    if not (ROOT / "src" / "mqttg" / "broker.py").is_file():
        print(f"no mqttg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from oracle import p99

    w = workloads.build(args.workload, args.seed)
    workloads.validate(w)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{w.name}-fences.txt").write_text("\n".join(w.fence_lines()) + "\n", encoding="utf-8")
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})  # the broker inherits the core
    # A batch task never preempts on wake-up, so the broker always finishes
    # its burst before the generator reads the results; the broker itself
    # is forked back to the normal policy.
    os.sched_setscheduler(0, os.SCHED_BATCH | os.SCHED_RESET_ON_FORK, os.sched_param(0))

    setups = 1 if args.trace else max(1, round(args.seconds / SETUP_S))
    segs = []
    for _ in range(setups):
        segs.append(segment(w, args.seed, args.seconds / setups, bool(args.trace)))
        if segs[-1].problems:
            break
    problems = [p for seg in segs for p in seg.problems]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    attempted = max(1, sum(seg.attempted for seg in segs))
    failed = sum(seg.failed for seg in segs)

    metrics = {}
    if all(seg.window_s for seg in segs):
        n = sum(seg.completed for seg in segs)
        window = sum(seg.window_s for seg in segs)
        lat_ms = [ns / 1e6 * seg.speed for seg in segs for s in seg.slices for ns in s[3]]
        speeds = sorted(seg.speed for seg in segs)
        print(f"workload {w.name} seed {args.seed}: {n} publishes in {window:.3f} s over {len(segs)} set-ups, "
              f"{len(lat_ms)} latency samples, {len(w.phantoms)} phantom sessions")
        print(f"host speed factor {statistics.median(speeds):.4g} (set-ups {speeds[0]:.4g} to {speeds[-1]:.4g}); "
              f"metrics below are at the reference speed")
        if args.trace:
            metrics = per_layer(segs[0])
            print(f"traced publishes_per_s = {n / window / segs[0].speed:.6g} 1/s ({n / window:.6g} as measured)")
        else:
            metrics = end_to_end(segs)
            for name, (value, unit) in end_to_end(segs, at_reference=False).items():
                print(f"measured: {name} = {value:.6g} {unit}")
            tail = p99(lat_ms)
            if tail is not None:
                print(f"reference: latency_p99_ms = {tail:.6g} ms over {len(lat_ms)} samples")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {attempted}, failed = {failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

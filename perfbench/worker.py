"""One workload in one process: set up, run the timed loop, report JSON.

``run.py`` starts this script; it is not meant to be called by hand.  The
last line of its output is one JSON object for ``run.py`` to read.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A shared host's CPU speed drifts by a fifth or more within seconds: a fixed
# pure-Python loop on the 2-vCPU host this benchmark was built on took from
# 49 to 85 ms from one 5-s window to the next, and moved every op's time with
# it.  So the timed loop runs a fixed calibration unit, which never touches
# copartial, between ops, and scales each op's time by the unit's reference
# time over its median time in the op's one-second window: the end-to-end
# times are those of a host that runs the unit in its reference time.
WINDOW_NS = 1_000_000_000
CAL_NODES = 1000


class _Cell:
    __slots__ = ("value", "rest")

    def __init__(self, value, rest):
        self.value = value
        self.rest = rest


def calibration_unit() -> int:
    """Fixed pure-Python work: build and walk a linked list, gc off, so
    that the package's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        x = None
        for i in range(CAL_NODES):
            x = _Cell(i, x)
        total = 0
        while x is not None:
            total += x.value
            x = x.rest
        return total
    finally:
        if enabled:
            gc.enable()


def spawn_unit() -> None:
    """Start and end a bare Python process, as every CLI op does first."""
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)


@dataclass(frozen=True)
class Calibration:
    unit: Callable[[], object]
    ref_ns: int  # about the unit's median time on that host
    every_ns: int  # least time from one unit to the next


IN_PROCESS = Calibration(calibration_unit, 400_000, 20_000_000)
# The cli workload's ops run in child processes.  Their start-up, most of
# their time, does not follow the in-process unit, but follows a bare
# child's start-up: over 3-s windows, scaling by it cut the spread of cli
# op times from 0.27 to 0.07, where the in-process unit did not cut it.
CHILD = Calibration(spawn_unit, 10_000_000, 0)


@dataclass
class Loop:
    latencies_ns: list = field(default_factory=list)
    starts_ns: list = field(default_factory=list)
    # (start_ns, duration_ns) of each calibration unit
    calibration: list = field(default_factory=list)
    cal_ref_ns: int = IN_PROCESS.ref_ns
    failures: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_loop(api, ops, seconds: float, calibration: Calibration, tracer=None) -> Loop:
    """Closed loop, one client: the next op starts when the last returns.

    Runs ops in order, wrapping around, until ``seconds`` have passed; at
    least one op always runs.
    """
    from workloads import execute, mismatch

    loop = Loop(cal_ref_ns=calibration.ref_ns)
    start = time.perf_counter()
    last_cal = 0
    i = 0
    while True:
        op = ops[i % len(ops)]
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                got = execute(api, op)
            else:
                tracer.op = i
                got = tracer.call("bench.op", execute, api, op)
        except Exception as exc:  # any host error fails the op
            got = exc
        t1 = time.perf_counter_ns()
        loop.starts_ns.append(t0)
        loop.latencies_ns.append(t1 - t0)
        if isinstance(got, Exception):
            problem = f"{op.kind}{op.args!r} fuel={op.fuel}: raised {got!r}"
        else:
            problem = mismatch(op, got)
        if problem:
            loop.failures.append((i, problem))
        if t1 - last_cal >= calibration.every_ns:
            last_cal = time.perf_counter_ns()
            calibration.unit()
            loop.calibration.append((last_cal, time.perf_counter_ns() - last_cal))
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    loop.wall_s = time.perf_counter() - start
    return loop


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def host_speed_factor(units: int = 20) -> float:
    """How much slower than the reference the host runs the in-process unit now."""
    times = []
    for _ in range(units):
        t = time.perf_counter_ns()
        calibration_unit()
        times.append(time.perf_counter_ns() - t)
    return statistics.median(times) / IN_PROCESS.ref_ns


def speed_factors(loop: Loop) -> list[float]:
    """Per op, how much slower than the reference the host ran: the median
    calibration time of the op's window over the reference (1 without units)."""
    if not loop.calibration:
        return [1.0] * loop.attempted
    origin = loop.calibration[0][0]
    windows: dict[int, list] = {}
    for t, d in loop.calibration:
        windows.setdefault((t - origin) // WINDOW_NS, []).append(d)
    overall = statistics.median(d for _, d in loop.calibration)
    factor = {w: statistics.median(ds) / loop.cal_ref_ns for w, ds in windows.items()}
    return [factor.get((t - origin) // WINDOW_NS, overall / loop.cal_ref_ns)
            for t in loop.starts_ns]


def summarize(loop: Loop) -> dict:
    """End-to-end figures of one loop, at reference speed.

    ``ops_per_s`` counts the ops with the known answer per second spent in
    ops.  The tail is the highest percentile with at least ten ops beyond
    it: the 11th-slowest op, at percentile 100 * (n - 10) / n.  Below 20
    ops that would fall under the median, so the tail is then the median.
    The raw figures, unscaled, are reported next to them.
    """
    factors = speed_factors(loop)
    lat = sorted(ns / f for ns, f in zip(loop.latencies_ns, factors))
    raw = sorted(loop.latencies_ns)
    n = len(lat)
    ok = loop.attempted - loop.failed
    tail_rank = max(n - 10, math.ceil(n / 2))
    return {
        "ops_per_s": ok / (sum(lat) / 1e9),
        "verdict_p50_ms": percentile(lat, 50) / 1e6,
        "verdict_tail_ms": lat[tail_rank - 1] / 1e6,
        "tail_percentile": 100 * tail_rank / n,
        "tail_ops_beyond": n - tail_rank,
        "failed_ratio": loop.failed / loop.attempted,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "wall_s": loop.wall_s,
        "speed_factor": statistics.median(factors),
        "raw_ops_per_s": ok / loop.wall_s,
        "raw_p50_ms": percentile(raw, 50) / 1e6,
        "raw_tail_ms": raw[tail_rank - 1] / 1e6,
    }


def failure_lines(loop: Loop, limit: int = 5) -> list[str]:
    return [f"FAILED op #{i} {problem}" for i, problem in loop.failures[:limit]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    opts = parser.parse_args(argv)

    # Set-up: importing the package, drawing the ops and their known answers,
    # scaled to reference speed like the timed loop.
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import load_package
    from workloads import Cli, make_api, make_ops

    # cli ops import the package in their own processes; keeping it out of
    # this one keeps the parent's pages out of the children's peak RSS.
    pkg = None if opts.workload == "cli" else load_package()
    ops = make_ops(opts.workload, opts.seed)
    setup_s = (time.perf_counter() - t0) / host_speed_factor()
    if opts.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cli = Cli(ROOT)
    api = make_api(pkg, pkg, cli)
    calibration = CHILD if opts.workload == "cli" else IN_PROCESS
    if opts.trace == 0:
        loop = run_loop(api, ops, opts.seconds, calibration)
        for line in failure_lines(loop):
            print(line)
        summary = summarize(loop)
        if opts.workload == "cli":
            summary["peak_rss_mb"] = cli.peak_rss_mb
        else:
            summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        summary["setup_s"] = setup_s
        print(json.dumps(summary))
        return 0

    print(json.dumps(traced_run(opts, pkg, api, ops, setup_s, calibration)))
    return 0


def traced_run(opts, pkg, api, ops, setup_s, calibration) -> dict:
    """Per-layer numbers: the workload untraced then traced, then the probes.

    Both halves run the same ops from the start, so their throughputs give
    the tracing overhead.  Spans and rows are written under ``out/``.
    """
    from layers import PER_LAYER, Probes
    from tracer import Tracer, load_package, traced_package
    from workloads import Cli, make_api

    half = opts.seconds / 2
    plain = run_loop(api, ops, half, calibration)
    tracer = Tracer()
    layers = traced_package(pkg, tracer) if pkg else None
    traced = run_loop(make_api(layers, pkg, Cli(ROOT, tracer)), ops, half, calibration,
                      tracer)
    probes = Probes(pkg or load_package(), ROOT, opts.seed)
    probes.run_all()
    metrics = probes.metrics
    metrics["trace.overhead_ratio"] = ((plain.attempted / plain.wall_s)
                                       / (traced.attempted / traced.wall_s))

    for loop in (plain, traced):
        for line in failure_lines(loop):
            print(line)
    for problem in probes.problems:
        print(f"PROBE FAILED {problem}")
    for name, value in probes.diagnostics.items():
        print(f"DIAGNOSTIC {name} = {value:.6g}")
    print(f"# self time per op in the traced {opts.workload} loop "
          f"({traced.attempted} ops, {traced.wall_s:.2f} s)")
    busy = tracer.self_times_s()
    total = sum(busy.values())
    for layer, s in sorted(busy.items(), key=lambda kv: -kv[1]):
        print(f"SELF {layer:<10} {s / traced.attempted * 1e3:10.4f} ms/op "
              f"{100 * s / total:6.2f} %")
    for name, record in probes.ladders.items():
        rungs = ", ".join(f"{r['rung']}: {r['outcome']}" for r in record)
        print(f"FRONTIER {name} = {metrics[name]}  ({rungs})")
    for row in probes.rows:
        extra = {k: v for k, v in row.items() if k not in ("layer", "case", "outcome", "seconds")}
        secs = "" if row["seconds"] is None else f"{row['seconds']:.4f} s"
        print(f"BASELINE {row['layer']} | {row['case']} | {row['outcome']} | {secs} | "
              + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in extra.items()))

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = out / f"{opts.workload}-seed{opts.seed}"
    spans = stem.with_suffix(".spans.jsonl")
    spans.unlink(missing_ok=True)
    tracer.dump(spans, "workload")
    probes.tracer.dump(spans, "probes")
    report = {"workload": opts.workload, "seed": opts.seed, "setup_s": setup_s,
              "untraced": summarize(plain), "traced": summarize(traced),
              "workload_self_s": busy, "metrics": metrics,
              "diagnostics": probes.diagnostics, "frontier": probes.ladders,
              "baseline": probes.rows, "problems": probes.problems}
    stem.with_suffix(".trace.json").write_text(json.dumps(report, indent=1, default=str))
    print(f"# spans in {spans.relative_to(ROOT)}, report in "
          f"{stem.with_suffix('.trace.json').relative_to(ROOT)}")
    return {"attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed + len(probes.problems),
            "metrics": {name: metrics[name] for name in PER_LAYER}}


if __name__ == "__main__":
    sys.exit(main())

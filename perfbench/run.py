#!/usr/bin/env python3
"""copartial's benchmark: one workload per run, known answers checked.

    python3 perfbench/run.py --workload interp --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of one workload, ``--trace 1``
the per-layer metrics of a separate traced run, and ``--workload all`` runs
every workload untraced and prints a table.  The last line of the output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("interp", "recursion", "semidecide", "cli")
# Set-up is measured in this many fresh processes (after one unmeasured
# warm-up that writes the bytecode caches) and reported as their median.
SETUP_RUNS = 5
END_TO_END = {
    "ops_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Any single run must finish well inside the 180 s a run may take.
DEADLINE_S = 170


def _worker(args, deadline):
    """Run worker.py in its own process group; return its last JSON line."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {' '.join(args)} overran the deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    """(human-readable lines, result object) for one workload."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [_worker(common + ["--setup-only"], deadline)[1]["setup_s"]
              for _ in range(SETUP_RUNS + 1)][1:]
    lines, res = _worker(common + ["--trace", str(trace)], deadline)
    if trace:
        metrics = res["metrics"]
        units = _per_layer_units()
    else:
        setups.append(res["setup_s"])
        res["setup_s"] = statistics.median(setups)
        metrics = {name: res[name] for name in END_TO_END}
        units = END_TO_END
        lines.append(
            f"# {workload}: {res['attempted']} ops in {res['wall_s']:.2f} s; tail is p"
            f"{res['tail_percentile']:.2f} with {res['tail_ops_beyond']} ops beyond it; "
            f"failed_ratio {res['failed_ratio']:.4f}; setup median of {len(setups)} "
            f"processes")
        lines.append(
            f"# times scaled to reference speed; median calibration time over the "
            f"reference {res['speed_factor']:.3f}; unscaled: ops_per_s {res['raw_ops_per_s']:.5g}, "
            f"verdict_p50_ms {res['raw_p50_ms']:.5g}, verdict_tail_ms {res['raw_tail_ms']:.5g}")
    return lines, {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failed_ratio": res["failed"] / res["attempted"],
    }


def _per_layer_units():
    sys.path.insert(0, str(HERE))
    from layers import PER_LAYER

    return PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "copartial" / "__init__.py").is_file():
        print(f"error: no copartial package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if opts.workload != "all":
        try:
            lines, res = run_workload(opts.workload, opts.seed, opts.seconds, opts.trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        for name, m in res["metrics"].items():
            print(f"METRIC {opts.workload} {name} = {m['value']:.6g} {m['unit']}")
        print(f"METRIC {opts.workload} failed_ratio = {res.pop('failed_ratio'):.6g} ratio")
        print(json.dumps(res))
        return 0

    table, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        try:
            lines, res = run_workload(workload, opts.seed, opts.seconds, 0)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        table.append((workload, res))
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    names = list(END_TO_END) + ["failed_ratio"]
    print(f"{'workload':<11}" + "".join(f"{n:>16}" for n in names))
    print(f"{'':<11}" + "".join(f"{END_TO_END.get(n, 'ratio'):>16}" for n in names))
    for workload, res in table:
        values = [res["metrics"][n]["value"] for n in END_TO_END] + [res["failed_ratio"]]
        print(f"{workload:<11}" + "".join(f"{v:>16.5g}" for v in values))
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

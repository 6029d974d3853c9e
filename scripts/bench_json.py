#!/usr/bin/env python3
"""Save one benchmark run as a JSON file, or compare saved runs.

    python3 scripts/bench_json.py BENCH_<n>.json
    python3 scripts/bench_json.py --compare OLD.json [...] NEW.json [...]

The first form runs ``perfbench/run.py --workload all --seed 4242`` for
the seconds per workload that ``BENCHMARK.json`` sets, and saves the last
line of its output, one JSON object, with the commit it ran at, the
Python version, the seed and the seconds added.  It then adds
``<workload>.rss_mb_at_ops`` for each in-process workload: the peak RSS
of a fresh process that runs the first ``RSS_OPS`` ops of the workload at
that seed through ``perfbench/workloads.py``.  The run's own
``peak_rss_mb`` includes the harness's per-op lists, which grow with the
ops done, so a faster program reads as a bigger one there; at a fixed op
count it does not.  Each child runs in its own temporary copy of the
tree without its dot-files and ``__pycache__`` directories, removed when
the child ends, so the child compiles the tree's modules from source, as
a run in a fresh clone does, whatever bytecode the tree holds.  The
second form takes an even number of files: the first half are runs of
the old tree, the second half runs of the new one.
It prints, for each end-to-end metric, the median over each side's runs
and the ratio NEW / OLD of the medians beside the metric's bound in
``BENCHMARK.json`` (``peak_rss_mb``'s for ``rss_mb_at_ops``), and exits 1
if any ratio is worse than its bound; a metric only one side has is
printed with ``-`` for the other.  With one file per side the medians are
the two runs' own figures.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 4242
RSS_WORKLOADS = ("interp", "recursion", "semidecide")
RSS_OPS = 2560
# Runs ops ``[0, n)`` of a workload, wrapping around as the benchmark's
# loop does, and prints the process's peak RSS in MB.  Its paths are
# relative to the tree it runs in.
_RSS_CHILD = """
import resource, sys
sys.path[:0] = ["perfbench", "src"]
from tracer import load_package
from workloads import execute, make_api, make_ops, mismatch
workload, seed, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
pkg = load_package()
api = make_api(pkg, pkg, None)
ops = make_ops(workload, seed)
for i in range(n):
    op = ops[i % len(ops)]
    problem = mismatch(op, execute(api, op))
    if problem:
        sys.exit(problem)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def save(path: str) -> int:
    seconds = BENCHMARK["run_seconds"]
    run = _fresh_run(["perfbench/run.py", "--workload", "all", "--seed", str(SEED),
                      "--seconds", str(seconds)])
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        return run.returncode
    result = json.loads(run.stdout.splitlines()[-1])
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    result.update(commit=commit.stdout.strip() or None, python=platform.python_version(),
                  seed=SEED, seconds=seconds, rss_ops=RSS_OPS)
    for workload in RSS_WORKLOADS:
        result["metrics"][f"{workload}.rss_mb_at_ops"] = {
            "value": rss_mb_at_ops(workload), "unit": "MB"}
    Path(path).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


def rss_mb_at_ops(workload: str, ops: int = RSS_OPS) -> float:
    """Peak RSS in MB of a fresh process that runs the first ``ops`` ops of
    ``workload`` at ``SEED``; raises if one of them gets a wrong answer."""
    run = _fresh_run(["-c", _RSS_CHILD, workload, str(SEED), str(ops)])
    if run.returncode != 0:
        raise RuntimeError(f"{workload} at {ops} ops: {run.stderr.strip()}")
    return float(run.stdout)


def _fresh_run(args: list[str]) -> subprocess.CompletedProcess:
    """Run Python on ``args`` in a temporary copy of the tree with no bytecode
    cache, as in a fresh clone, and remove the copy after.  An empty
    ``PYTHONPYCACHEPREFIX`` would hide the standard library's installed
    bytecode as well: with ``PYTHONDONTWRITEBYTECODE`` set, every process
    would compile ``argparse`` and the rest from source, and a ``copartial``
    CLI process took ~350 ms instead of ~90 ms (2-core host, Python 3.11)."""
    with tempfile.TemporaryDirectory(prefix="bench-tree-") as tmp:
        tree = shutil.copytree(ROOT, Path(tmp) / ROOT.name,
                               ignore=shutil.ignore_patterns(".*", "__pycache__"))
        return subprocess.run([sys.executable, *args], cwd=tree, capture_output=True, text=True)


def medians(paths: list[str]) -> dict:
    """Each metric's median value over the saved runs ``paths`` that have it."""
    values: dict = {}
    for path in paths:
        for key, metric in json.loads(Path(path).read_text())["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
    return {key: statistics.median(vs) for key, vs in values.items()}


def compare(old_paths: list[str], new_paths: list[str]) -> int:
    bounds = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    old, new = medians(old_paths), medians(new_paths)
    worse = 0
    print(f"{'metric':<28}{'old':>12}{'new':>12}{'ratio':>8}{'bound':>8}")
    for key in sorted(old.keys() | new.keys()):
        name = key.rpartition(".")[2]
        spec = bounds.get("peak_rss_mb" if name == "rss_mb_at_ops" else name)
        if spec is None:
            continue
        if key not in old or key not in new:
            print(f"{key:<28}" + "".join(
                f"{side[key]:>12.5g}" if key in side else f"{'-':>12}" for side in (old, new)))
            continue
        a, b = old[key], new[key]
        ratio = b / a if a else float("inf")
        # The worst ratio a metric may reach: 1 - bound if higher is better, else 1 + bound.
        sign = -1 if spec["better"] == "higher" else 1
        limit = 1 + sign * spec["bound"]
        bad = sign * (ratio - limit) > 0
        worse += bad
        print(f"{key:<28}{a:>12.5g}{b:>12.5g}{ratio:>8.3f}{limit:>8.2f}" + ("  WORSE" if bad else ""))
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="the file to save a new run in")
    parser.add_argument("--compare", nargs="+", metavar="RUN",
                        help="runs of the old tree, then as many runs of the new one")
    opts = parser.parse_args(argv)
    if opts.compare:
        half, odd = divmod(len(opts.compare), 2)
        if odd:
            parser.error("--compare takes as many new runs as old ones")
        return compare(opts.compare[:half], opts.compare[half:])
    if opts.out is None:
        parser.error("give a file to save the run in, or --compare OLD NEW")
    return save(opts.out)


if __name__ == "__main__":
    sys.exit(main())

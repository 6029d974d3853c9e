#!/usr/bin/env python3
"""Save one benchmark run as a JSON file, or compare two saved runs.

    python3 scripts/bench_json.py BENCH_<n>.json
    python3 scripts/bench_json.py --compare OLD.json NEW.json

The first form runs ``perfbench/run.py --workload all --seed 4242`` for
the seconds per workload that ``BENCHMARK.json`` sets, and saves the last
line of its output, one JSON object, with the commit it ran at, the
Python version, the seed and the seconds added.  The second prints, for
each end-to-end metric of the two files, the ratio NEW / OLD beside the
metric's bound in ``BENCHMARK.json``, and exits 1 if any ratio is worse
than its bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 4242


def save(path: str) -> int:
    seconds = BENCHMARK["run_seconds"]
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
         "--seed", str(SEED), "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        return run.returncode
    result = json.loads(run.stdout.splitlines()[-1])
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    result.update(commit=commit.stdout.strip() or None, python=platform.python_version(),
                  seed=SEED, seconds=seconds)
    Path(path).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


def compare(old_path: str, new_path: str) -> int:
    bounds = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    old, new = (json.loads(Path(p).read_text())["metrics"] for p in (old_path, new_path))
    worse = 0
    print(f"{'metric':<28}{'old':>12}{'new':>12}{'ratio':>8}{'bound':>8}")
    for key in sorted(old.keys() & new.keys()):
        spec = bounds.get(key.rpartition(".")[2])
        if spec is None:
            continue
        a, b = old[key]["value"], new[key]["value"]
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
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    opts = parser.parse_args(argv)
    if opts.compare:
        return compare(*opts.compare)
    if opts.out is None:
        parser.error("give a file to save the run in, or --compare OLD NEW")
    return save(opts.out)


if __name__ == "__main__":
    sys.exit(main())

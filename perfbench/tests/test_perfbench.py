"""The benchmark's own tests: tiny workloads, a corrupted answer, the contract.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import Tracer, load_package, traced_package  # noqa: E402
from workloads import (ALWAYS_DIVERGE, CODES, SLOW_DIVERGE, WORKLOADS, Cli,  # noqa: E402
                       execute, make_api, make_ops)


@pytest.fixture(scope="module")
def api():
    pkg = load_package()
    return make_api(pkg, pkg, Cli(ROOT))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_op_of_a_tiny_block_gets_its_known_answer(api, workload):
    for op in make_ops(workload, seed=3, blocks=1, tiny=True):
        assert execute(api, op) == op.expected, op


@pytest.mark.parametrize("workload", ("interp", "semidecide"))
def test_a_corrupted_answer_makes_failed_ratio_nonzero(api, workload):
    ops = make_ops(workload, seed=4, blocks=1, tiny=True)
    clean = worker.summarize(worker.run_loop(api, ops, 0.2, worker.IN_PROCESS))
    assert clean["failed_ratio"] == 0
    victim = ops[len(ops) // 2]
    ops[len(ops) // 2] = dataclasses.replace(victim, expected=("corrupted",) + victim.expected)
    loop = worker.run_loop(api, ops, 0.2, worker.IN_PROCESS)
    assert worker.summarize(loop)["failed_ratio"] > 0
    assert loop.attempted >= len(ops)


def test_an_exception_counts_as_a_failed_op(api):
    # "P 3 1" breaks the arity discipline, so parse_code raises.
    op = make_ops("interp", seed=1, blocks=1, tiny=True)[0]
    loop = worker.run_loop(api, [type(op)("eval", ("P 3 1", (1,)), 10, op.expected)], 0,
                           worker.IN_PROCESS)
    assert (loop.attempted, loop.failed) == (1, 1)
    assert "IllFormed" in loop.failures[0][1]


def test_same_seed_same_ops_and_other_seed_other_ops():
    assert make_ops("recursion", 7, blocks=2) == make_ops("recursion", 7, blocks=2)
    assert make_ops("recursion", 7, blocks=2) != make_ops("recursion", 8, blocks=2)


def test_code_texts_are_the_corpus(api):
    corpus = api.reccode.CORPUS
    for name, (text, _, _) in CODES.items():
        assert api.reccode.parse_code(text) == corpus[name]
    assert api.reccode.parse_code(ALWAYS_DIVERGE) == corpus["always_diverge"]
    assert api.reccode.parse_code(SLOW_DIVERGE)


def test_tail_is_the_eleventh_slowest_op():
    for n, rank in ((15, 8), (20, 10), (100, 90), (1000, 990)):
        loop = worker.Loop(latencies_ns=list(range(1, n + 1)), wall_s=1.0)
        s = worker.summarize(loop)
        assert s["verdict_tail_ms"] * 1e6 == rank, n
        assert s["tail_percentile"] == 100 * rank / n


def test_times_are_scaled_by_their_windows_calibration():
    ref, second = worker.IN_PROCESS.ref_ns, worker.WINDOW_NS
    # The host runs the unit at reference speed in the first second and
    # twice as slowly in the next.
    loop = worker.Loop(latencies_ns=[4_000_000] * 4, wall_s=2.0,
                       starts_ns=[0, 10, second + 10, second + 20],
                       calibration=[(0, ref), (20, ref), (second, 2 * ref)])
    assert worker.speed_factors(loop) == [1.0, 1.0, 2.0, 2.0]
    s = worker.summarize(loop)
    assert s["verdict_p50_ms"] == 2.0 and s["raw_p50_ms"] == 4.0
    assert s["ops_per_s"] == pytest.approx(4 / 0.012)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [["bench.op", 0, 100, None, 0], ["delay.run_for", 10, 70, 0, 0],
                    ["semantics.bisim", 20, 50, 1, 0]]
    busy = tracer.self_times_s()
    assert busy == {"bench": 40e-9, "delay": 30e-9, "semantics": 30e-9}


def test_traced_package_keeps_classes_and_records_spans():
    pkg = load_package()
    tracer = Tracer()
    traced = traced_package(pkg, tracer)
    r = traced.delay.run_for(traced.delay.delay_by(1, 3), 10)
    assert isinstance(r, traced.delay.Converged) and r.value == 1
    assert [s[0] for s in tracer.spans] == ["delay.delay_by", "delay.run_for"]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_prints_the_contract_json_last():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "recursion",
                          "--seed", "2", "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "interp",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""

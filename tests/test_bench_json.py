"""scripts/bench_json.py: --compare reads two saved runs, with no benchmark
run, and the fixed-op-count RSS reading runs at a tiny op count."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_json.py"
if str(SCRIPT.parent) not in sys.path:
    sys.path.insert(0, str(SCRIPT.parent))

import bench_json  # noqa: E402


def compare(old, new):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--compare", old, new],
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    return proc.returncode, proc.stdout.splitlines()


def saved(tmp_path, name, metrics):
    path = tmp_path / name
    path.write_text(json.dumps({
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()},
    }))
    return str(path)


def test_compare_prints_each_ratio_beside_its_bound(tmp_path):
    old = saved(tmp_path, "old.json", {"interp.ops_per_s": 1000, "cli.peak_rss_mb": 20.0, "cli.extra": 1})
    new = saved(tmp_path, "new.json", {"interp.ops_per_s": 900, "cli.peak_rss_mb": 21.0, "cli.extra": 5})
    code, lines = compare(old, new)
    assert code == 0
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert rows == {
        "cli.peak_rss_mb": ["20", "21", "1.050", "1.15"],
        "interp.ops_per_s": ["1000", "900", "0.900", "0.75"],
    }


def test_compare_flags_a_metric_past_its_bound(tmp_path):
    old = saved(tmp_path, "old.json", {"interp.ops_per_s": 1000, "interp.verdict_p50_ms": 1.0})
    new = saved(tmp_path, "new.json", {"interp.ops_per_s": 700, "interp.verdict_p50_ms": 1.2})
    code, lines = compare(old, new)
    assert code == 1
    assert [line.split()[0] for line in lines if line.endswith("WORSE")] == ["interp.ops_per_s"]


def test_compare_prints_a_metric_only_one_run_has(tmp_path):
    old = saved(tmp_path, "old.json", {"cli.ops_per_s": 10})
    new = saved(tmp_path, "new.json", {"cli.ops_per_s": 13, "interp.rss_mb_at_ops": 19.5})
    code, lines = compare(old, new)
    assert code == 0
    assert [line.split() for line in lines[1:]] == [
        ["cli.ops_per_s", "10", "13", "1.300", "0.75"],
        ["interp.rss_mb_at_ops", "-", "19.5"],
    ]


def test_compare_bounds_rss_at_ops_by_peak_rss(tmp_path):
    old = saved(tmp_path, "old.json", {"semidecide.rss_mb_at_ops": 20.0})
    new = saved(tmp_path, "new.json", {"semidecide.rss_mb_at_ops": 24.0})
    code, lines = compare(old, new)
    assert code == 1
    assert lines[1].split() == ["semidecide.rss_mb_at_ops", "20", "24", "1.200", "1.15", "WORSE"]


@pytest.mark.parametrize("workload", bench_json.RSS_WORKLOADS)
def test_rss_at_a_tiny_op_count(workload):
    mb = bench_json.rss_mb_at_ops(workload, 3)
    assert 1 < mb < 200


def test_rss_at_ops_refuses_an_unknown_workload():
    with pytest.raises(RuntimeError, match="nope at 3 ops"):
        bench_json.rss_mb_at_ops("nope", 3)

"""scripts/bench_json.py --compare reads two saved runs, with no benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_json.py"


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

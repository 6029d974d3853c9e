"""scripts/bench_json.py: --compare reads saved runs, with no benchmark run,
and the fixed-op-count RSS reading runs at a tiny op count."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_json.py"
if str(SCRIPT.parent) not in sys.path:
    sys.path.insert(0, str(SCRIPT.parent))

import bench_json  # noqa: E402


def compare(*runs, failed_row=False):
    """The exit status and the lines printed; the last, the failed-ops row,
    only if ``failed_row``, else it is checked to be there and dropped."""
    proc = subprocess.run([sys.executable, str(SCRIPT), "--compare", *runs],
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    if failed_row:
        return proc.returncode, lines[-1]
    assert lines[-1].startswith("failed/attempted ")
    return proc.returncode, lines[:-1]


def saved(tmp_path, name, metrics, attempted=10, failed=0):
    path = tmp_path / name
    path.write_text(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
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


def test_compare_takes_the_median_of_each_sides_runs(tmp_path):
    # A single new draw of 700 would be WORSE; the median of three is not.
    old = [saved(tmp_path, f"old{i}.json", {"interp.ops_per_s": v, "interp.verdict_p50_ms": 1.0})
           for i, v in enumerate((1000, 980, 1020))]
    new = [saved(tmp_path, f"new{i}.json", {"interp.ops_per_s": v, "interp.verdict_p50_ms": p})
           for i, (v, p) in enumerate(((700, 1.1), (990, 0.9), (1010, 0.8)))]
    code, lines = compare(*old, *new)
    assert code == 0
    assert [line.split() for line in lines[1:]] == [
        ["interp.ops_per_s", "1000", "990", "0.990", "0.75"],
        ["interp.verdict_p50_ms", "1", "0.9", "0.900", "1.25"],
    ]
    code, lines = compare(old[0], new[0])
    assert code == 1
    assert lines[1].split() == ["interp.ops_per_s", "1000", "700", "0.700", "0.75", "WORSE"]


def test_compare_counts_the_pairs_the_new_side_won(tmp_path):
    # From MIN_PAIRS runs a side on, the i-th old and new runs are a pair.  A
    # higher ops_per_s and a lower p50 win, a tie is no win, and a pair that
    # lacks a metric is not counted for it.
    assert bench_json.MIN_PAIRS == 5
    ops = ((100, 110), (100, 90), (100, 100), (100, 120), (100, 130))
    p50 = ((2.0, None), (2.0, 1.5), (2.0, 3.0), (2.0, 1.0), (2.0, 2.5))
    old, new = [], []
    for i, ((o, n), (po, pn)) in enumerate(zip(ops, p50)):
        old.append(saved(tmp_path, f"old{i}.json",
                         {"interp.ops_per_s": o, "interp.verdict_p50_ms": po}))
        new.append(saved(tmp_path, f"new{i}.json", {"interp.ops_per_s": n} if pn is None
                         else {"interp.ops_per_s": n, "interp.verdict_p50_ms": pn}))
    code, lines = compare(*old, *new)
    assert code == 0
    assert [line.split() for line in lines] == [
        ["metric", "old", "new", "ratio", "bound", "wins"],
        ["interp.ops_per_s", "100", "110", "1.100", "0.75", "3/5"],
        ["interp.verdict_p50_ms", "2", "2", "1.000", "1.25", "2/4"],
    ]
    # Four runs a side are too few for a count.
    code, lines = compare(*old[:4], *new[:4])
    assert lines[0].split() == ["metric", "old", "new", "ratio", "bound"]
    assert all(len(line.split()) == 5 for line in lines[1:])


def test_compare_prints_the_failed_ops_each_side_summed_over_its_runs(tmp_path):
    ops = {"interp.ops_per_s": 1000}
    old = [saved(tmp_path, f"old{i}.json", ops, attempted=100 + i, failed=i) for i in range(2)]
    new = [saved(tmp_path, f"new{i}.json", ops, attempted=300) for i in range(2)]
    code, row = compare(*old, *new, failed_row=True)
    assert code == 0
    assert row.split() == ["failed/attempted", "1/201", "0/600"]


@pytest.mark.parametrize("old_failed, new_failed, code", [
    (0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 0), (2, 3, 1),
], ids=["none", "new-fails", "same-share", "old-fails", "larger-share"])
def test_compare_exits_1_when_the_new_side_fails_a_larger_share(
        tmp_path, old_failed, new_failed, code):
    # The new side attempts twice as many ops, so 2 failures there are the same share as 1.
    ops = {"interp.ops_per_s": 1000}
    old = saved(tmp_path, "old.json", ops, attempted=100, failed=old_failed)
    new = saved(tmp_path, "new.json", ops, attempted=200, failed=2 * new_failed)
    got, row = compare(old, new, failed_row=True)
    assert got == code
    assert row.endswith("WORSE") == bool(code)


def test_compare_refuses_an_odd_number_of_runs(tmp_path):
    run = saved(tmp_path, "run.json", {"cli.ops_per_s": 10})
    proc = subprocess.run([sys.executable, str(SCRIPT), "--compare", run, run, run],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "as many new runs as old ones" in proc.stderr


@pytest.mark.parametrize("workload", bench_json.RSS_WORKLOADS)
def test_rss_at_a_tiny_op_count(workload):
    mb = bench_json.rss_mb_at_ops(workload, 3)
    assert 1 < mb < 200


def test_rss_at_ops_refuses_an_unknown_workload():
    with pytest.raises(RuntimeError, match="nope at 3 ops"):
        bench_json.rss_mb_at_ops("nope", 3)


def test_each_child_runs_in_a_fresh_copy_without_bytecode(tmp_path, monkeypatch):
    # A tree with stale bytecode and a dot-directory beside its sources.
    root = tmp_path / "repo"
    for name in ("src/copartial/reccode.py", "src/copartial/__pycache__/reccode.cpython-311.pyc",
                 "perfbench/run.py", "perfbench/__pycache__/run.cpython-311.pyc", ".git/HEAD"):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(name)
    monkeypatch.setattr(bench_json, "ROOT", root)
    trees = []

    def fake_run(argv, cwd, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, "abc\n" if "rev-parse" in argv else "", "")
        tree = Path(cwd)
        trees.append(tree)
        assert argv[0] == sys.executable
        assert root not in tree.parents and tree != root
        assert sorted(str(p.relative_to(tree)) for p in tree.rglob("*")) == [
            "perfbench", "perfbench/run.py", "src", "src/copartial", "src/copartial/reccode.py"]
        out = '{"correct": true, "metrics": {}}' if "perfbench/run.py" in argv else "12.5"
        return subprocess.CompletedProcess(argv, 0, out + "\n", "")

    monkeypatch.setattr(bench_json.subprocess, "run", fake_run)
    assert bench_json.save(str(tmp_path / "run.json")) == 0
    saved_run = json.loads((tmp_path / "run.json").read_text())
    assert saved_run["commit"] == "abc"
    assert saved_run["metrics"] == {f"{w}.rss_mb_at_ops": {"value": 12.5, "unit": "MB"}
                                    for w in bench_json.RSS_WORKLOADS}
    # One copy per child: the run, then one per in-process workload; each is gone.
    assert len(set(trees)) == len(trees) == 1 + len(bench_json.RSS_WORKLOADS)
    assert not any(tree.exists() for tree in trees)
    assert (root / "src/copartial/__pycache__").is_dir()


@pytest.mark.parametrize("status, saved, commit", [
    ("", "BENCH_9.json", "abc"),
    ("?? BENCH_9.json\n", "BENCH_9.json", "abc"),
    (" M BENCH_9.json\n", "BENCH_9.json", "abc"),
    (" M src/copartial/delay.py\n?? BENCH_9.json\n", "BENCH_9.json", "abc-dirty"),
    ("?? notes.txt\n", "BENCH_9.json", "abc-dirty"),
    ("R  BENCH_8.json -> BENCH_9.json\n", "BENCH_9.json", "abc-dirty"),
    ("?? BENCH_9.json\n", None, "abc-dirty"),
], ids=["clean", "new-save", "overwritten-save", "changed-source", "untracked", "renamed",
        "saved-outside"])
def test_a_commit_is_marked_dirty_when_the_tree_has_other_changes(status, saved, commit):
    assert bench_json.commit_label("abc\n", status, saved) == commit


def test_no_head_is_no_commit():
    assert bench_json.commit_label("", " M src/copartial/delay.py\n", None) is None


@pytest.mark.parametrize("status, commit", [("?? BENCH_9.json\n", "abc"),
                                            (" M scripts/bench_json.py\n", "abc-dirty")])
def test_save_marks_its_commit_by_the_status_of_the_rest_of_the_tree(
        tmp_path, monkeypatch, status, commit):
    root = tmp_path / "repo"
    root.mkdir()
    monkeypatch.setattr(bench_json, "ROOT", root)

    def fake_run(argv, cwd, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, "abc\n" if "rev-parse" in argv else status, "")
        out = '{"correct": true, "metrics": {}}' if "perfbench/run.py" in argv else "12.5"
        return subprocess.CompletedProcess(argv, 0, out + "\n", "")

    monkeypatch.setattr(bench_json.subprocess, "run", fake_run)
    monkeypatch.chdir(root)
    assert bench_json.save("BENCH_9.json") == 0
    assert json.loads((root / "BENCH_9.json").read_text())["commit"] == commit

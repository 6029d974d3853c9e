"""The scripts under scripts/ run and print their known rows."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_fixpoint_steps():
    lines = run_script("fixpoint_steps.py", "--fuel", "2000")
    for line in (
        "== factorial",
        "  8: value=40320 steps=10 first_iterate=9",
        "  0: value=91 steps=21 first_iterate=20",
        "  (3, 3): value=61 steps=64 first_iterate=63",
        "  0: exhausted fuel=2000",
        "  (17, 5): value=3 steps=5 first_iterate=4",
        "  (5, 0): exhausted fuel=2000",
    ):
        assert line in lines


def test_sloth_table():
    lines = run_script("sloth_table.py", "--max-n", "14", "--fuel", "300")
    assert lines[0] == "fuel=300; '>=k?' means k successors seen, then fuel ran out"
    assert len(lines) == 17
    for line in (
        " 10        8        9    8 (189 steps)    9 (177 steps)",
        " 13   >=300?        0        exhausted        exhausted",
        " 14        0        0        exhausted        exhausted",
    ):
        assert line in lines

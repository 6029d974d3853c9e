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


# Every row of ``fixpoint_steps.py --fuel 2000``: any step-count drift in ``fix`` shows here.
FIXPOINT_TABLE = """\
== factorial
  0: value=1 steps=2 first_iterate=1
  1: value=1 steps=3 first_iterate=2
  2: value=2 steps=4 first_iterate=3
  3: value=6 steps=5 first_iterate=4
  4: value=24 steps=6 first_iterate=5
  5: value=120 steps=7 first_iterate=6
  6: value=720 steps=8 first_iterate=7
  7: value=5040 steps=9 first_iterate=8
  8: value=40320 steps=10 first_iterate=9
== mccarthy91
  0: value=91 steps=21 first_iterate=20
  42: value=91 steps=17 first_iterate=16
  99: value=91 steps=4 first_iterate=3
  100: value=91 steps=3 first_iterate=2
  101: value=91 steps=2 first_iterate=1
  150: value=140 steps=2 first_iterate=1
== ackermann
  (0, 0): value=1 steps=2 first_iterate=1
  (1, 1): value=3 steps=4 first_iterate=3
  (2, 2): value=7 steps=9 first_iterate=8
  (3, 3): value=61 steps=64 first_iterate=63
== diverging
  0: exhausted fuel=2000
== division
  (0, 1): value=0 steps=2 first_iterate=1
  (17, 5): value=3 steps=5 first_iterate=4
  (9, 3): value=3 steps=5 first_iterate=4
  (5, 0): exhausted fuel=2000
"""


def test_fixpoint_steps():
    assert run_script("fixpoint_steps.py", "--fuel", "2000") == FIXPOINT_TABLE.splitlines()


# Every line of ``sloth_table.py --max-n 14 --fuel 300``: lazy and strict
# sloth values and step counts, and where each runs out of fuel.
SLOTH_TABLE = """\
fuel=300; '>=k?' means k successors seen, then fuel ran out
  n   lazy f   lazy g         strict f         strict g
  0        0        0      0 (1 steps)      0 (1 steps)
  1        0        0      0 (5 steps)      0 (5 steps)
  2        0        1      0 (9 steps)      1 (9 steps)
  3        1        2     1 (17 steps)     2 (13 steps)
  4        2        3     2 (25 steps)     3 (25 steps)
  5        4        5     4 (45 steps)     5 (37 steps)
  6        9        8     9 (85 steps)     8 (73 steps)
  7        8        0    8 (167 steps)     0 (87 steps)
  8        0        0     0 (91 steps)    0 (169 steps)
  9        0        8    0 (173 steps)     8 (95 steps)
 10        8        9    8 (189 steps)    9 (177 steps)
 11        9       10        exhausted        exhausted
 12       18       19        exhausted        exhausted
 13   >=300?        0        exhausted        exhausted
 14        0        0        exhausted        exhausted
"""


def test_sloth_table_every_line():
    lines = run_script("sloth_table.py", "--max-n", "14", "--fuel", "300")
    assert lines == SLOTH_TABLE.splitlines()


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

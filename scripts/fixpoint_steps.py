#!/usr/bin/env python3
"""Show how many steps the dovetailed fixed point spends per argument,
and the first iterate that already suffices.

``fix`` lets iterate n join after n + 1 steps, and every sample
operator's iterate at an argument is a value or ``never()``, which takes
no step; so a run that converges after ``steps`` steps was won by
iterate ``steps - 1``.

Usage: python scripts/fixpoint_steps.py [--fuel F]
"""

import argparse

from copartial import Converged, fix, run_for
from copartial.fixpoint import SAMPLE_OPERATORS

ARGS = {
    "factorial": list(range(9)),
    "mccarthy91": [0, 42, 99, 100, 101, 150],
    "ackermann": [(0, 0), (1, 1), (2, 2), (3, 3)],
    "division": [(0, 1), (17, 5), (9, 3), (5, 0)],
    "diverging": [0],
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--fuel", type=int, default=10_000)
    opts = parser.parse_args()

    for name, F in SAMPLE_OPERATORS().items():
        yf = fix(F)
        print(f"== {name}")
        for a in ARGS[name]:
            r = run_for(yf(a), opts.fuel)
            if isinstance(r, Converged):
                print(f"  {a!r}: value={r.value} steps={r.steps} first_iterate={r.steps - 1}")
            else:
                print(f"  {a!r}: exhausted fuel={opts.fuel}")


if __name__ == "__main__":
    main()

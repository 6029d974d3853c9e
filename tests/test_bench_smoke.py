"""The benchmark's in-process ops, run once as a smoke test of what they call.

Each in-process workload's tiny block runs against the package's layers,
both untraced and traced.  The traced package resolves every name in
each layer module's ``__all__``, so a name that is listed but missing
fails here.  Nothing here starts a child process or checks a time.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from tracer import Tracer, load_package, traced_package  # noqa: E402
from workloads import execute, make_api, make_ops  # noqa: E402


@pytest.mark.parametrize("traced", (False, True), ids=("plain", "traced"))
@pytest.mark.parametrize("workload", ("interp", "recursion", "semidecide"))
def test_every_op_of_a_tiny_block_gets_its_known_answer(workload, traced):
    raw = load_package()
    tracer = Tracer()
    api = make_api(traced_package(raw, tracer) if traced else raw, raw, None)
    for op in make_ops(workload, seed=3, blocks=1, tiny=True):
        assert execute(api, op) == op.expected, op
    assert bool(tracer.spans) == traced

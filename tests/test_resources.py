"""Host resources: deep recursion stays off the host stack, and a forced
computation holds no more than its live state."""

import gc
import weakref

import pytest

from copartial import Converged, later, now, run_for
from copartial.fixpoint import factorial_operator, fix
from copartial.lazy import ZERO, step, succ
from copartial.nested import DevilSpec, cps_fix, devil
from copartial.reccode import CORPUS, evaluate


class TestDeepNesting:
    def test_cps_fix_depth_5000(self):
        # d(n) = n if n >= 5000 else d(n + 1) + 1
        d = cps_fix(lambda n: n >= 5000, lambda n: n, lambda n: n + 1, lambda v: v + 1, 0)
        assert run_for(d, 10_000) == Converged(10_000, 5000)

    def test_devil_depth_2000(self):
        # d(n) = n if n >= 2000 else d(d(n + 1)) + 1, which is 4000 - n below 2000
        spec = DevilSpec(
            in_base=lambda n: n >= 2000, i=lambda n: n + 1, g=lambda n: n, h=lambda v: v + 1
        )
        for a in (0, 1500, 1999, 2000):
            r = run_for(devil(spec, a), 10_000)
            assert isinstance(r, Converged) and r.value == (4000 - a if a < 2000 else a), a


class _Token:
    pass


@pytest.mark.parametrize(
    "make, force, result",
    [(later, "rest", now(0)), (succ, "pred", ZERO), (step, "rest", ZERO)],
    ids=["Later", "Succ", "Step"],
)
def test_forced_cell_drops_its_thunk(make, force, result):
    token = _Token()
    alive = weakref.ref(token)
    cell = make(lambda t=token: result)
    del token
    assert alive() is not None
    assert getattr(cell, force)() is result
    assert alive() is None
    assert getattr(cell, force)() is result


def test_runs_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        assert run_for(fix(factorial_operator())(30), 1000) == Converged(
            265252859812191058636308480000000, 32
        )
        assert run_for(evaluate(CORPUS["ident_by_min"], [now(5)]), 10_000) == Converged(5, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()

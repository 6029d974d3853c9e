"""Host resources: deep recursion stays off the host stack, and a forced
computation holds no more than its live state."""

import ast
import gc
import tracemalloc
import weakref
from pathlib import Path

import pytest

import copartial
from copartial import (
    Again, Converged, Exhausted, bind, bisim, converges_to, delay_by, diverges_bounded, fmap,
    is_finite, later, leq, never, now, parallel_search, race, run_for, unfold,
)
from copartial.fixpoint import division_operator, factorial_operator, fix
from copartial.lazy import (
    ZERO, Ended, lazy_of, lazy_plus, observe, omega, sloth_f, sloth_strict_g, step, succ,
)
from copartial.nested import DevilSpec, cps_fix, devil, nest
from copartial.reccode import CORPUS, Comp, Min, PrimRec, Proj, Succ, Zero, evaluate


def left_chain(depth, x):
    """``depth`` binds nested to the left over ``x``, each adding 1 after a step."""
    for _ in range(depth):
        x = bind(lambda v: delay_by(v + 1, 1), x)
    return x


def fmap_tower(depth, x):
    for _ in range(depth):
        x = fmap(lambda v: v + 1, x)
    return x


def right_loop(n):
    """7 after n steps, as ``delay_by(n, 1) >>= (lambda _: right_loop(n - 1))``."""
    return now(7) if n == 0 else bind(lambda _: right_loop(n - 1), delay_by(n, 1))


class Ticks:
    """A call counter that allocates nothing per call it counts."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def tick(self):
        self.n += 1


def counted_right_loop(n, ticks):
    """``right_loop(n)``, with each continuation's call counted in ``ticks``."""
    return now(7) if n == 0 else bind(
        lambda _: ticks.tick() or counted_right_loop(n - 1, ticks), delay_by(n, 1))


def stepping_search(n):
    """A search whose entrants below ``n`` are all still stepping when ``n`` wins."""
    return parallel_search(lambda k: delay_by(k, 10**6) if k < n else now(k))


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

    def test_left_nested_bind_depth_10000(self):
        assert run_for(left_chain(10_000, delay_by(0, 2)), 20_000) == Converged(10_000, 10_002)

    def test_fmap_tower_depth_10000(self):
        assert run_for(fmap_tower(10_000, delay_by(7, 3)), 10) == Converged(10_007, 3)

    def test_bind_onto_a_partly_run_chain(self):
        partly = run_for(left_chain(5000, delay_by(0, 1)), 1234)
        assert isinstance(partly, Exhausted)
        rest = bind(lambda v: delay_by(2 * v, 1), partly.rest)
        assert run_for(rest, 10_000) == Converged(10_000, 5001 - 1234 + 1)

    def test_right_nested_lazy_sum_20000_deep(self):
        s = lazy_of(1)
        for _ in range(20_000):
            s = lazy_plus(lazy_of(1), s)
        assert observe(s, 10**6) == (20_001, Ended.ZERO)

    def test_left_nested_lazy_sum_20000_deep(self):
        s = lazy_of(1)
        for _ in range(20_000):
            s = lazy_plus(s, lazy_of(1))
        assert observe(s, 10**6) == (20_001, Ended.ZERO)

    def test_primrec_over_a_stepping_base_2000_deep(self):
        base = Comp(CORPUS["ident_by_min"], (Proj(1, 1),))
        code = PrimRec(base, Comp(Succ(), (Proj(3, 3),)))
        assert run_for(evaluate(code, [now(3), now(2000)]), 10_000) == Converged(2003, 3)

    def test_parallel_search_1000_live_entrants(self):
        # Entrant n < 1000 keeps stepping; every round advances all of them.
        assert run_for(stepping_search(1000), 10**5) == Converged(1000, 1001)


class TestLongRuns:
    """A run of steps is one node, and every peel loop charges it per step in O(1)."""

    def test_a_run_of_10_to_the_12_steps(self):
        assert run_for(delay_by(7, 10**12), 10**12) == Converged(7, 10**12)

    def test_the_remainder_of_a_part_run_run(self):
        partly = run_for(delay_by(7, 10**12), 10**6)
        assert isinstance(partly, Exhausted)
        assert run_for(partly.rest, 10**12) == Converged(7, 10**12 - 10**6)

    def test_an_unfold_whose_head_is_kept_retains_no_chain(self):
        # The steps are taken in one loop over the step function, so no
        # memoised cell per step hangs off the head the caller keeps.
        tracemalloc.start()
        try:
            head = unfold(200_000, lambda k: now(k) if k == 0 else Again(k - 1))
            before = tracemalloc.get_traced_memory()[0]
            assert run_for(head, 10**6) == Converged(0, 200_000)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert head is not None
        assert retained < 2**20

    def test_a_search_nested_in_a_code_with_steps_whose_head_is_kept_retains_no_chain(self):
        # A code with steps is an unfold over its generator, so its failed
        # probes are taken in one loop and the cut is memoised as one run.
        code = Comp(Succ(), (CORPUS["always_diverge"],))
        tracemalloc.start()
        try:
            head = evaluate(code, [now(0)])
            before = tracemalloc.get_traced_memory()[0]
            assert isinstance(run_for(head, 100_000), Exhausted)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert head is not None
        assert retained < 2**20

    @pytest.mark.parametrize(
        "make, answers",
        [
            (lambda: lazy_plus(lazy_of(1), omega()),
             lambda head: observe(head, 200_000) == (200_000, Ended.EXHAUSTED)),
            (lambda: bind(now, omega()),
             lambda head: isinstance(run_for(head, 200_000), Exhausted)),
        ],
        ids=["observe-plus", "run_for-bind"],
    )
    def test_a_knot_at_the_head_of_a_bind_whose_head_is_kept_retains_no_chain(self, make, answers):
        # A knot is a run without end at the head of a bind as well as bare,
        # so it is cut at once, and no memoised node per step hangs off the head.
        tracemalloc.start()
        try:
            head = make()
            before = tracemalloc.get_traced_memory()[0]
            assert answers(head)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert head is not None
        assert retained < 2**20

    @pytest.mark.parametrize(
        "make, answer",
        [
            (lambda: race(delay_by(1, 10**5), delay_by(2, 10**5 + 1)), Converged(1, 10**5)),
            (lambda: parallel_search(lambda k: delay_by(k, 10**5) if k < 3 else never()),
             Converged(0, 10**5 + 1)),
        ],
        ids=["race", "parallel_search"],
    )
    def test_a_race_whose_head_is_kept_retains_no_chain(self, make, answer):
        # A race's rounds are one generator node, cut in one loop over its
        # rounds and memoised as one run, so no node per round hangs off the head.
        head = make()
        tracemalloc.start()
        try:
            assert run_for(head, 10**6) == answer
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**13
        assert run_for(head, 10**6) == answer

    def test_a_right_bind_loop_whose_head_is_kept_retains_no_chain(self):
        # One cut runs the whole loop and memoises the head as one run, so the
        # bind nodes it passed are freed as it goes.
        ticks = Ticks()
        head = counted_right_loop(10**5, ticks)
        tracemalloc.start()
        try:
            assert run_for(head, 10**6) == Converged(7, 10**5)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 2**16
        assert ticks.n == 10**5
        assert run_for(head, 10**6) == Converged(7, 10**5)
        assert ticks.n == 10**5

    @pytest.mark.parametrize(
        "judge, verdict",
        [
            (lambda n: converges_to(right_loop(n), 7, n + 10), "Holds"),
            (lambda n: diverges_bounded(right_loop(n), n + 10), "Fails"),
            (lambda n: is_finite(right_loop(n), n + 10), "Holds"),
            (lambda n: bisim(right_loop(n), right_loop(n), n + 10), "Holds"),
            (lambda n: leq(right_loop(n), right_loop(n), n + 10), "Holds"),
        ],
        ids=["converges_to", "diverges_bounded", "is_finite", "bisim", "leq"],
    )
    @pytest.mark.parametrize("n", [2_000, 20_000])
    def test_a_judge_keeps_no_side_it_has_run(self, judge, verdict, n):
        # No judge holds a side once its run starts, so a temporary right
        # bind loop's memoised steps are freed as the run passes them.
        tracemalloc.start()
        try:
            assert str(judge(n)) == verdict
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**14

    def test_sloth_observed_with_fuel_20000(self):
        tracemalloc.start()
        try:
            assert observe(sloth_f(13), 20_000) == (20_000, Ended.EXHAUSTED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class _Token:
    pass


@pytest.mark.parametrize(
    "make, force, result",
    [
        (later, "rest", now(0)),
        (lambda thunk: bind(lambda _: thunk(), delay_by(0, 1)), "rest", now(0)),
        (succ, "pred", ZERO),
        (step, "rest", ZERO),
        (lambda thunk: lazy_plus(ZERO, succ(thunk)), "pred", ZERO),
        (lambda thunk: unfold(0, lambda s: thunk() if s else Again(1)), "rest", now(0)),
    ],
    ids=["Later", "bind", "Succ", "Step", "plus", "unfold"],
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
        assert run_for(fix(division_operator())((7, 0)), 1000) == Exhausted(never())
        assert run_for(evaluate(CORPUS["ident_by_min"], [now(5)]), 10_000) == Converged(5, 5)
        search = Min(Comp(CORPUS["monus"], (Proj(1, 2), Comp(CORPUS["ident_by_min"], (Proj(2, 2),)))))
        assert run_for(evaluate(search, [now(3)]), 10_000) == Converged(3, 9)
        # A search under 25 nested loops, past the block limit: its loop body is split off.
        one = Comp(Succ(), (Comp(Zero(), (Proj(1, 3),)),))
        deep = Comp(CORPUS["plus"], (Proj(1, 2), Comp(CORPUS["ident_by_min"], (Proj(1, 2),))))
        for _ in range(25):
            deep = PrimRec(Proj(1, 1), Comp(deep, (Proj(3, 3), one)))
        assert run_for(evaluate(deep, [now(4), now(2)]), 10_000) == Converged(16, 12)
        assert run_for(left_chain(300, delay_by(0, 1)), 1000) == Converged(300, 301)
        assert run_for(stepping_search(50), 1000) == Converged(50, 51)
        assert run_for(nest(30), 1000) == Converged(0, 61)
        d = cps_fix(lambda n: n >= 50, lambda n: n, lambda n: n + 1, lambda v: v + 1, 0)
        assert run_for(d, 1000) == Converged(100, 50)
        assert isinstance(run_for(sloth_strict_g(14), 5000), Exhausted)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _self_naming_nested_functions(tree):
    """Functions defined inside another function whose body names them."""
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(outer):
            if node is not outer and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, body = node.name, node
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda)
                  and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)):
                name, body = node.targets[0].id, node.value
            else:
                continue
            if any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(body)):
                yield node.lineno, name


def _bare_yields(tree):
    """The lines of ``yield`` expressions without a value."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Yield) and node.value is None:
            yield node.lineno


def test_no_generator_yields_without_a_value():
    # A resume of a generator node yields the number of steps it took.
    found = []
    for path in sorted(Path(copartial.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line}" for line in _bare_yields(tree)]
    assert found == []


def test_no_nested_function_names_itself():
    # The condition ``delay.Later`` states: a nested function that reaches
    # itself forms a cycle with its closure cell, which keeps a whole
    # computation alive until the cycle collector runs.
    found = set()
    for path in sorted(Path(copartial.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found |= {f"{path.name}:{line} {name}" for line, name in _self_naming_nested_functions(tree)}
    assert sorted(found) == []


def test_only_delay_names_the_memo_cell():
    # A ``Later``'s one slot, ``_thunk``, holds code or what its cut left, and
    # only ``delay`` tells the two apart: no other module may reach it.
    package = Path(copartial.__file__).parent
    names = sorted(path.name for path in package.glob("*.py") if "_thunk" in path.read_text())
    assert names == ["delay.py"]

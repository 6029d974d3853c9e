"""Nested recursion: the nest function, the devil's nest, cps_fix."""

import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copartial import (
    Converged, Exhausted, Later, bind, bisim, delay_by, later, never, now, parallel_search, race,
    run_for, strict_pair, unfold, Again, Done,
)
from copartial.lazy import succ
from copartial.delay import Now, _drop, _gen, _Run, _run_node
from copartial.nested import DevilSpec, cnest, cps_fix, devil, mccarthy91_devil_spec

FUEL = 10_000


def m91(n):
    return n - 10 if n > 100 else 91


def devil_oracle(spec):
    """Memoised plain recursion for ``spec``: ``a -> (d(a), steps)``, with one
    step per unfolding and one per return into the pending outer call."""

    @lru_cache(maxsize=None)
    def d(a):
        if spec.in_base(a):
            return spec.g(a), 0
        v, inner = d(spec.i(a))
        w, outer = d(v)
        return spec.h(w), inner + outer + 2

    return d


# Post-maps that do not commute with ``d`` on base values.
NON_IDENTITY_SPECS = {
    "ten-times": DevilSpec(in_base=lambda x: x >= 3, i=lambda x: x + 1,
                           g=lambda x: x + 5, h=lambda x: 10 * x),
    "double-plus-seven": DevilSpec(in_base=lambda x: x >= 4, i=lambda x: x + 1,
                                   g=lambda x: 2 * x, h=lambda x: x + 7),
    "mccarthy-plus-one": DevilSpec(in_base=lambda n: n > 100, i=lambda n: n + 11,
                                   g=lambda n: n - 10, h=lambda n: n + 1),
    "halving": DevilSpec(in_base=lambda x: x >= 5, i=lambda x: x + 3,
                         g=lambda x: x // 2 + 4, h=lambda x: max(0, x - 1)),
}


@lru_cache(maxsize=None)
def devil91_oracle(n):
    # memoized direct recursion; terminates classically
    if n > 100:
        return n - 10
    return devil91_oracle(devil91_oracle(n + 11))


class TestNest:
    def test_zero_for_small_inputs(self):
        from copartial.nested import nest

        for n in range(11):
            r = run_for(nest(n), FUEL)
            assert r == Converged(0, 2 * n + 1), n

    def test_cnest_examples(self):
        assert run_for(cnest(3, 2), FUEL) == Converged(0, 8)
        assert run_for(cnest(0, 0), FUEL) == Converged(0, 0)

    def test_cnest_is_one_run_node(self):
        # The counter machine's run has a length known when it is built: 2n + m.
        for n, m in [(3, 2), (10**12, 3)]:
            d = cnest(n, m)
            assert type(d) is Later and type(d._thunk) is _Run
            steps, tail = d._thunk
            assert (steps, type(tail), tail.value) == (2 * n + m, Now, 0)
        # A run of one step is a node whose cell holds its rest.
        d = cnest(0, 1)
        assert type(d) is Later and type(d._thunk) is Now and d._thunk.value == 0
        assert type(cnest(4, 0)) is Now and cnest(4, 0).value == 4

    def test_cnest_matches_iterated_oracle(self):
        # m-fold self application computed by an unfold oracle
        def oracle(n, m):
            step = lambda s: Done(s[0]) if s[1] == 0 else (
                Again((0, s[1] - 1)) if s[0] == 0 else Again((s[0] - 1, s[1] + 1))
            )
            return unfold((n, m), step)

        for n in range(5):
            for m in range(5):
                assert bisim(cnest(n, m), oracle(n, m), FUEL).is_holds(), (n, m)


    @pytest.mark.parametrize("args", [(5, -2), (-1, 0), (-3, 2)])
    def test_cnest_rejects_a_negative_argument(self, args):
        with pytest.raises(ValueError):
            cnest(*args)

    def test_nest_rejects_a_negative_argument(self):
        from copartial.nested import nest

        with pytest.raises(ValueError):
            nest(-1)

    @pytest.mark.parametrize("args", [(2.5, 1), (2, 1.0), ("2", 1)])
    def test_cnest_rejects_a_non_integer(self, args):
        with pytest.raises(TypeError):
            cnest(*args)

    def test_a_deep_nest_is_cut_at_once(self):
        from copartial.nested import nest

        assert run_for(nest(10**12), 10**13) == Converged(0, 2 * 10**12 + 1)
        assert isinstance(run_for(cnest(10**12, 3), 2 * 10**12 + 2), Exhausted)


class TestDevil:
    def test_matches_memoized_oracle(self):
        spec = mccarthy91_devil_spec()
        for n in range(0, 121):
            r = run_for(devil(spec, n), FUEL)
            assert isinstance(r, Converged), n
            assert r.value == devil91_oracle(n) == m91(n), n

    def test_base_case_is_immediate(self):
        spec = mccarthy91_devil_spec()
        assert run_for(devil(spec, 200), FUEL) == Converged(190, 0)

    def test_post_map_applies_to_each_return(self):
        # d(a) = h(d(d(i(a)))): the inner call's h applies before the outer
        # call runs on its value, so h need not commute with d.
        spec = NON_IDENTITY_SPECS["ten-times"]
        runs = [run_for(devil(spec, a), FUEL) for a in range(4)]
        assert runs == [Converged(13550, 6), Converged(1350, 4), Converged(130, 2),
                        Converged(8, 0)]

    @pytest.mark.parametrize("name", sorted(NON_IDENTITY_SPECS))
    def test_matches_plain_recursion(self, name):
        spec = NON_IDENTITY_SPECS[name]
        d = devil_oracle(spec)
        for a in range(12):
            assert run_for(devil(spec, a), FUEL) == Converged(*d(a)), a

    def test_never_in_base_diverges(self):
        spec = DevilSpec(
            in_base=lambda n: False, i=lambda n: n + 1, g=lambda n: n, h=lambda n: n
        )
        assert isinstance(run_for(devil(spec, 0), FUEL), Exhausted)


class TestCpsFix:
    def test_post_map_accumulates(self):
        # d(n) = n if n > 100 else d(n + 1) + 1; four unfoldings from 97
        d = cps_fix(lambda n: n > 100, lambda n: n, lambda n: n + 1, lambda v: v + 1, 97)
        assert run_for(d, FUEL) == Converged(105, 4)

    def test_immediate_base(self):
        d = cps_fix(lambda n: True, lambda n: n * 2, lambda n: n, lambda v: v, 50)
        assert run_for(d, FUEL) == Converged(100, 0)

    def test_no_progress_diverges(self):
        d = cps_fix(lambda n: False, lambda n: n, lambda n: n, lambda v: v, 0)
        assert isinstance(run_for(d, FUEL), Exhausted)

    def test_identity_post_map_matches_unfold(self):
        in_base = lambda n: n >= 10
        i = lambda n: n + 3
        g = lambda n: n * n
        for a in range(10):
            via_cps = cps_fix(in_base, g, i, lambda v: v, a)
            step = lambda n: Done(g(n)) if in_base(n) else Again(i(n))
            assert bisim(via_cps, unfold(a, step), FUEL).is_holds(), a


def cnest_by_unfold(n, m):
    """``cnest`` as an unfold over its step function."""
    def step(s):
        n, m = s
        if m == 0:
            return Done(n)
        return Again((0, m - 1) if n == 0 else (n - 1, m + 1))

    return unfold((n, m), step)


def cps_fix_by_unfold(in_base, g, i, h, a):
    """``cps_fix`` as an unfold over ``(hs, x)``."""
    def step(s):
        hs, x = s
        if in_base(x):
            gx = g(x)
            for _ in range(hs):
                gx = h(gx)
            return Done(gx)
        return Again((hs + 1, i(x)))

    return unfold((0, a), step)


@st.composite
def cps_fix_args(draw):
    """A threshold recursion: base at or above ``top``, ``i`` adding 0..3
    (0 never reaches the base below ``top``), affine ``g`` and ``h``."""
    top, a = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    di, gm, gc, hm, hc = (draw(st.integers(lo, 3)) for lo in (0, -3, -3, -3, -3))
    return (lambda x: x >= top, lambda x: gm * x + gc, lambda x: x + di,
            lambda v: hm * v + hc, a)


def same_run(x, y, fuel=FUEL):
    rx, ry = run_for(x, fuel), run_for(y, fuel)
    if isinstance(rx, Exhausted):
        assert isinstance(ry, Exhausted)
    else:
        assert rx == ry


def cut_and_resume(d, budgets):
    """Run ``d`` a budget at a time, from each ``Exhausted.rest``, then to the
    end; return the value and the steps summed over the cuts."""
    spent = 0
    for budget in budgets:
        r = run_for(d, budget)
        if isinstance(r, Converged):
            return r.value, spent + r.steps
        d, spent = r.rest, spent + budget
    r = run_for(d, FUEL)
    return r.value, spent + r.steps


def counted(calls, key, f):
    """``f``, counting its calls in ``calls[key]``."""

    def g(*args):
        calls[key] = calls.get(key, 0) + 1
        return f(*args)

    return g


def right_loop(steps, calls, i=0):
    """``len(steps)`` after ``sum(steps)`` steps: ``delay_by(i, steps[i])``
    bound to the loop from ``i + 1``; continuation ``i`` is counted."""
    if i == len(steps):
        return now(i)
    return bind(counted(calls, i, lambda _: right_loop(steps, calls, i + 1)), delay_by(i, steps[i]))


def left_loop(steps, calls):
    """``len(steps) - 1`` after ``sum(steps)`` steps, as binds nested to the
    left; continuation ``i`` adds 1 behind ``steps[i]`` steps."""
    x = delay_by(0, steps[0])
    for i in range(1, len(steps)):
        x = bind(counted(calls, i, lambda v, n=steps[i]: delay_by(v + 1, n)), x)
    return x


def later_chain(steps, calls, i=0):
    """``len(steps)`` after ``len(steps)`` closure steps, a plain step where
    ``steps[i]`` is even and a successor where it is odd; closure ``i`` is counted."""
    if i == len(steps):
        return now(i)
    return (later if steps[i] % 2 == 0 else succ)(
        counted(calls, i, lambda: later_chain(steps, calls, i + 1)))


class TestBindLoops:
    """Binds nested to either side and closure chains, cut at random budgets."""

    @given(st.sampled_from(["right", "left", "later"]),
           st.lists(st.integers(0, 3), min_size=1, max_size=30),
           st.lists(st.integers(1, 40), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_cuts_resumes_and_reruns_run_each_continuation_once(self, shape, steps, budgets):
        build = {"right": right_loop, "left": left_loop, "later": later_chain}[shape]
        keys = range(1, len(steps)) if shape == "left" else range(len(steps))
        once = {i: 1 for i in keys}
        calls = {}
        whole = run_for(build(steps, calls), FUEL)
        assert calls == once
        value = len(steps) - (shape == "left")
        assert whole == Converged(value, len(steps) if shape == "later" else sum(steps))
        calls = {}
        assert cut_and_resume(build(steps, calls), budgets) == (whole.value, whole.steps)
        assert calls == once
        calls = {}
        d = build(steps, calls)
        for _ in range(2):
            assert cut_and_resume(d, budgets) == (whole.value, whole.steps)
            assert run_for(d, FUEL) == whole
        assert calls == once


class TestGenerators:
    """``cps_fix``, a generator cut in bulk by ``_drop``, and ``cnest``, a
    run cut in O(1), against unfolds of their steps."""

    @given(st.integers(0, 40), st.integers(0, 6))
    def test_cnest_matches_an_unfold_of_its_step(self, n, m):
        same_run(cnest(n, m), cnest_by_unfold(n, m))

    @given(cps_fix_args())
    def test_cps_fix_matches_an_unfold_of_its_step(self, args):
        same_run(cps_fix(*args), cps_fix_by_unfold(*args))

    @given(st.integers(0, 40), st.integers(1, 4),
           st.lists(st.integers(0, 30), max_size=8), st.booleans())
    @settings(max_examples=200)
    def test_cuts_resumes_and_reruns_take_the_same_steps(self, n, m, budgets, cps):
        def fresh():
            if cps:
                return cps_fix(lambda x: x >= 50, lambda x: x, lambda x: x + 1,
                               lambda v: v + 1, n)
            return cnest(n, m)

        whole = run_for(fresh(), FUEL)
        assert cut_and_resume(fresh(), budgets) == (whole.value, whole.steps)
        d = fresh()
        assert cut_and_resume(d, budgets) == (whole.value, whole.steps)
        # Every cut above is memoised in ``d``, so a run from its head reads them back.
        assert run_for(d, FUEL) == whole
        d = fresh()
        assert run_for(strict_pair(d, d), FUEL) == Converged(
            (whole.value, whole.value), 2 * whole.steps)

    def test_an_exception_in_a_cut_closes_the_generator(self):
        # Raised in ``_drop`` after ``send`` has returned five one-step resumes
        # and before the cut is recorded: a second run must not read the
        # advanced generator as the node's start.
        class Interrupt(Exception):
            pass

        def local(frame, event, arg):
            if event == "line" and frame.f_locals.get("k") == 5:
                raise Interrupt
            return local

        def interrupt(frame, event, arg):
            return local if frame.f_code is _drop.__code__ else None

        def bare_steps(n):
            for _ in range(n):
                yield 1
            return now(n)

        d = _gen(bare_steps(20))
        outer = sys.gettrace()
        sys.settrace(interrupt)
        try:
            with pytest.raises(Interrupt):
                run_for(d, FUEL)
        finally:
            sys.settrace(outer)
        with pytest.raises(RuntimeError, match="cannot resume"):
            run_for(d, FUEL)

    @given(st.data(), st.lists(st.integers(1, 40), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_every_generator_resumes_to_its_whole_run(self, data, budgets):
        # cnest, cps_fix, a race and a search, cut at random budgets from a
        # fresh node, then run again from the same node, which reads the
        # memoised cuts back.
        kind = data.draw(st.sampled_from(["cnest", "cps_fix", "race", "search"]))
        if kind == "cnest":
            n, m = data.draw(st.integers(0, 30)), data.draw(st.integers(0, 5))
            fresh = lambda: cnest(n, m)
        elif kind == "cps_fix":
            # An ``i`` that adds 0 never reaches the base, so there is no whole run.
            args = data.draw(cps_fix_args().filter(lambda a: a[2](0) > 0))
            fresh = lambda: cps_fix(*args)
        elif kind == "race":
            a, b = data.draw(st.integers(0, 60)), data.draw(st.integers(0, 60))
            fresh = lambda: race(cnest(a, 1), delay_by(-1, b))
        else:
            ends = data.draw(st.lists(st.integers(0, 60), min_size=1, max_size=6))
            fresh = lambda: parallel_search(
                lambda j: delay_by(j, ends[j]) if j < len(ends) else never())
        whole = run_for(fresh(), FUEL)
        assert cut_and_resume(fresh(), budgets) == (whole.value, whole.steps)
        d = fresh()
        for _ in range(2):
            assert cut_and_resume(d, budgets) == (whole.value, whole.steps)
            assert run_for(d, FUEL) == whole

    @given(st.integers(1, 60), st.lists(st.integers(1, 20), max_size=8))
    def test_a_zero_step_yield_is_cut_correctly(self, n, budgets):
        # A resume that yields 0 took no step, and is resumed with the same budget.
        resumes = []

        def ticking(n):
            left = n - 1
            budget = yield 1
            while True:
                again = yield 0
                resumes.append((budget, again))
                if left < again:
                    return _run_node(Later, left, now(n))
                left -= again
                budget = yield again

        assert run_for(_gen(ticking(n)), FUEL) == Converged(n, n)
        d = _gen(ticking(n))
        assert cut_and_resume(d, budgets) == (n, n)
        assert resumes and all(budget == again for budget, again in resumes)
        assert run_for(d, FUEL) == Converged(n, n)

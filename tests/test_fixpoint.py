"""Iterates, the dovetailed fixed point, and the sample operators."""

import importlib.util
from pathlib import Path

import pytest

from copartial import (
    Converged,
    Exhausted,
    Operator,
    bisim,
    bottom,
    fix,
    fmap,
    iterate,
    later,
    leq,
    never,
    Now,
    now,
    parallel_search,
    run_for,
)
from copartial.fixpoint import (
    SAMPLE_OPERATORS,
    ackermann_operator,
    diverging_operator,
    division_operator,
    factorial_operator,
    mccarthy91_operator,
)

FUEL = 10_000


def math_factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def math_m91(n):
    return n - 10 if n > 100 else 91


class TestBottomAndIterate:
    def test_bottom_diverges_everywhere(self):
        assert isinstance(run_for(bottom()(17), 1000), Exhausted)

    def test_iterate_zero_is_bottom(self):
        F = factorial_operator()
        assert isinstance(run_for(iterate(F, 0)(3), 1000), Exhausted)

    def test_iterate_rejects_negative(self):
        with pytest.raises(ValueError):
            iterate(factorial_operator(), -1)

    def test_iterate_checks_its_count_as_every_count_is_checked(self):
        class Two:
            def __index__(self):
                return 2

        F = factorial_operator()
        assert run_for(iterate(F, Two())(1), 100) == Converged(1, 0)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            iterate(F, "2")

    def test_factorial_base_needs_one_iterate(self):
        F = factorial_operator()
        assert run_for(iterate(F, 1)(0), 100) == Converged(1, 0)

    def test_factorial_five_needs_six_iterates(self):
        F = factorial_operator()
        assert isinstance(run_for(iterate(F, 3)(5), FUEL), Exhausted)
        r = run_for(iterate(F, 6)(5), 100)
        assert isinstance(r, Converged) and r.value == 120


def fixpoint_steps_args():
    """``scripts/fixpoint_steps.py``'s arguments per sample operator."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "fixpoint_steps.py"
    spec = importlib.util.spec_from_file_location("fixpoint_steps", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.ARGS


class TestFix:
    def test_the_winning_iterate_is_one_less_than_the_steps(self):
        # What ``fixpoint_steps.py`` prints as ``first_iterate``: iterate n joins
        # after n + 1 steps, and each sample iterate is a value or ``never()``.
        args = fixpoint_steps_args()
        for name, F in SAMPLE_OPERATORS().items():
            for a in args[name]:
                r = run_for(fix(F)(a), FUEL)
                if isinstance(r, Exhausted):
                    continue
                won = iterate(F, r.steps - 1)(a)
                assert isinstance(won, Now) and won.value == r.value, (name, a)
                assert iterate(F, r.steps - 2)(a) is never(), (name, a)

    def test_factorial(self):
        f = fix(factorial_operator())
        # regression constant for the dovetail schedule
        assert run_for(f(5), 100) == Converged(120, 7)
        for n in range(9):
            r = run_for(f(n), FUEL)
            assert isinstance(r, Converged) and r.value == math_factorial(n)

    def test_mccarthy91(self):
        f = fix(mccarthy91_operator())
        assert run_for(f(99), 1000) == Converged(91, 4)
        for n in (0, 1, 42, 100, 101, 111, 200):
            r = run_for(f(n), FUEL)
            assert isinstance(r, Converged) and r.value == math_m91(n)

    def test_ackermann_small(self):
        f = fix(ackermann_operator())
        expected = {(0, 0): 1, (1, 1): 3, (2, 2): 7, (3, 3): 61}
        for args, v in expected.items():
            r = run_for(f(args), FUEL)
            assert isinstance(r, Converged) and r.value == v

    def test_diverging_operator(self):
        f = fix(diverging_operator())
        for a in (0, 3, 17):
            assert isinstance(run_for(f(a), FUEL), Exhausted)

    def test_division(self):
        f = fix(division_operator())
        for a in range(0, 20):
            for b in range(1, 6):
                r = run_for(f((a, b)), FUEL)
                assert isinstance(r, Converged) and r.value == a // b
        assert isinstance(run_for(f((5, 0)), FUEL), Exhausted)


def never_at_zero_operator():
    """``never()`` at 0 without recursing; elsewhere 0 from 5 up, else 1 + f(n + 1)."""

    def step(f):
        def g(n):
            if n == 0:
                return never()
            if n >= 5:
                return now(0)
            return fmap(lambda r: r + 1, f(n + 1))

        return g

    return Operator(step, "never-at-zero")


def asks_then_never_operator():
    """At an odd n, asks f(n - 1) and then answers ``never()``; n // 2 at an even n."""

    def step(f):
        def g(n):
            if n == 0:
                return now(0)
            if n % 2:
                f(n - 1)
                return never()
            return fmap(lambda r: r + 1, f(n - 2))

        return g

    return Operator(step, "asks-then-never")


def asks_when_stepped_operator():
    """A ``later`` that asks f only when stepped: n steps down to 0, or for ever below 0."""

    def step(f):
        def g(n):
            if n == 0:
                return now(0)
            return later(lambda: fmap(lambda r: r + 1, f(n - 1 if n > 0 else n)))

        return g

    return Operator(step, "asks-when-stepped")


def counting(F, raise_at=None):
    """``F`` with a count of the calls of its iterates' functions, and an error at ``raise_at``."""
    calls = []

    def step(f):
        inner = F.apply(f)

        def g(a):
            calls.append(a)
            if a == raise_at:
                raise ArithmeticError(a)
            return inner(a)

        return g

    return Operator(step, F.name), calls


HAND_WRITTEN = {
    "never-at-zero": (never_at_zero_operator(), [0, 1, 3, 4, 5, 9]),
    "asks-then-never": (asks_then_never_operator(), [0, 1, 2, 5, 6, 8]),
    "asks-when-stepped": (asks_when_stepped_operator(), [0, 1, 3, 6, -1]),
}


def plain_dovetail(F, a):
    """The search ``fix`` makes, over unmemoised iterates and with no shortcut."""
    return parallel_search(lambda n: iterate(F, n)(a))


def operators_and_arguments():
    args = fixpoint_steps_args()
    cases = [(name, F, a) for name, F in SAMPLE_OPERATORS().items() for a in args[name]]
    cases += [(name, F, a) for name, (F, xs) in HAND_WRITTEN.items() for a in xs]
    return cases


class TestFixAgainstThePlainDovetail:
    FUELS = (0, 1, 2, 5, 9, 30, 200)

    def test_same_value_and_steps_at_every_fuel(self):
        for name, F, a in operators_and_arguments():
            for fuel in self.FUELS:
                got, want = run_for(fix(F)(a), fuel), run_for(plain_dovetail(F, a), fuel)
                assert type(got) is type(want), (name, a, fuel)
                if isinstance(want, Converged):
                    assert got == want, (name, a, fuel)

    def test_an_exhausted_rest_resumed_gives_the_same_total(self):
        total = max(self.FUELS)
        for name, F, a in operators_and_arguments():
            want = run_for(plain_dovetail(F, a), total)
            for fuel in self.FUELS[:-1]:
                first = run_for(fix(F)(a), fuel)
                if isinstance(first, Converged):
                    continue
                rest = run_for(first.rest, total - fuel)
                assert type(rest) is type(want), (name, a, fuel)
                if isinstance(want, Converged):
                    assert (rest.value, fuel + rest.steps) == (want.value, want.steps), (name, a, fuel)

    def test_the_hand_written_operators_converge_where_they_should(self):
        # At -1 every iterate of asks-when-stepped stays in the race, so a round costs O(round).
        for name, (F, xs) in HAND_WRITTEN.items():
            for a in xs:
                r = run_for(fix(F)(a), 300)
                expected = {
                    "never-at-zero": None if a == 0 else max(0, 5 - a),
                    "asks-then-never": None if a % 2 else a // 2,
                    "asks-when-stepped": None if a < 0 else a,
                }[name]
                if expected is None:
                    assert isinstance(r, Exhausted), (name, a)
                else:
                    assert isinstance(r, Converged) and r.value == expected, (name, a)


class TestFixAnswersAKnot:
    def test_division_by_zero_is_never_itself(self):
        f = fix(division_operator())
        for a in (0, 1, 7, 2999):
            assert f((a, 0)) is never()
        assert run_for(f((7, 0)), 10**9) == Exhausted(never())

    def test_an_operator_that_diverges_without_recursing_is_never_itself(self):
        assert fix(never_at_zero_operator())(0) is never()

    def test_an_answer_that_asks_first_or_asks_when_stepped_gets_the_search(self):
        # ``never()`` after asking, a ``later`` that would ask, and the identity
        # operator, whose answer is the stand-in's own: none is the knot.
        for F, a in ((asks_then_never_operator(), 1), (asks_when_stepped_operator(), -1),
                     (diverging_operator(), 0), (factorial_operator(), 3)):
            assert fix(F)(a) is not never(), F.name

    def test_the_operator_runs_once_when_the_fixed_point_is_built(self):
        for F, a in ((division_operator(), (5, 0)), (division_operator(), (5, 2)),
                     (factorial_operator(), 4)):
            counted, calls = counting(F)
            x = fix(counted)(a)
            assert calls == [a]
            assert run_for(x, FUEL) == run_for(fix(F)(a), FUEL)

    def test_an_operator_that_raises_at_the_argument_raises_when_built(self):
        F, calls = counting(factorial_operator(), raise_at=3)
        with pytest.raises(ArithmeticError):
            fix(F)(3)
        assert calls == [3]
        # Elsewhere it raises only when an iterate reaches 3.
        x = fix(F)(5)
        assert isinstance(run_for(x, 2), Exhausted)
        with pytest.raises(ArithmeticError):
            run_for(x, FUEL)


class TestTheorems:
    def test_fixed_point_equation(self):
        for name, F in SAMPLE_OPERATORS().items():
            if name == "diverging":
                continue
            yf = fix(F)
            applied = F.apply(yf)
            args = {
                "factorial": range(7),
                "mccarthy91": (0, 50, 99, 100, 101, 150),
                "ackermann": ((0, 0), (1, 2), (2, 1)),
                "division": ((0, 1), (9, 2), (10, 3)),
            }[name]
            for a in args:
                assert bisim(applied(a), yf(a), FUEL).is_holds(), (name, a)

    def test_least_prefixed_point_vs_total_factorial(self):
        yf = fix(factorial_operator())
        prefixed = lambda n: now(math_factorial(n))
        for a in range(9):
            assert leq(yf(a), prefixed(a), FUEL).is_holds()

    def test_chain_property(self):
        F = factorial_operator()
        for a in range(6):
            for n in range(9):
                rn = run_for(iterate(F, n)(a), FUEL)
                if not isinstance(rn, Converged):
                    continue
                for m in range(n, 9):
                    rm = run_for(iterate(F, m)(a), FUEL)
                    assert isinstance(rm, Converged) and rm.value == rn.value

    def test_yk1_witness_scan(self):
        F = mccarthy91_operator()
        yf = fix(F)
        for a in (0, 90, 99, 101):
            r = run_for(yf(a), FUEL)
            assert isinstance(r, Converged)
            witnesses = [
                n for n in range(30)
                if isinstance(run_for(iterate(F, n)(a), FUEL), Converged)
            ]
            assert witnesses, a
            rn = run_for(iterate(F, witnesses[0])(a), FUEL)
            assert rn.value == r.value

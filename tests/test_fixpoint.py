"""Iterates, the dovetailed fixed point, and the sample operators."""

import importlib.util
from pathlib import Path

import pytest

from copartial import (
    Converged,
    Exhausted,
    bisim,
    bottom,
    fix,
    iterate,
    leq,
    never,
    Now,
    now,
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

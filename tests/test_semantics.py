"""Verdicts for convergence, divergence, bisimilarity, and the order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copartial import (
    Again,
    Done,
    bisim,
    converges_to,
    delay_by,
    diverges_bounded,
    diverges_finite_state,
    is_finite,
    later,
    leq,
    never,
    now,
)
from tests.conftest import finite_delays


class TestConvergesTo:
    def test_holds_at_exact_fuel(self):
        assert converges_to(delay_by(4, 2), 4, 2).is_holds()

    def test_fails_on_wrong_value(self):
        assert converges_to(delay_by(4, 2), 5, 2).is_fails()

    def test_unknown_on_never(self):
        v = converges_to(never(), 4, 100)
        assert v.is_unknown() and v.fuel_spent == 100

    def test_unknown_under_fuel(self):
        assert converges_to(delay_by(4, 5), 4, 4).is_unknown()


class TestDivergesBounded:
    def test_fails_on_now(self):
        assert diverges_bounded(now(1), 0).is_fails()

    def test_unknown_on_never(self):
        assert diverges_bounded(never(), 50).is_unknown()

    def test_fails_on_finite(self):
        assert diverges_bounded(delay_by(3, 10), 20).is_fails()


class TestDivergesFiniteState:
    def test_self_loop_holds(self):
        assert diverges_finite_state(0, lambda s: Again(s), 10).is_holds()

    def test_countdown_fails(self):
        step = lambda k: Done(k) if k == 0 else Again(k - 1)
        assert diverges_finite_state(3, step, 10).is_fails()

    def test_increasing_seeds_unknown(self):
        assert diverges_finite_state(0, lambda s: Again(s + 1), 100).is_unknown()

    def test_state_bound_is_checked_as_fuel(self):
        # Checked before the first step: a bad bound is refused, not read as none.
        def step(s):
            raise AssertionError("stepped")

        with pytest.raises(ValueError, match="non-negative"):
            diverges_finite_state(0, step, -3)
        for bound in (2.5, "3", None):
            with pytest.raises(TypeError):
                diverges_finite_state(0, step, bound)

    def test_zero_state_bound_is_unknown_at_once(self):
        v = diverges_finite_state(0, lambda s: Again(s), 0)
        assert v.is_unknown() and v.fuel_spent == 0


class TestIsFinite:
    def test_holds(self):
        assert is_finite(delay_by(0, 3), 3).is_holds()

    def test_unknown_under_fuel(self):
        assert is_finite(delay_by(0, 3), 2).is_unknown()

    def test_never_fails_is_impossible(self):
        assert is_finite(never(), 1000).is_unknown()


class TestBisim:
    def test_step_counts_ignored(self):
        assert bisim(delay_by(5, 1), delay_by(5, 9), 9).is_holds()

    def test_distinct_values_fail(self):
        assert bisim(now(1), now(2), 0).is_fails()

    def test_one_sided_convergence_is_unknown(self):
        assert bisim(now(1), never(), 1000).is_unknown()

    @given(finite_delays())
    @settings(max_examples=100)
    def test_reflexive(self, x):
        assert bisim(x, x, 64).is_holds()

    @given(finite_delays(), finite_delays())
    @settings(max_examples=100)
    def test_symmetric(self, x, y):
        assert bisim(x, y, 64) == bisim(y, x, 64)

    @given(finite_delays(), finite_delays(), finite_delays())
    @settings(max_examples=100)
    def test_transitive_on_holds(self, x, y, z):
        if bisim(x, y, 64).is_holds() and bisim(y, z, 64).is_holds():
            assert bisim(x, z, 64).is_holds()


class TestLeq:
    def test_fewer_steps_below(self):
        assert leq(delay_by(2, 7), delay_by(2, 1), 7).is_holds()

    def test_distinct_values_fail(self):
        assert leq(now(1), now(2), 0).is_fails()

    def test_bottom_is_unknown(self):
        assert leq(never(), now(0), 1000).is_unknown()

    @given(finite_delays(), finite_delays())
    @settings(max_examples=100)
    def test_bisim_implies_leq(self, x, y):
        if bisim(x, y, 64).is_holds():
            assert leq(x, y, 64).is_holds()


class TestMonotonicity:
    @given(finite_delays(), finite_delays(),
           st.integers(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=20))
    @settings(max_examples=150)
    def test_decided_verdicts_are_stable(self, x, y, f1, extra):
        f2 = f1 + extra
        for check in (lambda f: converges_to(x, 3, f),
                      lambda f: bisim(x, y, f),
                      lambda f: leq(x, y, f),
                      lambda f: is_finite(x, f),
                      lambda f: diverges_bounded(x, f)):
            v1, v2 = check(f1), check(f2)
            if not v1.is_unknown():
                assert v1 == v2


class TestSoundnessAgainstShape:
    @given(st.integers(min_value=0, max_value=30),
           st.integers(min_value=0, max_value=16))
    @settings(max_examples=100)
    def test_known_shape_ground_truth(self, a, k):
        x = delay_by(a, k)
        assert converges_to(x, a, k).is_holds()
        assert converges_to(x, a + 1, k).is_fails()
        assert is_finite(x, k).is_holds()
        assert diverges_bounded(x, k).is_fails()


class TestStepInvariance:
    # observational restatements over constructed delays

    def test_step_stripping_preserves_convergence(self):
        # later(x) converging at fuel f+1 means x converges at f
        x = delay_by(3, 4)
        lx = later(lambda: x)
        assert converges_to(lx, 3, 5).is_holds()
        assert converges_to(x, 3, 4).is_holds()

    @given(finite_delays())
    @settings(max_examples=100)
    def test_step_padding_right_keeps_bisim(self, x):
        # x ~ y implies x ~ later(y)
        assert bisim(x, later(lambda: x), 80).is_holds()

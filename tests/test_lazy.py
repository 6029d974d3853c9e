"""Lazy partial naturals and the sloth pair."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copartial import Converged, Exhausted, lazy, run_for
from copartial.lazy import (
    ZERO,
    Ended,
    lazy_le,
    lazy_of,
    lazy_plus,
    never_lazy,
    observe,
    omega,
    sloth_f,
    sloth_g,
    sloth_strict_f,
    sloth_strict_g,
    succ,
)


def succ_tower(base, height):
    x = base
    for _ in range(height):
        x = succ(lambda x=x: x)
    return x


@lru_cache(maxsize=None)
def F(n):
    # classical value of sloth f, computed with unbounded recursion
    if n == 0:
        return 0
    return F(G(n - 1)) + G(n - 1)


@lru_cache(maxsize=None)
def G(n):
    if n == 0:
        return 0
    m = n - 1
    return G(F(m)) + m if F(m) <= m else 0


class TestObserve:
    def test_embedding(self):
        assert observe(lazy_of(3), 10) == (3, Ended.ZERO)

    def test_zero_costs_nothing(self):
        assert observe(lazy_of(0), 0) == (0, Ended.ZERO)
        assert observe(lazy_of(3), 3) == (3, Ended.ZERO)

    def test_never(self):
        assert observe(never_lazy(), 100) == (0, Ended.EXHAUSTED)

    def test_omega(self):
        assert observe(omega(), 25) == (25, Ended.EXHAUSTED)

    def test_partial_tower(self):
        x = succ_tower(never_lazy(), 4)
        assert observe(x, 50) == (4, Ended.EXHAUSTED)

    def test_lazy_of_rejects_negative(self):
        with pytest.raises(ValueError):
            lazy_of(-1)


class TestLazyPlus:
    def test_totals(self):
        assert observe(lazy_plus(lazy_of(2), lazy_of(2)), 10) == (4, Ended.ZERO)
        assert observe(lazy_plus(lazy_of(2), lazy_of(0)), 10) == (2, Ended.ZERO)

    def test_left_divergence_still_shows_right(self):
        # all 19 successors of the right summand come out before the
        # diverging left summand is consulted
        x = lazy_plus(never_lazy(), lazy_of(19))
        assert observe(x, 19) == (19, Ended.EXHAUSTED)

    def test_right_divergence_blocks_immediately(self):
        assert observe(lazy_plus(lazy_of(0), never_lazy()), 100) == (0, Ended.EXHAUSTED)

    @given(st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=60)
    def test_associative_up_to_observation(self, a, b, c):
        lhs = lazy_plus(lazy_plus(lazy_of(a), lazy_of(b)), lazy_of(c))
        rhs = lazy_plus(lazy_of(a), lazy_plus(lazy_of(b), lazy_of(c)))
        assert observe(lhs, 64) == observe(rhs, 64) == (a + b + c, Ended.ZERO)


class TestLazyLe:
    def test_holds(self):
        assert lazy_le(lazy_of(3), lazy_of(5), 64).is_holds()

    def test_refutes_partial_tower(self):
        # six visible successors already exceed zero
        x = succ_tower(never_lazy(), 6)
        assert lazy_le(x, lazy_of(0), 10).is_fails()

    def test_unknown_on_two_nevers(self):
        v = lazy_le(never_lazy(), never_lazy(), 1000)
        assert v.is_unknown()

    def test_agrees_with_le_on_totals(self):
        for a in range(9):
            for b in range(9):
                v = lazy_le(lazy_of(a), lazy_of(b), 64)
                assert not v.is_unknown(), (a, b)
                assert v.is_holds() == (a <= b), (a, b)

    @given(st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=30),
           st.integers(min_value=0, max_value=30))
    @settings(max_examples=80)
    def test_monotone_in_fuel(self, a, b, f1, extra):
        v1 = lazy_le(lazy_of(a), lazy_of(b), f1)
        v2 = lazy_le(lazy_of(a), lazy_of(b), f1 + extra)
        if not v1.is_unknown():
            assert v1 == v2


class TestSloth:
    def test_base_cases(self):
        assert observe(sloth_f(0), 10) == (0, Ended.ZERO)
        assert observe(sloth_g(0), 10) == (0, Ended.ZERO)

    def test_matches_classical_values(self):
        for n in range(13):
            assert observe(sloth_f(n), 2000) == (F(n), Ended.ZERO), n
        for n in range(14):
            assert observe(sloth_g(n), 2000) == (G(n), Ended.ZERO), n

    def test_levels_beyond_the_classical_range(self):
        # Past the range checked against the classical recursion: the
        # values observed under fuel 300 (``None``: still producing).
        f = {14: 0, 15: 0, 16: 14, 17: 15, 18: 30, 19: None,
             20: 0, 21: 0, 22: 20, 23: 21, 24: 42}
        g = {15: 14, 16: 15, 17: 16, 18: 31, 19: 0, 20: 0, 21: 20, 22: 21,
             23: 22, 24: 43, 25: 0, 26: 0, 27: 26, 28: 27, 29: 28}
        for n, v in f.items():
            want = (300, Ended.EXHAUSTED) if v is None else (v, Ended.ZERO)
            assert observe(sloth_f(n), 300) == want, n
        for n, v in g.items():
            assert observe(sloth_g(n), 300) == (v, Ended.ZERO), n

    def test_g14_answers_lazily(self):
        # the guard f(13) <= 13 is refuted after finitely many
        # constructors even though f(13) itself never finishes
        assert observe(sloth_g(14), 1000) == (0, Ended.ZERO)

    def test_f13_diverges_but_leaks_successors(self):
        count, ended = observe(sloth_f(13), 1000)
        assert ended is Ended.EXHAUSTED
        assert count >= 13

    def test_negative_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            sloth_f(-1)
        with pytest.raises(ValueError):
            sloth_g(-2)
        # Every sloth function checks its argument before it builds any node
        # or level: the strict pair used to step until fuel ran out, and
        # ``sloth_f(2.5)`` built levels 1-3 before an index raised.
        monkeypatch.setattr(lazy, "_F", [ZERO])
        monkeypatch.setattr(lazy, "_G", [ZERO])
        for sloth in (sloth_f, sloth_g, sloth_strict_f, sloth_strict_g):
            with pytest.raises(ValueError):
                sloth(-1)
            with pytest.raises(TypeError):
                sloth(2.5)
        assert len(lazy._F) == len(lazy._G) == 1


class TestSlothStrict:
    def test_small_values_match(self):
        assert run_for(sloth_strict_g(6), 10_000) == Converged(8, 73)
        assert run_for(sloth_strict_f(7), 10_000) == Converged(8, 167)

    def test_matches_classical_on_convergent_range(self):
        for n in range(8):
            r = run_for(sloth_strict_f(n), 100_000)
            assert isinstance(r, Converged) and r.value == F(n), n
            r = run_for(sloth_strict_g(n), 100_000)
            assert isinstance(r, Converged) and r.value == G(n), n

    def test_g14_exhausts_where_lazy_answers(self):
        assert isinstance(run_for(sloth_strict_g(14), 10_000), Exhausted)


def test_lazy_le_out_of_fuel_reports_the_fuel_given():
    assert str(lazy_le(omega(), omega(), 10)) == "Unknown(fuel_spent=10)"
    assert str(lazy_le(never_lazy(), lazy_of(1), 0)) == "Unknown(fuel_spent=0)"


@pytest.mark.parametrize(
    "run",
    [lambda: observe(omega(), -1), lambda: observe(never_lazy(), -1),
     lambda: lazy_le(omega(), omega(), -1)],
    ids=["observe-omega", "observe-never", "lazy_le"],
)
def test_negative_fuel_is_rejected(run):
    with pytest.raises(ValueError, match="fuel must be non-negative"):
        run()

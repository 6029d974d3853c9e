"""Nested recursion: the nest function, the devil's nest, cps_fix."""

from functools import lru_cache

import pytest

from copartial import Converged, Exhausted, bisim, run_for, unfold, Again, Done
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

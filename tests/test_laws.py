"""Law suites over sampled delays, plus a mutation check."""

import pytest

from copartial.delay import bind, delay_by, fmap, now, run_for
from copartial.laws import DelayGen, check_kleisli_laws, check_strength_laws

GEN = DelayGen(include_never=True)


class TestKleisli:
    def test_no_failures(self):
        results = check_kleisli_laws(GEN, samples=300, fuel=64, seed=7)
        assert set(results) == {
            "kleisli-right-unit",
            "kleisli-left-unit",
            "kleisli-associativity",
        }
        for name, r in results.items():
            assert r.fails == 0, name
            assert r.verdict.is_holds(), name
            assert r.holds > 0, name

    def test_unknowns_only_from_divergent_samples(self):
        finite_only = DelayGen(include_never=False)
        results = check_kleisli_laws(finite_only, samples=200, fuel=64, seed=3)
        for name, r in results.items():
            assert r.unknown == 0, name


class TestStrength:
    def test_no_failures(self):
        results = check_strength_laws(GEN, samples=300, fuel=64, seed=7)
        assert set(results) == {
            "strength-unit-projection",
            "strength-associativity",
            "strength-unit",
            "strength-multiplication",
        }
        for name, r in results.items():
            assert r.fails == 0, name
            assert r.verdict.is_holds(), name


class TestMutation:
    def test_value_corrupting_bind_is_caught(self):
        def broken_bind(f, x):
            # corrupt the value after the real extension
            return fmap(lambda v: v + 1, bind(f, x))

        results = check_kleisli_laws(
            GEN, samples=100, fuel=64, seed=7, bind_impl=broken_bind
        )
        failed = [r for r in results.values() if r.verdict.is_fails()]
        assert failed
        assert all(r.counterexample for r in failed)

    def test_a_bind_that_ignores_its_head_is_caught_where_the_head_has_no_value(self):
        # Runs ``f`` on 0 whatever ``x`` is, so a diverging ``x`` gives a value.
        def eager_bind(f, x):
            return now(run_for(f(0), 100).value + 1)

        results = check_kleisli_laws(GEN, samples=20, fuel=2, seed=0, bind_impl=eager_bind)
        assert results["kleisli-associativity"].counterexample == (
            "associativity broken at x=<no value within 2 steps>")

    def test_step_miscounting_bind_still_passes(self):
        def padded_bind(f, x):
            return bind(lambda v: delay_by(v, 2), bind(f, x))

        results = check_kleisli_laws(
            GEN, samples=100, fuel=128, seed=7, bind_impl=padded_bind
        )
        for name, r in results.items():
            assert r.fails == 0, name


class TestSamples:
    @pytest.mark.parametrize("check", [check_kleisli_laws, check_strength_laws])
    def test_negative_samples_are_refused(self, check):
        with pytest.raises(ValueError, match="samples must be non-negative"):
            check(GEN, -5, 64)

    @pytest.mark.parametrize("check", [check_kleisli_laws, check_strength_laws])
    def test_zero_samples_leave_every_law_unknown(self, check):
        for name, r in check(GEN, 0, 64).items():
            assert (r.holds, r.fails, r.unknown) == (0, 0, 0), name
            assert r.verdict.is_unknown() and r.verdict.fuel_spent == 64, name

    @pytest.mark.parametrize("check", [check_kleisli_laws, check_strength_laws])
    @pytest.mark.parametrize("fuel, error", [(-1, ValueError), (2.5, TypeError)])
    def test_fuel_is_checked_before_any_sample(self, check, fuel, error):
        # With no sample drawn, no ``bisim`` runs to check the fuel.
        with pytest.raises(error):
            check(GEN, 0, fuel)

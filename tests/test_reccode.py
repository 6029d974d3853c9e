"""Codes for partial recursive functions: arity, evaluation, parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copartial import Converged, Exhausted, delay_by, never, now, run_for
from copartial.reccode import (
    CORPUS,
    MAX_NESTING,
    Comp,
    IllFormed,
    Min,
    ParseError,
    PrimRec,
    Proj,
    Succ,
    Zero,
    arity,
    evaluate,
    oracle_eval,
    parse_code,
    print_code,
)

FUEL = 10_000


class TestArity:
    def test_basic(self):
        assert arity(Zero()) == 1
        assert arity(Succ()) == 1
        assert arity(Proj(2, 3)) == 3

    def test_plus_shape(self):
        assert arity(CORPUS["plus"]) == 2
        assert arity(CORPUS["mult"]) == 2
        assert arity(CORPUS["pred"]) == 1
        assert arity(CORPUS["ident_by_min"]) == 1

    def test_bad_projection(self):
        with pytest.raises(IllFormed):
            arity(Proj(0, 2))
        with pytest.raises(IllFormed):
            arity(Proj(3, 2))
        # Indices must be plain ints: the printed code has to parse back.
        for bad in (Proj(1.5, 2), Proj("1", 2), Proj(True, 1)):
            with pytest.raises(IllFormed):
                arity(bad)

    def test_comp_arity_mismatch(self):
        # Succ is unary; two inner codes cannot feed it
        with pytest.raises(IllFormed):
            arity(Comp(Succ(), (Zero(), Zero())))
        # Inner codes come as a tuple
        with pytest.raises(IllFormed):
            arity(Comp(Succ(), 5))

    def test_comp_inner_disagreement(self):
        with pytest.raises(IllFormed):
            arity(Comp(CORPUS["plus"], (Succ(), Proj(1, 2))))

    def test_primrec_step_arity(self):
        with pytest.raises(IllFormed):
            arity(PrimRec(Zero(), Zero()))

    def test_min_over_unary_is_nullary(self):
        assert arity(Min(Succ())) == 0


class TestEvaluate:
    def test_plus(self):
        r = run_for(evaluate(CORPUS["plus"], [now(2), now(3)]), FUEL)
        assert r == Converged(5, 0)

    def test_mult(self):
        r = run_for(evaluate(CORPUS["mult"], [now(3), now(4)]), FUEL)
        assert isinstance(r, Converged) and r.value == 12
        assert r.steps == 0

    def test_pred_monus(self):
        for n in range(6):
            r = run_for(evaluate(CORPUS["pred"], [now(n)]), FUEL)
            assert isinstance(r, Converged) and r.value == max(n - 1, 0)
        r = run_for(evaluate(CORPUS["monus"], [now(3), now(7)]), FUEL)
        assert isinstance(r, Converged) and r.value == 0

    def test_ident_by_min(self):
        # least y with y - n = 0 is n itself; one step per tested index
        assert run_for(evaluate(CORPUS["ident_by_min"], [now(4)]), FUEL) == Converged(4, 4)

    def test_always_diverge(self):
        d = evaluate(CORPUS["always_diverge"], [now(0)])
        assert isinstance(run_for(d, FUEL), Exhausted)

    def test_strict_in_unused_arguments(self):
        # projections still force every argument
        d = evaluate(Proj(1, 2), [now(1), never()])
        assert isinstance(run_for(d, FUEL), Exhausted)

    def test_zero_strict_in_argument(self):
        assert isinstance(run_for(evaluate(Zero(), [never()]), FUEL), Exhausted)

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            evaluate(CORPUS["plus"], [now(1)])

    @given(st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=60)
    def test_delayed_arguments_add_steps(self, a, b, da, db):
        plain = run_for(evaluate(CORPUS["plus"], [now(a), now(b)]), FUEL)
        padded = run_for(
            evaluate(CORPUS["plus"], [delay_by(a, da), delay_by(b, db)]), FUEL
        )
        assert isinstance(padded, Converged)
        assert padded.value == plain.value == a + b
        assert padded.steps >= plain.steps + da + db


class TestAgainstOracle:
    @given(st.sampled_from(["plus", "mult", "pred", "monus", "ident_by_min"]),
           st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=120, deadline=None)
    def test_corpus_matches_oracle(self, name, a, b):
        code = CORPUS[name]
        args = [a, b][: arity(code)]
        want = oracle_eval(code, args, 100_000)
        assert want is not None
        got = run_for(evaluate(code, [now(v) for v in args]), FUEL)
        assert isinstance(got, Converged) and got.value == want

    def test_oracle_gives_up_on_divergence(self):
        assert oracle_eval(CORPUS["always_diverge"], [0], 10_000) is None

    def test_oracle_rejects_negative_fuel(self):
        with pytest.raises(ValueError, match="fuel must be non-negative"):
            oracle_eval(CORPUS["plus"], [1, 2], -1)


class TestConcreteSyntax:
    def test_round_trip_corpus(self):
        for name, code in CORPUS.items():
            assert parse_code(print_code(code)) == code, name

    def test_parse_plus(self):
        assert parse_code("R(P 1 1; C(S; P 3 3))") == CORPUS["plus"]

    def test_whitespace_insensitive(self):
        assert parse_code(" R( P 1 1 ;C(S;P 3 3) ) ") == CORPUS["plus"]

    def test_parse_rejects_bad_projection(self):
        with pytest.raises(IllFormed):
            parse_code("P 0 2")

    def test_parse_rejects_comp_mismatch(self):
        with pytest.raises(IllFormed):
            parse_code("C(S; Z, Z)")

    def test_parse_accepts_nullary_min(self):
        assert arity(parse_code("M(S)")) == 0

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_code("Z Z")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse_code("Q")

    def test_missing_delimiter(self):
        with pytest.raises(ParseError):
            parse_code("C(S P 1 1)")


def _succ_tower(code, levels):
    for _ in range(levels):
        code = Comp(Succ(), (code,))
    return code


class TestArgumentsForcedOnce:
    """Delayed arguments and shared inner results spend their steps once."""

    def test_delayed_arguments_count_once(self):
        d = evaluate(CORPUS["plus"], [delay_by(2, 3), delay_by(4, 2)])
        assert run_for(d, FUEL) == Converged(6, 5)

    def test_shared_inner_result_counts_once(self):
        double = Comp(CORPUS["plus"], (Proj(1, 1), Proj(1, 1)))
        d = evaluate(Comp(double, (CORPUS["ident_by_min"],)), [now(3)])
        assert run_for(d, FUEL) == Converged(6, 3)

    def test_primrec_over_a_stepping_base(self):
        base = Comp(CORPUS["ident_by_min"], (Proj(1, 1),))
        code = PrimRec(base, Comp(Succ(), (Proj(3, 3),)))
        assert run_for(evaluate(code, [now(3), now(300)]), FUEL) == Converged(303, 3)

    def test_deep_composition_tower(self):
        code = _succ_tower(CORPUS["ident_by_min"], 400)
        assert run_for(evaluate(code, [now(3)]), FUEL) == Converged(403, 3)


class TestDelayedPaths:
    """One code for each bind path of a code with a ``Min``: ``R``, ``C`` and ``M`` over a delayed body."""

    def test_primrec_with_a_delayed_step(self):
        code = PrimRec(Proj(1, 1), Comp(CORPUS["ident_by_min"], (Proj(3, 3),)))
        assert run_for(evaluate(code, [now(4), now(5)]), FUEL) == Converged(4, 20)

    def test_composition_of_a_delayed_and_a_step_free_inner_code(self):
        code = Comp(CORPUS["plus"], (CORPUS["ident_by_min"], Proj(1, 1)))
        assert run_for(evaluate(code, [now(3)]), FUEL) == Converged(6, 3)

    def test_min_over_a_delayed_body(self):
        # Probe y pays y steps inside ident_by_min; 3 probes fail.
        inner = Comp(CORPUS["ident_by_min"], (Proj(2, 2),))
        code = Min(Comp(CORPUS["monus"], (Proj(1, 2), inner)))
        assert run_for(evaluate(code, [now(3)]), FUEL) == Converged(3, 9)


class TestNestingBound:
    # print_code(CORPUS["ident_by_min"]) nests its parentheses 5 deep.
    LEVELS = MAX_NESTING - 5

    def test_tower_at_the_bound_goes_through(self):
        text = "C(S; " * self.LEVELS + print_code(CORPUS["ident_by_min"]) + ")" * self.LEVELS
        code = parse_code(text)
        assert code == _succ_tower(CORPUS["ident_by_min"], self.LEVELS)
        assert print_code(code) == text
        assert arity(code) == 1
        assert oracle_eval(code, [3], 100_000) == 3 + self.LEVELS
        assert run_for(evaluate(code, [now(3)]), FUEL) == Converged(3 + self.LEVELS, 3)

    def test_one_level_more_is_a_parse_error(self):
        levels = self.LEVELS + 1
        text = "C(S; " * levels + print_code(CORPUS["ident_by_min"]) + ")" * levels
        with pytest.raises(ParseError):
            parse_code(text)

"""Codes for partial recursive functions: arity, evaluation, parsing."""

import gc
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copartial import Converged, Exhausted, delay_by, never, now, race, run_for, strict_pair
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


def _loops_over_a_huge_arity(n, wraps):
    """``R(P 1 n; P 1 n+2)``, wrapped ``wraps`` times as ``R(P 1 a-2; code)``
    where ``a`` is the arity of the code so far: its loops nest
    ``wraps + 1`` deep, and its arity is ``n + 1 - wraps``."""
    code = PrimRec(Proj(1, n), Proj(1, n + 2))
    for a in range(n + 1, n + 1 - wraps, -1):
        code = PrimRec(Proj(1, a - 2), code)
    return code


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

    @pytest.mark.parametrize(
        "code, error",
        [
            (parse_code("M(P 1 1000000)"), ValueError),
            (Comp(Min(Proj(1, 10**6)), (Zero(),)), IllFormed),
            # 387 characters printed; its loops nest past the block limit.
            (_loops_over_a_huge_arity(10**6, 24), ValueError),
        ],
        ids=["mismatched", "ill-formed", "split-body"],
    )
    def test_huge_arity_is_rejected_before_any_source(self, code, error):
        # An ``M`` body's source names each of its arguments, so emitting
        # the search of a million-argument body first would cost ~100 MB.
        # A loop body split off as its own function takes as parameters
        # only the arguments it reads, not the million of its code.
        tracemalloc.start()
        try:
            with pytest.raises(error):
                evaluate(code, [now(0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    def test_oracle_rejects_an_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity mismatch"):
            oracle_eval(CORPUS["plus"], [1], 100)

    @pytest.mark.parametrize("name, args, says", [
        ("pred", [1, 2], "code takes 1 argument, got 2"),
        ("plus", [1], "code takes 2 arguments, got 1"),
        ("plus", [1, 2, 3], "code takes 2 arguments, got 3"),
    ])
    def test_an_arity_mismatch_names_the_count_in_number(self, name, args, says):
        with pytest.raises(ValueError, match=f"^arity mismatch: {says}$"):
            oracle_eval(CORPUS[name], args, 100)
        with pytest.raises(ValueError, match=f"^arity mismatch: {says}$"):
            evaluate(CORPUS[name], [now(a) for a in args])


# Argument values that are not naturals, and the error each raises.
NOT_NATURALS = [
    ("ident_by_min", (-4,), ValueError),
    ("plus", (-3, 2), ValueError),
    ("plus", (2.0, 3), TypeError),
    ("mult", (2.0, 3), TypeError),
    ("pred", ("1",), TypeError),
]


class TestArgumentValues:
    """Both evaluators take naturals only: ``TypeError`` for a value that
    is not an integer, ``ValueError`` for a negative one, raised before
    any generated code runs or the oracle takes a step."""

    @staticmethod
    def raises_outside_the_code(error, f, *args):
        with pytest.raises(error, match=None if error is TypeError else "must be non-negative") as info:
            f(*args)
        tb = info.tb
        while tb is not None:
            code = tb.tb_frame.f_code
            assert code.co_filename != "<reccode>" and code.co_name != "_oracle"
            tb = tb.tb_next

    @pytest.mark.parametrize("name, args, error", NOT_NATURALS)
    def test_evaluate_rejects_a_ready_argument_at_the_call(self, name, args, error):
        self.raises_outside_the_code(error, evaluate, CORPUS[name], [now(v) for v in args])

    @pytest.mark.parametrize("name, args, error", NOT_NATURALS)
    def test_evaluate_rejects_a_delayed_argument_at_the_step_that_forces_it(
            self, name, args, error):
        d = evaluate(CORPUS[name], [delay_by(v, 3) for v in args])
        steps = 3 * len(args)
        assert isinstance(run_for(d, steps - 1), Exhausted)
        self.raises_outside_the_code(error, run_for, d, steps)

    @pytest.mark.parametrize("name, args, error", NOT_NATURALS)
    def test_oracle_rejects_it_at_entry(self, name, args, error):
        self.raises_outside_the_code(error, oracle_eval, CORPUS[name], args, 100)


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


# Texts with one error each, and the exact error each raises.
DEEP = "C(S; " * (MAX_NESTING + 1) + "Z" + ")" * (MAX_NESTING + 1)
GOLDEN_ERRORS = [
    ("C(S; Q)", ParseError, "at 5: unexpected character 'Q'"),
    ("C(S; Z) #", ParseError, "at 8: unexpected character '#'"),
    ("C S; Z)", ParseError, "at 2: expected '(', found 'S'"),
    ("C(S P 1 1)", ParseError, "at 4: expected ';', found 'P'"),
    ("C(P 1 2; Z Z)", ParseError, "at 11: expected ')', found 'Z'"),
    ("M(P 1 2", ParseError, "at 7: expected ')', found None"),
    ("R(Z; P 1 3, P 1 3)", ParseError, "at 10: expected ')', found ','"),
    ("C(S;)", ParseError, "at 4: expected a code, found ')'"),
    ("", ParseError, "at 0: expected a code, found None"),
    ("P", ParseError, "at 1: expected a number, found None"),
    ("P 1", ParseError, "at 3: expected a number, found None"),
    ("P 1 Z", ParseError, "at 4: expected a number, found 'Z'"),
    ("P 1 " + "9" * 5000, ParseError, "at 4: a number of 5000 digits is too long"),
    ("Z Z", ParseError, "at 2: trailing input 'Z'"),
    ("C(S; Z))", ParseError, "at 7: trailing input ')'"),
    (DEEP, ParseError, f"at {5 * MAX_NESTING + 1}: parentheses nest deeper than {MAX_NESTING}"),
    ("P 0 2", IllFormed, "top: projection index 0 not in 1..2"),
    ("P 3 2", IllFormed, "top: projection index 3 not in 1..2"),
    ("R(P 1 1; P 4 3)", IllFormed, "top.g: projection index 4 not in 1..3"),
    ("C(S; Z, Z)", IllFormed, "top: outer arity 1 != 2 inner codes"),
    ("C(P 1 2; Z, P 1 2)", IllFormed, "top: inner codes disagree on arity: [1, 2]"),
    ("R(Z; Z)", IllFormed, "top: recursion step arity 1 != base arity 1 + 2"),
    ("M(M(S))", IllFormed, "top: minimization needs a body of arity >= 1"),
    ("M(C(S; Z, Z))", IllFormed, "top.f: outer arity 1 != 2 inner codes"),
    ("R(Z; C(S; Z, Z))", IllFormed, "top.g: outer arity 1 != 2 inner codes"),
    ("C(P 1 2; Z, C(S; Z, Z))", IllFormed, "top.g2: outer arity 1 != 2 inner codes"),
    ("C(S; R(Z; M(C(P 1 2; P 1 4, P 1 4, P 1 4))))", IllFormed, "top.g1.g.f: outer arity 2 != 3 inner codes"),
    ("C(S; C(S; C(P 1 2; Z, P 0 1)))", IllFormed, "top.g1.g1.g2: projection index 0 not in 1..1"),
]


@pytest.mark.parametrize("text, error, message", GOLDEN_ERRORS, ids=[m for _, _, m in GOLDEN_ERRORS])
def test_golden_parse_error(text, error, message):
    with pytest.raises(error) as caught:
        parse_code(text)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_the_first_error_in_reading_order_is_raised():
    # An ill-formed inner code closes before the missing ``)`` is reached.
    with pytest.raises(IllFormed, match=r"^top\.f: outer arity 1 != 2 inner codes$"):
        parse_code("M(C(S; Z, Z)")


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
    """One code for each place a ``Min`` steps inside a code: an ``R``'s step, a ``C``'s inner code and an ``M``'s body."""

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


def _nested_loops(depth):
    """A binary code whose ``R`` steps nest ``depth`` deep over ``plus``:
    h(0) is ``plus`` and h(d)(x, y) = R(P 1 1; C(h(d - 1); P 3 3, P 2 3))."""
    code = CORPUS["plus"]
    for _ in range(depth):
        code = PrimRec(Proj(1, 1), Comp(code, (Proj(3, 3), Proj(2, 3))))
    return code


def _nested_value(depth, x, y):
    """h(depth)(x, y) in plain Python: acc = x, then acc = h(depth - 1)(acc, k) for k < y."""
    if depth == 0:
        return x + y
    for k in range(y):
        x = _nested_value(depth - 1, x, k)
    return x


class TestDeepStepFreeCodes:
    """Step-free codes built directly, deeper than the parser accepts or
    than CPython nests the blocks of one function."""

    def test_2000_deep_tower(self):
        levels = 2000
        code = _succ_tower(Proj(1, 1), levels)
        text = "P 1 1"
        for _ in range(levels):
            text = f"C(S; {text})"
        assert arity(code) == 1
        assert print_code(code) == text
        assert run_for(evaluate(code, [now(3)]), 10) == Converged(3 + levels, 0)

    def test_loops_nested_past_the_block_limit(self):
        code = _nested_loops(25)
        for x in range(3):
            for y in range(4):
                want = _nested_value(25, x, y)
                assert oracle_eval(code, [x, y], 1_000_000) == want
                assert run_for(evaluate(code, [now(x), now(y)]), FUEL) == Converged(want, 0)


class TestDeepCodesWithSteps:
    """Codes with a ``Min`` built directly, deeper than the host stack or
    than CPython nests the blocks of one function."""

    def test_2000_deep_tower(self):
        code = _succ_tower(CORPUS["ident_by_min"], 2000)
        assert run_for(evaluate(code, [now(3)]), FUEL) == Converged(2003, 3)
        # Emitting a ``C`` tower is linear in its depth.
        code = _succ_tower(CORPUS["ident_by_min"], 20_000)
        assert run_for(evaluate(code, [now(3)]), FUEL) == Converged(20_003, 3)

    def test_search_under_loops_nested_past_the_block_limit(self):
        # h(0)(x, y) = x + x, in x steps; h(d)(x, y) runs h(d - 1)(acc, 1)
        # y times.  At 25 levels the loop body with the search in it is a
        # generator of its own, which the code runs with ``yield from``.
        one = Comp(Succ(), (Comp(Zero(), (Proj(1, 3),)),))
        code = Comp(CORPUS["plus"], (Proj(1, 2), Comp(CORPUS["ident_by_min"], (Proj(1, 2),))))
        for _ in range(25):
            code = PrimRec(Proj(1, 1), Comp(code, (Proj(3, 3), one)))
        for xs, want in (((3, 1), Converged(6, 3)), ((4, 2), Converged(16, 12))):
            assert oracle_eval(code, xs, 1_000_000) == want.value
            assert run_for(evaluate(code, [now(x) for x in xs]), FUEL) == want


class TestRunsOfACodeWithSteps:
    """A code with steps is a generator run as an ``unfold``, whose every
    cut is memoised, so its runs are values: read again, shared or resumed,
    they give the same answer."""

    @staticmethod
    def run():
        code = Comp(CORPUS["plus"], (CORPUS["ident_by_min"], Proj(1, 1)))
        return evaluate(code, [now(40)])

    def test_a_cut_run_resumes_alike_twice(self):
        first = run_for(self.run(), 7)
        assert isinstance(first, Exhausted)
        assert run_for(first.rest, FUEL) == Converged(80, 33)
        assert run_for(first.rest, FUEL) == Converged(80, 33)

    def test_a_run_read_twice(self):
        d = self.run()
        assert run_for(d, FUEL) == Converged(80, 40)
        assert run_for(d, FUEL) == Converged(80, 40)

    def test_a_run_shared_by_a_pair_and_a_race(self):
        d = self.run()
        assert run_for(strict_pair(d, d), FUEL) == Converged((80, 80), 80)
        d = self.run()
        assert run_for(race(d, d), FUEL) == Converged(80, 40)

    def test_a_run_cut_by_an_exception_raises_when_forced_again(self):
        # The generator closes on the exception; a second force must not
        # read its end as a value.
        class Interrupt(Exception):
            pass

        def interrupt(frame, event, arg):
            if frame.f_code.co_filename == "<reccode>":
                raise Interrupt
            return None

        d = self.run()
        outer = sys.gettrace()
        sys.settrace(interrupt)
        try:
            with pytest.raises(Interrupt):
                run_for(d, FUEL)
        finally:
            sys.settrace(outer)
        with pytest.raises(RuntimeError, match="cannot resume"):
            run_for(d, FUEL)

    def test_an_exception_past_an_advanced_generator_closes_the_run(self):
        # Raised on the fifth return event of the generated code, after its
        # generator has advanced: a second run must raise "cannot resume",
        # not report the steps left after the lost ones.
        class Interrupt(Exception):
            pass

        returns = []

        def on_return(frame, event, arg):
            if event == "return":
                returns.append(arg)
                if len(returns) == 5:
                    raise Interrupt
            return on_return

        def interrupt(frame, event, arg):
            return on_return if frame.f_code.co_filename == "<reccode>" else None

        d = self.run()
        outer = sys.gettrace()
        sys.settrace(interrupt)
        try:
            with pytest.raises(Interrupt):
                run_for(d, FUEL)
        finally:
            sys.settrace(outer)
        assert len(returns) == 5
        with pytest.raises(RuntimeError, match="cannot resume"):
            run_for(d, FUEL)

    def test_a_dropped_cut_run_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        try:
            cut = run_for(self.run(), 7)
            assert isinstance(cut, Exhausted)
            del cut
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestResumedSearch:
    """A step-free search cut by fuel resumes from ``Exhausted.rest``."""

    def test_cut_and_resumed_search_spends_the_same_steps(self):
        whole = run_for(evaluate(CORPUS["ident_by_min"], [now(30)]), FUEL)
        assert whole == Converged(30, 30)
        for cut in (1, 7, 29):
            first = run_for(evaluate(CORPUS["ident_by_min"], [now(30)]), cut)
            assert isinstance(first, Exhausted)
            rest = run_for(first.rest, FUEL)
            assert rest == Converged(30, 30 - cut)
            # The rest is a pure value: running it again gives the same.
            assert run_for(first.rest, FUEL) == rest

    def test_search_resumed_in_pieces(self):
        r, spent = run_for(evaluate(CORPUS["ident_by_min"], [now(30)]), 4), 4
        while isinstance(r, Exhausted):
            r, spent = run_for(r.rest, 4), spent + 4
        assert r.value == 30 and spent - 4 + r.steps == 30


def test_generated_code_leaves_no_cyclic_garbage():
    # The generated functions must not reach themselves through their
    # globals or closures, as ``delay.Later`` requires of step closures.
    gc.collect()
    gc.disable()
    try:
        assert run_for(evaluate(CORPUS["mult"], [now(6), now(7)]), FUEL) == Converged(42, 0)
        d = evaluate(_nested_loops(25), [now(2), now(3)])
        assert run_for(d, FUEL) == Converged(_nested_value(25, 2, 3), 0)
        code = Comp(CORPUS["plus"], (CORPUS["ident_by_min"], Proj(1, 1)))
        assert run_for(evaluate(code, [now(3)]), FUEL) == Converged(6, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()

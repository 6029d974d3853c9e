"""The delay interpreter against the oracle on generated well-formed codes.

Codes are generated arity first: a strategy for codes of arity ``n``
only builds nodes whose parts have the arities the node needs, so every
drawn code passes ``arity``.  Minimisation bodies are arbitrary codes,
so many of them diverge on some inputs.
"""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from copartial import Converged, now, run_for
from copartial.reccode import (
    Comp,
    Min,
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

MAX_ARITY = 3
MAX_DEPTH = 3
FUEL = 2000


@cache
def codes(n: int, depth: int):
    """Well-formed codes of arity ``n`` whose nodes nest at most ``depth`` deep."""
    options = []
    if n == 1:
        options += [st.just(Zero()), st.just(Succ())]
    if n >= 1:
        options.append(st.integers(1, n).map(lambda i: Proj(i, n)))
    if depth > 0:
        # Arity 0 has no leaf, so it needs at least one more level.
        if n >= 1 or depth > 1:
            options.append(st.integers(1, MAX_ARITY).flatmap(
                lambda k: st.builds(Comp, codes(k, depth - 1),
                                    st.tuples(*[codes(n, depth - 1)] * k))))
        if 1 <= n < MAX_ARITY and (n > 1 or depth > 1):
            options.append(st.builds(PrimRec, codes(n - 1, depth - 1), codes(n + 1, depth - 1)))
        if n < MAX_ARITY:
            options.append(st.builds(Min, codes(n + 1, depth - 1)))
    return st.one_of(options)


cases = st.integers(0, MAX_ARITY).flatmap(
    lambda n: st.tuples(codes(n, MAX_DEPTH), st.lists(st.integers(0, 4), min_size=n, max_size=n)))


@given(cases)
@settings(max_examples=200, deadline=None)
def test_generated_codes_agree_with_the_oracle(case):
    code, args = case
    assert arity(code) == len(args)
    assert parse_code(print_code(code)) == code
    want = oracle_eval(code, args, FUEL)
    if want is not None:
        # Every step of ``evaluate`` is a failed probe, which the oracle
        # also pays for, so the same fuel suffices.
        got = run_for(evaluate(code, [now(a) for a in args]), FUEL)
        assert isinstance(got, Converged) and got.value == want

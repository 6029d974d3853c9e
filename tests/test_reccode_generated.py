"""The delay interpreter against the oracle on generated well-formed codes.

Codes are generated arity first: a strategy for codes of arity ``n``
only builds nodes whose parts have the arities the node needs, so every
drawn code passes ``arity``.  Minimisation bodies are arbitrary codes,
so many of them diverge on some inputs.  Searches of the form
``M(C(monus; g, P n+1 n+1))``, the least ``y`` with ``g(xs, y) <= y``, are
drawn as often as plain ones, so that many convergent codes fail some
probes before they succeed.

A second strategy draws arbitrary small trees, most of them ill-formed,
to check that ``arity`` rejects them with ``IllFormed`` and nothing else.
A third draws arbitrary texts, to check that ``parse_code`` either reads
a code that prints back to itself or raises ``ParseError`` or
``IllFormed``, and nothing else.
"""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from copartial import Converged, now, run_for
from copartial.reccode import (
    CORPUS,
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
            options.append(codes(n + 1, depth - 1).map(
                lambda g: Min(Comp(CORPUS["monus"], (g, Proj(n + 1, n + 1))))))
    return st.one_of(options)


def reference(code, xs):
    """``(value, failed probes)`` by plain recursion; loops where ``code`` diverges."""
    if isinstance(code, Zero):
        return 0, 0
    if isinstance(code, Succ):
        return xs[0] + 1, 0
    if isinstance(code, Proj):
        return xs[code.i - 1], 0
    if isinstance(code, Comp):
        inner = [reference(g, xs) for g in code.gs]
        value, steps = reference(code.f, tuple(v for v, _ in inner))
        return value, steps + sum(s for _, s in inner)
    if isinstance(code, PrimRec):
        acc, steps = reference(code.f, xs[:-1])
        for k in range(xs[-1]):
            acc, s = reference(code.g, xs[:-1] + (k, acc))
            steps += s
        return acc, steps
    y = steps = 0
    while True:
        v, s = reference(code.f, xs + (y,))
        steps += s
        if v == 0:
            return y, steps
        y, steps = y + 1, steps + 1


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
        assert got == Converged(*reference(code, tuple(args)))


# Indices in and out of range, and ones that are not plain ints.
indices = st.one_of(st.integers(-1, 4), st.booleans(), st.sampled_from([1.5, 2.0, "1", None]))
leaves = st.one_of(
    st.just(Zero()),
    st.just(Succ()),
    st.builds(Proj, indices, indices),
    st.sampled_from([None, 0, "S", Zero, ()]),  # not codes
)


def nodes(children):
    return st.one_of(
        # Any number of inner codes (zero too), as a tuple or not.
        st.builds(Comp, children, st.lists(children, max_size=3).map(tuple)),
        st.builds(Comp, children, st.one_of(st.lists(children, max_size=2), children)),
        st.builds(PrimRec, children, children),
        st.builds(Min, children),
    )


trees = st.recursive(leaves, nodes, max_leaves=8)


@given(trees)
@settings(max_examples=300, deadline=None)
def test_arity_accepts_only_printable_codes(tree):
    try:
        n = arity(tree)
    except IllFormed as e:
        assert e.path.startswith("top")
        return
    assert type(n) is int
    assert parse_code(print_code(tree)) == tree


# The syntax's characters, spaces, one stray character, and a few whole
# tokens so that many texts parse.
texts = st.lists(st.sampled_from([*"ZSPCRM();, 0123#", "P 1 1", "P 1 2", "P 2 2", "C(", "M("]), max_size=30).map("".join)


@given(texts)
@settings(max_examples=500, deadline=None)
def test_parse_code_reads_or_rejects_any_text(text):
    try:
        code = parse_code(text)
    except (ParseError, IllFormed):
        return
    assert parse_code(print_code(code)) == code

"""Lazy naturals against a plain reference on generated trees.

A tree mixes ``lazy_of`` (sometimes thousands of successors, one node),
towers of ``succ`` and of ``step``, ``never_lazy``, ``omega``,
``lazy_plus`` of two trees, sums nested to the left and to the right up
to 2000 deep, and a sum of a tree with itself (one shared node used
twice).  The reference is the tree's constructor sequence, run-length
encoded: a list of ``("S", n)`` successor runs and ``("T", n)`` plain-step
runs, where a last run of ``inf`` length means the sequence never reaches
zero.  ``observe`` and ``lazy_le`` are checked against what that sequence
says, with the exact fuel.
"""

from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from copartial import FAILS, HOLDS, unknown
from copartial.lazy import (
    ZERO,
    Ended,
    lazy_le,
    lazy_of,
    lazy_plus,
    never_lazy,
    observe,
    omega,
    step,
    succ,
)

UNDECIDED_FUEL = 3000

leaves = st.one_of(
    st.tuples(st.just("of"), st.integers(0, 9)),
    st.tuples(st.just("of"), st.integers(0, 9) | st.integers(1000, 4000)),
    st.just(("never",)),
    st.just(("omega",)),
)


def _extend(trees):
    return st.one_of(
        st.tuples(st.just("succ"), trees, st.integers(0, 3)),
        st.tuples(st.just("step"), trees, st.integers(0, 3)),
        st.tuples(st.just("plus"), trees, trees),
        st.tuples(st.just("left"), trees, st.integers(0, 2000)),
        st.tuples(st.just("right"), trees, st.integers(0, 2000)),
        st.tuples(st.just("twice"), trees),
    )


trees = st.recursive(leaves, _extend, max_leaves=8)


def summand(i):
    """The i-th summand of a nested sum: one successor, one step, or zero."""
    return (lazy_of(1), step(lambda: ZERO), ZERO)[i % 3]


SUMMAND_RUNS = ([("S", 1)], [("T", 1)], [])


def build(t):
    kind = t[0]
    if kind == "of":
        return lazy_of(t[1])
    if kind == "never":
        return never_lazy()
    if kind == "omega":
        return omega()
    if kind == "plus":
        return lazy_plus(build(t[1]), build(t[2]))
    x = build(t[1])
    if kind in ("succ", "step"):
        tower = succ if kind == "succ" else step
        for _ in range(t[2]):
            x = tower(lambda x=x: x)
        return x
    if kind == "left":
        for i in range(t[2]):
            x = lazy_plus(x, summand(i))
        return x
    if kind == "right":
        for i in range(t[2]):
            x = lazy_plus(summand(i), x)
        return x
    return lazy_plus(x, x)  # "twice"


def cat(*parts):
    """Run lists one after another; nothing follows a run that never ends."""
    runs = []
    for part in parts:
        for tok, n in part:
            if runs and runs[-1][1] == inf:
                return runs
            if n == 0:
                continue
            if runs and runs[-1][0] == tok:
                runs[-1] = (tok, runs[-1][1] + n)
            else:
                runs.append((tok, n))
    return runs


def reference(t):
    """The run-length encoded constructor sequence of a tree."""
    kind = t[0]
    if kind == "of":
        return cat([("S", t[1])])
    if kind == "never":
        return [("T", inf)]
    if kind == "omega":
        return [("S", inf)]
    if kind == "plus":
        # lazy_plus(x, y) is y's constructors, then x's once y reaches zero
        return cat(reference(t[2]), reference(t[1]))
    inner = reference(t[1])
    if kind == "succ":
        return cat([("S", t[2])], inner)
    if kind == "step":
        return cat([("T", t[2])], inner)
    if kind == "left":
        return cat(*(SUMMAND_RUNS[i % 3] for i in reversed(range(t[2]))), inner)
    if kind == "right":
        return cat(inner, *(SUMMAND_RUNS[i % 3] for i in range(t[2])))
    return cat(inner, inner)  # "twice"


def ends(runs):
    return not runs or runs[-1][1] != inf


def count(runs, tok):
    return sum(n for k, n in runs if k == tok)


def observed(runs, fuel):
    """What ``observe`` must answer: successors among the first ``fuel``
    constructors, and whether zero follows them."""
    succs = 0
    for tok, n in runs:
        take = min(n, fuel)
        if tok == "S":
            succs += take
        fuel -= take
        if take < n:
            return succs, Ended.EXHAUSTED
    return succs, Ended.ZERO


def steps_before(runs, k):
    """Plain steps before the k-th successor, or ``None`` if there is none."""
    steps = 0
    for tok, n in runs:
        if k == 0 or (tok == "S" and n >= k):
            return steps
        if tok == "S":
            k -= n
        else:
            steps += n
    return steps if k == 0 else None


def decided(xs, ys):
    """``(verdict, fuel it takes)`` for ``lazy_le``, or ``None`` if no fuel decides it.

    Every constructor of the left side is peeled, and a successor on each
    side is peeled as a pair for one fuel.  A step on the right is only
    peeled while the left waits at a successor.
    """
    sx, sy = count(xs, "S"), count(ys, "S")
    if ends(xs):
        before = steps_before(ys, sx)
        if before is not None:
            return HOLDS, count(xs, "T") + sx + before
    if ends(ys):
        before = steps_before(xs, sy + 1)
        if before is not None:
            return FAILS, before + sy + count(ys, "T")
    return None


@given(trees, st.integers(0, 3000))
@settings(max_examples=75, deadline=None)
def test_observe_matches_the_reference(t, fuel):
    runs, x = reference(t), build(t)
    assert observe(x, fuel) == observed(runs, fuel)
    if ends(runs):
        # again on the same, partly forced, nodes
        length = count(runs, "S") + count(runs, "T")
        assert observe(x, length) == (count(runs, "S"), Ended.ZERO)
        if length:
            assert observe(build(t), length - 1)[1] is Ended.EXHAUSTED


@given(trees, trees)
@settings(max_examples=75, deadline=None)
def test_lazy_le_matches_the_reference(s, t):
    want = decided(reference(s), reference(t))
    if want is None:
        assert lazy_le(build(s), build(t), UNDECIDED_FUEL) == unknown(UNDECIDED_FUEL)
        return
    verdict, fuel = want
    assert lazy_le(build(s), build(t), fuel) == verdict
    if fuel:
        assert lazy_le(build(s), build(t), fuel - 1) == unknown(fuel - 1)

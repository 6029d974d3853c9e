"""The monad's combinators against a plain reference on generated trees.

A tree mixes ``delay_by`` (sometimes a run thousands of steps long),
``unfold`` countdowns (sometimes thousands of steps long), ``never``,
binds nested to the left and to the right, ``fmap``,
``strict_tuple``, long left-nested bind chains, a bind onto the remainder
of a node that was partly run and is then used again, ``race`` and
``parallel_search``.  The reference computes ``(value, steps)`` with plain
integers, or ``None`` where the tree diverges; for the races it pins the
exact step count and the left bias.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from copartial import (
    Again, Converged, Exhausted, bind, delay_by, fmap, never, now, parallel_search, race,
    run_for, strict_tuple, unfold,
)

DIVERGENCE_FUEL = 2000

delays = st.tuples(st.just("delay"), st.integers(0, 9), st.integers(0, 3))
# A long run is one node, so fuel cuts, remainders and binds land inside it.
runs = st.tuples(st.just("delay"), st.integers(0, 9), st.integers(1000, 5000))
# An unfold is one node too, stepped in bulk by its step function.
unfolds = st.tuples(st.just("unfold"), st.integers(0, 9), st.integers(0, 5) | st.integers(0, 5000))
leaves = st.one_of(delays, delays, delays, runs, unfolds, st.just(("never",)))


def _extend(trees):
    return st.one_of(
        st.tuples(st.just("lbind"), trees, st.integers(0, 9), st.integers(0, 2)),
        st.tuples(st.just("rbind"), trees, trees),
        st.tuples(st.just("fmap"), trees, st.integers(0, 9)),
        st.tuples(st.just("tuple"), st.lists(trees, max_size=3).map(tuple)),
        st.tuples(st.just("chain"), trees, st.integers(0, 2000)),
        st.tuples(st.just("rest"), trees, st.integers(0, 6) | st.integers(0, 6000)),
        st.tuples(st.just("race"), trees, trees),
        st.tuples(st.just("search"), st.lists(trees, max_size=3).map(tuple)),
    )


trees = st.recursive(leaves, _extend, max_leaves=12)


def build(t):
    kind = t[0]
    if kind == "delay":
        return delay_by(t[1], t[2])
    if kind == "unfold":
        v = t[1]
        return unfold(t[2], lambda k: now(v) if k == 0 else Again(k - 1))
    if kind == "never":
        return never()
    if kind == "lbind":
        _, u, j, k = t
        return bind(lambda v: delay_by(v + j, k), build(u))
    if kind == "rbind":
        _, u, w = t
        return bind(lambda v: fmap(lambda b: v + b, build(w)), build(u))
    if kind == "fmap":
        return fmap(lambda v: 2 * v + t[2], build(t[1]))
    if kind == "tuple":
        return fmap(sum, strict_tuple([build(u) for u in t[1]]))
    if kind == "chain":
        x = build(t[1])
        for i in range(t[2]):
            x = bind(lambda v, i=i: delay_by(v + 1, i % 2), x)
        return x
    if kind == "race":
        return race(build(t[1]), build(t[2]))
    if kind == "search":
        entrants = t[1]
        return parallel_search(lambda n: build(entrants[n]) if n < len(entrants) else never())
    # "rest": run a node partly, bind onto what is left, and use the node again.
    x = build(t[1])
    r = run_for(x, t[2])
    rest = r.rest if isinstance(r, Exhausted) else now(r.value)
    return fmap(sum, strict_tuple((bind(lambda v: delay_by(v + 1, 1), rest), x)))


def reference(t):
    """``(value, steps)`` of the tree, or ``None`` if it diverges."""
    kind = t[0]
    if kind in ("delay", "unfold"):
        return t[1], t[2]
    if kind == "never":
        return None
    if kind == "tuple":
        parts = [reference(u) for u in t[1]]
        if None in parts:
            return None
        return sum(v for v, _ in parts), sum(s for _, s in parts)
    if kind == "race":
        # Either side may diverge; the left side wins a tie.
        a, b = reference(t[1]), reference(t[2])
        if a is None or b is None:
            return b if a is None else a
        return a if a[1] <= b[1] else b
    if kind == "search":
        # Entrant n joins after n + 1 steps; the earliest entered wins a tie.
        parts = [reference(u) for u in t[1]]
        wins = [(p[1] + n + 1, n, p[0]) for n, p in enumerate(parts) if p is not None]
        if not wins:
            return None
        steps, _, value = min(wins)
        return value, steps
    inner = reference(t[1])
    if inner is None:
        return None
    v, s = inner
    if kind == "lbind":
        return v + t[2], s + t[3]
    if kind == "rbind":
        other = reference(t[2])
        return None if other is None else (v + other[0], s + other[1])
    if kind == "fmap":
        return 2 * v + t[2], s
    if kind == "chain":
        return v + t[2], s + t[2] // 2
    # "rest": the remainder's steps plus one, then the whole node again.
    return 2 * v + 1, s - min(s, t[2]) + 1 + s


@given(trees)
@settings(max_examples=300, deadline=None)
def test_generated_trees_match_the_reference(t):
    want = reference(t)
    if want is None:
        assert isinstance(run_for(build(t), DIVERGENCE_FUEL), Exhausted)
        return
    value, steps = want
    assert run_for(build(t), steps) == Converged(value, steps)
    if steps:
        assert isinstance(run_for(build(t), steps - 1), Exhausted)

"""Executable checks of the Kleisli-triple and strength equations.

Laws are checked up to weak bisimilarity over sampled finite delays
(plus, optionally, the diverging element), so a step-miscounting but
value-correct implementation still passes; a value-corrupting one is
reported with a counterexample.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .delay import (
    Converged, Delay, _check_fuel, _natural, _Record, bind, delay_by, fmap, never, now, run_for,
    strength,
)
from .semantics import FAILS, HOLDS, bisim, unknown

__all__ = ["DelayGen", "LawResult", "check_kleisli_laws", "check_strength_laws"]


# The values a sampled delay converges to, and the most steps it takes.
_VALUES = tuple(range(0, 50))
_MAX_DELAY = 8


class DelayGen(_Record):
    """Sampling distribution for test inputs.

    Generates ``delay_by(a, k)`` with ``a`` drawn from ``_VALUES`` and
    ``k <= _MAX_DELAY``, plus the diverging element when enabled.
    """

    __slots__ = ("include_never",)
    _defaults = (False,)

    def sample(self, rng: random.Random) -> Delay[int]:
        if self.include_never and rng.random() < 0.1:
            return never()
        return delay_by(rng.choice(_VALUES), rng.randint(0, _MAX_DELAY))

    def sample_value(self, rng: random.Random) -> int:
        return rng.choice(_VALUES)

    def sample_fn(self, rng: random.Random) -> Callable[[int], Delay[int]]:
        """A pure step-padded function on naturals."""
        pad = rng.randint(0, _MAX_DELAY)
        base = rng.choice(
            (
                lambda a: a + 1,
                lambda a: 2 * a,
                lambda a: a * a,
                lambda a: 0,
                lambda a: max(0, a - 3),
            )
        )
        return lambda a: delay_by(base(a), pad)


class LawResult(_Record):
    """One law's tally over the samples; mutable, so unhashable."""

    __slots__ = ("name", "verdict", "holds", "unknown", "fails", "counterexample")
    _defaults = (HOLDS, 0, 0, 0, None)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


BindImpl = Callable[[Callable[[int], Delay[int]], Delay[int]], Delay[int]]
# One draw of a suite's inputs: per law, its two sides and a deferred counterexample.
Sides = Callable[[random.Random], Sequence[tuple[Delay, Delay, Callable[[], str]]]]


def check_kleisli_laws(
    gen: DelayGen,
    samples: int,
    fuel: int,
    seed: int = 0,
    bind_impl: BindImpl = bind,
) -> dict[str, LawResult]:
    """Check the three Kleisli-triple equations on sampled inputs.

    ``bind_impl`` exists for mutation testing: substituting a broken
    extension operator must produce a ``Fails`` with a counterexample.
    """

    def sides(rng: random.Random):
        x = gen.sample(rng)
        a = gen.sample_value(rng)
        f = gen.sample_fn(rng)
        g = gen.sample_fn(rng)
        return (
            (bind_impl(now, x), x,
             lambda: f"bind(now, x) !~ x for x={_shape(x, fuel)}"),
            (bind_impl(f, now(a)), f(a),
             lambda: f"bind(f, now({a})) !~ f({a})"),
            (bind_impl(g, bind_impl(f, x)), bind_impl(lambda v: bind_impl(g, f(v)), x),
             lambda: f"associativity broken at x={_shape(x, fuel)}"),
        )

    names = ("kleisli-right-unit", "kleisli-left-unit", "kleisli-associativity")
    return _check(names, sides, samples, fuel, seed)


def check_strength_laws(
    gen: DelayGen,
    samples: int,
    fuel: int,
    seed: int = 0,
) -> dict[str, LawResult]:
    """Check the four strength equations, with multiplication taken as
    ``bind`` of the identity."""

    def sides(rng: random.Random):
        y = gen.sample(rng)
        a = gen.sample_value(rng)
        b = gen.sample_value(rng)
        zz = delay_by(y, rng.randint(0, _MAX_DELAY))
        return (
            (fmap(lambda p: p[1], strength((), y)), y,
             lambda: f"projecting strength((), y) !~ y for y={_shape(y, fuel)}"),
            (fmap(lambda p: (p[0][0], (p[0][1], p[1])), strength((a, b), y)),
             strength(a, strength(b, y)),
             lambda: f"associativity broken at a={a}, b={b}, y={_shape(y, fuel)}"),
            (strength(a, now(b)), now((a, b)),
             lambda: f"strength({a}, now({b})) !~ now(({a}, {b}))"),
            (strength(a, _join(zz)),
             _join(fmap(lambda p: strength(p[0], p[1]), strength(a, zz))),
             lambda: f"multiplication law broken at a={a}, inner={_shape(y, fuel)}"),
        )

    names = ("strength-unit-projection", "strength-associativity",
             "strength-unit", "strength-multiplication")
    return _check(names, sides, samples, fuel, seed)


def _check(names: Sequence[str], sides: Sides, samples: int, fuel: int,
           seed: int) -> dict[str, LawResult]:
    # Draw ``samples`` inputs from one seeded generator and judge every law on
    # each: a law fails on any refuted sample, holds once one holds, else is unknown.
    _natural(samples, "samples must be non-negative")
    _check_fuel(fuel)
    rng = random.Random(seed)
    results = [LawResult(name) for name in names]
    for _ in range(samples):
        for r, (lhs, rhs, describe) in zip(results, sides(rng)):
            v = bisim(lhs, rhs, fuel)
            if v.is_fails():
                r.fails += 1
                if r.counterexample is None:
                    r.counterexample = describe()
            elif v.is_holds():
                r.holds += 1
            else:
                r.unknown += 1
    for r in results:
        r.verdict = FAILS if r.fails else HOLDS if r.holds else unknown(fuel)
    return {r.name: r for r in results}


def _join(zz: Delay[Delay[int]]) -> Delay[int]:
    return bind(lambda z: z, zz)


def _shape(x: Delay[int], fuel: int) -> str:
    r = run_for(x, fuel)
    if isinstance(r, Converged):
        return f"delay_by({r.value}, {r.steps})"
    return f"<no value within {fuel} steps>"

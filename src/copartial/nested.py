"""Nested recursive functions encoded as delayed computations.

Nested recursion (a recursive call applied to the result of another
recursive call) is flattened with an accumulation counter that tracks
how many applications are still pending.  When a post-processing
function wraps the recursive call, a second counter tracks how many of
its applications are pending; they are applied together at the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

from .delay import Delay, later, now

A = TypeVar("A")

__all__ = ["DevilSpec", "nest", "cnest", "devil", "cps_fix", "mccarthy91_devil_spec"]


@dataclass(frozen=True)
class DevilSpec(Generic[A]):
    """Data for ``d(a) = g(a) if in_base(a) else h(d(d(i(a))))``.

    ``in_base`` must be total and decidable; ``g`` is only ever applied
    to arguments satisfying ``in_base``.
    """

    in_base: Callable[[A], bool]
    i: Callable[[A], A]
    g: Callable[[A], A]
    h: Callable[[A], A]


def cnest(n: int, m: int) -> Delay[int]:
    """Compute the m-fold self-application of ``nest`` at ``n``.

    The counter ``m`` holds the number of pending nested applications;
    one step per transition.
    """
    if m == 0:
        return now(n)
    if n == 0:
        return later(lambda: cnest(0, m - 1))
    return later(lambda: cnest(n - 1, m + 1))


def nest(n: int) -> Delay[int]:
    """``nest(0) = 0; nest(n+1) = nest(nest(n))`` — constantly zero."""
    return cnest(n, 1)


def devil(spec: DevilSpec[A], a: A, nesting: int = 1) -> Delay[A]:
    """The devil's nest: doubly-nested recursion with a post-map.

    ``nesting`` is the number of extra pending recursive applications
    opened by one unfolding (1 for the doubly-nested form).  Pending
    applications are counted rather than nested, and so are the pending
    applications of the post-map ``h``: one per unfolding, all applied
    to the final base value.
    """
    return _devil_from(spec, nesting, 0, 0, a)


def _devil_from(spec: DevilSpec[A], nesting: int, hs: int, m: int, x: A) -> Delay[A]:
    # ``m`` recursive applications and ``hs`` applications of ``h`` are
    # still pending on top of ``d(x)``.
    if spec.in_base(x):
        gx = spec.g(x)
        if m == 0:
            for _ in range(hs):
                gx = spec.h(gx)
            return now(gx)
        return later(lambda: _devil_from(spec, nesting, hs, m - 1, gx))
    return later(lambda: _devil_from(spec, nesting, hs + 1, m + nesting, spec.i(x)))


def cps_fix(
    in_base: Callable[[A], bool],
    g: Callable[[A], A],
    i: Callable[[A], A],
    h: Callable[[A], A],
    a: A,
) -> Delay[A]:
    """``d(a) = g(a) if in_base(a) else h(d(i(a)))``: a devil's nest that
    opens no extra pending application."""
    return devil(DevilSpec(in_base, i, g, h), a, nesting=0)


def mccarthy91_devil_spec() -> DevilSpec[int]:
    """McCarthy's 91 function as a devil's nest instance."""
    return DevilSpec(
        in_base=lambda n: n > 100,
        i=lambda n: n + 11,
        g=lambda n: n - 10,
        h=lambda n: n,
    )

"""Nested recursive functions encoded as delayed computations.

Nested recursion (a recursive call applied to the result of another
recursive call) needs no machinery of its own: the devil's nest is its
defining equation written with ``bind`` and ``fmap``, one step per
unfolding and one per return into a pending outer call.  ``cnest``
flattens ``nest`` with a counter of pending applications, and
``cps_fix``, whose single recursion leaves only post-maps pending,
counts those; both are ``unfold``s.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from .delay import Again, Delay, _Record, bind, fmap, later, now, unfold

A = TypeVar("A")

__all__ = ["DevilSpec", "nest", "cnest", "devil", "cps_fix", "mccarthy91_devil_spec"]


class DevilSpec(_Record, Generic[A]):
    """Data for ``d(a) = g(a) if in_base(a) else h(d(d(i(a))))``.

    ``in_base`` must be total and decidable; ``g`` is only ever applied
    to arguments satisfying ``in_base``.
    """

    __slots__ = ("in_base", "i", "g", "h")

    def __init__(self, in_base: Callable[[A], bool], i: Callable[[A], A],
                 g: Callable[[A], A], h: Callable[[A], A]):
        self._set("in_base", in_base)
        self._set("i", i)
        self._set("g", g)
        self._set("h", h)


def cnest(n: int, m: int) -> Delay[int]:
    """Compute the m-fold self-application of ``nest`` at ``n``.

    An unfold over ``(n, m)``: the counter ``m`` holds the number of
    pending nested applications; one step per transition.
    """
    return unfold((n, m), _cnest_step)


def _cnest_step(s: tuple[int, int]) -> Again[tuple[int, int]] | Delay[int]:
    n, m = s
    if m == 0:
        return now(n)
    return Again((0, m - 1) if n == 0 else (n - 1, m + 1))


def nest(n: int) -> Delay[int]:
    """``nest(0) = 0; nest(n+1) = nest(nest(n))`` — constantly zero."""
    return cnest(n, 1)


def devil(spec: DevilSpec[A], a: A) -> Delay[A]:
    """The devil's nest ``d(a) = g(a) if in_base(a) else h(d(d(i(a))))``.

    One step per unfolding and one per return of the inner call into the
    pending outer one; ``bind`` keeps the pending calls and post-maps.
    """
    if spec.in_base(a):
        return now(spec.g(a))
    return later(lambda: fmap(spec.h, bind(
        lambda v: later(lambda: devil(spec, v)), devil(spec, spec.i(a)))))


def cps_fix(
    in_base: Callable[[A], bool],
    g: Callable[[A], A],
    i: Callable[[A], A],
    h: Callable[[A], A],
    a: A,
) -> Delay[A]:
    """``d(a) = g(a) if in_base(a) else h(d(i(a)))``, one step per unfolding.

    Single recursion leaves nothing pending but applications of ``h``, so
    it is an unfold over ``(hs, x)``: ``hs`` applications of ``h`` are
    still pending on top of ``d(x)``, and are applied to the base value.
    """
    def step(s: tuple[int, A]) -> Again[tuple[int, A]] | Delay[A]:
        hs, x = s
        if in_base(x):
            gx = g(x)
            for _ in range(hs):
                gx = h(gx)
            return now(gx)
        return Again((hs + 1, i(x)))

    return unfold((0, a), step)


def mccarthy91_devil_spec() -> DevilSpec[int]:
    """McCarthy's 91 function as a devil's nest instance."""
    return DevilSpec(
        in_base=lambda n: n > 100,
        i=lambda n: n + 11,
        g=lambda n: n - 10,
        h=lambda n: n,
    )

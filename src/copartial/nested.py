"""Nested recursive functions encoded as delayed computations.

Nested recursion (a recursive call applied to the result of another
recursive call) needs no machinery of its own: the devil's nest is its
defining equation written with ``bind`` and ``fmap``, one step per
unfolding and one per return into a pending outer call.  ``cnest``
flattens ``nest`` with a counter of pending applications, and
``cps_fix``, whose single recursion leaves only post-maps pending,
counts those.  Each is a generator on ``delay``'s budgeted protocol:
every resume after the first is sent the steps it may take and takes
them all at once, yielding their count, or returns its value behind the
steps it took less one; ``cnest`` takes them in O(1) from its closed
form, and ``cps_fix`` in one loop of unfoldings.
"""

from __future__ import annotations

import operator
from typing import Callable, Generator, Generic, TypeVar

from .delay import Delay, _gen, _Record, _run_node, bind, fmap, later, now

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

    A generator over ``(n, m)``: the counter ``m`` holds the number of
    pending nested applications; one step per transition.  ``n`` and ``m``
    are integers, and ``ValueError`` is raised if either is negative.
    """
    n, m = operator.index(n), operator.index(m)
    if n < 0 or m < 0:
        raise ValueError("cnest arguments must be non-negative")
    return _gen(_cnest(n, m))


def _cnest(n: int, m: int) -> Generator[int, int, Delay[int]]:
    # A resume of budget b takes k = min(b, t) transitions in closed form, t
    # being those left: 2n + m, or none once m is 0.  While n > 0 a step goes
    # to (n - 1, m + 1), so (n, m) reaches (0, m + n) in n steps; after that
    # each step removes one pending application.
    budget = 1  # ``_gen``'s first resume is one step
    while True:
        k = min(budget, 2 * n + m if m else 0)
        n, m = (n - k, m + k) if k <= n else (0, m + 2 * n - k)
        if k < budget:
            return _run_node(later, k, now(n))
        budget = yield k


def nest(n: int) -> Delay[int]:
    """``nest(0) = 0; nest(n+1) = nest(nest(n))`` — constantly zero.

    ``n`` is an integer, and ``ValueError`` is raised if it is negative.
    """
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
    it is a generator over ``(hs, x)``: ``hs`` applications of ``h`` are
    still pending on top of ``d(x)``, and are applied to the base value.
    """
    return _gen(_cps_fix(in_base, g, i, h, a))


def _cps_fix(in_base: Callable[[A], bool], g: Callable[[A], A], i: Callable[[A], A],
             h: Callable[[A], A], x: A) -> Generator[int, int, Delay[A]]:
    # A resume of budget b runs up to b unfoldings; ``k`` counts those of this resume.
    hs, k, budget = 0, 0, 1  # ``_gen``'s first resume is one step
    while not in_base(x):
        hs, x, k = hs + 1, i(x), k + 1
        if k == budget:
            budget, k = (yield k), 0
    gx = g(x)
    for _ in range(hs):
        gx = h(gx)
    return _run_node(later, k, now(gx))


def mccarthy91_devil_spec() -> DevilSpec[int]:
    """McCarthy's 91 function as a devil's nest instance."""
    return DevilSpec(
        in_base=lambda n: n > 100,
        i=lambda n: n + 11,
        g=lambda n: n - 10,
        h=lambda n: n,
    )

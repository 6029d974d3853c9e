"""Lazy partial naturals: observe part of a result before it is done.

A lazy natural is a ``Delay`` with tagged steps: a successor, ``succ``, is a
``Later`` subclass, a plain computation step is a ``Later``, and zero is
``Now(None)``.  So a diverging computation can still reveal finitely many
successors, and ``lazy_plus`` is ``bind``, which keeps each step's tag.
``lazy_of(n)`` is one node for its ``n`` successors, and ``observe`` and
``lazy_le`` cut such a run in O(1) while charging one fuel per constructor.
The sloth example shows the payoff: its lazy version answers where the
strict delay version loops.
"""

from __future__ import annotations

import enum
import sys
from typing import Tuple

from .delay import (
    Delay, Later, Now, _check_fuel, _delay, _natural, _run_node, _skip, bind, delay_by, later, never, now,
)
from .semantics import FAILS, HOLDS, Verdict, unknown

__all__ = [
    "LazyNat",
    "ZERO",
    "succ",
    "step",
    "never_lazy",
    "omega",
    "lazy_of",
    "Ended",
    "observe",
    "lazy_plus",
    "lazy_le",
    "sloth_f",
    "sloth_g",
    "sloth_strict_f",
    "sloth_strict_g",
]


LazyNat = Delay


class _Succ(Later):
    __slots__ = ()

    pred = Later.rest

    def __repr__(self) -> str:
        return "Succ(...)"


ZERO: LazyNat = Now(None)
succ = _Succ

# A plain step, and the lazy natural of plain steps only (all steps, no
# information), are the delay monad's own.
step = later
never_lazy = never
_OMEGA = _Succ.knot()


def omega() -> LazyNat:
    """All successors: the infinite lazy natural."""
    return _OMEGA


def lazy_of(n: int) -> LazyNat:
    """Embed a plain natural as a step-free lazy natural: one node for ``n`` successors."""
    return _run_node(_Succ, n, ZERO, "lazy naturals are non-negative")


class Ended(enum.Enum):
    ZERO = "zero"
    EXHAUSTED = "exhausted"


def observe(x: LazyNat, fuel: int) -> Tuple[int, Ended]:
    """Peel constructors, counting successors; one fuel per peel.

    Reaching the zero constructor costs nothing; the count is the number
    of successors seen before the end or before the fuel ran out.
    """
    _check_fuel(fuel)
    _delay(x)
    succs = 0
    while True:
        if isinstance(x, Now):
            return succs, Ended.ZERO
        if fuel == 0:
            return succs, Ended.EXHAUSTED
        is_succ = isinstance(x, _Succ)
        x, k = _skip(x, fuel)
        fuel -= k
        if is_succ:
            succs += k


def lazy_plus(x: LazyNat, y: LazyNat) -> LazyNat:
    """Addition by corecursion on the right argument; a ``bind``, so sums
    nested to any depth on either side re-associate as they are observed."""
    return bind(lambda _: x, y)


def lazy_le(x: LazyNat, y: LazyNat, fuel: int) -> Verdict:
    """Semi-decide the inductive order on lazy naturals.

    A derivation strips matching successors and skips steps on either
    side until the left reaches zero (``Holds``) or a successor on the
    left faces a zero on the right, which no rule can conclude
    (``Fails``).  One fuel per stripped constructor.
    """
    _check_fuel(fuel)
    _delay(x), _delay(y)
    spent = 0
    while True:
        if isinstance(x, Now):
            return HOLDS
        if isinstance(x, _Succ) and isinstance(y, Now):
            return FAILS
        if spent == fuel:
            return unknown(fuel)
        # Strip as many constructors at once as a run on one side, or on both, allows.
        if not isinstance(x, _Succ):
            x, k = _skip(x, fuel - spent)
        elif not isinstance(y, _Succ):
            y, k = _skip(y, fuel - spent)
        else:
            rest, k = _skip(x, fuel - spent)
            y, k_y = _skip(y, k)
            x, k = (rest, k) if k_y == k else _skip(x, k_y)
        spent += k


_NEGATIVE = "sloth arguments must be non-negative"


def sloth_f(n: int) -> LazyNat:
    """Lazy evaluation of the first sloth function at a plain natural."""
    return _level(([ZERO], [ZERO]), _natural(n, _NEGATIVE), 0)


def sloth_g(n: int) -> LazyNat:
    """Lazy evaluation of the second sloth function at a plain natural."""
    return _level(([ZERO], [ZERO]), _natural(n, _NEGATIVE), 1)


def _level(levels: tuple[list, list], n: int, which: int) -> LazyNat:
    # Level ``n`` of one call's sloth pair, ``levels = (F, G)`` with ``F[k]``
    # = f(k) and ``G[k]`` = g(k), built bottom-up.  Each top-level call has
    # its own tables, closed over by its deferred tails: a cycle, which the
    # cycle collector frees once the call's result is dropped.  Building
    # level k only ever consults levels below k: the guard of g(k) peels at
    # most k-1 constructors of f(k-1), and whenever f(k-1)'s tail jumps to a
    # higher level the lower part already supplies more constructors than
    # the guard can ask for.  Higher levels are demanded only while
    # observing a result, when no level is under construction.  Iterative
    # so that large levels, reached when a deep observation crosses into a
    # tower's tail, do not nest host stack frames.  Each deferred tail binds
    # its own level (a default argument), not the loop's last one.
    F, G = levels
    while len(F) <= n:
        m = len(F) - 1
        fm, gm = F[m], G[m]
        # f (succ m) = f (g m) + g m.  The recursive call's argument is the
        # value of g(m).  It is only needed once gm's own constructors are
        # exhausted, and at that point gm is known finite and can be drained
        # by one ``observe`` whose fuel no level's run comes near.
        F.append(bind(lambda _, gm=gm: _level(levels, observe(gm, sys.maxsize)[0], 0), gm))
        # g (succ m) = g (f m) + m  if f m <= m,  else 0.  The sloth builds
        # no plain steps, so m peels of fm either reach its end, with v = f m,
        # or leave a successor more (f m > m).  Refutation only peels finitely
        # many constructors of fm, which lets g(14) answer although f(13)
        # never finishes.
        v, ended = observe(fm, m)
        G.append(bind(lambda _, v=v: _level(levels, v, 1), lazy_of(m))
                 if ended is Ended.ZERO else ZERO)
    return levels[which][n]


# Strict transcription over Delay[int]: a step per call and per return.


def sloth_strict_f(n: int) -> Delay[int]:
    """Strict sloth f; diverges wherever full evaluation does."""
    n = _natural(n, _NEGATIVE)
    # f 0 = 0;  f (succ m) = f (g m) + g m
    return later(lambda: now(0) if n == 0 else bind(
        lambda v: _returned_plus(sloth_strict_f(v), v), sloth_strict_g(n - 1)))


def sloth_strict_g(n: int) -> Delay[int]:
    """Strict sloth g; diverges at 14 where the lazy version answers."""
    # g 0 = 0;  g (succ m) = g (f m) + m  if f m <= m,  else 0
    n = _natural(n, _NEGATIVE)
    m = n - 1
    return later(lambda: now(0) if n == 0 else bind(
        lambda v: _returned_plus(sloth_strict_g(v), m) if v <= m else delay_by(0, 1),
        sloth_strict_f(m)))


def _returned_plus(x: Delay[int], a: int) -> Delay[int]:
    # Return into the pending caller, run ``x``, then return its value plus ``a``.
    return bind(lambda w: delay_by(w + a, 1), later(x))

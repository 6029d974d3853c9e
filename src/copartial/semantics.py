"""Fuel-bounded semi-decisions for the undecidable delay predicates.

Convergence, divergence, finiteness, weak bisimilarity, and the
convergence order are undecidable in general, so every checker returns a
three-valued ``Verdict``: ``Holds`` and ``Fails`` are definitive and
monotone in fuel, ``Unknown`` carries no claim beyond the fuel spent.
The convergence order ``leq`` is ``bisim``, whose docstring says why.
A checker keeps no reference to a computation once its run starts, so
the steps a run has passed are freed as it goes.
"""

from __future__ import annotations

from typing import Callable, TypeVar, Union

from .delay import Again, Converged, Delay, Done, _check_fuel, _not_delay, _Record, run_for

A = TypeVar("A")
S = TypeVar("S")
B = TypeVar("B")

__all__ = [
    "Verdict",
    "HOLDS",
    "FAILS",
    "unknown",
    "converges_to",
    "diverges_bounded",
    "diverges_finite_state",
    "is_finite",
    "bisim",
    "leq",
]


class Verdict(_Record):
    """Outcome of a fuel-bounded semi-decision.

    ``kind`` is one of ``"holds"``, ``"fails"``, ``"unknown"``;
    ``fuel_spent`` is set only for unknown verdicts.
    """

    __slots__ = ("kind", "fuel_spent")
    _defaults = (None,)

    def is_holds(self) -> bool:
        return self.kind == "holds"

    def is_fails(self) -> bool:
        return self.kind == "fails"

    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    def __str__(self) -> str:
        if self.is_unknown():
            return f"Unknown(fuel_spent={self.fuel_spent})"
        return self.kind.capitalize()


HOLDS = Verdict("holds")
FAILS = Verdict("fails")


def unknown(fuel_spent: int) -> Verdict:
    return Verdict("unknown", fuel_spent)


def _judge(fuel: int, judge: Callable[..., Verdict], sides: list[Delay]) -> Verdict:
    # Run each side under the full fuel in turn; judge their values, or
    # give up with ``Unknown`` at the first side that does not converge.
    # Each side leaves ``sides`` as its run starts, and the callers hold
    # none, so the steps a run has passed are freed as it goes.
    values = []
    while sides:
        r = run_for(sides.pop(0), fuel)
        if not isinstance(r, Converged):
            return unknown(fuel)
        values.append(r.value)
    return judge(*values)


def _equal(u, v) -> Verdict:
    return HOLDS if u == v else FAILS


def converges_to(x: Delay[A], a: A, fuel: int) -> Verdict:
    """Does ``x`` reach exactly the value ``a`` within ``fuel`` steps?"""
    sides = [x]
    del x
    return _judge(fuel, lambda v: _equal(v, a), sides)


def diverges_bounded(x: Delay[A], fuel: int) -> Verdict:
    """Refute divergence by observing convergence; never affirms it.

    Divergence cannot be confirmed by any finite observation, so the
    only definitive answer available here is ``Fails``.
    """
    sides = [x]
    del x
    return _judge(fuel, lambda _v: FAILS, sides)


def diverges_finite_state(
    seed: S,
    step: Callable[[S], Union[Again[S], Done[B]]],
    state_bound: int,
) -> Verdict:
    """Affirm divergence of an unfold by detecting a seed cycle.

    ``Holds`` if iteration revisits a seed before producing a value,
    ``Fails`` if a value is produced, ``Unknown`` once ``state_bound``
    distinct seeds have been seen or at a step that returns a ``Delay``
    other than ``Done`` (the unfold continues as it, so its seeds end),
    ``TypeError`` at a step that is neither ``Again`` nor a ``Delay``.
    Seeds must be hashable with a meaningful equality.  The seeds seen are
    the fuel spent, so ``state_bound`` is checked as fuel.
    """
    _check_fuel(state_bound)
    seen = set()
    s = seed
    while True:
        if s in seen:
            return HOLDS
        if len(seen) >= state_bound:
            return unknown(len(seen))
        seen.add(s)
        r = step(s)
        if not isinstance(r, Again):
            if isinstance(r, Done):
                return FAILS
            if isinstance(r, Delay):
                return unknown(len(seen))
            raise _not_delay(r, "Again or Done")
        s = r.state


def is_finite(x: Delay[A], fuel: int) -> Verdict:
    """Does ``x`` have a value at all?  Never ``Fails``."""
    sides = [x]
    del x
    return _judge(fuel, lambda _v: HOLDS, sides)


def bisim(x: Delay[A], y: Delay[A], fuel: int) -> Verdict:
    """Weak bisimilarity: same convergence behavior, steps ignored.

    Each side gets the full fuel budget.  If only one side converges
    within fuel the answer is ``Unknown``: ruling the pair apart would
    require a divergence proof for the other side.

    Also ``leq``, the convergence order (each value of ``x`` is one of ``y``):
    on a deterministic ``Delay`` the two differ only where ``x`` diverges,
    which no finite fuel observes, so their semi-decisions coincide.
    """
    sides = [x, y]
    del x, y
    return _judge(fuel, _equal, sides)


leq = bisim

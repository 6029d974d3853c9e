"""Possibly-nonterminating computations as first-class lazy values.

A ``Delay`` is either a value available now or one observable computation
step followed by another ``Delay``.  All combinators here are productive:
peeling a single constructor always terminates, so a fuel-bounded runner
can observe any ``Delay`` safely; binds nested to any depth re-associate
as they step, so a peel costs amortised O(1) host work and stack, and a
race round O(live racers), with no host nesting.  A bind node has the
class of the step it runs, so tagged steps keep their tags.
``delay_by(v, n)`` is one node for its whole run of ``n`` steps, and
the private ``_gen`` makes one node over a generator: each resume is
sent the steps it may take and yields the steps it took (a bare
``yield`` is one), and the generator returns its rest, a ``Delay``.
Every stepped machine is such a node (an ``unfold``, a race, ``nested``'s
``cps_fix`` and ``cnest``), and an exception that escapes a cut closes
it for good.  ``rest()`` peels one step, and the peel loops cut a run, a
generator or a knot (a node that is its own tail, such as ``never()``),
bare or at the head of binds, in one go while charging one fuel per
step.  One function, ``_skip``, runs every node's thunk and memoises
each cut in the node it cut, so a thunk runs once per step however often
its node is run.  ``now``/``later`` are the classes ``Now``/``Later``;
an ``unfold`` step finishes with ``Done``, which is ``Now``.  A run's
result, ``Converged`` or ``Exhausted``, is a record: a slotted value
class over ``_Record``, the one base of every record in the package.
"""

from __future__ import annotations

import operator
from itertools import count
from typing import Any, Callable, Generator, Generic, Sequence, TypeVar, Union

A = TypeVar("A")
B = TypeVar("B")
S = TypeVar("S")

__all__ = [
    "Delay",
    "Now",
    "Later",
    "Done",
    "Again",
    "Converged",
    "Exhausted",
    "RunResult",
    "now",
    "later",
    "never",
    "delay_by",
    "unfold",
    "bind",
    "fmap",
    "strength",
    "strict_pair",
    "strict_tuple",
    "strict_proj",
    "race",
    "parallel_search",
    "run_for",
]


class Delay(Generic[A]):
    """Base class; concrete values are ``Now`` or ``Later``."""

    __slots__ = ()


class Now(Delay[A]):
    """A computation that already finished with ``value``."""

    __slots__ = ("value",)

    def __init__(self, value: A):
        self.value = value

    def __repr__(self) -> str:
        return f"Now({self.value!r})"


class Later(Delay[A]):
    """One computation step; ``rest()`` forces the next stage, once.

    The thunk is a closure, or one of the tagged tuples ``_Run``, ``_Gen``
    and ``_Bind``, and ``_skip`` is the one code that runs it.  Two
    conditions keep a forced chain from holding more than its live state.
    The thunk is dropped once run (a cut of more than one step leaves a
    run in its place), so a node no longer reaches what its step closure
    captured.  And a step closure must never reach its own
    function (no nested function that calls itself): such a function and
    its closure cell form a cycle that keeps a computation's whole state
    alive until the cycle collector runs.
    """

    __slots__ = ("_thunk", "_forced")

    def __init__(self, thunk: Callable[[], Delay[A]] | tuple | None):
        self._thunk = thunk
        self._forced = None

    def rest(self) -> Delay[A]:
        return self._forced if self._thunk is None else _skip(self, 1)[0]

    @classmethod
    def knot(cls):
        """A forced node whose value is the node itself."""
        node = cls(None)
        node._forced = node
        return node

    def __repr__(self) -> str:
        return "Later(...)"


now = Done = Now
later = Later

# The canonical diverging computation: its own tail.
_NEVER: Later[Any] = Later.knot()


class Again(Generic[S]):
    """Unfold step outcome: take one step and continue from ``state``; no equality."""

    __slots__ = ("state",)

    def __init__(self, state: S):
        self.state = state

    def __repr__(self) -> str:
        return f"Again({self.state!r})"


class _Record:
    """Base of the package's records: value classes whose fields are their
    ``__slots__``, set once by ``__init__`` through ``_set``.

    Records of one class are equal, and hash alike, when their field
    tuples are; records of different classes are never equal.  ``repr``
    is ``Cls(field=value, ...)``, and assigning or deleting a field raises
    ``AttributeError``.
    """

    __slots__ = ()
    _set = object.__setattr__

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Converged(_Record, Generic[A]):
    __slots__ = ("value", "steps")

    def __init__(self, value: A, steps: int):
        self._set("value", value)
        self._set("steps", steps)


class Exhausted(_Record, Generic[A]):
    __slots__ = ("rest",)

    def __init__(self, rest: Delay[A]):
        self._set("rest", rest)


RunResult = Union[Converged[A], Exhausted[A]]


def never() -> Delay[Any]:
    """The computation that steps forever and has no value."""
    return _NEVER


def delay_by(value: A, steps: int) -> Delay[A]:
    """``value`` behind exactly ``steps`` computation steps, as one node."""
    return _run_node(Later, steps, Now(value))


def _natural(n: int, negative: str) -> int:
    # A count: ``n`` as an ``int``, ``TypeError`` unless an integer, ``ValueError`` if negative.
    n = operator.index(n)
    if n < 0:
        raise ValueError(negative)
    return n


def _run_node(cls: type, n: int, tail: Delay[A],
              negative: str = "steps must be non-negative") -> Delay[A]:
    # ``n`` steps of class ``cls`` before ``tail``: one node, or ``tail`` itself if ``n`` is 0.
    n = _natural(n, negative)
    return cls(_Run((cls, n, tail))) if n else tail


class _Run(tuple):
    """The thunk ``(cls, n, tail)`` of a node of class ``cls`` that stands for
    ``n`` >= 1 steps of that class before ``tail``; ``drop`` peels up to a
    budget at once, in O(1)."""

    __slots__ = ()

    def drop(self, budget: int) -> tuple[Delay, int]:
        cls, n, tail = self
        if n <= budget:
            return tail, n
        return cls(_Run((cls, n - budget, tail))), budget


def unfold(seed: S, step: Callable[[S], Union[Again[S], Done[B]]]) -> Delay[B]:
    """Iterate a step function, one observable step per ``Again``.

    ``step`` plays the role of a coalgebra: ``Done(b)``, which is ``Now(b)``, is
    the result; ``Again(s)`` emits a step and continues from ``s``.  The
    first ``step`` is taken now, and the node after it is a generator's
    node, cut by as many calls of ``step`` as each budget allows.  Each
    ``step`` is called once per step, however often a node is run, so it
    may advance ``s`` in place, as ``reccode`` does with a generator.
    """
    return _gen(_unfold(step, seed))


def _unfold(step: Callable[[S], Union[Again[S], Done[B]]], s: S) -> Generator[int, int, Delay[B]]:
    # A resume of budget b calls ``step`` up to b times; ``k`` counts the ``Again``s of this resume.
    k, budget = 0, 1  # ``_gen``'s first resume is one step
    while True:
        r = step(s)
        if isinstance(r, Done):
            return _run_node(Later, k, r)
        s, k = r.state, k + 1
        if k == budget:
            budget, k = (yield k), 0


def _gen(gen: Generator[int | None, int, Delay[A]]) -> Delay[A]:
    """The steps of a generator, then the rest it returns, as one node.

    A fresh generator is run to its first ``yield`` with ``next``, and that
    yield is one step, taken now (an ``unfold``'s first step); if the
    generator returns instead, its rest is the node.  Every later resume
    is a ``send`` of a step budget, as ``_Gen`` says.
    """
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    return Later(_Gen((gen,)))


class _Gen(tuple):
    """The thunk ``(gen,)`` of a generator's node, cut by a budgeted protocol.

    ``drop(budget)`` resumes the generator with ``gen.send(budget - k)``,
    where ``k`` is the steps taken so far in this cut.  A resume yields the
    number of steps it took, never more than it was sent and possibly 0; a
    bare ``yield`` counts as 1.  A resume that ends in ``return`` counts as
    one step, so a generator that took ``j`` steps in its last resume
    returns its rest, a ``Delay``, behind ``j - 1`` steps (``_run_node``).
    A cut is recorded only when ``drop`` returns, so an exception that
    escapes it, wherever raised, closes the generator: running the node
    again then raises "cannot resume" instead of reporting fewer steps."""

    __slots__ = ()

    def drop(self, budget: int) -> tuple[Delay, int]:
        gen = self[0]
        k = 0
        try:
            while k < budget:
                j = gen.send(budget - k)
                k += 1 if j is None else j
            return Later(self), k
        except StopIteration as stop:
            if stop.value is None:
                raise RuntimeError("this run was cut by an exception and cannot resume") from None
            return stop.value, k + 1
        except BaseException:
            gen.close()
            raise


# The thunks whose node ``_skip`` cuts in one ``drop``.
_BULK = (_Run, _Gen)


def fmap(f: Callable[[A], B], x: Delay[A]) -> Delay[B]:
    """Apply a pure function under the steps; step count is preserved."""
    # Not left to ``bind``: ``fix`` maps over many never iterates, and this skips a closure.
    if x is _NEVER:
        return _NEVER
    if isinstance(x, Now):
        return Now(f(x.value))
    return bind(lambda a: Now(f(a)), x)


def bind(f: Callable[[A], Delay[B]], x: Delay[A]) -> Delay[B]:
    """Sequence: run ``x``, then run ``f`` on its value.

    Step counts add; if ``x`` diverges the result diverges.  Nested binds
    re-associate when they are stepped, so each step costs amortised O(1)
    host work and stack, however deeply the binds nest on either side.
    A bind node keeps the class of the head whose step it runs.
    """
    return _resume(x, f)


class _Bind(tuple):
    """The thunk ``(x, ks)`` of a node made by ``bind``, of ``x``'s class:
    one step of ``x``, then the continuations ``ks``.  ``ks`` is a
    continuation or a pair of such trees, whose leaves apply left to right;
    so a nested bind's continuations are put in front of ``ks`` in O(1)."""

    __slots__ = ()


def _resume(x: Delay, ks: Any) -> Delay:
    # Feed ``x``, once it is a value, to the continuation tree ``ks``, or
    # bind the tree onto ``x``'s next step.
    while isinstance(x, Now):
        if ks is None:
            return x
        k, ks = ks, None
        while type(k) is tuple:
            k, then = k
            ks = then if ks is None else (then, ks)
        x = k(x.value)
    if x is _NEVER or ks is None:
        return x
    return type(x)(_Bind((x, ks)))


def _skip(x: Later, budget: int) -> tuple[Delay, int]:
    """Peel ``k`` of at most ``budget`` >= 1 steps off ``x``; return the rest and ``k``.

    The one code that runs a thunk.  A run or a generator is cut in one
    ``drop``, and a knot, such as ``never()``, is a run without end; each,
    bare or at the head of binds, is cut at once, and every step cut has
    ``x``'s class.  A closure thunk peels one step.  The one memo rule: a
    cut of one step is memoised as ``x``'s forced tail, and a cut of ``k``
    > 1 as a run of ``k`` steps before the rest; an exception memoises
    nothing.  A bind's head is cut through ``_skip`` too, unless it is a
    run, which is pure and O(1).  So a thunk runs once per step, however
    often its node is run.
    """
    t = x._thunk
    if type(t) in _BULK:
        rest, k = t.drop(budget)
    elif t is None:
        rest = x._forced
        return rest, budget if rest is x else 1
    elif type(t) is _Bind:
        head, ks = t
        # Open unforced bind nodes, not force them: a left chain is walked once, not per step.
        while type(head._thunk) is _Bind:
            head, inner = head._thunk
            ks = (inner, ks)
        h = head._thunk
        rest, k = h.drop(budget) if type(h) is _Run else _skip(head, budget)
        rest = _resume(rest, ks)
    else:
        rest, k = t(), 1
    if k == 1:
        x._forced, x._thunk = rest, None
    elif type(t) is not _Run:
        x._thunk = _Run((type(x), k, rest))
    return rest, k


def strength(a: A, y: Delay[B]) -> Delay[tuple[A, B]]:
    """Pair a ready value with a computation, keeping the steps of ``y``."""
    return fmap(lambda b: (a, b), y)


def strict_pair(x: Delay[A], y: Delay[B]) -> Delay[tuple[A, B]]:
    """Move all steps of both components outside the pair.

    Converges iff both components converge; the steps of ``x`` are spent
    first, then the steps of ``y``.
    """
    return strict_tuple((x, y))


def strict_tuple(xs: Sequence[Delay[A]]) -> Delay[tuple[A, ...]]:
    """n-ary ``strict_pair``; the empty tuple converges immediately."""
    acc: Delay[tuple] = Now(())
    for x in xs:
        acc = bind(lambda t, x=x: fmap(lambda v: t + (v,), x), acc)
    return acc


def strict_proj(i: int, xs: Sequence[Delay[A]]) -> Delay[A]:
    """1-based projection that is strict in every component.

    Raises ``IndexError`` on a bad index; that is a caller error, distinct
    from the represented nontermination.
    """
    items = tuple(xs)
    if not 1 <= i <= len(items):
        raise IndexError(f"strict_proj index {i} out of range 1..{len(items)}")
    return fmap(lambda t: t[i - 1], strict_tuple(items))


def race(x: Delay[B], y: Delay[B]) -> Delay[B]:
    """First of two computations to converge; ``x`` wins a tie.

    Converges iff either argument converges.  The left bias is entry
    order, as in ``parallel_search``, whose caveat applies here too.  A
    cut runs its rounds one per resume, so a racer is stepped no further
    than the round that some racer converges in.
    """
    return _gen(_race((x, y), None))


def parallel_search(f: Callable[[int], Delay[B]]) -> Delay[B]:
    """Dovetail the sequence ``f(0), f(1), ...``; first convergent wins.

    ``f(n)`` joins the race after ``n + 1`` outer steps, so the search
    emits one step per round even when every entrant is still stepping.
    The first entrant to converge wins, the earliest entered on a tie.
    Racing is the one combinator here that breaks weak bisimilarity, so
    callers (``fix``) must only race entrants with compatible values.  A
    cut runs its rounds one per resume, and calls no entrant past the
    first round at which some racer converges.
    """
    return _gen(_race((), f))


def _race(xs: Sequence[Delay[B]],
          f: Callable[[int], Delay[B]] | None) -> Generator[None, int, Delay[B]]:
    # One round per step over the racers ``xs`` in entry order; ``f(n)`` enters after step n + 1.
    # Each resume runs one round and ignores the budget it is sent: a bare ``yield`` is one step.
    # The canonical never is its own tail, so it drops out without changing any step.
    for n in count():
        live = []
        for x in xs:
            if isinstance(x, Now):
                return x
            if x is not _NEVER:
                live.append(x)
        if f is None and len(live) < 2:
            return live[0] if live else _NEVER
        yield
        xs = [x.rest() for x in live] + ([f(n)] if f else [])


def _check_fuel(fuel: int) -> None:
    # Fuel is a step count.
    _natural(fuel, "fuel must be non-negative")


def run_for(x: Delay[A], fuel: int) -> RunResult[A]:
    """Peel at most ``fuel`` steps; report the value or the remainder.

    Every step costs one fuel; a run or a knot is cut at once, and a
    generator, such as an unfold, in as many resumes as it takes to
    spend its budget.
    """
    _check_fuel(fuel)
    steps = 0
    while True:
        if isinstance(x, Now):
            return Converged(x.value, steps)
        if steps == fuel:
            return Exhausted(x)
        x, k = _skip(x, fuel - steps)
        steps += k

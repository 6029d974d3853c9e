"""Possibly-nonterminating computations as first-class lazy values.

A ``Delay`` is either a value available now or one observable computation
step followed by another ``Delay``.  All combinators here are productive:
peeling a single constructor always terminates, so a fuel-bounded runner
can observe any ``Delay`` safely; binds nested to any depth re-associate
as they step, so a peel costs amortised O(1) host work and stack, and a
race round O(live racers), with no host nesting.  A bind node has the
class of the step it runs, so tagged steps keep their tags, and its cell
is the plain pair of that step and its continuations, which only ``bind``
stores: a ``Later`` is built from a step closure or a ``Delay``, and
refuses a tuple.
``delay_by(v, n)`` is one node for its whole run of ``n`` steps, and
the private ``_gen`` makes one node over a generator: each resume is
sent the steps it may take and yields the steps it took, and the
generator returns its rest, a ``Delay``.  Every stepped machine is such
a node (an ``unfold`` and ``nested``'s ``cps_fix``), and an exception
that escapes a cut closes it for good.  A race or a search is
an ``unfold`` of its rounds whose last step may hand over to a racer.
A ``Later`` is one memo cell: it holds its step's code until its cut,
and then the rest or a run before it.  A node of one step holds its rest
from the start, as a one-step cut leaves it, so a run is of two steps
or more however it was made.  One loop, ``_skip``, steps every
node: it runs each cell's code and peels past its node through the
consecutive nodes of the first node's class until its budget is spent
or the class changes, cutting a run, a generator or a knot (a cell that
holds its own node, such as ``never()``) in one go.
So the peel loops (``run_for``, and ``lazy``'s ``observe`` and
``lazy_le``) loop only where the class changes, while charging one fuel
per step; ``rest()`` peels one step.  Each cell the loop passes is
updated as it is passed, and the first node's when the cut ends, so a
thunk runs once per step however often its node is run after its cut,
and a caller that keeps the first node keeps no chain of the nodes
passed.  A non-``Delay`` where a ``Delay`` is due, an ``unfold`` step
that is neither ``Again`` nor a ``Delay``, or a bare ``Delay()``, raises
``TypeError``.
``now``/``later`` are the classes ``Now``/``Later``, and ``Done`` is
``Now``.  A run's result, ``Converged`` or ``Exhausted``, is a record: a
slotted value class over ``_Record``, the one base of every record.
"""

from __future__ import annotations

import operator
from types import GeneratorType
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

    def __init__(self, *args):
        raise TypeError("Delay is abstract: build a Now or a Later")


class Now(Delay[A]):
    """A computation that already finished with ``value``."""

    __slots__ = ("value",)

    def __init__(self, value: A):
        self.value = value

    def __repr__(self) -> str:
        return f"Now({self.value!r})"


class Later(Delay[A]):
    """One computation step; ``rest()`` forces the next stage, once.

    The node is one memo cell, ``_thunk``, and ``_skip``, the one stepping
    loop, runs what it holds.  A ``Later`` is built from a step closure or
    a ``Delay``: a tuple raises ``TypeError`` at once, any other
    non-callable at its step.  Before the cut the cell holds the code for
    the rest: that closure, a generator primed by ``_gen``, a ``_Run``, or
    a bind's plain pair ``(x, ks)``, which only ``bind`` stores.
    After it, it holds the rest (so ``Later(d)`` for a ``Delay`` ``d`` is
    forced to ``d``, and a knot holds itself) or a ``_Run`` of the steps
    taken before the rest.  A node of one step is built as that memo:
    ``delay_by(v, 1)`` is ``Later(Now(v))``, not a run of one.
    Every step of one cut has the class of the node cut, so a subclass
    (``lazy``'s successor) tags its steps.  A forced chain holds no more
    than its live state: the cut overwrites the code, so a node reaches
    neither what its closure captured nor the nodes the cut passed; and a
    step closure must never reach its own function (no nested function
    that calls itself): the function and its closure cell would form a
    cycle that keeps the computation's whole state alive until the cycle
    collector runs.
    """

    __slots__ = ("_thunk",)

    def __init__(self, thunk: Callable[[], Delay[A]] | Delay[A] | Generator):
        # A plain tuple cell is a bind's, so ``_skip`` reads one unchecked.
        if type(thunk) is tuple:
            raise TypeError("a Later is built from a step closure or a Delay, not a tuple")
        self._thunk = thunk

    def rest(self) -> Delay[A]:
        return t if isinstance(t := self._thunk, Delay) else _skip(self, 1)[0]

    @classmethod
    def knot(cls):
        """A forced node whose value is the node itself."""
        node = cls(None)
        node._thunk = node
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
    ``__slots__``, written once.

    A subclass with fields gets its ``__init__`` when it is defined: one
    parameter per slot, in order, the last ones defaulting to the class
    tuple ``_defaults``, and one ``object.__setattr__`` per field, compiled
    from source rather than looped over the slots at each call.  Records
    of one class are equal, and hash alike, when their field tuples are;
    records of different classes are never equal.  ``repr`` is
    ``Cls(field=value, ...)``, and assigning or deleting a field raises
    ``AttributeError``.
    """

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            names = ", ".join(cls.__slots__)
            body = "".join([f"\n _set(self, {name!r}, {name})" for name in cls.__slots__])
            ns = {"_set": object.__setattr__}
            exec(f"def __init__(self, {names}):{body}", ns)
            init = ns["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            init.__defaults__ = cls._defaults
            cls.__init__ = init

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


class Exhausted(_Record, Generic[A]):
    __slots__ = ("rest",)


RunResult = Union[Converged[A], Exhausted[A]]


def never() -> Delay[Any]:
    """The computation that steps forever and has no value."""
    return _NEVER


def delay_by(value: A, steps: int) -> Delay[A]:
    """``value`` behind exactly ``steps`` computation steps, as one node.

    The node's cell holds a run of ``steps`` before ``Now(value)``, or, for
    one step, ``Now(value)`` itself, as a cut of one step leaves a cell.
    """
    # A positive ``int`` skips ``_run_node``'s check: each step of a bind loop over ``delay_by`` builds one.
    # Without it a 2000-step right-nested bind loop under ``converges_to`` took ~1.17 µs per step against
    # ~1.10 (CPU time, medians of 12 alternating runs of best of 9×50, 2-core host, Python 3.11.7).
    if type(steps) is int and steps > 0:
        return Later(_Run((steps, Now(value))) if steps > 1 else Now(value))
    return _run_node(Later, steps, Now(value))


def _natural(n: int, negative: str) -> int:
    # A count: ``n`` as an ``int``, ``TypeError`` unless an integer, ``ValueError`` if negative.
    n = operator.index(n)
    if n < 0:
        raise ValueError(negative)
    return n


def _run_node(cls: type, n: int, tail: Delay[A],
              negative: str = "steps must be non-negative") -> Delay[A]:
    # ``n`` steps of class ``cls`` before ``tail``: one node whose cell holds a run, or ``tail``
    # itself if ``n`` is 1; ``tail`` alone if ``n`` is 0.
    n = _natural(n, negative)
    return cls(_Run((n, tail)) if n > 1 else tail) if n else tail


class _Run(tuple):
    """The cell ``(n, tail)`` of a node that stands for ``n`` >= 2 steps of
    the node's class before ``tail``; ``_skip`` peels up to a budget of
    them at once, in O(1).  A node of one step holds ``tail`` itself."""

    __slots__ = ()


def unfold(seed: S, step: Callable[[S], Union[Again[S], Delay[B]]]) -> Delay[B]:
    """Iterate a step function, one observable step per ``Again``.

    ``step`` plays the role of a coalgebra: ``Again(s)`` emits a step and
    continues from ``s``; ``Done(b)``, which is ``Now(b)``, is the result,
    and any other ``Delay`` is the rest the unfold continues as, as an
    apomorphism's step may end (a race hands over to its last racer so).
    The first ``step`` is taken now, and the node after it is a
    generator's node, cut by as many calls of ``step`` as each budget
    allows.  Each ``step`` is called once per step, however often a node
    is run, so it may advance ``s`` in place, as ``reccode`` does with a
    generator.
    """
    return _gen(_unfold(step, seed))


def _unfold(step: Callable[[S], Union[Again[S], Delay[B]]], s: S) -> Generator[int, int, Delay[B]]:
    # A resume of budget b calls ``step`` up to b times; ``k`` counts the ``Again``s of this resume.
    k, budget = 0, 1  # ``_gen``'s first resume is one step
    while True:
        r = step(s)
        if not isinstance(r, Again):
            if isinstance(r, Delay):
                return _run_node(Later, k, r)
            raise _not_delay(r, "Again or Done")
        s, k = r.state, k + 1
        if k == budget:
            budget, k = (yield k), 0


def _gen(gen: Generator[int, int, Delay[A]]) -> Delay[A]:
    """The steps of a generator, then the rest it returns, as one node.

    A fresh generator is run to its first ``yield`` with ``next``, and that
    yield is one step, taken now (an ``unfold``'s first step); if the
    generator returns instead, its rest is the node.  Every later resume
    is a ``send`` of a step budget, as ``_drop`` says.
    """
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    return Later(gen)


def _drop(gen: Generator[int, int, Delay[A]], budget: int) -> tuple[Delay[A], int]:
    """Cut up to ``budget`` steps off the node whose cell holds ``gen``.

    Resumes ``gen`` with ``gen.send(budget - k)``, where ``k`` is the steps
    taken so far in this cut.  A resume yields the number of steps it
    took, never more than it was sent and possibly 0.  A resume that
    ends in ``return`` counts as one step, so a generator that took ``j``
    steps in its last resume returns its rest, a ``Delay``, behind
    ``j - 1`` steps (``_run_node``).  A cut is recorded only when this
    returns, so an exception that escapes it, wherever raised, closes the
    generator: running the node again then raises "cannot resume"
    instead of reporting fewer steps."""
    k = 0
    try:
        while k < budget:
            j = gen.send(budget - k)
            k += j
        return Later(gen), k
    except StopIteration as stop:
        if stop.value is None:
            raise RuntimeError("this run was cut by an exception and cannot resume") from None
        return stop.value, k + 1
    except BaseException:
        gen.close()
        raise


def fmap(f: Callable[[A], B], x: Delay[A]) -> Delay[B]:
    """Apply a pure function under the steps; step count is preserved."""
    # Not left to ``bind``: ``fix`` maps over many never iterates, and this skips a closure.
    # Without these two cases a mix of ``fix`` runs (factorial, McCarthy 91, Ackermann,
    # division) and a 290-deep tower took 32 ms against 25 ms (best of 30, 2-core host).
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
    A bind node keeps the class of the head whose step it runs, and its
    cell holds the plain pair ``(x, ks)``: one step of ``x``, then the
    continuations ``ks``, a continuation or a pair of such trees whose
    leaves apply left to right, so a nested bind's continuations are put
    in front of ``ks`` in O(1).  ``TypeError`` if ``x``, or a value ``f``
    returns, is not a ``Delay``; the latter is raised at the step where
    ``f`` is called.  ``f`` may also be such a tree: ``_skip`` feeds a
    bind's head, once it is a value, to its tree this way.
    """
    # Feed ``x``, while it is a value, to the tree's leftmost continuation,
    # then bind what is left of the tree onto ``x``'s next step.
    ks = f
    while isinstance(x, Now):
        if ks is None:
            return x
        k, ks = ks, None
        while type(k) is tuple:
            k, then = k
            ks = then if ks is None else (then, ks)
        x = k(x.value)
    if not isinstance(x, Later):
        raise _not_delay(x)
    if x is _NEVER or ks is None:
        return x
    # Past ``Later.__init__``, which refuses a tuple: this is the one plain-tuple cell.
    node = object.__new__(type(x))
    node._thunk = (x, ks)
    return node


def _not_delay(x: Any, expected: str = "a Delay") -> TypeError:
    return TypeError(f"expected {expected}, got {type(x).__name__}")


def _delay(x: Any) -> Delay:
    if isinstance(x, Delay):
        return x
    raise _not_delay(x)


def _skip(x: Later, budget: int) -> tuple[Delay, int]:
    """Peel ``k`` of at most ``budget`` >= 1 steps off ``x``; return the rest and ``k``.

    The package's one stepping loop, and the one code that runs a cell's code.
    It peels ``x``, then each node it reaches, whatever its cell holds,
    while that node has ``x``'s class, so every step of one cut has
    ``x``'s class.  It stops when it has spent ``budget``, or reaches a
    value, a node of another class, ``x`` itself or a bind whose left
    spine holds ``x``, which it leaves for the next cut.  A run or a
    generator is cut in one go, and a knot, such as ``never()``, is a run
    without end that takes the rest of the budget at once; a closure or a
    cell that holds a node is one step.  A run cut short leaves the rest
    of its steps as a node of its class, which holds the run's tail itself
    if one step is left, so no cell holds a run of fewer than two steps.
    A bind node, whose cell is the pair ``(head, ks)``, opens its left
    spine of such pairs, cuts the head there as one node (so a head that
    steps into further binds adds no host frame) and feeds the rest to
    its continuations: a value straight to a lone continuation, with
    ``bind``'s check on what it returns, and anything else through ``bind``.

    The memo rules make a thunk run once per step, however often its
    node is run.  A node cut on its own by ``j`` steps gets the rest in
    its cell if ``j`` is 1, else a run of ``j`` steps before the rest; a
    cell that holds a node, or a run cut by more than one step, keeps
    what it holds.  Each node after ``x`` gets that memo as the loop
    passes it, and so does a bind's head, unless it is a run, which is
    pure.  ``x`` is memoised only when the cut ends, by the same rule
    over all ``k`` steps: while the loop runs it points at no node it
    passed, so they are freed as it goes, and a shorter re-cut of ``x``
    reads a prefix of this one; but a thunk that runs ``x`` again during
    the cut (a re-entrant ``run_for`` or ``observe``) runs it from its
    start.  The node whose thunk raises an exception, or a closure that
    returns a non-``Delay`` (``TypeError``), memoises nothing; ``x`` is
    memoised as a run of the steps already taken before the exception
    propagates, so a re-run calls no earlier thunk again.
    """
    cls, y, k = type(x), x, 0
    try:
        while True:
            node, t, ks = y, y._thunk, None
            if type(t) is tuple:
                # Open unforced bind nodes, not force them: a left chain is walked once.
                # Only ``bind`` stores a plain pair, so its head is a ``Later`` and ``ks`` is not ``None``.
                node, ks = t
                t = node._thunk
                while type(t) is tuple and node is not x:
                    node, inner = t
                    ks, t = (inner, ks), node._thunk
                if node is x:  # ``x`` is not memoised yet: end the cut before ``y``
                    rest = y
                    break
            if type(t) is _Run:
                n, rest = t
                j = budget - k
                if n > j:
                    rest = type(node)(_Run((n - j, rest)) if n - j > 1 else rest)
                else:
                    j = n
                changed = j == 1
            elif type(t) is GeneratorType:
                rest, j = _drop(t, budget - k)
                changed = True
            elif isinstance(t, Delay):
                rest, j, changed = t, budget - k if t is node else 1, False
            else:
                rest, j, changed = t(), 1, True
                if type(rest) is not cls and not isinstance(rest, Delay):
                    raise _not_delay(rest)
            if ks is not None:
                if changed and type(t) is not _Run:
                    _memo(node, j, rest)
                if type(rest) is Now and type(ks) is not tuple:
                    # Direct feed: one continuation, with ``bind``'s checks on what it returns.
                    rest = ks(rest.value)
                    if type(rest) is not cls and not isinstance(rest, (Now, Later)):
                        raise _not_delay(rest)
                else:
                    rest = bind(ks, rest)
                changed = True
            k += j
            if changed and y is not x:
                y._thunk = rest if j == 1 else _Run((j, rest))
            if k == budget or type(rest) is not cls or rest is x:
                break
            y = rest
    except BaseException:
        if y is not x:
            _memo(x, k, y)
        raise
    if y is not x or changed:
        _memo(x, k, rest)
    return rest, k


def _memo(node: Later, k: int, rest: Delay) -> None:
    # A cut of ``k`` steps: one leaves the rest in the cell, more a run before ``rest``.
    node._thunk = rest if k == 1 else _Run((k, rest))


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
    """n-ary ``strict_pair``; the empty tuple converges immediately.

    ``TypeError`` if a component is not a ``Delay``.  The values are
    gathered as nested pairs ``(t, v)`` and flattened once at the end, so
    n components cost O(n), not the O(n²) of copying the tuple so far.
    """
    acc: Delay[tuple] = Now(())
    for x in xs:
        _delay(x)
        acc = bind(lambda t, x=x: fmap(lambda v: (t, v), x), acc)
    return fmap(_flatten, acc)


def _flatten(t: tuple) -> tuple:
    # ``(((), a), b)`` -> ``(a, b)``: an empty tuple is the end, and every pair is truthy.
    vs = []
    while t:
        t, v = t
        vs.append(v)
    return tuple(reversed(vs))


def strict_proj(i: int, xs: Sequence[Delay[A]]) -> Delay[A]:
    """1-based projection that is strict in every component.

    Raises ``IndexError`` on a bad index, ``TypeError`` on a non-integer;
    that is a caller error, distinct from the represented nontermination.
    """
    i = operator.index(i)
    items = tuple(xs)
    if not 1 <= i <= len(items):
        raise IndexError(f"strict_proj index {i} out of range 1..{len(items)}")
    return fmap(lambda t: t[i - 1], strict_tuple(items))


def race(x: Delay[B], y: Delay[B]) -> Delay[B]:
    """First of two computations to converge; ``x`` wins a tie.

    Converges iff either argument converges.  The left bias is entry
    order, as in ``parallel_search``, whose caveat applies here too.  A
    race is an ``unfold`` of its rounds, one step each, so a cut runs as
    many rounds as its budget allows in one resume; a racer is stepped no
    further than the round that some racer converges in, and the last
    racer left is the race's rest.
    """
    return unfold(((_delay(x), _delay(y)), None, 0), _round)


def parallel_search(f: Callable[[int], Delay[B]]) -> Delay[B]:
    """Dovetail the sequence ``f(0), f(1), ...``; first convergent wins.

    ``f(n)`` joins the race after ``n + 1`` outer steps, so the search
    emits one step per round even when every entrant is still stepping.
    The first entrant to converge wins, the earliest entered on a tie.
    Racing is the one combinator here that breaks weak bisimilarity, so
    callers (``fix``) must only race entrants with compatible values.  A
    search is an ``unfold`` of its rounds, as a race is, and calls no
    entrant past the first round at which some racer converges; a
    non-``Delay`` entrant closes the search with ``TypeError``.
    """
    return unfold(((), f, 0), _round)


def _round(state: tuple) -> Union[Again[tuple], Delay[B]]:
    # Round n over ``(racers, f, n)``: step the last round's live racers and enter ``f(n - 1)``,
    # in entry order.  The canonical never is its own tail, so it drops out without changing any step.
    xs, f, n = state
    if n:
        xs = [x.rest() for x in xs] + ([_delay(f(n - 1))] if f else [])
    live = []
    for x in xs:
        if isinstance(x, Now):
            return x
        if x is not _NEVER:
            live.append(x)
    if f is None and len(live) < 2:
        return live[0] if live else _NEVER
    return Again((live, f, n + 1))


def _check_fuel(fuel: int) -> None:
    # Fuel is a step count.
    _natural(fuel, "fuel must be non-negative")


def run_for(x: Delay[A], fuel: int) -> RunResult[A]:
    """Peel at most ``fuel`` steps; report the value or the remainder.

    Every step costs one fuel.  Each ``_skip`` takes the rest of the fuel
    through every consecutive node of one class: a run or a knot at once,
    a generator, such as an unfold, in as many resumes as it takes, and
    binds and closures one step each, without coming back here.  So this
    loop turns only where a step's class changes.  ``TypeError`` if ``x``
    is not a ``Delay``.
    """
    _check_fuel(fuel)
    _delay(x)
    steps = 0
    while True:
        if isinstance(x, Now):
            return Converged(x.value, steps)
        if steps == fuel:
            return Exhausted(x)
        x, k = _skip(x, fuel - steps)
        steps += k

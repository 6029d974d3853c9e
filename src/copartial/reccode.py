"""Kleene partial recursive function codes and their delay interpreter.

Codes are built from zero, successor, projections, composition, primitive
recursion and minimization, and denote maps from value tuples to delayed
naturals whose only steps are failed minimization probes.  ``evaluate``
forces its delayed arguments once, left to right, and compiles the code
once: a part without minimization is primitive recursive, so it runs as a
plain function on integers, and only minimization probes step.
``oracle_eval`` is an independent budgeted big-step evaluator over plain
integers, to check it.

Concrete syntax (whitespace-insensitive)::

    Z | S | P i n | C(f; g1, ..., gk) | R(f; g) | M(f)
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .delay import Again, Delay, _check_fuel, bind, fmap, later, now, strict_tuple, unfold

__all__ = [
    "RecCode",
    "Zero",
    "Succ",
    "Proj",
    "Comp",
    "PrimRec",
    "Min",
    "IllFormed",
    "ParseError",
    "arity",
    "evaluate",
    "oracle_eval",
    "parse_code",
    "print_code",
    "CORPUS",
    "MAX_NESTING",
]


class IllFormed(Exception):
    """The code violates the arity discipline; carries the code path."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class ParseError(Exception):
    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"at {position}: {message}")


@dataclass(frozen=True)
class Zero:
    """The unary constant-zero function."""


@dataclass(frozen=True)
class Succ:
    """The unary successor function."""


@dataclass(frozen=True)
class Proj:
    i: int
    n: int


@dataclass(frozen=True)
class Comp:
    f: "RecCode"
    gs: Tuple["RecCode", ...]


@dataclass(frozen=True)
class PrimRec:
    f: "RecCode"
    g: "RecCode"


@dataclass(frozen=True)
class Min:
    f: "RecCode"


RecCode = Zero | Succ | Proj | Comp | PrimRec | Min


def arity(code: RecCode, _path: str = "top") -> int:
    """Number of arguments, validating the arity discipline throughout."""
    if isinstance(code, (Zero, Succ)):
        return 1
    if isinstance(code, Proj):
        # Plain ints only, not ``bool``: the printed code must parse back.
        if type(code.i) is not int or type(code.n) is not int:
            raise IllFormed(_path, f"projection indices {code.i!r}, {code.n!r} are not both int")
        if not 1 <= code.i <= code.n:
            raise IllFormed(_path, f"projection index {code.i} not in 1..{code.n}")
        return code.n
    if isinstance(code, Comp):
        if not isinstance(code.gs, tuple):
            raise IllFormed(_path, f"inner codes {code.gs!r} are not a tuple")
        af = arity(code.f, _path + ".f")
        if not code.gs:
            raise IllFormed(_path, "composition needs at least one inner code")
        if af != len(code.gs):
            raise IllFormed(_path, f"outer arity {af} != {len(code.gs)} inner codes")
        ags = [arity(g, f"{_path}.g{j+1}") for j, g in enumerate(code.gs)]
        if len(set(ags)) != 1:
            raise IllFormed(_path, f"inner codes disagree on arity: {ags}")
        return ags[0]
    if isinstance(code, PrimRec):
        af = arity(code.f, _path + ".f")
        ag = arity(code.g, _path + ".g")
        if ag != af + 2:
            raise IllFormed(_path, f"recursion step arity {ag} != base arity {af} + 2")
        return af + 1
    if isinstance(code, Min):
        af = arity(code.f, _path + ".f")
        if af < 1:
            raise IllFormed(_path, "minimization needs a body of arity >= 1")
        return af - 1
    raise IllFormed(_path, f"unknown code node {code!r}")


def evaluate(code: RecCode, args: Sequence[Delay[int]]) -> Delay[int]:
    """Force the delayed arguments once, left to right; run ``code`` on their values.

    The code is compiled once per call.  A code without ``Min`` runs as a
    plain function on integers and takes no step; only a ``Min`` search
    steps, once per failed probe.
    """
    n = arity(code)
    xs = tuple(args)
    if len(xs) != n:
        raise ValueError(f"arity mismatch: code takes {n} arguments, got {len(xs)}")
    delayed, run = _compile(code)
    return (bind if delayed else fmap)(run, strict_tuple(xs))


def _compile(code: RecCode) -> tuple[bool, Callable]:
    # ``(delayed, run)``: ``run`` maps a value tuple to a ``Delay`` if the
    # code has a ``Min`` (``delayed``), and to an ``int`` if it has none.
    if isinstance(code, Zero):
        return False, _zero
    if isinstance(code, Succ):
        return False, _succ
    if isinstance(code, Proj):
        return False, operator.itemgetter(code.i - 1)
    if isinstance(code, Comp):
        (fd, f), inner = _compile(code.f), [_compile(g) for g in code.gs]
        if fd or any(delayed for delayed, _ in inner):
            lifted, gs = _lifted(fd, f), [_lifted(delayed, g) for delayed, g in inner]
            return True, lambda vs: _comp_from(lifted, gs, vs, ())
        runs = [run for _, run in inner]
        # One inner code, as in ``plus``'s step ``C(S; P 3 3)``, needs no list.
        if len(runs) == 1:
            only = runs[0]
            return False, lambda vs: f((only(vs),))
        return False, lambda vs: f(tuple([run(vs) for run in runs]))
    if isinstance(code, PrimRec):
        (fd, f), (gd, g) = _compile(code.f), _compile(code.g)
        if fd or gd:
            base, step = _lifted(fd, f), _lifted(gd, g)
            return True, lambda vs: _primrec_bind(base, step, vs)
        return False, lambda vs: _iterate(g, vs, f(vs[:-1]))
    fd, f = _compile(code.f)
    search = _min_bind if fd else _min_from
    return True, lambda vs: search(f, vs, 0)


def _zero(vs: tuple[int, ...]) -> int:
    return 0


def _succ(vs: tuple[int, ...]) -> int:
    return vs[0] + 1


def _lifted(delayed: bool, run: Callable) -> Callable[[tuple[int, ...]], Delay[int]]:
    return run if delayed else lambda vs: now(run(vs))


def _comp_from(f, gs, vs: tuple[int, ...], ys: tuple[int, ...]) -> Delay[int]:
    # ``ys`` holds the values of the first len(ys) inner codes; the next runs through ``bind``.
    if len(ys) == len(gs):
        return f(ys)
    return bind(lambda y: _comp_from(f, gs, vs, ys + (y,)), gs[len(ys)](vs))


def _iterate(g, vs: tuple[int, ...], acc: int) -> int:
    # The step-free step ``g`` for k = 0 .. vs[-1] - 1, from the base value ``acc``.
    head = vs[:-1]
    for k in range(vs[-1]):
        acc = g(head + (k, acc))
    return acc


def _primrec_bind(f, g, vs: tuple[int, ...]) -> Delay[int]:
    head = vs[:-1]
    acc = f(head)
    for k in range(vs[-1]):
        acc = bind(lambda a, k=k: g(head + (k, a)), acc)
    return acc


def _min_from(body, vs: tuple[int, ...], i: int) -> Delay[int]:
    # Probe ``i``, ``i + 1``, ... of a step-free body, one step per failed probe.
    return unfold(i, lambda i: now(i) if body(vs + (i,)) == 0 else Again(i + 1))


def _min_bind(body, vs: tuple[int, ...], i: int) -> Delay[int]:
    # Probe ``i`` of a delayed body, whose own steps pass through first.
    return bind(
        lambda v: now(i) if v == 0 else later(lambda: _min_bind(body, vs, i + 1)),
        body(vs + (i,)),
    )


class _Budget:
    __slots__ = ("left",)

    def __init__(self, fuel: int):
        self.left = fuel

    def tick(self) -> None:
        if self.left <= 0:
            raise _OutOfFuel()
        self.left -= 1


class _OutOfFuel(Exception):
    pass


def oracle_eval(code: RecCode, args: Sequence[int], fuel: int) -> Optional[int]:
    """Classical big-step evaluation under a global step budget.

    Independent of the delay machinery: plain recursion over plain
    integers.  Returns the value, or ``None`` once the budget runs out.
    """
    _check_fuel(fuel)
    n = arity(code)
    vals = tuple(args)
    if len(vals) != n:
        raise ValueError(f"arity mismatch: code takes {n} arguments, got {len(vals)}")
    budget = _Budget(fuel)
    try:
        return _oracle(code, vals, budget)
    except _OutOfFuel:
        return None


def _oracle(code: RecCode, xs: Tuple[int, ...], budget: _Budget) -> int:
    budget.tick()
    if isinstance(code, Zero):
        return 0
    if isinstance(code, Succ):
        return xs[0] + 1
    if isinstance(code, Proj):
        return xs[code.i - 1]
    if isinstance(code, Comp):
        return _oracle(code.f, tuple(_oracle(g, xs, budget) for g in code.gs), budget)
    if isinstance(code, PrimRec):
        head, y = xs[:-1], xs[-1]
        acc = _oracle(code.f, head, budget)
        for k in range(y):
            acc = _oracle(code.g, head + (k, acc), budget)
        return acc
    y = 0
    while _oracle(code.f, xs + (y,), budget) != 0:
        y += 1
    return y


_TOKEN = re.compile(r"\s*(Z|S|P|C|R|M|\(|\)|;|,|\d+)")


# Deepest parenthesis nesting ``parse_code`` accepts.  The parser, the printer,
# ``arity``, the compiler behind ``evaluate`` and the oracle recurse per level;
# at this bound they fit the stack.
MAX_NESTING = 200


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    depth = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(pos, f"unexpected character {text[pos]!r}")
        tok = m.group(1)
        depth += {"(": 1, ")": -1}.get(tok, 0)
        if depth > MAX_NESTING:
            raise ParseError(m.start(1), f"parentheses nest deeper than {MAX_NESTING}")
        tokens.append((tok, m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, int]], length: int):
        self.tokens = tokens
        self.k = 0
        self.length = length

    def peek(self) -> Optional[str]:
        return self.tokens[self.k][0] if self.k < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.k][1] if self.k < len(self.tokens) else self.length

    def take(self, expected: str) -> None:
        if self.peek() != expected:
            raise ParseError(self.pos(), f"expected {expected!r}, found {self.peek()!r}")
        self.k += 1

    def number(self) -> int:
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise ParseError(self.pos(), f"expected a number, found {tok!r}")
        self.k += 1
        return int(tok)

    def code(self) -> RecCode:
        tok = self.peek()
        if tok == "Z":
            self.k += 1
            return Zero()
        if tok == "S":
            self.k += 1
            return Succ()
        if tok == "P":
            self.k += 1
            return Proj(self.number(), self.number())
        if tok == "C":
            self.k += 1
            self.take("(")
            f = self.code()
            self.take(";")
            gs = [self.code()]
            while self.peek() == ",":
                self.k += 1
                gs.append(self.code())
            self.take(")")
            return Comp(f, tuple(gs))
        if tok == "R":
            self.k += 1
            self.take("(")
            f = self.code()
            self.take(";")
            g = self.code()
            self.take(")")
            return PrimRec(f, g)
        if tok == "M":
            self.k += 1
            self.take("(")
            f = self.code()
            self.take(")")
            return Min(f)
        raise ParseError(self.pos(), f"expected a code, found {tok!r}")


def parse_code(text: str) -> RecCode:
    """Parse the concrete syntax (at most ``MAX_NESTING`` deep); arity-check it."""
    parser = _Parser(_tokenize(text), len(text))
    code = parser.code()
    if parser.peek() is not None:
        raise ParseError(parser.pos(), f"trailing input {parser.peek()!r}")
    arity(code)
    return code


def print_code(code: RecCode) -> str:
    """Inverse of ``parse_code``."""
    if isinstance(code, Zero):
        return "Z"
    if isinstance(code, Succ):
        return "S"
    if isinstance(code, Proj):
        return f"P {code.i} {code.n}"
    if isinstance(code, Comp):
        inner = ", ".join(print_code(g) for g in code.gs)
        return f"C({print_code(code.f)}; {inner})"
    if isinstance(code, PrimRec):
        return f"R({print_code(code.f)}; {print_code(code.g)})"
    if isinstance(code, Min):
        return f"M({print_code(code.f)})"
    raise IllFormed("top", f"unknown code node {code!r}")


def _corpus() -> dict[str, RecCode]:
    plus = PrimRec(Proj(1, 1), Comp(Succ(), (Proj(3, 3),)))
    mult = PrimRec(Zero(), Comp(plus, (Proj(1, 3), Proj(3, 3))))
    pred = Comp(PrimRec(Zero(), Proj(2, 3)), (Proj(1, 1), Proj(1, 1)))
    monus = PrimRec(Proj(1, 1), Comp(pred, (Proj(3, 3),)))
    return {
        "plus": plus,
        "mult": mult,
        "pred": pred,
        "monus": monus,
        "ident_by_min": Min(monus),
        "always_diverge": Min(Comp(Succ(), (Proj(2, 2),))),
    }


CORPUS: dict[str, RecCode] = _corpus()

"""Kleene partial recursive function codes and their delay interpreter.

Codes are built from zero, successor, projections, composition, primitive
recursion and minimization, and denote maps from value tuples to delayed
naturals whose only steps are failed minimization probes.  ``evaluate``
forces its delayed arguments once, left to right, and compiles the code
once, to generated Python source.  A part without minimization is
primitive recursive: it is one generated function of straight-line code
with a ``for`` loop per recursion, and takes no step.  A minimization over
such a part is an ``unfold`` whose step is a generated probe.  The source
holds only integers that the arity check validated and generated names.
``arity``, ``print_code`` and the compiler are one walk on an explicit
stack, so they take a code of any depth.  ``oracle_eval`` is an
independent budgeted big-step evaluator over plain integers, to check it.

Concrete syntax (whitespace-insensitive)::

    Z | S | P i n | C(f; g1, ..., gk) | R(f; g) | M(f)
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Callable, Optional, Sequence, Tuple

from .delay import Again, Delay, Now, _check_fuel, bind, later, now, strict_tuple, unfold

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


def _walk(code: RecCode, combine: Optional[Callable] = None) -> tuple:
    """``(n, r)``: the arity of ``code``, checked at every node, and the fold
    ``r`` of ``combine(node, n, results)`` over its nodes in post-order, where
    ``n`` is the node's arity and ``results`` its parts' ``r``.  One walk on
    an explicit stack, so a code of any depth fits the host stack."""
    stack = []
    node, path, parts, arities, results = code, "top", _parts(code, "top"), [], []
    while True:
        if len(arities) < len(parts):
            stack.append((node, path, parts, arities, results))
            node, path = parts[len(arities)]
            parts, arities, results = _parts(node, path), [], []
            continue
        n = _check(node, path, arities)
        result = combine and combine(node, n, results)
        if not stack:
            return n, result
        node, path, parts, arities, results = stack.pop()
        arities.append(n)
        results.append(result)


def _parts(node: RecCode, path) -> list:
    """The parts of ``node`` in walking order, each with its path ``(path, label)``."""
    if isinstance(node, (Proj, Zero, Succ)):
        return []
    if isinstance(node, Comp):
        if not isinstance(node.gs, tuple):
            raise _ill(path, f"inner codes {node.gs!r} are not a tuple")
        return [(node.f, (path, ".f")), *[(g, (path, j)) for j, g in enumerate(node.gs, 1)]]
    if isinstance(node, PrimRec):
        return [(node.f, (path, ".f")), (node.g, (path, ".g"))]
    if isinstance(node, Min):
        return [(node.f, (path, ".f"))]
    raise _ill(path, f"unknown code node {node!r}")


def _ill(path, reason: str) -> IllFormed:
    # A path is "top" or ``(parent, label)``; label ``j`` is a ``C``'s j-th inner code.
    labels = []
    while type(path) is tuple:
        path, label = path
        labels.append(label if type(label) is str else f".g{label}")
    return IllFormed(path + "".join(reversed(labels)), reason)


def _check(node: RecCode, path, arities: list[int]) -> int:
    """The arity of ``node``, given its parts' arities in walking order."""
    if isinstance(node, Proj):
        # Plain ints only, not ``bool``: the printed code must parse back.
        if type(node.i) is not int or type(node.n) is not int:
            raise _ill(path, f"projection indices {node.i!r}, {node.n!r} are not both int")
        if not 1 <= node.i <= node.n:
            raise _ill(path, f"projection index {node.i} not in 1..{node.n}")
        return node.n
    if isinstance(node, (Zero, Succ)):
        return 1
    if isinstance(node, Comp):
        af, *ags = arities
        if not ags:
            raise _ill(path, "composition needs at least one inner code")
        if af != len(ags):
            raise _ill(path, f"outer arity {af} != {len(ags)} inner codes")
        if ags.count(ags[0]) != af:
            raise _ill(path, f"inner codes disagree on arity: {ags}")
        return ags[0]
    if isinstance(node, PrimRec):
        af, ag = arities
        if ag != af + 2:
            raise _ill(path, f"recursion step arity {ag} != base arity {af} + 2")
        return af + 1
    (af,) = arities
    if af < 1:
        raise _ill(path, "minimization needs a body of arity >= 1")
    return af - 1


def arity(code: RecCode) -> int:
    """Number of arguments, validating the arity discipline throughout."""
    return _walk(code)[0]


def evaluate(code: RecCode, args: Sequence[Delay[int]]) -> Delay[int]:
    """Force the delayed arguments once, left to right; run ``code`` on their values.

    The code's arities, and its arity against ``args``, are checked before
    any source exists (an ``M`` body's source names each argument).  Then
    one walk emits Python source for it, compiled once per call.  The
    source holds only integers that the check validated and generated
    names.  A part without ``Min`` takes no step: it is one function of
    straight-line code with a ``for`` loop per ``R``.  A ``Min`` over such a part is an ``unfold`` whose step is a
    generated probe, one step per failed probe.  A ``C``, ``R`` or ``M``
    with a ``Min`` in its parts binds their generated functions.
    """
    n = arity(code)
    xs = tuple(args)
    if len(xs) != n:
        raise ValueError(f"arity mismatch: code takes {n} arguments, got {len(xs)}")
    emitter = _Emitter()
    form = _walk(code, emitter.combine)[1]
    top = emitter.lifted(form, n)
    ns = dict(_GLOBALS)
    exec(compile("\n".join(emitter.lines), "<reccode>", "exec"), ns)
    run = ns[top]
    # A generated function left in the globals it runs in would be a cycle.
    for name in emitter.names:
        del ns[name]
    return bind(run, strict_tuple(xs))


# CPython compiles at most 20 statically nested blocks in one function.
_MAX_LOOPS = 20


# The first generated names, kept alive: a name that ``compile()`` interns
# and a finished code then frees churns CPython's table of interned strings,
# which grew it by ~0.4 MB over a few thousand codes.
_NAMES = tuple(sys.intern(f"x{n}") for n in range(64))


def _indented(text: str) -> str:
    return "    " + text.replace("\n", "\n    ")


class _Emitter:
    """Source for a code, built bottom-up as the walk combines its nodes.

    A part without ``Min`` is ``(chunks, atom, loops)``: its statements as
    chunks of lines (an assignment into a fresh local per ``Z`` or ``S``, a
    ``for`` loop per ``R``); the name that holds its value; and the depth of
    its nested ``for`` loops.  Its argument ``j`` is the placeholder ``{j}``,
    filled in by ``str.format`` where the part is used.  A part with ``Min``
    is the name bound to a function from a value tuple to a ``Delay``.
    """

    def __init__(self):
        self.lines: list[str] = []
        # The names the source binds, and the split steps among them.
        self.names: list[str] = []
        self.steps: list[str] = []
        self._count = count()

    def fresh(self) -> str:
        n = next(self._count)
        return _NAMES[n] if n < len(_NAMES) else f"x{n}"

    def define(self, params: list[str], body: str) -> str:
        # The split steps defined so far are defaults: no global lookup reaches them.
        name = self.fresh()
        defaults = "".join([f", {step}={step}" for step in self.steps])
        self.lines += [f"def {name}({', '.join(params)}{defaults}):", _indented(body)]
        self.names.append(name)
        return name

    def bound(self, expr: str) -> str:
        name = self.fresh()
        self.lines.append(f"{name} = {expr}")
        self.names.append(name)
        return name

    def lifted(self, form, n: int) -> str:
        """A function from a tuple of ``n`` values to a ``Delay`` for ``form``."""
        if type(form) is str:
            return form
        chunks, atom, _ = form
        xs = [self.fresh() for _ in range(n)]
        body = "\n".join([f"[{', '.join(xs)}] = vs", *chunks, f"return Now({atom})"])
        return self.define(["vs"], body.format(*xs))

    def combine(self, node: RecCode, n: int, forms: list):
        if isinstance(node, Proj):
            return [], f"{{{node.i - 1}}}", 0
        if isinstance(node, (Zero, Succ)):
            x = self.fresh()
            return [f"{x} = 0" if isinstance(node, Zero) else f"{x} = {{0}} + 1"], x, 0
        if isinstance(node, Min):
            return self.search(n, forms[0])
        if str in map(type, forms):
            return self.delayed(node, n, forms)
        if isinstance(node, Comp):
            (outer, atom, loops), *gs = forms
            chunks, ys = [], []
            for more, y, deeper in gs:
                chunks += more
                ys.append(y)
                loops = max(loops, deeper)
            if outer:
                chunks.append("\n".join(outer).format(*ys))
            return chunks, atom.format(*ys), loops
        (chunks, atom, loops), (step, value, deeper) = forms
        k = self.fresh()
        # The accumulator is the base's own local, or a copy of an argument.
        acc = self.fresh() if atom[0] == "{" else atom
        if acc != atom:
            chunks.append(f"{acc} = {atom}")
        if deeper < _MAX_LOOPS:
            # The step's arguments are the head's, then ``k`` and the accumulator.
            body = "\n".join([*step, f"{acc} = {value}"]).replace(f"{{{n - 1}}}", k).replace(f"{{{n}}}", acc)
            loops = max(loops, deeper + 1)
        else:
            # Too deep for one function: the step starts a fresh one.
            xs = [self.fresh() for _ in range(n + 1)]
            self.steps.append(self.define(xs, "\n".join([*step, f"return {value}"]).format(*xs)))
            args = ", ".join([*[f"{{{j}}}" for j in range(n - 1)], k, acc])
            body, loops = f"{acc} = {self.steps[-1]}({args})", max(loops, 1)
        chunks += [f"for {k} in range({{{n - 1}}}):", _indented(body)]
        return chunks, acc, loops

    def search(self, n: int, form) -> str:
        # ``M`` over a delayed body binds each probe; over a step-free one it is an unfold.
        if type(form) is str:
            return self.bound(f"partial(_min_bind, {form})")
        chunks, atom, _ = form
        xs = [self.fresh() for _ in range(n + 1)]
        body = "\n".join([*chunks, f"return Now({{{n}}}) if {atom} == 0 else Again({{{n}}} + 1)"])
        return self.bound(f"partial(_search, {self.define(xs, body.format(*xs))})")

    def delayed(self, node: RecCode, n: int, forms: list) -> str:
        # A ``C`` or ``R`` with a ``Min`` in its parts binds their functions.
        if isinstance(node, Comp):
            f, *gs = forms
            inner = ", ".join([self.lifted(g, n) for g in gs])
            return self.bound(f"partial(_comp_from, {self.lifted(f, len(gs))}, ({inner},))")
        base, step = forms
        return self.bound(f"partial(_primrec_bind, {self.lifted(base, n - 1)}, {self.lifted(step, n + 1)})")


def _comp_from(f, gs, vs: tuple[int, ...], ys: tuple[int, ...] = ()) -> Delay[int]:
    # ``ys`` holds the values of the first len(ys) inner codes; the next runs through ``bind``.
    if len(ys) == len(gs):
        return f(ys)
    return bind(lambda y: _comp_from(f, gs, vs, ys + (y,)), gs[len(ys)](vs))


def _primrec_bind(f, g, vs: tuple[int, ...]) -> Delay[int]:
    head = vs[:-1]
    acc = f(head)
    for k in range(vs[-1]):
        acc = bind(lambda a, k=k: g(head + (k, a)), acc)
    return acc


def _search(probe, vs: tuple[int, ...]) -> Delay[int]:
    # Probe 0, 1, ... of a step-free body, one step per failed probe.
    return unfold(0, partial(probe, *vs))


def _min_bind(body, vs: tuple[int, ...], i: int = 0) -> Delay[int]:
    # Probe ``i`` of a delayed body, whose own steps pass through first.
    return bind(
        lambda v: now(i) if v == 0 else later(lambda: _min_bind(body, vs, i + 1)),
        body(vs + (i,)),
    )


# The names the generated source uses besides its own.
_GLOBALS = {"Now": Now, "Again": Again, "partial": partial, "_search": _search,
            "_comp_from": _comp_from, "_primrec_bind": _primrec_bind, "_min_bind": _min_bind}


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


# A token, or the first character that starts none.
_TOKEN = re.compile(r"\s*(?:([ZSPCRM();,]|\d+)|(\S))")


# Deepest parenthesis nesting ``parse_code`` accepts.  The parser and the
# oracle recurse per level; at this bound they fit the stack.  The printer,
# ``arity`` and ``evaluate`` walk a code on an explicit stack, so a code
# built directly may nest deeper.
MAX_NESTING = 200


def _tokenize(text: str) -> list[tuple[Optional[str], int]]:
    # The last token is ``None`` at the end of the text.
    tokens = []
    depth = 0
    for m in _TOKEN.finditer(text):
        tok = m[1]
        if tok is None:
            raise ParseError(m.start(2), f"unexpected character {m[2]!r}")
        if tok == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(m.start(1), f"parentheses nest deeper than {MAX_NESTING}")
        elif tok == ")":
            depth -= 1
        tokens.append((tok, m.start(1)))
    tokens.append((None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[Optional[str], int]]):
        self.tokens = tokens
        self.k = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.k][0]

    def pos(self) -> int:
        return self.tokens[self.k][1]

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
    parser = _Parser(_tokenize(text))
    code = parser.code()
    if parser.peek() is not None:
        raise ParseError(parser.pos(), f"trailing input {parser.peek()!r}")
    arity(code)
    return code


def print_code(code: RecCode) -> str:
    """Inverse of ``parse_code``."""
    return _walk(code, _text)[1]


def _text(node: RecCode, n: int, texts: list[str]) -> str:
    if isinstance(node, Zero):
        return "Z"
    if isinstance(node, Succ):
        return "S"
    if isinstance(node, Proj):
        return f"P {node.i} {node.n}"
    if isinstance(node, Comp):
        f, *gs = texts
        return f"C({f}; {', '.join(gs)})"
    if isinstance(node, PrimRec):
        return "R({}; {})".format(*texts)
    return f"M({texts[0]})"


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

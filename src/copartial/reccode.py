"""Kleene partial recursive function codes and their delay interpreter.

Codes are records (slotted value classes, such as ``Proj(i=1, n=2)``)
built from zero, successor, projections, composition, primitive
recursion and minimization, and denote maps from value tuples to delayed
naturals whose only steps are failed minimization probes.  ``evaluate``
forces its delayed arguments once, left to right, and compiles the code
once, to one generated Python generator: straight-line code with a
``for`` loop per recursion and a ``while`` loop per minimization that
yields once per failed probe.  A generator is the delay monad's shape
written directly: each ``yield`` is one step and its ``return`` the
value, so every code is an ``unfold``, one generator node of ``delay``,
whose step resumes the code's generator; a code without minimization
returns at its first resumption.  The source holds only integers that
the arity check validated and generated names.  ``arity``,
``print_code`` and the compiler are one walk on an explicit stack, so
they take a code of any depth.  ``parse_code`` reads a text in one loop,
also on an explicit stack, and checks each node's arities as it closes
the node.  ``oracle_eval`` is an independent budgeted big-step evaluator
over plain integers, to check it; it recurses, which is why
``parse_code`` bounds the nesting of a text.

Concrete syntax (whitespace-insensitive)::

    Z | S | P i n | C(f; g1, ..., gk) | R(f; g) | M(f)
"""

from __future__ import annotations

import re
import sys
from itertools import count
from typing import Callable, Iterator, Optional, Sequence, Tuple

from .delay import Again, Delay, Now, _check_fuel, _natural, _Record, bind, strict_tuple, unfold

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


class Zero(_Record):
    """The unary constant-zero function."""

    __slots__ = ()


class Succ(_Record):
    """The unary successor function."""

    __slots__ = ()


class Proj(_Record):
    __slots__ = ("i", "n")


class Comp(_Record):
    __slots__ = ("f", "gs")


class PrimRec(_Record):
    __slots__ = ("f", "g")


class Min(_Record):
    __slots__ = ("f",)


RecCode = Zero | Succ | Proj | Comp | PrimRec | Min


def _walk(code: RecCode, combine: Optional[Callable] = None) -> tuple:
    """``(n, r)``: the arity of ``code``, checked at every node, and the fold
    ``r`` of ``combine(node, n, results)`` over its nodes in post-order, where
    ``n`` is the node's arity and ``results`` its parts' ``r``.  One walk on
    an explicit stack, so a code of any depth fits the host stack."""
    stack = []
    node, parts, arities, results = code, _parts(code, stack), [], []
    while True:
        if len(arities) < len(parts):
            stack.append((node, parts, arities, results))
            node = parts[len(arities)]
            parts, arities, results = _parts(node, stack), [], []
            continue
        n = _check(node, arities, stack)
        result = combine and combine(node, n, results)
        if not stack:
            return n, result
        node, parts, arities, results = stack.pop()
        arities.append(n)
        results.append(result)


def _parts(node: RecCode, stack: list) -> tuple:
    """The parts of ``node`` in walking order; ``stack`` holds its open ancestors."""
    if isinstance(node, (Proj, Zero, Succ)):
        return ()
    if isinstance(node, Comp):
        if not isinstance(node.gs, tuple):
            raise _ill(stack, f"inner codes {node.gs!r} are not a tuple")
        return (node.f, *node.gs)
    if isinstance(node, PrimRec):
        return (node.f, node.g)
    if isinstance(node, Min):
        return (node.f,)
    raise _ill(stack, f"unknown code node {node!r}")


def _ill(stack: list, reason: str) -> IllFormed:
    """``IllFormed`` at the node whose open ancestors are ``stack``, outermost
    first.  A frame is a node (or, while parsing, its class), its parts, and
    the arities of the parts done so far, so its part in progress is the
    length of that list: ``.f``, a ``C``'s ``.g1``, ``.g2``, …, or an ``R``'s ``.g``."""
    path = "top"
    for head, _, arities, *_ in stack:
        k = len(arities)
        path += ".f" if k == 0 else f".g{k}" if head is Comp or isinstance(head, Comp) else ".g"
    return IllFormed(path, reason)


def _check(node: RecCode, arities: Sequence[int], stack: list) -> int:
    """The arity of ``node``, given its parts' arities in walking order and
    its open ancestors ``stack``."""
    if isinstance(node, Proj):
        # Plain ints only, not ``bool``: the printed code must parse back.
        if type(node.i) is not int or type(node.n) is not int:
            raise _ill(stack, f"projection indices {node.i!r}, {node.n!r} are not both int")
        if not 1 <= node.i <= node.n:
            raise _ill(stack, f"projection index {node.i} not in 1..{node.n}")
        return node.n
    if isinstance(node, (Zero, Succ)):
        return 1
    if isinstance(node, Comp):
        af, *ags = arities
        if not ags:
            raise _ill(stack, "composition needs at least one inner code")
        if af != len(ags):
            raise _ill(stack, f"outer arity {af} != {len(ags)} inner codes")
        if ags.count(ags[0]) != af:
            raise _ill(stack, f"inner codes disagree on arity: {ags}")
        return ags[0]
    if isinstance(node, PrimRec):
        af, ag = arities
        if ag != af + 2:
            raise _ill(stack, f"recursion step arity {ag} != base arity {af} + 2")
        return af + 1
    (af,) = arities
    if af < 1:
        raise _ill(stack, "minimization needs a body of arity >= 1")
    return af - 1


def arity(code: RecCode) -> int:
    """Number of arguments, validating the arity discipline throughout."""
    return _walk(code)[0]


def evaluate(code: RecCode, args: Sequence[Delay[int]]) -> Delay[int]:
    """Force the delayed arguments once, left to right; run ``code`` on their values.

    One walk checks the code's arities and emits Python source for it,
    compiled once per call.  The walk names no argument of the code, so
    its arity is compared with ``args`` right after it, before any name
    per argument exists.  The source holds only integers that the walk
    validated and generated names.  Every code is one generator of
    straight-line code with a ``for`` loop per ``R`` and a ``while`` loop
    per ``M`` that yields once per failed probe, run as an ``unfold``
    whose step is ``_next``: a code without ``M`` returns at its first
    step, inside ``unfold``.  A cut takes failed probes in one resume,
    memoised so that each runs once; an exception in a cut closes the node.
    A forced value that is not an integer raises ``TypeError``, and a
    negative one ``ValueError``, where the tuple is forced: at the call
    if every argument is a value, else at the step that forces the last
    one still delayed.
    """
    emitter = _Emitter()
    n, (chunks, atom, _) = _walk(code, emitter.combine)
    xs = tuple(args)
    if len(xs) != n:
        raise _arity_mismatch(n, len(xs))
    params = [emitter.fresh() for _ in range(n)]
    body = [f"[{', '.join(params)}] = vs", *chunks, f"return {atom}"]
    top = emitter.define(["vs"], "\n".join(body).format(*params))
    ns: dict = {}
    exec(compile("\n".join(emitter.lines), "<reccode>", "exec"), ns)
    run = ns[top]
    # A generated function left in the globals it runs in would be a cycle.  Since
    # Python 3.10 a function keeps the builtins it was defined with, so ``range`` resolves.
    ns.clear()
    return bind(lambda vs: unfold(run(_naturals(vs)), _next), strict_tuple(xs))


def _arity_mismatch(n: int, got: int) -> ValueError:
    return ValueError(f"arity mismatch: code takes {n} argument{'s' * (n != 1)}, got {got}")


def _naturals(vs: Sequence[int]) -> Tuple[int, ...]:
    # Argument values as ``int``s: ``TypeError`` unless integers, ``ValueError`` if negative.
    return tuple([_natural(v, "arguments must be non-negative") for v in vs])


def _next(gen) -> Again | Now:
    # One step of a generated generator: to its next ``yield``, or to its
    # ``return``, an int.  An exception escaping it closes the unfold that
    # calls it, so it is never called on a finished generator.
    try:
        next(gen)
    except StopIteration as stop:
        return Now(stop.value)
    return Again(gen)


# CPython compiles at most 20 statically nested blocks in one function.
_MAX_LOOPS = 20


# The first generated names, kept alive: a name that ``compile()`` interns
# and a finished code then frees churns CPython's table of interned strings,
# which grew it by ~0.4 MB over a few thousand codes.
_NAMES = tuple(sys.intern(f"x{n}") for n in range(64))

# Argument ``j`` of a part, in the part's source.
_PLACEHOLDER = re.compile(r"\{(\d+)\}")


def _indented(text: str) -> str:
    return "    " + text.replace("\n", "\n    ")


class _Emitter:
    """Source for a code, built bottom-up as the walk combines its nodes.

    A part is ``(chunks, atom, loops)``: its statements as chunks of lines
    (an assignment into a fresh local per ``Z`` or ``S``, a ``for`` loop
    per ``R``, and a ``while`` loop per ``M`` that yields once per failed
    probe); the name that holds its value; and the depth of its nested
    loops.  Its argument ``j`` is the placeholder ``{j}``, filled in by
    ``str.format`` where the part is used.  A loop body that would nest
    past CPython's block limit is a generator of the placeholders it
    reads, called with ``yield from``.
    """

    def __init__(self):
        self.lines: list[str] = []
        # The split loop bodies defined so far.
        self.splits: list[str] = []
        self._count = count()

    def fresh(self) -> str:
        n = next(self._count)
        return _NAMES[n] if n < len(_NAMES) else f"x{n}"

    def define(self, params: list[str], body: str) -> str:
        # The split bodies defined so far are defaults: no global lookup reaches them.
        name = self.fresh()
        signature = ", ".join([*params, *[f"{split}={split}" for split in self.splits]])
        # The ``yield`` after the body's ``return`` is never reached; it makes
        # every generated function a generator, with or without an ``M``.
        self.lines += [f"def {name}({signature}):", _indented(body), "    yield"]
        return name

    def combine(self, node: RecCode, n: int, forms: list) -> tuple:
        if isinstance(node, Proj):
            return [], f"{{{node.i - 1}}}", 0
        if isinstance(node, (Zero, Succ)):
            x = self.fresh()
            return [f"{x} = 0" if isinstance(node, Zero) else f"{x} = {{0}} + 1"], x, 0
        if isinstance(node, Comp):
            (outer, atom, loops), *gs = forms
            # Each part is used once, so the first inner part's chunks take
            # the others': a tower of ``C`` is linear in its depth.
            chunks, ys = gs[0][0], []
            for more, y, deeper in gs:
                if more is not chunks:
                    chunks += more
                ys.append(y)
                loops = max(loops, deeper)
            if outer:
                chunks.append("\n".join(outer).format(*ys))
            return chunks, atom.format(*ys), loops
        if isinstance(node, Min):
            body, value, deeper = self.nestable(forms[0])
            # Probe ``i`` is the body's last argument.
            i = self.fresh()
            text = "\n".join([*body, f"if {value} == 0:", "    break", f"{i} += 1", "yield"])
            return [f"{i} = 0", "while True:", _indented(text.replace(f"{{{n}}}", i))], i, deeper + 1
        (chunks, atom, loops), step = forms
        k = self.fresh()
        # The accumulator is the base's own local, or a copy of an argument.
        acc = self.fresh() if atom[0] == "{" else atom
        if acc != atom:
            chunks.append(f"{acc} = {atom}")
        body, value, deeper = self.nestable(step)
        # The step's arguments are the head's, then ``k`` and the accumulator.
        text = "\n".join([*body, f"{acc} = {value}"]).replace(f"{{{n - 1}}}", k).replace(f"{{{n}}}", acc)
        chunks += [f"for {k} in range({{{n - 1}}}):", _indented(text)]
        return chunks, acc, max(loops, deeper + 1)

    def nestable(self, form: tuple) -> tuple:
        """``form``, or, if its loops leave no room for one more, ``yield from``
        it as a generator whose parameters are the placeholders it reads.
        That is its value: ``R`` and ``M`` read a body's value once."""
        chunks, atom, loops = form
        if loops < _MAX_LOOPS:
            return form
        text = "\n".join([*chunks, f"return {atom}"])
        params = {j: self.fresh() for j in dict.fromkeys(_PLACEHOLDER.findall(text))}
        self.splits.append(self.define([*params.values()], _PLACEHOLDER.sub(lambda m: params[m[1]], text)))
        call = f"{self.splits[-1]}({', '.join(f'{{{j}}}' for j in params)})"
        return [], f"(yield from {call})", 0


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
    An argument that is not an integer raises ``TypeError``, and a
    negative one ``ValueError``, before any step.
    """
    _check_fuel(fuel)
    n = arity(code)
    vals = _naturals(args)
    if len(vals) != n:
        raise _arity_mismatch(n, len(vals))
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


# Deepest parenthesis nesting ``parse_code`` accepts.  The parser, the
# printer, ``arity`` and ``evaluate`` keep explicit stacks, so a code built
# directly may nest deeper.  The bound is kept for ``oracle_eval``, which
# recurses once per level and, at this depth, fits the host stack.
MAX_NESTING = 200

# The codes whose parts follow in parentheses.
_OPENERS = {"C": Comp, "R": PrimRec, "M": Min}


def _tokenize(text: str) -> Iterator[tuple[Optional[str], int]]:
    # Each token with its position, then ``None`` at the end of the text.
    for m in _TOKEN.finditer(text):
        if m[1] is None:
            raise ParseError(m.start(2), f"unexpected character {m[2]!r}")
        yield m[1], m.start(1)
    yield None, len(text)


def _number(tokens: Iterator[tuple[Optional[str], int]]) -> int:
    tok, pos = next(tokens)
    if tok is None or not tok.isdigit():
        raise ParseError(pos, f"expected a number, found {tok!r}")
    try:
        return int(tok)
    except ValueError:
        # ``int()`` refuses a digit run past the host's limit on its length.
        raise ParseError(pos, f"a number of {len(tok)} digits is too long") from None


def parse_code(text: str) -> RecCode:
    """Parse the concrete syntax, at most ``MAX_NESTING`` deep, checking
    each node's arities as it closes.

    One loop over the tokens, on an explicit stack of the open ``C``,
    ``R`` and ``M`` nodes.  A ``)`` pops the innermost, builds its node
    and checks it; the node then becomes the next part of the one below.
    The first error in reading order is raised: ``ParseError`` with its
    position, or ``IllFormed`` with the path of the node it rejects.
    """
    tokens = _tokenize(text)
    # Each open node is its class, the codes of its parts so far and their arities.
    stack: list[tuple[type, list, list[int]]] = []
    # The code just read, until the next token hands it to the node below.
    node = None
    # The end token ``None`` returns or raises, so the loop never runs out.
    for tok, pos in tokens:
        if node is None:
            if tok in _OPENERS:
                cls = _OPENERS[tok]
                tok, pos = next(tokens)
                if tok != "(":
                    raise ParseError(pos, f"expected '(', found {tok!r}")
                if len(stack) == MAX_NESTING:
                    raise ParseError(pos, f"parentheses nest deeper than {MAX_NESTING}")
                stack.append((cls, [], []))
                continue
            if tok == "Z":
                node = Zero()
            elif tok == "S":
                node = Succ()
            elif tok == "P":
                node = Proj(_number(tokens), _number(tokens))
            else:
                raise ParseError(pos, f"expected a code, found {tok!r}")
            n = _check(node, (), stack)
            continue
        if not stack:
            if tok is not None:
                raise ParseError(pos, f"trailing input {tok!r}")
            return node
        cls, codes, arities = stack[-1]
        codes.append(node)
        arities.append(n)
        node = None
        if tok == "," and cls is Comp and len(codes) > 1:
            continue
        expected = ";" if len(codes) == 1 and cls is not Min else ")"
        if tok != expected:
            raise ParseError(pos, f"expected {expected!r}, found {tok!r}")
        if tok == ")":
            stack.pop()
            node = Comp(codes[0], tuple(codes[1:])) if cls is Comp else cls(*codes)
            n = _check(node, arities, stack)


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

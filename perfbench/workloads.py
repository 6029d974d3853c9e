"""The four workloads: seeded op mixes with known answers, and how to run an op.

An op is one user question asked under an explicit fuel budget.  Its
expected answer is computed here in plain Python, never by copartial, and
the op fails when it raises (``RecursionError`` included) or when its
verdict or value differs from that answer.  Step counts are never compared,
because weakly bisimilar step changes are allowed.

Ops come in blocks.  Every block holds the same number of ops of each kind
(for ``semidecide``: every kind at every size class), shuffled by the seed,
which also draws the arguments and values.  So every seed gives the same
mix of kinds, and the median and tail percentiles fall in the same kinds
from one seed to the next; see README.md for the mixes and why.
"""

from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace

WORKLOADS = ("interp", "recursion", "semidecide", "cli")

# Budget for ops expected to converge: run_for stops at the value, so only
# its explicitness matters, not its size.
FUEL = 1_000_000

# Concrete syntax of reccode.CORPUS (the tests check they parse to it).
PLUS = "R(P 1 1; C(S; P 3 3))"
MULT = "R(Z; C(R(P 1 1; C(S; P 3 3)); P 1 3, P 3 3))"
PRED = "C(R(Z; P 2 3); P 1 1, P 1 1)"
MONUS = "R(P 1 1; C(C(R(Z; P 2 3); P 1 1, P 1 1); P 3 3))"
IDENT_BY_MIN = "M(R(P 1 1; C(C(R(Z; P 2 3); P 1 1, P 1 1); P 3 3)))"
ALWAYS_DIVERGE = "M(C(S; P 2 2))"
# Searches for y with x + y + 1 = 0; probe y costs O(y), so fuel F costs O(F^2).
SLOW_DIVERGE = "M(C(S; R(P 1 1; C(S; P 3 3))))"

# name: (text, known answer, exclusive upper bound of each argument)
CODES = {
    "plus": (PLUS, lambda a, b: a + b, (60, 60)),
    "monus": (MONUS, lambda a, b: max(a - b, 0), (60, 60)),
    "pred": (PRED, lambda a: max(a - 1, 0), (200,)),
    "mult": (MULT, lambda a, b: a * b, (25, 25)),
    "ident_by_min": (IDENT_BY_MIN, lambda a: a, (20,)),
}

LAW_NAMES = (
    "kleisli-right-unit", "kleisli-left-unit", "kleisli-associativity",
    "strength-unit-projection", "strength-associativity", "strength-unit",
    "strength-multiplication",
)
DEVIL91_ARGS = (0, 1, 42, 99, 100, 101, 111, 200)


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    fuel: int
    expected: tuple


def mccarthy91(n: int) -> int:
    return 91 if n <= 100 else n - 10


def ackermann3(n: int) -> int:
    return 2 ** (n + 3) - 3


# Known answers of the fix operators, by operator name.
FIX_ANSWERS = {
    "factorial": math.factorial,
    "mccarthy91": mccarthy91,
    "ackermann": lambda mn: ackermann3(mn[1]),  # only A(3, n)
    "division": lambda ab: ab[0] // ab[1],
}
LAW_COUNTS = {"kleisli": 3, "strength": 4}


# ---------------------------------------------------------------- op constructors
# The workloads and the traced run's probes make their ops here, so every
# known answer is written once.

def eval_op(name: str, nums: tuple, fuel: int = FUEL) -> Op:
    """A converging code of ``CODES`` on ``nums``."""
    text, answer, _ = CODES[name]
    return Op("eval", (text, nums), fuel, ("value", answer(*nums)))


def diverge_op(text: str, arg: int, fuel: int) -> Op:
    return Op("eval", (text, (arg,)), fuel, ("exhausted",))


def fix_op(name: str, arg, fuel: int = FUEL) -> Op:
    return Op("fix", (name, arg), fuel, ("value", FIX_ANSWERS[name](arg)))


# Known answers of the other kinds that step one computation, by kind.
STEPPED_ANSWERS = {
    "devil91": mccarthy91,
    "devil_depth": lambda depth: depth,
    "cps_fix": lambda n: 2 * n,
    "nest": lambda n: 0,
    "bind_left": lambda depth: depth,
    "fmap_tower": lambda depth, steps, v: v + depth,
}


def stepped_op(kind: str, *args, fuel: int = FUEL) -> Op:
    return Op(kind, args, fuel, ("value", STEPPED_ANSWERS[kind](*args)))


def run_op(spec: tuple, fuel: int) -> Op:
    """``run_for`` on a flat computation (see ``_delay``) of n steps."""
    if spec[0] == "never" or spec[1] >= fuel:
        return Op("run", (spec,), fuel, ("exhausted",))
    return Op("run", (spec,), fuel, ("value", spec[2]))


def law_op(law: str, samples: int, seed: int) -> Op:
    """Every law is a theorem, so every one must come out Holds."""
    return Op("laws", (law, samples, seed), 64, (("holds",),) * LAW_COUNTS[law])


def cli_eval_op(op: Op) -> Op:
    """The ``copartial eval`` form of an ``eval`` op."""
    text, nums = op.args
    if op.expected == ("exhausted",):
        expected = (2, (f"EXHAUSTED fuel={op.fuel}",))
    else:
        expected = (0, (f"CONVERGED {op.expected[1]}",))
    return Op("cli", ("eval", text, *map(str, nums)), op.fuel, expected)


def cli_demo_op(name: str, fuel: int) -> Op:
    answer = sloth_answer(fuel) if name == "sloth" else DEMO_ANSWERS[name]
    return Op("cli", ("demo", name), fuel, (0, answer))


def cli_laws_op(samples: int) -> Op:
    return Op("cli", ("check-laws", "--samples", str(samples)), 64,
              (0, tuple(f"LAW {law} Holds" for law in LAW_NAMES)))


# ---------------------------------------------------------------- op mixes

def make_ops(workload: str, seed: int, blocks: int = 64, tiny: bool = False) -> list[Op]:
    """``blocks`` shuffled blocks of the workload's mix, drawn from ``seed``.

    ``tiny`` shrinks every size for the benchmark's own tests.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    make_block = globals()[f"_{workload}_block"]
    ops: list[Op] = []
    for _ in range(blocks):
        block = make_block(rng, tiny)
        rng.shuffle(block)
        ops += block
    return ops


def _eval_op(rng, name, tiny, fuel=FUEL):
    nums = tuple(rng.randrange(max(2, b // 10) if tiny else b) for b in CODES[name][2])
    return eval_op(name, nums, fuel)


def _interp_block(rng, tiny):
    mix = {"plus": 6, "pred": 4, "mult": 4, "ident_by_min": 4}
    block = [_eval_op(rng, name, tiny) for name, k in mix.items() for _ in range(k)]
    # The median falls in these: monus with arguments in a band, so that
    # about as many ops are cheaper as are dearer.
    for _ in range(14):
        a, b = (rng.randrange(4), rng.randrange(4)) if tiny else (rng.randrange(40, 60),
                                                                  rng.randrange(20, 30))
        block.append(eval_op("monus", (a, b)))
    block += [diverge_op(ALWAYS_DIVERGE, rng.randrange(60), 50 if tiny else 5000)
              for _ in range(8)]
    # The tail falls in this search, whose cost is fixed by its fuel.
    block.append(diverge_op(SLOW_DIVERGE, rng.randrange(60), 20 if tiny else 200))
    return block


def _recursion_block(rng, tiny):
    def below(n):
        return rng.randrange(max(2, n // 50) if tiny else n)

    block = []
    block += [fix_op("factorial", below(300)) for _ in range(3)]
    block += [fix_op("mccarthy91", below(200)) for _ in range(4)]
    block += [fix_op("ackermann", (3, rng.randrange(2 if tiny else 4))) for _ in range(2)]
    for _ in range(4):
        a, b = below(3000), rng.randrange(10, 60)
        block.append(fix_op("division", (a, b)))
    block.append(Op("fix", ("division", (below(3000), 0)), 20 if tiny else 2000,
                    ("exhausted",)))
    block += [stepped_op("devil91", below(200)) for _ in range(3)]
    # The median falls in these: a band of depths under 600, about 60% of
    # the measured stack limit for nested continuations (~990).
    for _ in range(10):
        n = below(600) if tiny else rng.randrange(500, 600)
        block.append(stepped_op("cps_fix", n))
    for _ in range(2):
        block.append(stepped_op("nest", below(20000)))
    # The deep-nesting ops set the tail, so their depths stay in a narrow
    # band just under 300, about 60% of the measured stack limit (~495).
    depth = rng.randrange(3, 6) if tiny else rng.randrange(270, 300)
    block.append(stepped_op("bind_left", depth))
    depth = rng.randrange(3, 6) if tiny else rng.randrange(270, 300)
    steps, v = rng.randrange(40, 60), rng.randrange(1000)
    block.append(stepped_op("fmap_tower", depth, steps, v))
    return block


def semidecide_kinds(rng, n):
    """Every question kind once, on flat computations of about n steps."""
    v = rng.randrange(1000)
    w = v if rng.random() < 0.5 else v + rng.randrange(1, 5)
    same = ("holds",) if v == w else ("fails",)
    enough = n + 10
    unknown = ("unknown", n)
    m = max(0, n + rng.choice((-1, 1)) * rng.randrange(1, 10))
    a = rng.randrange(n)
    return [
        Op("bisim", (("unfold", n, v), ("delay_by", n, w)), enough, same),
        Op("bisim", (("rbind", n, v), ("unfold", n, w)), enough, same),
        Op("bisim", (("unfold", n, v), ("never",)), n, unknown),
        Op("leq", (("delay_by", n, v), ("unfold", n, w)), enough, same),
        Op("leq", (("never",), ("unfold", n, v)), n, unknown),
        Op("converges_to", (("rbind", n, v), w), enough, same),
        Op("converges_to", (("unfold", n, v), v), n // 2, ("unknown", n // 2)),
        Op("is_finite", (("delay_by", n, v),), enough, ("holds",)),
        Op("diverges_bounded", (("unfold", n, v),), enough, ("fails",)),
        Op("diverges_bounded", (("never",),), n, unknown),
        Op("lazy_le", (("of", n), ("of", m)), min(n, m) + 10,
           ("holds",) if n <= m else ("fails",)),
        rng.choice((Op("lazy_le", (("of", n), ("omega",)), enough, ("holds",)),
                    Op("lazy_le", (("omega",), ("of", n)), enough, ("fails",)))),
        Op("observe", (("plus", a, n - a),), enough, (n, "zero")),
        Op("observe", (("omega",),), n, (n, "exhausted")),
    ]


def _semidecide_block(rng, tiny):
    def size(lo, hi):
        return rng.randrange(lo // 100, hi // 100) if tiny else rng.randrange(lo, hi)

    small = round(math.exp(rng.uniform(math.log(100), math.log(1000))))
    block = semidecide_kinds(rng, small // 50 if tiny else small)
    block += semidecide_kinds(rng, size(5000, 10000))
    # The median falls in these right-nested bind loops, the tail in the
    # 45000-step bisimulations, whose forced chains set the peak memory.
    # Their time is memory-bound and follows the calibration unit only in
    # part, so there is one per block: about 18 in a 25-s run, enough to
    # hold the tail (the 11th-slowest op) near their median.
    for _ in range(16):
        n, v = size(1800, 2200), rng.randrange(1000)
        w = v if rng.random() < 0.5 else v + 1
        block.append(Op("converges_to", (("rbind", n, v), w), n + 10,
                        ("holds",) if v == w else ("fails",)))
    n, v = size(43000, 47000), rng.randrange(1000)
    w = v if rng.random() < 0.5 else v + 1
    block.append(Op("bisim", (("unfold", n, v), ("delay_by", n, w)), n + 10,
                    ("holds",) if v == w else ("fails",)))
    for law in LAW_COUNTS:
        samples = rng.randrange(5, 10) if tiny else rng.randrange(100, 401)
        block.append(law_op(law, samples, rng.randrange(2**31)))
    return block


def _cli_block(rng, tiny):
    # Cheapest, start-up bound: small evals and demos (about a third).
    block = [cli_eval_op(_eval_op(rng, rng.choice(sorted(CODES)), tiny, 100_000))
             for _ in range(10)]
    block += [cli_demo_op(rng.choice(("nest", "devil91", "factorial-fix")), 100_000)
              for _ in range(2)]
    # The median falls in these diverging evals, the tail in check-laws.
    block += [cli_eval_op(diverge_op(ALWAYS_DIVERGE, rng.randrange(60), 50 if tiny else 5000))
              for _ in range(12)]
    block += [cli_laws_op(rng.randrange(10, 20) if tiny else rng.randrange(280, 321))
              for _ in range(11)]
    # One sloth (~1 s) per 36 ops keeps its count in a run well under the
    # eleven that would move the tail into it, even at twice the throughput.
    block.append(cli_demo_op("sloth", 50 if tiny else 1000))
    return block


DEMO_ANSWERS = {
    "nest": tuple(f"NEST n={n} CONVERGED 0" for n in range(11)),
    "devil91": tuple(f"DEVIL91 n={n} CONVERGED {mccarthy91(n)}" for n in DEVIL91_ARGS),
    "factorial-fix": tuple(f"FACTORIAL n={n} CONVERGED {math.factorial(n)}"
                           for n in range(9)),
}


def sloth_answer(fuel: int) -> tuple:
    # From the recurrences by hand: g(8) = g(8) + 8 has no finite value, so
    # f(9) and every f above it are all successors; g(14) takes the else
    # branch and is 0.  The strict g(14) needs f(13) in full and diverges.
    return ("SLOTH lazy-g14 succs=0 ended=zero",
            f"SLOTH lazy-f13 succs={fuel} ended=exhausted",
            f"SLOTH strict-g14 EXHAUSTED fuel={fuel}")


# ---------------------------------------------------------------- running ops

class Cli:
    """Runs ``python -m copartial.cli`` as a child process, one at a time."""

    def __init__(self, root, tracer=None):
        path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.root = root
        self.tracer = tracer
        self.peak_rss_mb = 0.0

    def __call__(self, argv: tuple, fuel: int) -> tuple[int, str]:
        full = ("--machine", "--fuel", str(fuel)) + tuple(argv)
        if self.tracer is None:
            return self._run(full)
        return self.tracer.call("cli." + argv[0].replace("-", "_"), self._run, full)

    def _run(self, argv):
        proc = subprocess.Popen([sys.executable, "-m", "copartial.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                env=self.env, cwd=self.root)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        return proc.returncode, out.decode()


def make_api(pkg, raw, cli) -> SimpleNamespace:
    """The namespace ops call: the layers (maybe traced; none for ``cli``),
    ``raw`` for callbacks the package invokes, and the ``cli`` runner."""
    return SimpleNamespace(**(vars(pkg) if pkg else {}), raw=raw, cli=cli)


def execute(api, op: Op):
    """Ask the op's question; return the observed answer in normal form."""
    if op.kind in _COMPUTATIONS:
        return run_answer(api, api.delay.run_for(computation(api, op), op.fuel))
    return _EXECUTORS[op.kind](api, op.args, op.fuel)


def computation(api, op: Op):
    """The computation that an op of a stepped kind runs for its fuel."""
    return _COMPUTATIONS[op.kind](api, *op.args)


def run_answer(api, r):
    """A run_for result in normal form: ('value', v) or ('exhausted',)."""
    return ("value", r.value) if isinstance(r, api.delay.Converged) else ("exhausted",)


def verdict_of(v):
    """A Verdict in normal form: ('holds',), ('fails',) or ('unknown', fuel_spent)."""
    if v.is_holds():
        return ("holds",)
    if v.is_fails():
        return ("fails",)
    return ("unknown", v.fuel_spent)


def mismatch(op: Op, got) -> str | None:
    """None when ``got`` is the op's known answer, else what differs."""
    if got == op.expected:
        return None
    return f"{op.kind}{op.args!r} fuel={op.fuel}: got {got!r}, expected {op.expected!r}"


def countdown(D, n, v):
    """``v`` after n steps, as an ``unfold`` of a counter."""
    return D.unfold(n, lambda s: D.Done(v) if s == 0 else D.Again(s - 1))


def right_bind(D, n, v):
    """``v`` after n steps, as delay_by(k, 1) >>= (lambda _: loop(k - 1)):
    the nesting stays flat however long the loop."""
    def loop(k):
        return D.now(v) if k == 0 else D.bind(lambda _: loop(k - 1), D.delay_by(k, 1))

    return loop(n)


def left_bind(D, inner, depth):
    """``depth`` after depth + 1 steps, as binds nested to the left; the
    bound function calls ``inner`` (the package untraced)."""
    x = D.delay_by(0, 1)
    for _ in range(depth):
        x = D.bind(lambda v: inner.delay_by(v + 1, 1), x)
    return x


def fmap_tower(D, depth, steps, v):
    """``v + depth`` after ``steps`` steps, under ``depth`` nested fmaps."""
    x = D.delay_by(v, steps)
    for _ in range(depth):
        x = D.fmap(_succ, x)
    return x


def cps_double(N, n):
    """d(n) = 0 if n == 0 else d(n - 1) + 2, so 2n, via a continuation n deep."""
    return N.cps_fix(lambda x: x == 0, lambda x: 0, lambda x: x - 1, lambda v: v + 2, n)


def deep_devil(N, depth):
    """The devil's nest counting up to ``depth``; its value is ``depth``."""
    spec = N.DevilSpec(in_base=lambda x: x >= depth, i=lambda x: x + 1, g=lambda x: x,
                       h=lambda x: x)
    return N.devil(spec, 0)


def _succ(v):
    return v + 1


def _delay(api, spec):
    kind = spec[0]
    if kind == "never":
        return api.delay.never()
    _, n, v = spec
    if kind == "unfold":
        return countdown(api.delay, n, v)
    if kind == "delay_by":
        return api.delay.delay_by(v, n)
    return right_bind(api.raw.delay, n, v)


def _lazy(api, spec):
    L = api.lazy
    if spec[0] == "omega":
        return L.omega()
    if spec[0] == "of":
        return L.lazy_of(spec[1])
    return L.lazy_plus(L.lazy_of(spec[1]), L.lazy_of(spec[2]))


def _eval(api, text, nums):
    R, D = api.reccode, api.delay
    return R.evaluate(R.parse_code(text), [D.now(a) for a in nums])


def _fix(api, name, arg):
    F = api.fixpoint
    return F.fix(getattr(F, f"{name}_operator")())(arg)


_COMPUTATIONS = {
    "run": _delay,
    "eval": _eval,
    "fix": _fix,
    "devil91": lambda api, n: api.nested.devil(api.nested.mccarthy91_devil_spec(), n),
    "devil_depth": lambda api, depth: deep_devil(api.nested, depth),
    "cps_fix": lambda api, n: cps_double(api.nested, n),
    "nest": lambda api, n: api.nested.nest(n),
    "bind_left": lambda api, depth: left_bind(api.delay, api.raw.delay, depth),
    "fmap_tower": lambda api, *args: fmap_tower(api.delay, *args),
}


def _x_bisim(api, args, fuel):
    return verdict_of(api.semantics.bisim(_delay(api, args[0]), _delay(api, args[1]), fuel))


def _x_leq(api, args, fuel):
    return verdict_of(api.semantics.leq(_delay(api, args[0]), _delay(api, args[1]), fuel))


def _x_converges_to(api, args, fuel):
    return verdict_of(api.semantics.converges_to(_delay(api, args[0]), args[1], fuel))


def _x_is_finite(api, args, fuel):
    return verdict_of(api.semantics.is_finite(_delay(api, args[0]), fuel))


def _x_diverges_bounded(api, args, fuel):
    return verdict_of(api.semantics.diverges_bounded(_delay(api, args[0]), fuel))


def _x_lazy_le(api, args, fuel):
    return verdict_of(api.lazy.lazy_le(_lazy(api, args[0]), _lazy(api, args[1]), fuel))


def _x_observe(api, args, fuel):
    succs, ended = api.lazy.observe(_lazy(api, args[0]), fuel)
    return (succs, ended.value)


def law_results(api, args, fuel) -> dict:
    """The package's LawResults for a ``laws`` op."""
    law, samples, seed = args
    check = getattr(api.laws, f"check_{law}_laws")
    return check(api.laws.DelayGen(include_never=True), samples, fuel, seed=seed)


def law_verdicts(results: dict) -> tuple:
    return tuple(verdict_of(r.verdict) for r in results.values())


def _x_laws(api, args, fuel):
    return law_verdicts(law_results(api, args, fuel))


_CLI_NOISE = re.compile(r" (steps=\d+|holds=\d+ unknown=\d+)")


def _x_cli(api, args, fuel):
    code, out = api.cli(args, fuel)
    return (code, tuple(_CLI_NOISE.sub("", line) for line in out.splitlines()))


_EXECUTORS = {name[3:]: fn for name, fn in globals().items() if name.startswith("_x_")}

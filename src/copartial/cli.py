"""Command-line front end: evaluate codes under fuel, run demos, check laws.

Each subcommand imports its own modules when it runs; ``delay``,
``semantics`` and ``fixpoint`` load with the package, whatever the
command.

Exit status: 0 for a converged evaluation (and for law suites with no
failing law), 2 when fuel is exhausted, 1 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .delay import Converged, Delay, now, run_for

DEFAULT_FUEL = 100_000

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copartial",
        description="Run possibly-nonterminating computations under fuel.",
    )
    parser.add_argument("--fuel", type=int, default=None, metavar="N",
                        help=f"step budget (default {DEFAULT_FUEL}; "
                             "64 for check-laws, 1000 for demo sloth)")
    parser.add_argument("--trace", action="store_true",
                        help="print one line per computation step, "
                             "when the run ends")
    parser.add_argument("--machine", action="store_true",
                        help="machine-readable output lines only")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a recursive-function code")
    p_eval.add_argument("code", help="code text, e.g. 'R(P 1 1; C(S; P 3 3))'")
    p_eval.add_argument("args", nargs="*", help="non-negative integer arguments")

    p_demo = sub.add_parser("demo", help="run a named demo")
    p_demo.add_argument("name", choices=DEMOS)

    p_laws = sub.add_parser("check-laws", help="run the monad/strength law suites")
    p_laws.add_argument("--samples", type=int, default=1000, metavar="N")
    return parser


def _run_and_report(d: Delay, fuel: int, trace: bool, out, prefix: str = "") -> int:
    r = run_for(d, fuel)
    converged = isinstance(r, Converged)
    if trace:
        for n in range(1, (r.steps if converged else fuel) + 1):
            print(f"{prefix}STEP {n}", file=out)
    if converged:
        print(f"{prefix}CONVERGED {r.value} steps={r.steps}", file=out)
        return 0
    print(f"{prefix}EXHAUSTED fuel={fuel}", file=out)
    return 2


def _cmd_eval(opts, out, err) -> int:
    from .reccode import IllFormed, ParseError, evaluate, parse_code

    try:
        code = parse_code(opts.code)
    except (ParseError, IllFormed) as exc:
        print(f"error: {exc}", file=err)
        return 1
    try:
        args = [int(a) for a in opts.args]
        if any(a < 0 for a in args):
            raise ValueError
    except ValueError:
        print("error: arguments must be non-negative integers", file=err)
        return 1
    try:
        d = evaluate(code, [now(a) for a in args])
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 1
    return _run_and_report(d, opts.fuel, opts.trace, out)


def _demo_nest(fuel: int, out) -> int:
    from .nested import nest

    for n in range(11):
        _run_and_report(nest(n), fuel, False, out, prefix=f"NEST n={n} ")
    return 0


def _demo_devil91(fuel: int, out) -> int:
    from .nested import devil, mccarthy91_devil_spec

    spec = mccarthy91_devil_spec()
    for n in (0, 1, 42, 99, 100, 101, 111, 200):
        _run_and_report(devil(spec, n), fuel, False, out, prefix=f"DEVIL91 n={n} ")
    return 0


def _demo_sloth(fuel: int, out) -> int:
    from .lazy import observe, sloth_f, sloth_g, sloth_strict_g

    succs, ended = observe(sloth_g(14), fuel)
    print(f"SLOTH lazy-g14 succs={succs} ended={ended.value}", file=out)
    succs, ended = observe(sloth_f(13), fuel)
    print(f"SLOTH lazy-f13 succs={succs} ended={ended.value}", file=out)
    _run_and_report(sloth_strict_g(14), fuel, False, out, prefix="SLOTH strict-g14 ")
    return 0


def _demo_factorial_fix(fuel: int, out) -> int:
    from .fixpoint import factorial_operator, fix

    fac = fix(factorial_operator())
    for n in range(9):
        _run_and_report(fac(n), fuel, False, out, prefix=f"FACTORIAL n={n} ")
    return 0


DEMOS = {
    "nest": _demo_nest,
    "devil91": _demo_devil91,
    "sloth": _demo_sloth,
    "factorial-fix": _demo_factorial_fix,
}


def _cmd_check_laws(opts, out) -> int:
    from .laws import DelayGen, check_kleisli_laws, check_strength_laws

    gen = DelayGen(include_never=True)
    results = {}
    results.update(check_kleisli_laws(gen, opts.samples, opts.fuel))
    results.update(check_strength_laws(gen, opts.samples, opts.fuel))
    failed = False
    for name, r in results.items():
        if r.verdict.is_fails():
            failed = True
            print(f"LAW {name} FAILS counterexample={r.counterexample}", file=out)
        else:
            print(f"LAW {name} {r.verdict} holds={r.holds} unknown={r.unknown}",
                  file=out)
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        opts = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    if opts.fuel is None:
        if opts.command == "check-laws":
            opts.fuel = 64
        elif opts.command == "demo" and opts.name == "sloth":
            # the demo's printed output, "EXHAUSTED fuel=1000", depends on this default
            opts.fuel = 1000
        else:
            opts.fuel = DEFAULT_FUEL
    if opts.fuel < 0:
        print("error: fuel must be non-negative", file=err)
        return 1
    if opts.command == "check-laws" and opts.samples < 0:
        print("error: samples must be non-negative", file=err)
        return 1
    if not opts.machine:
        print(f"# copartial {opts.command} fuel={opts.fuel}", file=out)
    if opts.command == "eval":
        return _cmd_eval(opts, out, err)
    if opts.command == "demo":
        return DEMOS[opts.name](opts.fuel, out)
    return _cmd_check_laws(opts, out)


if __name__ == "__main__":
    sys.exit(main())

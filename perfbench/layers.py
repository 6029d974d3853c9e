"""Per-layer probes, robustness ladders and the ROADMAP Baseline rows.

Only the traced run uses this module.  The probes are the same for every
workload, so each per-layer metric is printed on every traced run.  Each
probe question is an ``Op`` built by the same constructors as the workloads'
ops, and is checked against its known answer the same way.  Run as a
script, it is one of two fresh child processes: ``sloth FUEL TRACEMALLOC``
observes the sloth tower, ``cli-peak`` spawns the CLI children whose peak
RSS is measured.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from tracer import Tracer, traced_package
from workloads import (ALWAYS_DIVERGE, IDENT_BY_MIN, LAW_COUNTS, MONUS, MULT, PLUS, PRED,
                       Cli, Op, cli_demo_op, cli_eval_op, cli_laws_op, computation,
                       countdown, diverge_op, eval_op, execute, fix_op, law_op, law_results,
                       law_verdicts, make_api, mismatch, run_answer, run_op, semidecide_kinds,
                       stepped_op)

# name: unit.  BENCHMARK.json lists the same names as its per_layer metrics.
PER_LAYER = {
    "delay.run_for.steps": "count",
    "delay.run_for.us_per_step": "us",
    "delay.unfold.us_per_step": "us",
    "delay.delay_by.us_per_node": "us",
    "delay.bind.left.us_per_step": "us",
    "delay.fmap.tower.us_per_step": "us",
    "delay.bind.right.us_per_step": "us",
    "delay.alloc_peak_mb": "MB",
    "semantics.bisim.s": "s",
    "semantics.leq.s": "s",
    "semantics.converges_to.s": "s",
    "semantics.decided_ratio": "ratio",
    "laws.check_kleisli_laws.s": "s",
    "laws.check_strength_laws.s": "s",
    "laws.decided_ratio": "ratio",
    "fixpoint.fix.factorial.s": "s",
    "fixpoint.fix.mccarthy91.s": "s",
    "fixpoint.fix.ackermann.s": "s",
    "fixpoint.fix.division.s": "s",
    "fixpoint.fix.us_per_step": "us",
    "fixpoint.fix.steps": "count",
    "nested.devil.s": "s",
    "nested.cps_fix.s": "s",
    "nested.nest.s": "s",
    "reccode.parse_code.s": "s",
    "reccode.evaluate.s": "s",
    "reccode.run.s": "s",
    "reccode.min.us_per_step": "us",
    "reccode.oracle_eval.s": "s",
    "reccode.evaluate_over_oracle": "ratio",
    "lazy.observe.us_per_peel": "us",
    "lazy.lazy_le.us_per_strip": "us",
    "lazy.sloth.observe_s": "s",
    "lazy.sloth.alloc_peak_mb": "MB",
    "cli.import_s": "s",
    "cli.eval.s": "s",
    "cli.demo.s": "s",
    "cli.check_laws.s": "s",
    "cli.child_peak_rss_mb": "MB",
    "delay.bind.max_depth_ok": "count",
    "delay.fmap.max_depth_ok": "count",
    "fixpoint.fix.factorial.max_n_ok": "count",
    "fixpoint.fix.division.max_a_ok": "count",
    "nested.cps_fix.max_depth_ok": "count",
    "nested.devil.max_depth_ok": "count",
    "lazy.sloth.max_fuel_ok": "count",
    "baseline.fix_factorial_400.s": "s",
    "trace.overhead_ratio": "ratio",
    **{f"selftime.{layer}.s": "s" for layer in
       ("delay", "semantics", "laws", "fixpoint", "nested", "reccode", "lazy", "cli")},
}

SLOTH_FUELS = (500, 1000, 2000)
# Observing the tower at fuel 20000 was OOM-killed when the Baseline was
# taken, so that row is recorded as not run.
SLOTH_NOT_RUN = 20000
REPS = 3
# Fuel for the ladders and the Baseline rows, whose inputs are the largest.
BIG_FUEL = 10**7
OUTCOMES = {"value": "converged", "exhausted": "exhausted", 0: "converged", 2: "exhausted"}
# Out-of-fuel lazy_le questions: at seed they report fuel_spent=0 instead of
# the fuel given, so the honest share is a diagnostic, printed but not a
# metric of BENCHMARK.json (it is 0 until the defect is fixed).
HONEST_FUEL_OPS = (Op("lazy_le", (("omega",), ("omega",)), 10, ("unknown", 10)),
                   Op("lazy_le", (("of", 50), ("of", 60)), 20, ("unknown", 20)),
                   Op("lazy_le", (("omega",), ("of", 40)), 30, ("unknown", 30)))


def _seconds(fn, *args):
    t = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t, result


def _outcome(api, op):
    """(outcome, seconds) of asking ``op``: converged, exhausted, wrong
    answer or host error.  A host error is an outcome, not a crash."""
    t = time.perf_counter()
    try:
        got = execute(api, op)
    except Exception as exc:  # the error itself is the measured outcome
        return f"host-error: {type(exc).__name__}", time.perf_counter() - t
    dt = time.perf_counter() - t
    return (OUTCOMES[got[0]] if got == op.expected else "wrong answer"), dt


class Probes:
    """Runs every probe through a traced package and collects metrics."""

    def __init__(self, pkg, root: Path, seed: int):
        self.raw = pkg
        self.root = root
        self.seed = seed
        self.tracer = Tracer()
        self.cli = Cli(root, self.tracer)
        self.api = make_api(traced_package(pkg, self.tracer), pkg, self.cli)
        self.plain = make_api(pkg, pkg, Cli(root))
        self.metrics: dict[str, float] = {}
        self.diagnostics: dict[str, float] = {}
        self.problems: list[str] = []
        self.rows: list[dict] = []
        self.ladders: dict[str, list] = {}
        self.sloth: dict[tuple, dict] = {}

    def verify(self, op, got):
        problem = mismatch(op, got)
        if problem:
            self.problems.append(problem)
        return got

    def ask(self, op, api=None):
        """The op's answer through the traced package (or ``api``), verified."""
        return self.verify(op, execute(api or self.api, op))

    def step(self, op):
        """(seconds, steps) of a stepped op, built traced but run untraced.

        A traced call holds its arguments until it returns, which would keep
        every forced step of what run_for steps alive and time the garbage
        collector instead.
        """
        t = time.perf_counter()
        r = self.raw.delay.run_for(computation(self.api, op), op.fuel)
        t = time.perf_counter() - t
        self.verify(op, run_answer(self.api, r))
        return t, r.steps if isinstance(r, self.raw.delay.Converged) else op.fuel

    def run_all(self):
        for probe in (self.delay, self.semantics, self.laws, self.fixpoint, self.nested,
                      self.reccode, self.lazy, self.cli_layer, self.frontier,
                      self.baseline):
            probe()
        busy = self.tracer.self_times_s()
        for layer in ("delay", "semantics", "laws", "fixpoint", "nested", "reccode", "lazy",
                      "cli"):
            self.metrics[f"selftime.{layer}.s"] = busy.get(layer, 0.0)

    # ------------------------------------------------------------ layers

    def delay(self):
        D, m = self.api.delay, self.metrics
        n, depth = 50_000, 250
        steps = 0
        # metric: (op, the steps or nodes its time is divided by)
        per_step = {
            "delay.run_for.us_per_step": (run_op(("never",), 4 * n), 4 * n),
            "delay.unfold.us_per_step": (run_op(("unfold", n, 7), n + 1), n),
            "delay.bind.left.us_per_step": (stepped_op("bind_left", depth, fuel=depth + 10),
                                            depth + 1),
            "delay.fmap.tower.us_per_step": (stepped_op("fmap_tower", depth, 200, 5, fuel=210),
                                             200),
            "delay.bind.right.us_per_step": (run_op(("rbind", n, 3), n + 1), n),
        }
        for name, (op, per) in per_step.items():
            runs = [self.step(op) for _ in range(REPS)]
            steps += sum(s for _, s in runs)
            m[name] = statistics.median(t for t, _ in runs) / per * 1e6
        m["delay.delay_by.us_per_node"] = statistics.median(
            _seconds(D.delay_by, 7, n)[0] for _ in range(REPS)) / n * 1e6
        steps += self.step(run_op(("delay_by", n, 7), n + 1))[1]
        m["delay.run_for.steps"] = steps

        # bisim keeps the head of both forced chains until it returns.  It
        # runs untraced, so that tracemalloc's hooks slow no timed span.
        tracemalloc.start()
        try:
            self.ask(Op("bisim", (("unfold", n, 1), ("unfold", n, 1)), n + 1, ("holds",)),
                     self.plain)
            m["delay.alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def semantics(self):
        rng = random.Random(f"probe:{self.seed}")
        kinds = ("bisim", "leq", "converges_to")
        ops = [op for _ in range(8) for op in semidecide_kinds(rng, rng.randrange(5000, 20000))
               if op.kind in kinds]
        first = len(self.tracer.spans)
        answers = [self.ask(op) for op in ops]
        for name in kinds:
            self.metrics[f"semantics.{name}.s"] = self.tracer.total_s(f"semantics.{name}", first)
        self.metrics["semantics.decided_ratio"] = (
            sum(got[0] != "unknown" for got in answers) / len(answers))

    def laws(self):
        holds = unknown = 0
        for law in LAW_COUNTS:
            op = law_op(law, 300, self.seed)
            t, results = _seconds(law_results, self.api, op.args, op.fuel)
            self.metrics[f"laws.check_{law}_laws.s"] = t
            self.verify(op, law_verdicts(results))
            holds += sum(r.holds for r in results.values())
            unknown += sum(r.unknown for r in results.values())
        self.metrics["laws.decided_ratio"] = holds / (holds + unknown)

    def fixpoint(self):
        ops = ([fix_op("factorial", 250)] + [fix_op("mccarthy91", n) for n in range(0, 101, 5)]
               + [fix_op("ackermann", (3, 3)), fix_op("division", (2900, 10))])
        steps, total = 0, 0.0
        for op in ops:
            t, s = self.step(op)
            name = f"fixpoint.fix.{op.args[0]}.s"
            self.metrics[name] = self.metrics.get(name, 0.0) + t
            steps += s
            total += t
        self.metrics["fixpoint.fix.steps"] = steps
        self.metrics["fixpoint.fix.us_per_step"] = total / steps * 1e6

    def nested(self):
        probes = {"devil": [stepped_op("devil91", n) for n in range(101)],
                  "cps_fix": [stepped_op("cps_fix", 550)],
                  "nest": [stepped_op("nest", 15000)]}
        for name, ops in probes.items():
            self.metrics[f"nested.{name}.s"] = sum(self.step(op)[0] for op in ops)

    def reccode(self):
        R, m = self.api.reccode, self.metrics
        texts = [PLUS, MULT, PRED, MONUS, IDENT_BY_MIN, ALWAYS_DIVERGE]
        m["reccode.parse_code.s"], _ = _seconds(lambda: [R.parse_code(t) for t in texts * 20])
        ops = [eval_op("plus", (40, 40)), eval_op("mult", (20, 20)), eval_op("monus", (50, 25)),
               eval_op("pred", (150,)), eval_op("ident_by_min", (15,))]
        first = len(self.tracer.spans)
        for op in ops:
            self.ask(op)
        m["reccode.evaluate.s"] = self.tracer.total_s("reccode.evaluate", first)
        m["reccode.run.s"] = self.tracer.total_s("delay.run_for", first)
        oracle = 0.0
        for op in ops:
            text, nums = op.args
            t, v = _seconds(self.raw.reccode.oracle_eval, self.raw.reccode.parse_code(text),
                            nums, 10**8)
            oracle += t
            self.verify(op, ("value", v))
        m["reccode.oracle_eval.s"] = oracle
        m["reccode.evaluate_over_oracle"] = (m["reccode.evaluate.s"] + m["reccode.run.s"]) / oracle
        op = diverge_op(ALWAYS_DIVERGE, 0, 20_000)
        m["reccode.min.us_per_step"] = self.step(op)[0] / op.fuel * 1e6

    def lazy(self):
        m, n = self.metrics, 50_000
        first = len(self.tracer.spans)
        self.ask(Op("observe", (("of", n),), n + 1, (n, "zero")))
        self.ask(Op("lazy_le", (("of", n), ("of", n + 1)), n + 1, ("holds",)))
        m["lazy.observe.us_per_peel"] = self.tracer.total_s("lazy.observe", first) / n * 1e6
        m["lazy.lazy_le.us_per_strip"] = self.tracer.total_s("lazy.lazy_le", first) / n * 1e6
        honest = [execute(self.plain, op) == op.expected for op in HONEST_FUEL_OPS]
        self.diagnostics["lazy.lazy_le.honest_fuel_ratio"] = sum(honest) / len(honest)

        for fuel in SLOTH_FUELS:
            self.sloth[(fuel, False)] = self._sloth_child(fuel, False) if fuel <= 1000 else None
            if fuel >= 1000:
                self.sloth[(fuel, True)] = self._sloth_child(fuel, True)
        m["lazy.sloth.observe_s"] = self.sloth[(1000, False)]["seconds"]
        m["lazy.sloth.alloc_peak_mb"] = self.sloth[(1000, True)]["peak_mb"]

    def _sloth_child(self, fuel, trace_alloc):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "sloth", str(fuel), str(int(trace_alloc))],
            capture_output=True, text=True, env=self.cli.env, cwd=self.root, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        # The child observes what the first two lines of `demo sloth` print.
        op = Op("sloth", (fuel,), fuel, cli_demo_op("sloth", fuel).expected[1][:2])
        got = ("SLOTH lazy-g14 succs={} ended={}".format(*result["g14"]),
               "SLOTH lazy-f13 succs={} ended={}".format(*result["f13"]))
        result["ok"] = self.verify(op, got) == op.expected
        return result

    def cli_layer(self):
        m = self.metrics
        snippet = ("import time; t = time.perf_counter(); import copartial.cli; "
                   "print(time.perf_counter() - t)")
        imports = [float(subprocess.run([sys.executable, "-c", snippet], capture_output=True,
                                        text=True, env=self.cli.env, cwd=self.root,
                                        check=True).stdout) for _ in range(5)]
        m["cli.import_s"] = statistics.median(imports)
        ops = [cli_eval_op(eval_op("plus", (30, 20), 10**5)),
               cli_eval_op(eval_op("mult", (12, 12), 10**5)),
               cli_eval_op(diverge_op(ALWAYS_DIVERGE, 3, 5000))]
        ops += [cli_demo_op(name, 10**5) for name in ("nest", "devil91", "factorial-fix")]
        ops.append(cli_laws_op(300))
        first = len(self.tracer.spans)
        for op in ops:
            self.ask(op)
        for name in ("eval", "demo", "check_laws"):
            m[f"cli.{name}.s"] = self.tracer.total_s(f"cli.{name}", first)
        # A child's peak RSS counts the pages of the process that spawned
        # it, so a small helper process spawns the children measured here.
        helper = subprocess.run([sys.executable, str(Path(__file__)), "cli-peak"],
                                capture_output=True, text=True, cwd=self.root, check=True)
        result = json.loads(helper.stdout.splitlines()[-1])
        m["cli.child_peak_rss_mb"] = result["peak_mb"]
        self.problems += result["problems"]

    # ------------------------------------------------------------ ladders

    def _ladder(self, metric, rungs):
        """Largest rung whose op gets its known answer; stops at the first
        rung that does not.  ``rungs`` maps each rung to its op."""
        best, record = 0, []
        for rung, op in rungs.items():
            outcome, seconds = _outcome(self.plain, op)
            record.append({"rung": rung, "outcome": outcome, "seconds": seconds})
            if outcome != "converged":
                break
            best = rung
        self.metrics[metric] = best
        self.ladders[metric] = record

    def frontier(self):
        depths = (250, 500, 1000, 2000, 5000, 10000)
        ladders = {
            "delay.bind.max_depth_ok": {n: stepped_op("bind_left", n, fuel=BIG_FUEL)
                                        for n in depths},
            "delay.fmap.max_depth_ok": {n: stepped_op("fmap_tower", n, 10, 0, fuel=BIG_FUEL)
                                        for n in depths},
            "fixpoint.fix.factorial.max_n_ok": {n: fix_op("factorial", n, BIG_FUEL)
                                                for n in (100, 200, 300, 400, 500, 1000)},
            "fixpoint.fix.division.max_a_ok": {a: fix_op("division", (a, 1), BIG_FUEL)
                                               for a in (100, 200, 300, 400, 500, 1000, 2000)},
            "nested.cps_fix.max_depth_ok": {n: stepped_op("cps_fix", n, fuel=BIG_FUEL)
                                            for n in (500, 1000, 2000, 5000, 10000)},
            "nested.devil.max_depth_ok": {n: stepped_op("devil_depth", n, fuel=BIG_FUEL)
                                          for n in depths},
        }
        for metric, rungs in ladders.items():
            self._ladder(metric, rungs)
        best, record = 0, []
        for fuel in SLOTH_FUELS:
            child = self.sloth[(fuel, False)] or self.sloth[(fuel, True)]
            record.append({"rung": fuel, "outcome": "observed" if child["ok"] else "failed",
                           "seconds": child["seconds"]})
            if not child["ok"]:
                break
            best = fuel
        record.append({"rung": SLOTH_NOT_RUN, "outcome": "not run"})
        self.metrics["lazy.sloth.max_fuel_ok"] = best
        self.ladders["lazy.sloth.max_fuel_ok"] = record

    # ------------------------------------------------------------ Baseline

    def _row(self, layer, case, outcome, seconds=None, **extra):
        self.rows.append({"layer": layer, "case": case, "outcome": outcome,
                          "seconds": seconds, **extra})

    def baseline(self):
        """The rows of the ROADMAP Baseline table, measured again."""
        D, R, L, S = self.raw.delay, self.raw.reccode, self.raw.lazy, self.raw.semantics
        big = 10**6
        for case, op in (("unfold countdown, 1e6 steps", run_op(("unfold", big, 1), BIG_FUEL)),
                         ("delay_by(1, 1e6) then run", run_op(("delay_by", big, 1), BIG_FUEL)),
                         ("run_for(never(), 1e6)", run_op(("never",), big))):
            out, t = _outcome(self.plain, op)
            self._row("step loop", case, out, t, us_per_step=t / big * 1e6)
        tracemalloc.start()
        try:
            head = countdown(D, 200_000, 1)
            t, r = _seconds(D.run_for, head, BIG_FUEL)
            kept = tracemalloc.get_traced_memory()[0] / 2**20
            del head
            dropped = tracemalloc.get_traced_memory()[0] / 2**20
        finally:
            tracemalloc.stop()
        self._row("step loop", "unfold 2e5 steps, caller keeps the head",
                  OUTCOMES[run_answer(self.plain, r)[0]], t,
                  retained_mb=kept, retained_mb_head_dropped=dropped)

        rows = [("monad", f"left-nested bind depth {d}",
                 stepped_op("bind_left", d, fuel=BIG_FUEL)) for d in (100, 1000)]
        rows.append(("monad", "fmap tower depth 1000",
                     stepped_op("fmap_tower", 1000, 10, 0, fuel=BIG_FUEL)))
        rows += [("fix", f"factorial({n})", fix_op("factorial", n, BIG_FUEL))
                 for n in (160, 400, 1000)]
        rows += [("fix", "division((1000, 1))", fix_op("division", (1000, 1), BIG_FUEL)),
                 ("nested", "cps_fix depth 5000", stepped_op("cps_fix", 5000, fuel=BIG_FUEL)),
                 ("nested", "devil depth 2000", stepped_op("devil_depth", 2000, fuel=BIG_FUEL)),
                 ("reccode", "mult(60, 60) via evaluate", eval_op("mult", (60, 60), BIG_FUEL))]
        for layer, case, op in rows:
            out, t = _outcome(self.plain, op)
            self._row(layer, case, out, t)
            if case == "factorial(400)":
                self.metrics["baseline.fix_factorial_400.s"] = t
        mult = eval_op("mult", (60, 60))
        t, v = _seconds(R.oracle_eval, R.parse_code(mult.args[0]), mult.args[1], 10**8)
        self._row("reccode", "mult(60, 60) via oracle_eval",
                  "converged" if ("value", v) == mult.expected else "wrong answer", t)
        op = cli_eval_op(diverge_op(ALWAYS_DIVERGE, 0, 10**5))
        out, t = _outcome(self.plain, op)
        self._row("reccode", "CLI eval 'M(C(S; P 2 2))' 0, fuel 1e5", out, t,
                  us_per_step=t / op.fuel * 1e6)

        for fuel in SLOTH_FUELS[1:]:
            child = self.sloth[(fuel, True)]
            self._row("lazy", f"observe(sloth_f(13), {fuel}) under tracemalloc",
                      "observed" if child["ok"] else "failed", child["seconds"],
                      peak_mb=child["peak_mb"])
        self._row("lazy", f"observe(sloth_f(13), {SLOTH_NOT_RUN})", "not run",
                  note="OOM-killed when the Baseline was taken")

        v = L.lazy_le(L.omega(), L.omega(), 10)
        self._row("semantics", "lazy_le(omega(), omega(), 10)", str(v),
                  reported_fuel=v.fuel_spent, fuel_given=10)
        forced = [0, 0]

        def counted(side, finish):
            # Step-for-step stand-ins for delay_by(1, 5) and never() that
            # count how many of their steps get forced.
            def step(s):
                forced[side] += 1
                return D.Done(1) if finish and s == finish else D.Again(s + 1)
            return D.unfold(0, step)

        v = S.bisim(counted(0, 5), counted(1, 0), 10)
        self._row("semantics", "bisim(delay_by(1, 5), never(), 10)",
                  str(S.bisim(D.delay_by(1, 5), D.never(), 10)),
                  steps_spent=forced[0] + forced[1] - 2, reported_fuel=v.fuel_spent)

        for label, op in (("eval", cli_eval_op(eval_op("plus", (2, 3), 10**5))),
                          ("demo nest", cli_demo_op("nest", 10**5)),
                          ("check-laws --samples 1000", cli_laws_op(1000)),
                          ("demo sloth", cli_demo_op("sloth", 1000))):
            self._row("CLI e2e", label, *_outcome(self.plain, op))


def _sloth_main(fuel: int, trace_alloc: bool) -> None:
    from copartial.lazy import observe, sloth_f, sloth_g

    if trace_alloc:
        tracemalloc.start()
    t = time.perf_counter()
    succs, ended = observe(sloth_f(13), fuel)
    seconds = time.perf_counter() - t
    peak = tracemalloc.get_traced_memory()[1] / 2**20 if trace_alloc else None
    g_succs, g_ended = observe(sloth_g(14), fuel)
    print(json.dumps({"seconds": seconds, "peak_mb": peak, "f13": [succs, ended.value],
                      "g14": [g_succs, g_ended.value]}))


def _cli_peak_main() -> None:
    api = make_api(None, None, Cli(Path(__file__).resolve().parent.parent))
    ops = (cli_eval_op(eval_op("plus", (30, 20), 10**5)), cli_demo_op("nest", 10**5),
           cli_laws_op(300), cli_demo_op("sloth", 1000))
    problems = [mismatch(op, execute(api, op)) for op in ops]
    print(json.dumps({"peak_mb": api.cli.peak_rss_mb, "problems": [p for p in problems if p]}))


if __name__ == "__main__":
    if sys.argv[1:] == ["cli-peak"]:
        _cli_peak_main()
    elif sys.argv[1:2] == ["sloth"] and len(sys.argv) == 4:
        _sloth_main(int(sys.argv[2]), sys.argv[3] == "1")
    else:
        sys.exit("usage: layers.py sloth FUEL TRACEMALLOC | layers.py cli-peak")

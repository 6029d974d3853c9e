"""CLI behaviour: golden lines, exit codes, determinism."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from copartial.cli import main
from copartial.reccode import MAX_NESTING

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestEval:
    def test_plus_converges(self):
        code, out, err = run_cli("--machine", "eval", "R(P 1 1; C(S; P 3 3))", "2", "3")
        assert code == 0
        assert out == "CONVERGED 5 steps=0\n"
        assert err == ""

    def test_min_spends_steps(self):
        code, out, _ = run_cli("--machine", "eval", "M(R(P 1 1; C(C(R(Z; P 2 3); P 1 1, P 1 1); P 3 3)))", "4")
        assert code == 0
        assert out == "CONVERGED 4 steps=4\n"

    def test_divergence_exhausts(self):
        code, out, _ = run_cli("--machine", "--fuel", "100",
                               "eval", "M(C(S; P 2 2))", "0")
        assert code == 2
        assert out == "EXHAUSTED fuel=100\n"

    def test_primrec_over_a_stepping_base_2000_deep(self):
        code, out, _ = run_cli("--machine", "eval",
                               "R(C(M(R(P 1 1; C(C(R(Z; P 2 3); P 1 1, P 1 1); P 3 3))); P 1 1);"
                               " C(S; P 3 3))", "3", "2000")
        assert code == 0
        assert out == "CONVERGED 2003 steps=3\n"

    def test_parse_error(self):
        code, out, err = run_cli("--machine", "eval", "C(S; Z, Z)")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_bad_arguments(self):
        code, _, err = run_cli("--machine", "eval", "S", "-3")
        assert code == 1 and err.startswith("error:")

    def test_arity_mismatch(self):
        code, _, err = run_cli("--machine", "eval", "S", "1", "2")
        assert code == 1 and err.startswith("error:")

    def test_trace_lines(self):
        code, out, _ = run_cli("--machine", "--trace", "eval", "M(R(P 1 1; C(C(R(Z; P 2 3); P 1 1, P 1 1); P 3 3)))", "2")
        assert code == 0
        assert out.splitlines() == ["STEP 1", "STEP 2", "CONVERGED 2 steps=2"]


class TestDemos:
    def test_nest_lines(self):
        code, out, _ = run_cli("--machine", "demo", "nest")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 11
        assert lines[0] == "NEST n=0 CONVERGED 0 steps=1"
        assert lines[10] == "NEST n=10 CONVERGED 0 steps=21"

    def test_devil91_lines(self):
        code, out, _ = run_cli("--machine", "demo", "devil91")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 8
        assert lines[0].startswith("DEVIL91 n=0 CONVERGED 91 ")
        assert lines[-1] == "DEVIL91 n=200 CONVERGED 190 steps=0"

    def test_sloth_lines(self):
        code, out, _ = run_cli("--machine", "demo", "sloth")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "SLOTH lazy-g14 succs=0 ended=zero"
        assert lines[1].startswith("SLOTH lazy-f13 succs=")
        assert lines[1].endswith("ended=exhausted")
        assert lines[2] == "SLOTH strict-g14 EXHAUSTED fuel=1000"

    def test_factorial_fix_lines(self):
        code, out, _ = run_cli("--machine", "demo", "factorial-fix")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 9
        assert lines[5].startswith("FACTORIAL n=5 CONVERGED 120 ")

    def test_human_mode_has_header(self):
        _, out, _ = run_cli("demo", "nest")
        assert out.splitlines()[0] == "# copartial demo fuel=100000"


# Every line of each demo as the package printed it when these were pinned;
# the step counts in them must not move when the stepping code changes.
GOLDEN_DEMOS = {
    "nest": (
        ["--machine", "demo", "nest"],
        [
            "NEST n=0 CONVERGED 0 steps=1",
            "NEST n=1 CONVERGED 0 steps=3",
            "NEST n=2 CONVERGED 0 steps=5",
            "NEST n=3 CONVERGED 0 steps=7",
            "NEST n=4 CONVERGED 0 steps=9",
            "NEST n=5 CONVERGED 0 steps=11",
            "NEST n=6 CONVERGED 0 steps=13",
            "NEST n=7 CONVERGED 0 steps=15",
            "NEST n=8 CONVERGED 0 steps=17",
            "NEST n=9 CONVERGED 0 steps=19",
            "NEST n=10 CONVERGED 0 steps=21",
        ],
    ),
    "devil91": (
        ["--machine", "demo", "devil91"],
        [
            "DEVIL91 n=0 CONVERGED 91 steps=202",
            "DEVIL91 n=1 CONVERGED 91 steps=200",
            "DEVIL91 n=42 CONVERGED 91 steps=118",
            "DEVIL91 n=99 CONVERGED 91 steps=4",
            "DEVIL91 n=100 CONVERGED 91 steps=2",
            "DEVIL91 n=101 CONVERGED 91 steps=0",
            "DEVIL91 n=111 CONVERGED 101 steps=0",
            "DEVIL91 n=200 CONVERGED 190 steps=0",
        ],
    ),
    "sloth": (
        ["--machine", "demo", "sloth"],
        [
            "SLOTH lazy-g14 succs=0 ended=zero",
            "SLOTH lazy-f13 succs=1000 ended=exhausted",
            "SLOTH strict-g14 EXHAUSTED fuel=1000",
        ],
    ),
    "factorial-fix": (
        ["--machine", "demo", "factorial-fix"],
        [
            "FACTORIAL n=0 CONVERGED 1 steps=2",
            "FACTORIAL n=1 CONVERGED 1 steps=3",
            "FACTORIAL n=2 CONVERGED 2 steps=4",
            "FACTORIAL n=3 CONVERGED 6 steps=5",
            "FACTORIAL n=4 CONVERGED 24 steps=6",
            "FACTORIAL n=5 CONVERGED 120 steps=7",
            "FACTORIAL n=6 CONVERGED 720 steps=8",
            "FACTORIAL n=7 CONVERGED 5040 steps=9",
            "FACTORIAL n=8 CONVERGED 40320 steps=10",
        ],
    ),
    "sloth-fuel-20000": (
        ["--machine", "--fuel", "20000", "demo", "sloth"],
        [
            "SLOTH lazy-g14 succs=0 ended=zero",
            "SLOTH lazy-f13 succs=20000 ended=exhausted",
            "SLOTH strict-g14 EXHAUSTED fuel=20000",
        ],
    ),
}


@pytest.mark.parametrize("argv, lines", GOLDEN_DEMOS.values(), ids=GOLDEN_DEMOS.keys())
def test_demo_output_is_golden(argv, lines):
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert out == "".join(line + "\n" for line in lines)


class TestCheckLaws:
    def test_small_run_passes(self):
        code, out, _ = run_cli("--machine", "check-laws", "--samples", "50")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert all(line.startswith("LAW ") for line in lines)
        assert all(" Holds " in line for line in lines)

    def test_samples_30_output(self):
        code, out, _ = run_cli("--machine", "check-laws", "--samples", "30")
        assert code == 0
        assert out == (
            "LAW kleisli-right-unit Holds holds=26 unknown=4\n"
            "LAW kleisli-left-unit Holds holds=30 unknown=0\n"
            "LAW kleisli-associativity Holds holds=26 unknown=4\n"
            "LAW strength-unit-projection Holds holds=27 unknown=3\n"
            "LAW strength-associativity Holds holds=27 unknown=3\n"
            "LAW strength-unit Holds holds=30 unknown=0\n"
            "LAW strength-multiplication Holds holds=27 unknown=3\n"
        )

    def test_a_failing_law_is_reported_with_its_counterexample(self, monkeypatch):
        import copartial.laws as laws

        def broken_bind(f, x):
            # corrupts the value after the real extension
            return laws.fmap(lambda v: v + 1, laws.bind(f, x))

        real = laws.check_kleisli_laws
        monkeypatch.setattr(laws, "check_kleisli_laws",
                            lambda *args: real(*args, bind_impl=broken_bind))
        code, out, _ = run_cli("--machine", "check-laws", "--samples", "30")
        assert code == 1
        failed = [line for line in out.splitlines() if " FAILS " in line]
        assert failed
        assert all(line.startswith("LAW kleisli-") and " FAILS counterexample=" in line
                   and not line.endswith("=None") for line in failed)


class TestDeterminism:
    def test_demos_byte_identical_across_runs(self):
        for name in ("nest", "devil91", "sloth", "factorial-fix"):
            _, first, _ = run_cli("--machine", "demo", name)
            _, second, _ = run_cli("--machine", "demo", name)
            assert first == second, name

    def test_check_laws_byte_identical(self):
        _, first, _ = run_cli("--machine", "check-laws", "--samples", "30")
        _, second, _ = run_cli("--machine", "check-laws", "--samples", "30")
        assert first == second


class TestRejectedInput:
    def test_negative_samples(self):
        code, out, err = run_cli("--machine", "check-laws", "--samples", "-5")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_negative_fuel(self):
        code, out, err = run_cli("--machine", "--fuel", "-1", "demo", "nest")
        assert (code, out, err) == (1, "", "error: fuel must be non-negative\n")

    def test_unknown_subcommand(self, capsys):
        code, out, _ = run_cli("--machine", "frobnicate")
        assert code == 1 and out == ""
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli("--help")
        assert (code, out) == (0, "")
        assert capsys.readouterr().out.startswith("usage: copartial")

    def test_nesting_too_deep(self):
        levels = MAX_NESTING + 1
        code, out, err = run_cli("--machine", "eval", "C(S; " * levels + "Z" + ")" * levels, "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


def test_eval_imports_only_what_it_runs():
    # ``-S`` keeps ``site`` from importing modules that would hide a regression.
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from copartial.cli import main\n"
        "code = main(['--machine', 'eval', 'Z', '0'])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    out, result = proc.stdout.splitlines()
    code, modules = json.loads(result)
    assert (out, code) == ("CONVERGED 0 steps=0", 0)
    unwanted = {"dataclasses", "inspect", "copartial.laws", "copartial.lazy", "copartial.nested"}
    assert unwanted.isdisjoint(modules)
    assert "copartial.reccode" in modules

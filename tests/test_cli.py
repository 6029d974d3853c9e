"""CLI behaviour: golden lines, exit codes, determinism."""

import io

from copartial.cli import main
from copartial.reccode import MAX_NESTING


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

    def test_nesting_too_deep(self):
        levels = MAX_NESTING + 1
        code, out, err = run_cli("--machine", "eval", "C(S; " * levels + "Z" + ")" * levels, "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

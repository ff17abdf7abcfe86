import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fdekit import cli, picard
from fdekit.chebfun import ChebFun
from fdekit.cli import (
    EXIT_FAILURE,
    EXIT_HYPOTHESIS,
    EXIT_INPUT,
    EXIT_OK,
    example1_doc,
    example2_doc,
    load_problem,
)
from fdekit.expr import Expr
from fdekit.problem import ProblemError


def write_json(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def report_of(out):
    return json.loads(out[out.index("{"):])


class TestLoader:
    def test_unknown_key_rejected(self):
        doc = example2_doc()
        doc["bogus"] = 1
        with pytest.raises(ProblemError, match="unknown keys"):
            load_problem(doc)

    def test_missing_key_rejected(self):
        doc = example2_doc()
        del doc["psi"]
        with pytest.raises(ProblemError, match="missing keys"):
            load_problem(doc)

    def test_empty_polynomial_rejected(self):
        doc = example2_doc()
        doc["P"] = []
        with pytest.raises(ProblemError):
            load_problem(doc)

    def test_bad_expression_rejected(self):
        doc = example2_doc()
        doc["a"] = "sin(t"
        with pytest.raises(ProblemError, match='bad expression for "a"'):
            load_problem(doc)

    def test_unknown_solver_key_rejected(self):
        doc = example2_doc()
        doc["solver"] = {"tol": 1e-12, "nope": 1}
        with pytest.raises(ProblemError, match="unknown solver keys"):
            load_problem(doc)

    def test_solver_overrides_apply(self):
        doc = example2_doc()
        doc["solver"] = {"tol": 1e-10, "max_iter": 7}
        p = load_problem(doc)
        assert p.solve_tol == 1e-10 and p.max_iter == 7


class TestCheck:
    def test_quartic_example_exit_zero(self, tmp_path, capsys):
        code, out = run(capsys, ["check", write_json(tmp_path, example2_doc())])
        assert code == EXIT_OK
        rep = report_of(out)
        theta = rep["conditions"]["theta"]
        assert 0.10204164 < theta < 0.10204165
        assert rep["conditions"]["cond2_lhs"] == pytest.approx(0.02, abs=1e-10)

    def test_cubic_example_exit_zero(self, tmp_path, capsys):
        code, _ = run(capsys, ["check", write_json(tmp_path, example1_doc())])
        assert code == EXIT_OK

    def test_d_out_of_range_exit_4(self, tmp_path, capsys):
        doc = example2_doc()
        doc["d"] = 3.0
        code = cli.main(["check", write_json(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "d outside [-1,1]" in err

    # one bad field -> the one stderr line; raw values print as given
    BAD_VALUES = {
        "k-zero": ({"k": 0}, 'error: "k" must be positive (value 0)\n'),
        "d-two": ({"d": 2}, "error: d outside [-1,1] (value 2)\n"),
        "mu-zero": ({"mu": 0}, 'error: "mu" must be a positive number\n'),
        "mu-string": ({"mu": "x"}, 'error: "mu" must be a positive number\n'),
        "P-string-entry": ({"P": ["a"]}, 'error: "P" must be a non-empty array of numbers\n'),
        "solver-number": ({"solver": 3}, 'error: "solver" must be an object\n'),
        "a-number": ({"a": 1}, 'error: "a" must be an expression string\n'),
        "tol-negative": (
            {"solver": {"tol": -1}},
            'error: solver "tol" must be a finite positive number\n',
        ),
        # integers beyond the float range keep their sign
        "k-negative-huge": ({"k": -10**400}, f'error: "k" must be positive (value {-10**400})\n'),
        "mu-negative-huge": ({"mu": -10**400}, 'error: "mu" must be a positive number\n'),
        # a pole between the Chebyshev nodes: the error names the data series
        "a-pole": (
            {"a": "2*ln(2)*2^t + 1/(t - 0.5)"},
            'error: "a": not resolved at degree 32768 (relative tail 4.695e-01)\n',
        ),
        "b-pole": (
            {"b": "(301*ln(2)/150)*2^t + 1/(t - 0.5)"},
            'error: "b + P(0) a": not resolved at degree 32768 (relative tail 4.999e-01)\n',
        ),
    }

    @pytest.mark.parametrize("change,line", BAD_VALUES.values(), ids=BAD_VALUES.keys())
    def test_bad_value_exact_message(self, tmp_path, capsys, change, line):
        code = cli.main(["check", write_json(tmp_path, {**example2_doc(), **change})])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_INPUT, "", line)

    def test_document_that_is_no_object_exit_4(self, tmp_path, capsys):
        code = cli.main(["check", write_json(tmp_path, [1, 2])])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            EXIT_INPUT, "", "error: problem file must contain a JSON object\n")

    def test_hypothesis_failure_exit_2(self, tmp_path, capsys):
        doc = {"k": 1.0, "d": 0.0, "c": 5.0, "P": [0.0, 0.0, 1.0],
               "a": "0.5", "b": "0", "psi": "t"}
        code, _ = run(capsys, ["check", write_json(tmp_path, doc)])
        assert code == EXIT_HYPOTHESIS

    def test_unreadable_file_exit_4(self, capsys):
        assert cli.main(["check", "/nonexistent/nope.json"]) == EXIT_INPUT

    def test_non_utf8_file_exit_4(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"a": "\xe9"}')
        assert cli.main(["check", str(path)]) == EXIT_INPUT
        assert "invalid JSON" in capsys.readouterr().err

    def test_report_byte_stable_modulo_timing(self, tmp_path, capsys):
        path = write_json(tmp_path, example2_doc())
        _, out1 = run(capsys, ["check", path])
        _, out2 = run(capsys, ["check", path])
        r1, r2 = report_of(out1), report_of(out2)
        r1.pop("timing")
        r2.pop("timing")
        assert json.dumps(r1) == json.dumps(r2)


class TestSolve:
    def test_quartic_example_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "sol.csv"
        code, out = run(
            capsys,
            ["solve", write_json(tmp_path, example2_doc()), "--out", str(out_csv)],
        )
        assert code == EXIT_OK
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1001
        xs = [float(r["x"]) for r in rows]
        assert xs == [-1.0 + 2.0 * i / 1000 for i in range(1001)]
        mid = rows[500]
        assert float(mid["x"]) == 0.0
        assert float(mid["u"]) == pytest.approx(0.01, abs=1e-12)
        assert max(float(r["residual"]) for r in rows) <= 1e-10
        rep = report_of(out)
        assert rep["solve"]["converged"]

    def test_cubic_example_initial_value(self, tmp_path, capsys):
        out_csv = tmp_path / "sol1.csv"
        code, _ = run(
            capsys,
            ["solve", write_json(tmp_path, example1_doc()), "--out", str(out_csv)],
        )
        assert code == EXIT_OK
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[500]["u"]) == pytest.approx(0.0, abs=1e-12)

    def test_identity_oracle_forced_residual_column(self, tmp_path, capsys):
        doc = {"k": 1.0, "d": 0.0, "c": 0.1, "P": [0.0, 0.0, 1.0],
               "a": "0.3", "b": "cos(t)", "psi": "t"}
        out_csv = tmp_path / "ode.csv"
        code, _ = run(
            capsys,
            ["solve", write_json(tmp_path, doc), "--force", "--out", str(out_csv)],
        )
        assert code == EXIT_OK
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert max(float(r["residual"]) for r in rows) <= 1e-8

    def test_condition_failure_without_force_exit_2(self, tmp_path, capsys):
        doc = {"k": 1.0, "d": 0.0, "c": 5.0, "P": [0.0, 0.0, 1.0],
               "a": "0.5", "b": "0", "psi": "t"}
        code, _ = run(capsys, ["solve", write_json(tmp_path, doc)])
        assert code == EXIT_HYPOTHESIS

    def test_nonconvergence_exit_3(self, tmp_path, capsys):
        doc = example2_doc()
        doc["solver"] = {"max_iter": 2}
        code, _ = run(capsys, ["solve", write_json(tmp_path, doc)])
        assert code == EXIT_FAILURE

    def test_tol_and_max_iter_flags(self, tmp_path, capsys):
        path = write_json(tmp_path, example2_doc())
        code, out = run(capsys, ["solve", path, "--max-iter", "2"])
        assert code == EXIT_FAILURE
        code, out = run(capsys, ["solve", path, "--tol", "1e-6"])
        assert code == EXIT_OK
        assert report_of(out)["solve"]["iterations"] < 9

    @pytest.mark.parametrize(
        "flag,value,rule",
        [("--tol", "0", '"tol" must be a finite positive number'),
         ("--tol", "nan", '"tol" must be a finite positive number'),
         ("--tol", "inf", '"tol" must be a finite positive number'),
         ("--max-iter", "0", '"max_iter" must be an integer >= 1')],
        ids=["--tol-0", "--tol-nan", "--tol-inf", "--max-iter-0"],
    )
    def test_out_of_range_flag_exit_4(self, tmp_path, capsys, flag, value, rule):
        code = cli.main(["solve", write_json(tmp_path, example2_doc()), flag, value])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == f"error: solver {rule}\n"

    def test_csv_write_failure_exit_4(self, tmp_path, capsys):
        code, _ = run(
            capsys,
            ["solve", write_json(tmp_path, example2_doc()),
             "--out", "/nonexistent/dir/x.csv"],
        )
        assert code == EXIT_INPUT

    def test_unwritable_csv_path_exits_4_before_solving(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the CSV path")

        monkeypatch.setattr(cli.picard, "solve", no_solve)
        out_csv = "/nonexistent/dir/x.csv"
        code = cli.main(["solve", write_json(tmp_path, example2_doc()), "--out", out_csv])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write CSV {out_csv!r}: ")

    def test_csv_path_check_leaves_no_file(self, tmp_path, capsys):
        # the hypotheses fail, so nothing is solved and nothing written
        doc = {"k": 1.0, "d": 0.0, "c": 5.0, "P": [0.0, 0.0, 1.0],
               "a": "0.5", "b": "0", "psi": "t"}
        out_csv = tmp_path / "never.csv"
        code, _ = run(capsys, ["solve", write_json(tmp_path, doc), "--out", str(out_csv)])
        assert code == EXIT_HYPOTHESIS
        assert not out_csv.exists()

    @pytest.mark.parametrize("change,error", [
        # psi reaches 1 + 1e-9 near x = 0.002, a CSV point but no validation point
        ({"psi": "1.000000001-(t-0.002)^2"},
         "deviating map leaves [-1, 1]: |psi| reaches 1.000000001"),
        # b is 0.01 except at the CSV point 0.5, where ln(0) cannot be evaluated
        ({"b": "0.01+0*ln(abs(t-0.5))"}, "ln of non-positive value (0) in 'ln(abs(t-0.5))'"),
    ], ids=["psi-range", "data"])
    def test_failure_at_a_csv_point_only_keeps_the_report(self, tmp_path, capsys, change, error):
        doc = {"k": 1, "d": 0, "c": 0.01, "P": [0, 0, 0.1], "a": "0.1", "b": "0.01", "psi": "t",
               **change}
        path, out_csv = write_json(tmp_path, doc), tmp_path / "x.csv"
        code, out = run(capsys, ["solve", path])
        assert code == EXIT_OK and report_of(out)["solve"]["converged"]
        code = cli.main(["solve", path, "--out", str(out_csv)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert report_of(captured.out)["solve"]["converged"]
        assert captured.err == f"error: cannot write CSV {str(out_csv)!r}: {error}\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["solve", "gevrey"])
    def test_every_forced_solve_prints_one_stable_line(self, tmp_path, capsys, command):
        doc = {"k": 1.0, "d": 0.0, "c": 0.1, "P": [0.0, 0.0, 1.0],
               "a": "0.3", "b": "cos(t)", "psi": "t"}
        path = write_json(tmp_path, doc)
        for _ in range(2):
            code = cli.main([command, path, "--force"])
            captured = capsys.readouterr()
            assert code == EXIT_OK
            assert captured.err == cli.FORCED_NOTE + "\n"
            assert report_of(captured.out)["solve"]["out_of_theorem"]
        cli.main([command, write_json(tmp_path, example2_doc()), "--force"])
        assert capsys.readouterr().err == ""  # the hypotheses hold: not forced

    # the hypotheses hold, but the third iterate's integrand needs more than
    # the 64 coefficients allowed
    ROUGH = {"k": 1.0, "d": 0.0, "c": 0.01, "P": [0.0, 0.0, 1.0], "a": "0.2",
             "b": "0.1", "psi": "sin(40*t)", "solver": {"max_degree": 64}}

    def test_unresolved_iterate_passes_check(self, tmp_path, capsys):
        code, _ = run(capsys, ["check", write_json(tmp_path, self.ROUGH)])
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", ["solve", "gevrey"])
    def test_unresolved_iterate_is_named(self, tmp_path, capsys, command):
        code = cli.main([command, write_json(tmp_path, self.ROUGH)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == (
            'error: iterate 3: "a P(f o psi) + b": '
            "not resolved at degree 64 (relative tail 2.199e-03)\n"
        )

    def test_require_ek_blocks_bad_deviation(self, tmp_path, capsys):
        # psi = t^2 maps into [0,1] but fails the stadium inclusion sampling
        # for k=1 near the right endpoint (squaring pushes points outward)
        doc = {"k": 1.0, "d": 0.0, "c": 0.01, "P": [0.0, 0.0, 0.0, 1.0],
               "a": "0.2*t", "b": "0.01", "psi": "t^2"}
        code_plain, _ = run(capsys, ["solve", write_json(tmp_path, doc)])
        assert code_plain == EXIT_OK
        code_ek, _ = run(capsys, ["solve", write_json(tmp_path, doc), "--require-ek"])
        assert code_ek == EXIT_HYPOTHESIS


class TestEk:
    def test_sine_passes(self, tmp_path, capsys):
        code, out = run(
            capsys,
            ["ek", write_json(tmp_path, example2_doc()), "--A", "0.5",
             "--pmax", "30", "--density", "64"],
        )
        assert code == EXIT_OK
        assert report_of(out)["passed"]

    def test_identity_passes(self, tmp_path, capsys):
        doc = example2_doc()
        doc["psi"] = "t"
        code, _ = run(capsys, ["ek", write_json(tmp_path, doc), "--pmax", "10"])
        assert code == EXIT_OK

    def test_double_fails(self, tmp_path, capsys):
        doc = {"k": 1.0, "d": 0.0, "c": 0.0, "P": [0.0, 0.0, 1.0],
               "a": "0.1", "b": "0.01", "psi": "2*t"}
        code, out = run(
            capsys, ["ek", write_json(tmp_path, doc), "--A", "0.5", "--pmax", "2"]
        )
        assert code == EXIT_HYPOTHESIS
        assert not report_of(out)["passed"]


    def test_pole_inside_a_stadium_fails_its_levels(self, tmp_path, capsys):
        # the pole 1.05 lies inside every stadium of radius > 0.05: those
        # levels are not evaluated and name it, and the command exits 2
        doc = {**example2_doc(), "psi": "1/(t-1.05)", "k": 0.5}
        code, out = run(capsys, ["ek", write_json(tmp_path, doc), "--density", "17"])
        assert code == EXIT_HYPOTHESIS
        rep = report_of(out)
        assert not rep["passed"] and rep["worst_ratio"] is None
        singular = [lv for lv in rep["levels"] if "singularity" in lv]
        # the levels whose radius A (p + 1)^-2 exceeds 0.05
        assert [(lv["A"], lv["p"]) for lv in singular] == [
            (A, p) for A in (0.1, 0.5, 0.9) for p in range(1, 101) if A / (p + 1) ** 2 > 0.05]
        for lv in singular:
            assert lv == {"A": lv["A"], "p": lv["p"], "worst_ratio": None, "worst_dist": None,
                          "singularity": "pole of 1/(t-1.05)"}
            # the EkLevel fields first, then the one SingularEkLevel adds
            assert list(lv) == ["A", "p", "worst_ratio", "worst_dist", "singularity"]
        assert all(set(lv) == {"A", "p", "worst_ratio", "worst_dist"}
                   for lv in rep["levels"] if lv not in singular)

    @pytest.mark.parametrize("flags", [["--A", "inf"], ["--density", "-1"]], ids=["A", "density"])
    def test_out_of_range_flag_exit_4(self, tmp_path, capsys, flags):
        code = cli.main(["ek", write_json(tmp_path, example2_doc()), *flags])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--pmax", "1000000000", "error: --pmax must be in [1, 10000]\n"),
         ("--density", "1000000000", "error: --density must be in [1, 4096]\n")],
        ids=["pmax", "density"],
    )
    def test_capped_flag_exit_4_before_loading(self, capsys, monkeypatch, flag, value, message):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"ran past the {flag} cap")

        monkeypatch.setattr(cli, "load_problem_file", forbidden)
        monkeypatch.setattr(cli.gevrey, "check_ek", forbidden)
        code = cli.main(["ek", "no-such-file.json", flag, value])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == message

    @pytest.mark.parametrize("scales", ["0.5,0.9,-1", "0.5,nan"])
    @pytest.mark.parametrize("psi", ["sin(t)", "sqrt(t+2)"])
    def test_bad_scale_exit_4_before_sampling(self, tmp_path, capsys, monkeypatch, psi, scales):
        calls = []
        monkeypatch.setattr(Expr, "eval_complex", lambda self, z: calls.append(z))
        doc = {**example2_doc(), "psi": psi}
        code = cli.main(["ek", write_json(tmp_path, doc), "--A", scales, "--pmax", "2000"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert calls == []
        assert captured.out == ""
        assert captured.err == "error: fattening scales must be positive and finite\n"

    def test_abs_map_exit_4(self, tmp_path, capsys):
        doc = {**example2_doc(), "psi": "abs(t)"}
        code = cli.main(["ek", write_json(tmp_path, doc)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: 'abs(t)': abs is not supported in complex evaluation\n"
        )


class TestGevreyCmd:
    def test_quartic_example(self, tmp_path, capsys):
        code, out = run(capsys, ["gevrey", write_json(tmp_path, example2_doc())])
        assert code == EXIT_OK
        rep = report_of(out)
        assert rep["estimate"]["classification"] in ("analytic-like", "gevrey")
        assert rep["estimate"]["slope"] is not None
        assert math.isfinite(rep["estimate"]["slope"])
        assert len(rep["derivative_norms"]["values"]) == 12  # the default --nmax

    def test_hypothesis_failure_prints_only_the_conditions(self, tmp_path, capsys):
        code, out = run(capsys, ["gevrey", write_json(tmp_path, {**example2_doc(), "c": 0.5})])
        rep = json.loads(out)
        assert code == EXIT_HYPOTHESIS
        assert list(rep) == ["conditions"] and rep["conditions"]["cond2_ok"] is False

    def test_selftest(self, capsys):
        code, out = run(capsys, ["gevrey", "--selftest"])
        assert code == EXIT_OK
        rep = report_of(out)
        assert rep["ok"]
        assert rep["selftest"]["k_hat"] == pytest.approx(1.0, abs=0.05)

    def test_unresolvable_exit_3(self, tmp_path, capsys):
        doc = example2_doc()
        doc["solver"] = {"max_iter": 2}
        code = cli.main(["gevrey", write_json(tmp_path, doc)])
        capsys.readouterr()
        assert code == EXIT_FAILURE

    def test_unconverged_solve_is_printed(self, tmp_path, capsys):
        # gevrey shows the solve it could not take derivatives of, as solve
        # itself reports it: "converged": false, exit 3, nothing on stderr
        doc = example2_doc()
        doc["solver"] = {"max_iter": 2}
        path = write_json(tmp_path, doc)
        code, out = run(capsys, ["solve", path])
        solved = report_of(out)["solve"]
        assert code == EXIT_FAILURE and solved["converged"] is False
        code = cli.main(["gevrey", path])
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_FAILURE, "")
        assert report_of(captured.out) == {"solve": solved}

    @pytest.mark.parametrize("nmax", ["0", "-3", "13"])
    def test_out_of_range_nmax_exit_4_before_solving(self, tmp_path, capsys, monkeypatch, nmax):
        def forbidden(*args, **kwargs):
            raise AssertionError("solved before checking --nmax")

        monkeypatch.setattr(cli.picard, "solve", forbidden)
        code = cli.main(["gevrey", write_json(tmp_path, example2_doc()), "--nmax", nmax])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_forced_instance_with_nmax(self, tmp_path, capsys):
        doc = {"k": 1.0, "d": 0.0, "c": 0.1, "P": [0.0, 0.0, 1.0],
               "a": "0.3", "b": "cos(t)", "psi": "t"}
        code, out = run(
            capsys,
            ["gevrey", write_json(tmp_path, doc), "--force", "--nmax", "8"],
        )
        assert code == EXIT_OK
        rep = report_of(out)
        assert len(rep["derivative_norms"]["values"]) == 8
        assert rep["solve"]["out_of_theorem"]


# the label of every line of `reproduce all`, in order: the text before its values
REPRODUCE_ALL_LABELS = [
    "PASS  example1: theta matches closed form",
    "PASS  example1: cond2 lhs matches closed form",
    "PASS  example1: lhs below reference bound",
    "PASS  example1: reference bound below gap",
    "PASS  example1: both hypotheses pass",
    "PASS  example1: solve converged",
    "PASS  example1: u(0) = 0 +- 1e-12",
    "PASS  example1: residual <= 1e-10",
    "PASS  example1: iterates inside invariant ball",
    "PASS  example1: deviating-map inclusion check passes",
    "FAIL  example2: theta in reference bracket",
    "FAIL  example2: gap in reference bracket",
    "PASS  example2: cond1 lhs = 0.375 +- 1e-12",
    "PASS  example2: cond2 lhs = 0.02 +- 1e-10",
    "PASS  example2: both hypotheses pass",
    "PASS  example2: solve converged",
    "PASS  example2: u(0) = 0.01 +- 1e-12",
    "PASS  example2: residual <= 1e-10",
    "PASS  example2: iterates inside invariant ball",
    "PASS  example2: deviating-map inclusion check passes",
    "PASS  example2: iterate continuations inside fattened value interval",
]


class TestReproduce:
    def test_cubic_example_all_green(self, capsys):
        code, out = run(capsys, ["reproduce", "example1"])
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_quartic_example_known_bracket_misprints(self, capsys):
        # the two reference brackets are inconsistent with their own
        # defining equations (see the corrected oracle in test_conditions);
        # everything else must pass and the command reports honestly
        code, out = run(capsys, ["reproduce", "example2"])
        assert code == EXIT_FAILURE
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        failing = [l for l in lines if l.startswith("FAIL")]
        assert len(failing) == 2
        assert all("bracket" in l for l in failing)
        passing = [l for l in lines if l.startswith("PASS")]
        assert len(passing) == len(lines) - 2

    def test_all_runs_one_inclusion_check_per_example(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return check_ek(*args, **kwargs)

        check_ek = cli.gevrey.check_ek
        monkeypatch.setattr(cli.gevrey, "check_ek", counted)
        run(capsys, ["reproduce", "all"])
        assert len(calls) == 2

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_ball_line_uses_the_coefficient_bound(self, capsys, monkeypatch, name):
        doc = example1_doc(**cli.EX1_PARAMS) if name == "example1" else example2_doc()
        prob = load_problem(doc)
        sol = cli.picard.solve(prob, cli.conditions.analyze(prob))
        bound = cli.picard.coeff_bound(sol.u.coeffs)
        sups = []
        sup_norm = ChebFun.sup_norm
        monkeypatch.setattr(ChebFun, "sup_norm", lambda u: sups.append(u) or sup_norm(u))
        _, out = run(capsys, ["reproduce", name])
        line = (f"PASS  {name}: iterates inside invariant ball  "
                f"[bound={bound!r} r0={sol.r0_used!r}]")
        assert line in out.splitlines()
        assert sups == []

    def test_all_aggregates_both(self, capsys):
        # every check of both examples, in order, then the summary
        code, out = run(capsys, ["reproduce", "all"])
        assert code == EXIT_FAILURE  # quartic bracket misprints dominate
        text = out[:out.index("{")].splitlines()
        assert [line.split("  [")[0] for line in text] == REPRODUCE_ALL_LABELS
        summary = report_of(out)
        assert list(summary) == ["ok", "note", "probe"]
        assert summary["ok"] is False


# Inputs that once escaped the exit-code contract as tracebacks: undefined or
# non-smooth data and out-of-range solver settings must all exit 4.
ERROR_CASES = {
    "check-ln": ("check", {"a": "0.1*ln(t+1)"}),
    "solve-ln": ("solve", {"a": "0.1*ln(t+1)"}),
    "gevrey-ln": ("gevrey", {"a": "0.1*ln(t+1)"}),
    "check-abs-a": ("check", {"a": "0.1*abs(t)"}),
    "solve-abs-psi": ("solve", {"psi": "abs(t)"}),
    "gevrey-abs-psi": ("gevrey", {"psi": "abs(t)"}),
    "solve-unresolved": (
        "solve",
        {"a": "0.2*cos(1500*t)", "psi": "sin(200*t)", "solver": {"max_degree": 1024}},
    ),
    "cheb_tol-too-large": ("check", {"solver": {"cheb_tol": 0.1}}),
    "max_iter-string": ("check", {"solver": {"max_iter": "abc"}}),
    "tol-list": ("check", {"solver": {"tol": [1]}}),
    "max_degree-too-large": ("check", {"solver": {"max_degree": 1e9}}),
    "mu-boolean": ("check", {"mu": True}),
    "mu-overflow": ("check", {"mu": math.inf}),  # as "mu": 1e400 parses
    "ek-radius-underflow": ("ek", {"k": 1e-308}),
    "ek-repeated-scale": ("ek --A 0.5,0.5", {}),
    "ek-pmax-too-large": ("ek --pmax 10001", {}),
    "ek-density-too-large": ("ek --density 4097", {}),
}


@pytest.mark.parametrize("command,change", ERROR_CASES.values(), ids=ERROR_CASES.keys())
def test_error_exits_with_message(tmp_path, capsys, command, change):
    code = cli.main([*command.split(), write_json(tmp_path, {**example2_doc(), **change})])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("error: ")
    assert "Traceback" not in err


# Data undefined on [-1, 1] or beyond the float range: exit 4 with one error
# line and no numpy warning, after FORCED_NOTE when the solve is forced.
OVERFLOW_CASES = {
    "check-a-1e308": (
        "check", {"a": "1e308"},
        'error: "a": Chebyshev coefficients overflow (largest |sample| 1.000e+308)',
    ),
    "check-psi-ln": (
        "check", {"psi": "ln(t)"},
        "error: psi evaluation failed: ln of non-positive value (-1) in 'ln(t)'",
    ),
    "check-psi-exp-overflow": (
        "check", {"psi": "exp(1000*t)"},
        "error: psi evaluation failed: non-finite value while evaluating 'exp(1000*t)'",
    ),
    "forced-c-1e308": (
        "solve --force", {"c": 1e308},
        'error: iterate 3: "a P(f o psi) + b": sampled a non-finite value',
    ),
    "forced-a-P-1e200": (
        "solve --force", {"a": "1e200", "P": [0, 1e200, 1]},
        'error: iterate 3: "a P(f o psi) + b": sampled a non-finite value',
    ),
    # the solution y = 1e290 sin(900 t)/900 resolves, its derivatives overflow
    "forced-gevrey-derivative-overflow": (
        "gevrey --force", {"c": 0.0, "P": [0.0, 1.0], "a": "0", "b": "1e290*cos(900*t)"},
        "error: non-finite coefficients",
    ),
    "forced-gevrey-derivative-overflow-1e306": (
        "gevrey --force", {"c": 0.0, "P": [0.0, 1.0], "a": "0", "b": "1e306*cos(40*t)"},
        "error: non-finite coefficients",
    ),
}


@pytest.mark.parametrize("command,change,line", OVERFLOW_CASES.values(),
                         ids=OVERFLOW_CASES.keys())
def test_overflow_ends_in_one_error_line(tmp_path, capsys, command, change, line):
    argv = command.split()
    path = write_json(tmp_path, {**example2_doc(), **change})
    code = cli.main([argv[0], path, *argv[1:]])
    note = cli.FORCED_NOTE + "\n" if "--force" in argv else ""
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == note + line + "\n"


# Command lines that argparse rejects exit 4 like any other input error.
USAGE_ERRORS = {
    "max-iter-not-int": ["solve", "{path}", "--max-iter", "abc"],
    "empty-scale-list": ["ek", "{path}", "--A", ""],
    "unknown-command": ["bogus", "{path}"],
    "gevrey-without-path": ["gevrey"],
    "gevrey-path-and-selftest": ["gevrey", "{path}", "--selftest"],
    "gevrey-selftest-and-nmax": ["gevrey", "--selftest", "--nmax", "99"],
    "gevrey-selftest-and-force": ["gevrey", "--selftest", "--force"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exits_4(tmp_path, capsys, argv):
    path = write_json(tmp_path, example2_doc())
    code = cli.main([arg.format(path=path) for arg in argv])
    assert code == EXIT_INPUT
    assert "usage: fdekit" in capsys.readouterr().err


def test_bad_scale_list_is_named(tmp_path, capsys):
    code = cli.main(["ek", write_json(tmp_path, example2_doc()), "--A", "0.1,x"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.endswith(
        "fdekit ek: error: argument --A: bad scale list '0.1,x'\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: fdekit" in capsys.readouterr().out


@pytest.mark.parametrize("read_first_line", [False, True])
def test_closed_stdout_exits_4_without_a_traceback(tmp_path, read_first_line):
    # `fdekit ek PATH --pmax 3000 | head -1`: the reader closes the pipe
    # before the ~1 MB report is written, or after its first line
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "fdekit.cli", "ek", write_json(tmp_path, example2_doc()),
            "--pmax", "3000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    if read_first_line:
        assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_INPUT
    assert err == b""


class TestParserReuse:
    def test_scale_list_does_not_leak_between_calls(self, tmp_path, capsys):
        path = write_json(tmp_path, example2_doc())
        code, out = run(capsys, ["ek", path, "--A", "0.3", "--pmax", "2"])
        assert code == EXIT_OK and report_of(out)["A_list"] == [0.3]
        code, out = run(capsys, ["ek", path, "--pmax", "2"])
        assert code == EXIT_OK and report_of(out)["A_list"] == [0.1, 0.5, 0.9]

    def test_usage_error_then_valid_call_then_help_twice(self, tmp_path, capsys):
        path = write_json(tmp_path, example2_doc())
        assert cli.main(["ek", path, "--pmax", "abc"]) == EXIT_INPUT
        assert cli.main(["check", path]) == EXIT_OK
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--help"])
            assert exc.value.code == 0
            assert "usage: fdekit" in capsys.readouterr().out

    def test_parser_built_at_most_once(self, tmp_path, capsys, monkeypatch):
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._parser.cache_clear()
        path = write_json(tmp_path, example2_doc())
        for argv in (["check", path], ["ek", path, "--pmax", "2"], ["bogus"],
                     ["gevrey", "--selftest"], ["check", path]):
            cli.main(argv)
        assert built.count("fdekit") == 1


def layout(doc):
    """The key sequence of a JSON document at every nesting level: a dict
    becomes the list of its keys, written {key: layout} where the value has
    keys of its own; a list of records becomes their one shared layout."""
    if isinstance(doc, dict):
        return [{k: sub} if (sub := layout(v)) else k for k, v in doc.items()]
    if isinstance(doc, list):
        layouts = [layout(v) for v in doc]
        assert all(lay == layouts[0] for lay in layouts)
        return layouts[0] if layouts else []
    return []


VALIDATION = ["ok", {"checks": ["name", "ok", "severity", "detail", "worst_t", "worst_value"]}]
CONDITIONS = [
    "a_l1", "cond1_lhs", "cond1_ok", "theta", "gap", "cond2_lhs", "cond2_ok",
    "r0", "r1", "q",
    {"slacks": ["cond1", "cond2_lower", "cond2_upper", "q_margin"]},
    {"brackets": ["r0_bracket", "r1_bracket"]},
    "cheb_tol", "error",
]
SOLUTION = [
    "iterations", "increments", "q_used", "r0_used", "residual_sup", "converged",
    "out_of_theorem", "n_req", "coeff_decay", "degree",
]
TIMING = {"timing": ["seconds"]}
REPORT_LAYOUTS = {
    "check": [{"validation": VALIDATION}, {"conditions": CONDITIONS}, TIMING],
    "solve": [
        {"validation": VALIDATION}, {"conditions": CONDITIONS}, {"solve": SOLUTION}, TIMING,
    ],
    "ek": [
        "psi", "k", "A_list", "p_max", "density", "passed", "worst_ratio",
        {"first_pass_p": ["0.1", "0.5", "0.9"]},
        {"levels": ["A", "p", "worst_ratio", "worst_dist"]},
    ],
    "gevrey": [
        {"solve": SOLUTION},
        {"derivative_norms": ["values", "flagged", "degree"]},
        {"estimate": [
            "norms", "flagged", "slope", "k_hat", "B", "classification", "usable_indices",
        ]},
    ],
}


@pytest.mark.parametrize("command", REPORT_LAYOUTS)
def test_report_layout(tmp_path, capsys, command):
    code, out = run(capsys, [command, write_json(tmp_path, example2_doc())])
    assert code == EXIT_OK
    assert layout(report_of(out)) == REPORT_LAYOUTS[command]


@dataclasses.dataclass
class Record:
    z: float
    hidden: list = dataclasses.field(default_factory=list, repr=False)
    a: object = None


def test_report_writer_keeps_field_order_and_drops_repr_false_fields():
    doc = json.loads(cli._dumps(Record(1.5, [1.0], {"x": (math.inf, [-math.inf, 2.0])})))
    assert list(doc) == ["z", "a"]
    assert doc == {"z": 1.5, "a": {"x": [None, [None, 2.0]]}}
    doc = json.loads(cli._dumps(Record(math.nan, a=np.float64(math.inf))))
    assert doc == {"z": None, "a": None}


@pytest.mark.parametrize(
    "x", [set(), [1.0, {"x": object()}], {"a": 1, (1, 2): 2}], ids=["set", "object", "tuple-key"])
def test_report_writer_raises_what_json_dumps_raises(x):
    with pytest.raises(TypeError) as expected:
        json.dumps(x, indent=2)
    with pytest.raises(TypeError) as raised:
        cli._dumps(x)
    assert str(raised.value) == str(expected.value)


@dataclasses.dataclass
class SubRecord(Record):
    b: object = None


Single = dataclasses.make_dataclass("Single", [("v", float)])


class Tagged(float):
    """A float whose repr is not its JSON text."""

    def __repr__(self):
        return f"Tagged({float.__repr__(self)})"

    __str__ = __repr__


def reference(x):
    """The report conversion the writer replaced, kept as its reference:
    the writer's text must equal json.dumps(reference(x), indent=2)."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: reference(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [reference(v) for v in x]
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return reference(x.item())
    if dataclasses.is_dataclass(x):
        return {f.name: reference(getattr(x, f.name)) for f in dataclasses.fields(x) if f.repr}
    return x


SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 1e-05, 1e300]
NUMPY_SCALARS = [np.float64(math.inf), np.float64(0.1), np.float32(1e-05),
                 np.int64(-2**63), np.bool_(True), np.bool_(False)]
STRINGS = ["", "caf\u00e9 \u2028 \U0001f600", '\x00\x1f\x7f "quoted" \\ \t\n']
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS), st.floats().map(Tagged))
KEYS = st.one_of(st.text(), FLOATS, st.integers(), st.booleans(), st.none())
SCALARS = st.one_of(
    FLOATS,
    st.integers(),
    st.sampled_from([10**300, -(2**1000)]),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(STRINGS),
    st.sampled_from(NUMPY_SCALARS),
)
# fields of the records the writer renders in one pass: exact ints and
# floats take it, and a Tagged float, a bool or a numpy scalar sends the list
# back to the walk
LEAVES = st.one_of(FLOATS, st.integers(), st.just(10**300), st.booleans(),
                   st.sampled_from(NUMPY_SCALARS))
NUMBERS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS), st.integers(), st.just(10**300))
ROWS = st.one_of(
    st.lists(NUMBERS, min_size=1, max_size=12),
    st.lists(LEAVES, max_size=12),
    st.lists(st.builds(Record, NUMBERS, a=NUMBERS), min_size=1, max_size=8),
    st.lists(st.builds(Record, LEAVES, a=LEAVES), max_size=8),
    st.lists(st.builds(Single, NUMBERS), min_size=1, max_size=8),
    # runs of records that a subclass record breaks, as a SingularEkLevel
    # breaks a run of EkLevels
    st.lists(st.one_of(st.builds(Record, NUMBERS, a=NUMBERS),
                       st.builds(SubRecord, NUMBERS, a=NUMBERS, b=st.one_of(NUMBERS, st.text()))),
             max_size=8),
)
VALUES = st.recursive(st.one_of(SCALARS, ROWS), lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(KEYS, inner, max_size=4),
    st.builds(Record, inner, inner, inner),
    st.builds(SubRecord, inner, inner, inner, inner),
), max_leaves=30)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(x=VALUES)
@example(x=Record(
    z=[*SPECIAL_FLOATS, Tagged(0.5), 10**300, True, None, *STRINGS, *NUMPY_SCALARS],
    hidden=Record(1.0),
    a={1.5: (), math.nan: {}, -math.inf: [], 7: Record(math.inf, [2.0], ()), True: "x",
       None: Record(-0.0, a={Tagged(2.5): 1e300}), "\u00e9": "\x01"},
))
@example(x=[Record(p / 7, a=p) for p in range(150)] + [Record(math.nan, a=-math.inf)]
          + [Record(p / 7, a=p) for p in range(151, 300)])
def test_report_writer_matches_json_dumps_of_the_converted_value(x):
    assert cli._dumps(x) == json.dumps(reference(x), indent=2)


@pytest.mark.parametrize("change,pmax", [
    ({"psi": "sin(t)"}, 100),
    ({"psi": "0.8*sin(t)", "k": 2.0}, 100),
    ({"psi": "sin(0.8*t)", "k": 0.5}, 100),
    ({"psi": "0.8*t"}, 100),
    # singular rows between regular ones
    ({"psi": "1/(t-1.05)", "k": 0.5}, 100),
    # 3,000 rows over many blocks
    ({}, 1000),
], ids=["sin", "scaled-sin", "sin-scaled", "linear", "pole", "pmax-1000"])
def test_ek_prints_the_converted_report(tmp_path, capsys, change, pmax):
    doc = {**example2_doc(), **change}
    _, out = run(capsys, ["ek", write_json(tmp_path, doc), "--pmax", str(pmax)])
    prob = load_problem(doc)
    report = cli.gevrey.check_ek(prob.psi, prob.k, cli.gevrey.DEFAULT_SCALES, pmax, density=128)
    assert out == json.dumps(reference(report), indent=2) + "\n"


def test_solve_report_is_the_solution_without_its_series(tmp_path, capsys):
    sol = picard.solve(load_problem(example2_doc()), keep_iterates=True)
    doc = json.loads(cli._dumps(sol))
    assert "u" not in doc and "iterates" not in doc
    assert doc["degree"] == sol.degree == sol.u.degree
    _, out = run(capsys, ["solve", write_json(tmp_path, example2_doc())])
    assert report_of(out)["solve"] == doc


def test_probe_summary_layout(capsys):
    _, out = run(capsys, ["reproduce", "example2"])
    assert layout(report_of(out)["probe"]) == [
        "s_requested", "s_used", "C", "r0", "k", "all_within",
        {"levels": ["n", "ratio", "worst_dist", "allowed", "points"]},
    ]

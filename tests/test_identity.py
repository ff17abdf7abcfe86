"""tools/identity.py compare: every operation that differs is listed, then
every moved report field and text line, and the exit code says whether there
was any difference.  tools/identity.py record: the fixed operations that no
workload reaches are recorded on the files they name."""

import importlib.util
import json
import os
import pathlib
import sys

from fdekit.expr import parse

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity", TOOL)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

CHECK = {"code": 0, "stderr": "", "stdout": '{\n  "ok": true,\n  "timing": {"seconds": "*"}\n}\n'}
SOLVE = {"code": 2, "stderr": "", "stdout": "{}\n"}


def write(tmp_path, name, ops):
    path = tmp_path / name
    path.write_text(json.dumps({"seed": 1, "ops": ops}))
    return str(path)


def test_identical_records_exit_0(tmp_path, capsys):
    ops = {"paper/ex1-0 check": CHECK, "paper/ex1-0 solve": SOLVE}
    a, b = write(tmp_path, "a.json", ops), write(tmp_path, "b.json", dict(ops))
    assert identity.main(["compare", a, b]) == 0
    assert capsys.readouterr().out == "0 difference(s) over 2 operations\n"


def test_every_difference_is_listed(tmp_path, capsys):
    a = write(tmp_path, "a.json", {
        "paper/ex1-0 check": CHECK,
        "paper/ex1-0 solve": SOLVE,
        "reproduce all": CHECK,
    })
    b = write(tmp_path, "b.json", {
        "paper/ex1-0 check": {**CHECK, "stdout": CHECK["stdout"].replace("true", "false")},
        "paper/ex1-0 solve": {**SOLVE, "code": 3, "stderr": "error: x\n"},
        "paper/ex1-0 gevrey": SOLVE,
    })
    assert identity.main(["compare", a, b]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "paper/ex1-0 check: stdout differs at line 2:",
        '  A: "ok": true,',
        '  B: "ok": false,',
        "paper/ex1-0 gevrey: only in B",
        "paper/ex1-0 solve: code differs (2 vs 3)",
        "paper/ex1-0 solve: stderr differs at line 1:",
        "  A: <end>",
        "  B: error: x",
        "reproduce all: only in A",
        "field ok: 1 operation(s), not numeric",
        "5 difference(s) over 4 operations",
    ]


def test_a_report_on_one_side_only_is_named(tmp_path, capsys):
    error = {"code": 4, "stderr": "error: x\n", "stdout": ""}
    a = write(tmp_path, "a.json", {"paper/ex1-0 check": error})
    b = write(tmp_path, "b.json", {"paper/ex1-0 check": CHECK})
    assert identity.main(["compare", a, b]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "field <report>: 1 operation(s), not numeric",
        "3 difference(s) over 1 operations",
    ]


def report(theta, bracket, text=""):
    doc = {"conditions": {"theta": theta, "brackets": {"r1_bracket": bracket}}, "q": 0.5}
    return {"code": 0, "stderr": "", "stdout": text + json.dumps(doc, indent=2) + "\n"}


def test_moved_fields_and_text_lines_are_summed_up(tmp_path, capsys):
    a = write(tmp_path, "a.json", {
        "paper/ex1-0 check": report(0.5, [0.5, 2.0, -0.25, 1.0]),
        "paper/ex2-0 check": report(0.25, [0.25, 4.0, -0.5, 2.0]),
        "reproduce example2": report(0.25, [0.25, 4.0, -0.5, 2.0], "PASS  x  [theta=0.25]\nPASS  y\n"),
    })
    b = write(tmp_path, "b.json", {
        "paper/ex1-0 check": report(0.5 * (1 + 2**-52), [0.5, 1.0, -0.25, 0.5]),
        "paper/ex2-0 check": report(0.25, [0.25, 4.0, -0.5, 2.0]),
        "reproduce example2": report(0.25, [0.25, 3.0, -0.5, 2.0], "PASS  x  [theta=0.25]\n"),
    })
    assert identity.main(["compare", a, b]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-6:] == [
        "field conditions.brackets.r1_bracket[]: 2 operation(s), largest relative change 0.5",
        "field conditions.theta: 1 operation(s), largest relative change 2.2e-16",
        "text line in 1 operation(s):",
        "  A: PASS  y",
        "  B: <end>",
        "2 difference(s) over 3 operations",
    ]


def test_leaves_without_a_relative_change():
    # a key in one record only, a list that changed length, a changed type
    assert identity._moved_fields({"x": 1.0, "y": [1, 2]}, {"y": [1, 2, 3]}, "") == [
        ("x", None), ("y", None)]
    assert identity._moved_fields({"x": True}, {"x": 1}, "") == [("x", None)]
    # NaN equals itself in a report; a zero that changed sign moved by 0
    assert identity._moved_fields({"x": float("nan")}, {"x": float("nan")}, "") == []
    assert identity._moved_fields({"x": 0.0}, {"x": -0.0}, "") == [("x", 0.0)]


def test_seconds_are_masked():
    class Cli:
        @staticmethod
        def main(argv):
            print('{"timing": {"seconds": 0.0123}, "x": 1.5}')
            return 0

    assert identity.run(Cli, [])["stdout"] == '{"timing": {"seconds": "*"}, "x": 1.5}\n'


def test_record_adds_the_fixed_operations(monkeypatch):
    from fdekit import cli
    from perfbench import workloads

    def fake_run(cli, argv):
        path = pathlib.Path(argv[1])  # a problem file, or a reproduce target
        doc = json.loads(path.read_text()) if path.is_file() else None
        return {"argv": [argv[0], *argv[2:]], "doc": doc}

    monkeypatch.setattr(identity, "run", fake_run)
    monkeypatch.setattr(sys, "path", list(sys.path))
    ops = identity.record(str(TOOL.parent.parent / "src"), 1)
    diag = {p["id"]: p["doc"] for p in workloads.generate("diagnostics", 1)[0]}
    assert ops["diagnostics/diag-0 solve --require-ek"] == {
        "argv": ["solve", "--require-ek"], "doc": diag["diag-0"]}
    for psi in ("sqrt(t+2)", "1/(t+3)", "ln(t+3)", "2^t"):
        doc = {**cli.example2_doc(), "psi": psi}
        assert ops[f"example2 psi={psi} ek"] == {"argv": ["ek"], "doc": doc}
        options = "--pmax 300 --density 200 --A 0.05,0.3,1.7"
        assert ops[f"example2 psi={psi} ek {options}"] == {
            "argv": ["ek", *options.split()], "doc": doc}
        assert not parse(psi).is_conjugate_exact()
    assert ops["entire solve"] == {"argv": ["solve"], "doc": identity.ENTIRE}
    assert ops["entire gevrey"] == {"argv": ["gevrey"], "doc": identity.ENTIRE}
    assert ops["escape solve --force"] == {
        "argv": ["solve", "--force"], "doc": identity.FIXED_DOCS[2][1]}
    assert ops[f"graze solve --out {os.devnull}"] == {
        "argv": ["solve", "--out", os.devnull], "doc": identity.FIXED_DOCS[3][1]}
    assert ops["power check"] == {"argv": ["check"], "doc": identity.FIXED_DOCS[4][1]}
    for i, name in [(5, "tan"), (6, "exp")]:
        assert ops[f"{name} solve --force"] == {
            "argv": ["solve", "--force"], "doc": identity.FIXED_DOCS[i][1]}
    assert ops["overflow gevrey --force"] == {
        "argv": ["gevrey", "--force"], "doc": identity.FIXED_DOCS[7][1]}
    for key, change, argv in [
        ('a="1e200" P=[0, 1e+200, 1] check', {"a": "1e200", "P": [0, 1e200, 1]}, ["check"]),
        ("P=[0, 0.1] solve --force", {"P": [0, 0.1]}, ["solve", "--force"]),
        ('a="1e308" check', {"a": "1e308"}, ["check"]),
        ("ek --A 1e-05,2.5e-07 --pmax 3", {}, ["ek", "--A", "1e-05,2.5e-07", "--pmax", "3"]),
        ("ek --density 1", {}, ["ek", "--density", "1"]),
        ("ek --density 17 --pmax 3", {}, ["ek", "--density", "17", "--pmax", "3"]),
        ("ek --density 4096 --pmax 2", {}, ["ek", "--density", "4096", "--pmax", "2"]),
        ("ek --pmax 1000", {}, ["ek", "--pmax", "1000"]),
        ("ek --density 2", {}, ["ek", "--density", "2"]),
        ("ek --density 3 --pmax 3", {}, ["ek", "--density", "3", "--pmax", "3"]),
        ('psi="0.5*cos(t)" ek', {"psi": "0.5*cos(t)"}, ["ek"]),
        ('psi="exp(t)-1" ek', {"psi": "exp(t)-1"}, ["ek"]),
        ('psi="(0*t-2)^101*t" ek', {"psi": "(0*t-2)^101*t"}, ["ek"]),
        ('psi="1/(t-1.05)" k=0.5 ek', {"psi": "1/(t-1.05)", "k": 0.5}, ["ek"]),
        ('psi="(-1)^t" ek', {"psi": "(-1)^t"}, ["ek"]),
        ('psi="1/(t-1.05)" k=0.5 ek --density 17', {"psi": "1/(t-1.05)", "k": 0.5},
         ["ek", "--density", "17"]),
        ('psi="sqrt(1.2-t)" k=0.5 ek', {"psi": "sqrt(1.2-t)", "k": 0.5}, ["ek"]),
        ('psi="sqrt((t-1.04)/(t-1.05))" k=0.5 ek', {"psi": "sqrt((t-1.04)/(t-1.05))", "k": 0.5},
         ["ek"]),
        ("k=0.005 ek", {"k": 0.005}, ["ek"]),
        ('psi="exp(800*t)" k=0.005 ek', {"psi": "exp(800*t)", "k": 0.005}, ["ek"]),
        ('psi="t^600" ek', {"psi": "t^600"}, ["ek"]),
        ('psi="0.1*t+0*ln(0*t-1)" ek', {"psi": "0.1*t+0*ln(0*t-1)"}, ["ek"]),
        ("k=0.01 ek --A 0.5,1e-300", {"k": 0.01}, ["ek", "--A", "0.5,1e-300"]),
        ('solver={"max_iter": 2} gevrey', {"solver": {"max_iter": 2}}, ["gevrey"]),
        ('b="0.01*(t+2)^0.5" check', {"b": "0.01*(t+2)^0.5"}, ["check"]),
    ]:
        assert ops[f"example2 {key}"] == {"argv": argv, "doc": {**cli.example2_doc(), **change}}
    assert ops["gevrey --selftest"] == {"argv": ["gevrey"], "doc": None}

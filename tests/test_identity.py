"""tools/identity.py compare: every operation that differs is listed, and
the exit code says whether there was any."""

import importlib.util
import json
import pathlib

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
        "5 difference(s) over 4 operations",
    ]


def test_seconds_are_masked():
    class Cli:
        @staticmethod
        def main(argv):
            print('{"timing": {"seconds": 0.0123}, "x": 1.5}')
            return 0

    assert identity.run(Cli, [])["stdout"] == '{"timing": {"seconds": "*"}, "x": 1.5}\n'


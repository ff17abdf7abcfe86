"""Record what the fdekit command line prints, and compare two recordings.

    python3 tools/identity.py record SRC OUT.json [--seed N]
    python3 tools/identity.py compare A.json B.json

``record`` imports fdekit from the source directory SRC (put first on
``sys.path``) and runs, in this one process through ``cli.main``, every
problem of ``perfbench.workloads.generate(w, N)`` for the three benchmark
workloads under ``check``, ``solve``, ``solve --force``, ``ek`` and
``gevrey``, plus ``reproduce all|example1|example2``.  A fixed list adds
what no workload reaches: ``solve --require-ek`` on problem ``diag-0`` of
``diagnostics``, ``ek`` on the built-in ``example2`` with ``psi`` set to
each map of EK_MAPS (none of them conjugate-exact, so the whole stadium
boundary is evaluated, and each but ``2^t`` with a pole or cut that every
stadium is shown free of), at the default options and at EK_OPTIONS, each
command of FIXED_DOCS on its document and of EXAMPLE2_CHANGES on
``example2`` with its entries replaced, and ``gevrey --selftest``.  Each
operation is recorded as its exit code, stderr and stdout, with every
``"seconds"`` value masked, since a report's timing is the only part
allowed to change between runs.  It reads nothing of ``perfbench/`` but the workload generator.

``compare`` lists every operation whose record differs between two files,
or is missing from one, and exits 1 if there is any; it exits 0 otherwise.
After those lines it sums up what moved in stdout: one line per moved JSON
field path (list indices collapsed to ``[]``; ``<report>`` names a report
printed on one side only) with the number of operations and the largest
relative change, then each moved text line (the ``PASS`` and
``FAIL`` lines of ``reproduce``) with the number of operations.  Recording
the parent and the changed source on the same seeds shows whether a change
kept every report byte-identical, and which fields it moved if not.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = (["check"], ["solve"], ["solve", "--force"], ["ek"], ["gevrey"])
REPRODUCE = ("all", "example1", "example2")
EK_MAPS = ("sqrt(t+2)", "1/(t+3)", "ln(t+3)", "2^t")
EK_OPTIONS = ["--pmax", "300", "--density", "200", "--A", "0.05,0.3,1.7"]
# report shapes and errors no workload reaches, as (name, document, command)
FIXED_DOCS = (
    # a solution resolved as a polynomial of degree 6: "coeff_decay": null
    ("entire", {"k": 1, "d": 0, "c": 0.01, "P": [0, 0, 0.1], "a": "0.1", "b": "0.01",
                "psi": "t"}, ["solve"]),
    # a forced iterate that leaves the ball: exit 3 with "solve": {"error"}
    ("escape", {"k": 1, "d": 0, "c": 1, "P": [0, 0, 4], "a": "1", "b": "0", "psi": "t"},
     ["solve", "--force"]),
    # psi leaves [-1, 1] at a CSV point only: the report, then an error, exit 4
    ("graze", {"k": 1, "d": 0, "c": 0.01, "P": [0, 0, 0.1], "a": "0.1", "b": "0.01",
               "psi": "1.000000001-(t-0.002)^2"}, ["solve", "--out", os.devnull]),
    # a large integer-literal exponent at negative t: an integer power, a report
    ("power", {"k": 1, "d": 0, "c": 0.01, "P": [0, 0, 0.1], "a": "0.1*t^600", "b": "0.01",
               "psi": "t"}, ["check"]),
)
# (entries replaced in example2, command): an overflowing first hypothesis
# ("cond1_lhs": null), a failing warning under "validation": {"ok": true},
# data whose Chebyshev coefficients overflow (exit 4), scales whose
# "first_pass_p" keys print in exponent form, the smallest density, an odd
# one, one whose level is larger than an ek block, an entire psi whose
# power is not evaluated exactly under conjugation, a psi with a pole 0.05
# from [-1, 1] (also at density 17), one that moves with the branch of
# (-1)^t, one whose branch cut starts 0.2 from [-1, 1], one with a zero
# 0.04 and a pole 0.05 from it under a cut, a radius that first
# underflows at level 41, in the second block: sin(t) ends with the radius
# error, while exp(800*t) overflows in the first block before it, and a psi
# with a large integer-literal exponent
EXAMPLE2_CHANGES = (
    ({"a": "1e200", "P": [0, 1e200, 1]}, ["check"]),
    ({"P": [0, 0.1]}, ["solve", "--force"]),
    ({"a": "1e308"}, ["check"]),
    ({}, ["ek", "--A", "1e-05,2.5e-07", "--pmax", "3"]),
    ({}, ["ek", "--density", "1"]),
    ({}, ["ek", "--density", "17", "--pmax", "3"]),
    ({}, ["ek", "--density", "4096", "--pmax", "2"]),
    ({"psi": "(0*t-2)^101*t"}, ["ek"]),
    ({"psi": "1/(t-1.05)", "k": 0.5}, ["ek"]),
    ({"psi": "(-1)^t"}, ["ek"]),
    ({"psi": "1/(t-1.05)", "k": 0.5}, ["ek", "--density", "17"]),
    ({"psi": "sqrt(1.2-t)", "k": 0.5}, ["ek"]),
    ({"psi": "sqrt((t-1.04)/(t-1.05))", "k": 0.5}, ["ek"]),
    ({"k": 0.005}, ["ek"]),
    ({"psi": "exp(800*t)", "k": 0.005}, ["ek"]),
    ({"psi": "t^600"}, ["ek"]),
)
_SECONDS = re.compile(r'("seconds": )[^,}\n]+')
_ABSENT = object()  # a key missing from one of two compared JSON objects


def run(cli, argv):
    """{code, stderr, stdout} of one cli.main call, "seconds" masked; an
    exception that escapes main is recorded in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    return {"code": code, "stderr": err.getvalue(),
            "stdout": _SECONDS.sub(r'\1"*"', out.getvalue())}


def record(src, seed):
    """Every operation's record, keyed "workload/problem command"."""
    sys.path[:0] = [os.path.abspath(src), ROOT]
    import fdekit.cli as cli
    from perfbench import workloads

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"fdekit imported from {cli.__file__}, not from {src}")
    ops = {}
    with tempfile.TemporaryDirectory() as tmp:

        def write(name, doc):
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            return path

        for w in workloads.WORKLOADS:
            for prob in workloads.generate(w, seed)[0]:
                path = write(f"{w}-{prob['id']}", prob["doc"])
                for cmd in COMMANDS:
                    ops[f"{w}/{prob['id']} {' '.join(cmd)}"] = run(cli, [cmd[0], path, *cmd[1:]])
        path = os.path.join(tmp, "diagnostics-diag-0.json")
        ops["diagnostics/diag-0 solve --require-ek"] = run(cli, ["solve", path, "--require-ek"])
        for i, psi in enumerate(EK_MAPS):
            path = write(f"psi-{i}", {**cli.example2_doc(), "psi": psi})
            ops[f"example2 psi={psi} ek"] = run(cli, ["ek", path])
            ops[f"example2 psi={psi} ek {' '.join(EK_OPTIONS)}"] = run(cli, ["ek", path, *EK_OPTIONS])
        for name, doc, cmd in FIXED_DOCS:
            ops[f"{name} {' '.join(cmd)}"] = run(cli, [cmd[0], write(name, doc), *cmd[1:]])
        for i, (change, cmd) in enumerate(EXAMPLE2_CHANGES):
            path = write(f"example2-{i}", {**cli.example2_doc(), **change})
            entries = [f"{k}={json.dumps(v)}" for k, v in change.items()]
            ops[" ".join(["example2", *entries, *cmd])] = run(cli, [cmd[0], path, *cmd[1:]])
    ops["gevrey --selftest"] = run(cli, ["gevrey", "--selftest"])
    for which in REPRODUCE:
        ops[f"reproduce {which}"] = run(cli, ["reproduce", which])
    return ops


def compare(a, b):
    """Lines naming each operation that differs between records a and b."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            lines.append(f"{key}: only in {'A' if key in a else 'B'}")
            continue
        for part in ("code", "stderr", "stdout"):
            if a[key][part] != b[key][part]:
                where = _first_difference(a[key][part], b[key][part])
                lines.append(f"{key}: {part} differs{where}")
    return lines


def moved(a, b):
    """Lines summing up the stdout of operations present in both records:
    each moved JSON field path and each moved text line, with the number of
    operations it moved in."""
    fields, texts = {}, {}
    for key in sorted(a.keys() & b.keys()):
        (text_a, doc_a), (text_b, doc_b) = _split(a[key]["stdout"]), _split(b[key]["stdout"])
        for path, rel in _moved_fields(doc_a, doc_b, ""):
            ops, rels = fields.setdefault(path, (set(), []))
            ops.add(key)
            rels.append(rel)
        for pair in itertools.zip_longest(text_a, text_b, fillvalue="<end>"):
            if pair[0] != pair[1]:
                texts.setdefault(pair, set()).add(key)
    lines = []
    for path, (ops, rels) in sorted(fields.items()):
        change = "not numeric" if None in rels else f"largest relative change {max(rels):.2g}"
        # a report on one side only moved as a whole, at the empty path
        lines.append(f"field {path or '<report>'}: {len(ops)} operation(s), {change}")
    for (x, y), ops in sorted(texts.items()):
        lines.append(f"text line in {len(ops)} operation(s):\n  A: {x}\n  B: {y}")
    return lines


def _split(stdout):
    """(text lines, JSON document or None): the lines before the first line
    that opens a JSON object, and that object."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("{"):
            try:
                return lines[:i], json.loads("\n".join(lines[i:]))
            except ValueError:
                break
    return lines, None


def _moved_fields(x, y, path):
    """(path, relative change, or None if not numeric) of every leaf where
    the JSON values x and y differ, list indices collapsed to []."""
    if isinstance(x, dict) and isinstance(y, dict):
        return [m for k in sorted(x.keys() | y.keys())
                for m in _moved_fields(x.get(k, _ABSENT), y.get(k, _ABSENT),
                                       f"{path}.{k}" if path else k)]
    if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        return [m for u, v in zip(x, y) for m in _moved_fields(u, v, path + "[]")]
    if x is _ABSENT or y is _ABSENT:
        return [(path, None)]
    if json.dumps(x) == json.dumps(y):
        return []
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
    if numbers and math.isfinite(x) and math.isfinite(y):
        # both are zero only when a zero changed sign, a change of 0
        return [(path, abs(x - y) / (max(abs(x), abs(y)) or 1.0))]
    return [(path, None)]


def _first_difference(x, y):
    if not isinstance(x, str) or not isinstance(y, str):
        return f" ({x!r} vs {y!r})"
    xs, ys = x.splitlines(), y.splitlines()
    i = next((i for i, (p, q) in enumerate(zip(xs, ys)) if p != q), min(len(xs), len(ys)))
    p, q = (xs[i] if i < len(xs) else "<end>"), (ys[i] if i < len(ys) else "<end>")
    return f" at line {i + 1}:\n  A: {p.strip()}\n  B: {q.strip()}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_rec = sub.add_parser("record", help="run every operation and save its output")
    p_rec.add_argument("src", help="source directory holding the fdekit package")
    p_rec.add_argument("out", help="record file to write (JSON)")
    p_rec.add_argument("--seed", type=int, default=1)
    p_cmp = sub.add_parser("compare", help="list the operations two records differ in")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args(argv)

    if args.mode == "record":
        ops = record(args.src, args.seed)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "ops": ops}, fh, indent=1)
        print(f"{len(ops)} operations recorded in {args.out}")
        return 0
    docs = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh)["ops"])
    lines = compare(*docs)
    for line in lines + moved(*docs):
        print(line)
    print(f"{len(lines)} difference(s) over {len(docs[0].keys() | docs[1].keys())} operations")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

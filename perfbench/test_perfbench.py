"""Tests of the benchmark itself: seeding, the correctness oracle, tracing.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import expectations  # noqa: E402

import fdekit.chebfun as chebfun  # noqa: E402
import fdekit.cli as cli  # noqa: E402
import fdekit.conditions as conditions  # noqa: E402


def _mix(problems, ops):
    fams = sorted((p["spec"]["family"], p["expect_ok"]) for p in problems)
    return fams, sorted(cmd for cmd, _ in ops)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    other = workloads.generate(workload, 8)
    assert [p["doc"] for p in other[0]] != [p["doc"] for p in workloads.generate(workload, 7)[0]]
    assert _mix(*other) == _mix(*workloads.generate(workload, 7))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_confirms_built_in_verdicts(workload):
    problems, _ = workloads.generate(workload, 3)
    verdicts = [expectations(p)["ok"] for p in problems]
    assert verdicts == [p["expect_ok"] for p in problems]
    assert any(verdicts)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def example1_variant(tmp_path_factory):
    problems, _ = workloads.generate("paper", 1)
    prob = next(p for p in problems if p["spec"]["family"] == "example1" and p["expect_ok"])
    path = tmp_path_factory.mktemp("problems") / "p.json"
    path.write_text(json.dumps(prob["doc"]))
    return str(path), expectations(prob)


def _perturbed(stdout, edit):
    doc = json.loads(stdout)
    edit(doc)
    return json.dumps(doc)


def test_check_report_accepted_and_perturbations_rejected(example1_variant):
    path, expect = example1_variant
    code, out = _run_cli(["check", path])
    assert checks.check_output("check", code, out, expect) is None
    assert checks.check_output("check", 2, out, expect) is not None

    def scale(key, factor):
        return lambda d: d["conditions"].__setitem__(key, d["conditions"][key] * factor)

    for key in ("a_l1", "cond2_lhs", "theta"):
        bad = _perturbed(out, scale(key, 1.0 + 1e-8))
        assert "differs" in checks.check_output("check", code, bad, expect)


def test_solve_report_accepted_and_perturbations_rejected(example1_variant):
    path, expect = example1_variant
    code, out = _run_cli(["solve", path])
    assert checks.check_output("solve", code, out, expect) is None
    bad = _perturbed(out, lambda d: d["solve"].__setitem__("residual_sup", 1e-9))
    assert "residual" in checks.check_output("solve", code, bad, expect)
    bad = _perturbed(out, lambda d: d["solve"].__setitem__("converged", False))
    assert "converge" in checks.check_output("solve", code, bad, expect)
    assert checks.check_output("solve", code, "not json", expect).startswith("malformed")


def test_ek_report_accepted_and_perturbations_rejected(example1_variant):
    path, expect = example1_variant
    code, out = _run_cli(["ek", path])
    assert checks.check_output("ek", code, out, expect) is None
    flipped = _perturbed(out, lambda d: d.__setitem__("passed", not d["passed"]))
    assert checks.check_output("ek", code, flipped, expect) is not None
    assert checks.check_output("ek", 2 if code == 0 else 0, out, expect) is not None


def test_reproduce_known_red_only():
    code, out = _run_cli(["reproduce", "all"])
    assert checks.check_output("reproduce", code, out, None) is None
    assert checks.check_output("reproduce", 0, out, None) is not None
    hidden = out.replace("FAIL  example2: gap", "PASS  example2: gap")
    assert "known red" in checks.check_output("reproduce", code, hidden, None)
    extra = out.replace("PASS  example1: solve converged", "FAIL  example1: solve converged")
    assert "known red" in checks.check_output("reproduce", code, extra, None)


def _without_timing(text):
    doc = json.loads(text)
    doc.pop("timing", None)
    return doc


def test_wrappers_are_transparent_and_removable(example1_variant):
    path, _ = example1_variant
    originals = (chebfun.build, conditions.build, chebfun.ChebFun.sup_norm, cli.main)
    plain = {cmd: _run_cli([cmd, path]) for cmd in ("check", "solve", "ek", "gevrey")}
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert conditions.build is chebfun.build is not originals[0]
        for cmd, (code, out) in plain.items():
            traced_code, traced_out = _run_cli([cmd, path])
            assert traced_code == code
            assert _without_timing(traced_out) == _without_timing(out)
        with pytest.raises(chebfun.ResolutionError, match="non-finite"):
            chebfun.build(lambda t: t * math.nan)
        assert tracer.spans[-1][3] == "chebfun.build" and tracer.spans[-1][6]["failed"] == 1
        names = {span[3] for span in tracer.spans}
        assert {"cli.main", "picard.apply_T", "chebfun.sup_norm", "gevrey.stadium_sample"} <= names
        metrics = tracing.layer_metrics(tracer.spans, 1, 0.0)
        assert metrics["picard.iterations"]["value"] > 0
        assert 0.0 < metrics["chebfun.build.useful_ratio"]["value"] <= 1.0
    finally:
        uninstall()
    assert (chebfun.build, conditions.build, chebfun.ChebFun.sup_norm, cli.main) == originals


def test_benchmark_json_names_match_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

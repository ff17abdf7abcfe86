"""fdekit benchmark: CLI latency end to end, per-layer time from a traced run.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/fdekit``.  The launcher
generates the workload's problems from the seed (``workloads.py``), computes
reference values untimed (``oracle.py``), times set-up in several fresh
processes, and starts one measured process (``worker.py``) that calls
``fdekit.cli.main`` in a closed loop with one caller and checks every
operation's output (``checks.py``).  With ``--trace 1`` the measured process
also runs the same passes under span tracing (``tracing.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the bounded end-to-end metrics (``GATED``) with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds the full record of the run: provenance, sample counts, tail
percentiles and every end-to-end metric, medians, throughput and
``failed_share`` included.  The same record, with the time of every
operation, is written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 3  # fresh processes timing set-up before and after the measured one
WORKER_TIMEOUT = 130.0
PROBE_TIMEOUT = 6.0  # six probes plus the worker stay under three minutes
END_TO_END_UNITS = {"setup_s": "s", "reproduce_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
for _cmd in ("check", "solve", "ek", "gevrey"):
    END_TO_END_UNITS[f"{_cmd}_s.p50"] = END_TO_END_UNITS[f"{_cmd}_s.tail"] = "s"
# The metrics on the result line, which BENCHMARK.json bounds.  The machine
# this was tuned on switches between a fast and a slow speed for seconds to
# minutes at a time, so medians and throughput move with the share of a run
# spent fast (quartile spread up to a third of the median over ten runs);
# the tails sit on the slow speed and repeat within about a tenth.  The
# other metrics stay in the full record.
GATED = ("setup_s", "check_s.tail", "solve_s.tail", "ek_s.tail", "gevrey_s.tail", "peak_rss_mb")


def _cap_threads(nproc):
    """Cap BLAS/OpenMP thread variables at nproc for this process and its children."""
    for var in THREAD_VARS:
        val = os.environ.get(var, "")
        if not val.isdigit() or not 1 <= int(val) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def _provenance(seed, threads, nproc):
    import numpy
    import scipy

    commit = None  # not a git checkout; the source digest identifies the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "fdekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu_model": cpu or platform.processor() or None,
        "seed": seed,
        "thread_vars": threads,
    }


def _percentile(values, p):
    import numpy

    return float(numpy.percentile(values, p))


def _worker(plan_path, target, timeout=WORKER_TIMEOUT):
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(target)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, check=True)


def _setup_probe(plan_path):
    return json.loads(_worker(plan_path, "--setup-only", PROBE_TIMEOUT).stdout)["setup_s"]


def _end_to_end(workload, res, setup_samples):
    from workloads import TAIL

    times = {}
    for cmd, seconds, _ in res["records"]:
        times.setdefault(cmd, []).append(seconds)
    metrics = {"setup_s": statistics.median(setup_samples)}
    tails = {}
    for cmd, p in TAIL[workload].items():
        metrics[f"{cmd}_s.p50"] = _percentile(times[cmd], 50)
        metrics[f"{cmd}_s.tail"] = _percentile(times[cmd], p)
        tails[cmd] = {"percentile": p, "samples": len(times[cmd])}
    metrics["reproduce_s.p50"] = _percentile(times["reproduce"], 50)
    metrics["ops_per_s"] = len(res["records"]) / sum(r[1] for r in res["records"])
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    tails["reproduce"] = {"percentile": None, "samples": len(times["reproduce"])}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, tails


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fdekit" / "cli.py").is_file():
        print(f"error: no fdekit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = _cap_threads(nproc)  # before numpy or scipy is imported
    sys.path.insert(0, str(HERE))
    from oracle import expectations
    from workloads import WORKLOADS, generate, min_passes

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{label}-{os.getpid()}"
    (work / "problems").mkdir(parents=True)
    try:
        problems, ops = generate(args.workload, args.seed)
        paths = {}
        for prob in problems:
            paths[prob["id"]] = str(work / "problems" / f"{prob['id']}.json")
            with open(paths[prob["id"]], "w", encoding="utf-8") as fh:
                json.dump(prob["doc"], fh)
        plan = {
            "src": str(SRC),
            "paths": paths,
            "expect": {prob["id"]: expectations(prob) for prob in problems},
            "ops": ops,
            "seconds": args.seconds,
            "trace": args.trace,
            "min_passes": min_passes(args.workload, ops),
            "spans_out": str(OUT / f"spans-{label}.jsonl"),
        }
        plan_path = work / "plan.json"
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)

        probes = SETUP_PROBES if not args.trace else 0
        setup_samples = [_setup_probe(plan_path) for _ in range(probes)]
        _worker(plan_path, work / "result.json")
        setup_samples += [_setup_probe(plan_path) for _ in range(probes)]
        with open(work / "result.json", encoding="utf-8") as fh:
            res = json.load(fh)
        setup_samples.append(res["setup_s"])
    except subprocess.CalledProcessError as exc:
        print(f"error: measured process failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = res["records"]
    failures = [r for r in records if r[2] is not None]
    for cmd, _, reason in failures[:10]:
        print(f"FAILED {cmd}: {reason}", file=sys.stderr)
    counts = dict(Counter(r[0] for r in records))
    if args.trace:
        metrics, tails = res["layers"], None
    else:
        metrics, tails = _end_to_end(args.workload, res, setup_samples)
        metrics = dict(metrics, failed_share={"value": len(failures) / len(records), "unit": "ratio"})
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": _provenance(args.seed, threads, nproc),
        "passes": res["passes"],
        "op_counts": counts,
        "tail": tails,
        "setup_samples": setup_samples,
        "metrics": metrics,
    }
    with open(OUT / f"result-{label}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(record, records=records), fh)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics if args.trace else {k: metrics[k] for k in GATED},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The measured process: one closed-loop caller of ``fdekit.cli.main``.

    python3 worker.py PLAN.json RESULT.json      # measured run
    python3 worker.py PLAN.json --setup-only     # print the set-up time only

Set-up is timed from just before ``import fdekit.cli`` to the end of loading
every problem document.  The measured loop then runs the plan's pass of
operations again and again, in process, with stdout and stderr captured,
until ``seconds`` have passed and at least ``min_passes`` passes ran.  Each
operation is timed around ``cli.main`` and its output checked (untimed) with
``checks.check_output``.

With ``trace`` set, untraced and traced passes alternate for ``seconds``;
the per-layer metrics come from the traced passes, and the overhead of
tracing from comparing the two kinds.
"""

import contextlib
import io
import json
import resource
import sys
from time import perf_counter


def run_op(cli, cmd, path, expect, checks):
    """(seconds, failure reason or None) of one CLI operation."""
    argv = ["reproduce", "all"] if cmd == "reproduce" else [cmd, path]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation, not a crash
            return perf_counter() - t0, f"{cmd} raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    return seconds, checks.check_output(cmd, code, out.getvalue(), expect)


def main(argv):
    plan_path, target = argv[1], argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])

    t0 = perf_counter()
    import fdekit.cli as cli

    for path in plan["paths"].values():
        cli.load_problem_file(path)
    setup_s = perf_counter() - t0
    if target == "--setup-only":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks

    ops = [(cmd, plan["paths"].get(pid), plan["expect"].get(pid)) for cmd, pid in plan["ops"]]
    for cmd in dict.fromkeys(op[0] for op in ops):  # warm-up: first op of each command
        run_op(cli, *next(op for op in ops if op[0] == cmd), checks)

    records = []  # [command, seconds, failure reason or None]
    tracer = None

    def run_pass():
        """Run the pass once; returns its summed operation time."""
        first = len(records)
        for cmd, path, expect in ops:
            if tracer is not None:
                tracer.op = len(records)
            records.append([cmd, *run_op(cli, cmd, path, expect, checks)])
        return sum(r[1] for r in records[first:])

    result = {"setup_s": setup_s, "passes": 0}
    start = perf_counter()
    if not plan["trace"]:
        while result["passes"] < plan["min_passes"] or perf_counter() - start < plan["seconds"]:
            run_pass()
            result["passes"] += 1
    else:
        import tracing

        tracer = tracing.Tracer()
        untraced = traced = 0.0
        while result["passes"] == 0 or perf_counter() - start < plan["seconds"]:
            untraced += run_pass()
            uninstall = tracing.install(tracer)
            traced += run_pass()
            uninstall()
            result["passes"] += 1
        result["layers"] = tracing.layer_metrics(
            tracer.spans, result["passes"], traced / untraced - 1.0
        )
        tracing.write_spans(tracer.spans, plan["spans_out"])

    result["records"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

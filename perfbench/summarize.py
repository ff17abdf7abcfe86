"""Collect benchmark results into one BENCH file of the perf trajectory.

    python3 perfbench/summarize.py OUT.json .perfbench/result-*-trace0.json

Each input is a result record that ``run.py`` writes under ``.perfbench/``.
The output holds, per workload and metric, every run's value with the
median and quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, plus the provenance of each run without its
per-operation records.
"""

import json
import statistics
import sys


def summarize(records):
    out = {}
    for rec in records:
        wl = out.setdefault(rec["workload"], {"runs": [], "metrics": {}})
        wl["runs"].append({k: v for k, v in rec.items() if k not in ("records", "metrics")})
        for name, m in rec["metrics"].items():
            wl["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for wl in out.values():
        for m in wl["metrics"].values():
            vals = m["values"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            m.update(median=med, q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main(argv):
    records = []
    for path in argv[2:]:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(summarize(records), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

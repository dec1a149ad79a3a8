#!/usr/bin/env python3
"""Steadiness and comparison helper for the repository benchmark.

Collect a result set (one run.py call per workload and seed; JSON lines):

    python3 perfbench/compare.py collect SET.jsonl --seeds 1-10 [--workloads W ...] [--trace 1]

Spread of one set, per (workload, metric): median, quartiles and the
inter-quartile distance as a share of the median, judged against a third
of the metric's bound in BENCHMARK.json ("steady") or the bound itself:

    python3 perfbench/compare.py spread SET.jsonl

Compare two sets of the same benchmark, per (workload, end-to-end metric):
B is flagged REGRESSED when its median is worse than A's by more than the
metric's bound, and "unresolved" when either set's spread is wider than
the bound (unless every B run beats every A run):

    python3 perfbench/compare.py compare A.jsonl B.jsonl

A run that fails its correctness gate is recorded without metrics and
reported by seed. Quartiles are statistics.quantiles(values, n=4). Exit
status: 0, or 1 when collect saw a failed run, when spread finds a failed
run or a metric wider than its bound (setup_s excepted, as its spread is
not bounded), or when compare flags a regression or a failed run in B.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    spec, _ = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    failed_runs = 0
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                lines = proc.stdout.splitlines()
                try:
                    result = json.loads(lines[-1]) if lines else None
                except ValueError:
                    result = None
                ok = proc.returncode == 0 and bool(result) and result["correct"]
                if not result:
                    result = {"correct": False, "attempted": 0, "failed": 0,
                              "metrics": {}}
                # A failed run is recorded (no metrics) and counted, so that
                # spread and compare report it; collect then exits 1.
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace, "result": result}) + "\n")
                out.flush()
                failed_runs += not ok
                print("%s seed %d %s" % (workload, seed, "done" if ok else "FAILED"),
                      file=sys.stderr)
    return 1 if failed_runs else 0


def load_set(path):
    """({(workload, metric): [values in file order]}, {workload: [failed seeds]})"""
    values, failed = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if not rec["result"]["correct"]:
                failed.setdefault(rec["workload"], []).append(rec["seed"])
            for name, m in rec["result"]["metrics"].items():
                values.setdefault((rec["workload"], name), []).append(m["value"])
    return values, failed


def report_failed(label, failed):
    for workload, seeds in sorted(failed.items()):
        print("%s%-16s FAILED the correctness gate on seeds %s" %
              (label, workload, ",".join(map(str, seeds))))


def summary(vals):
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def spread(args):
    _, metrics = load_spec()
    values, failed = load_set(args.set)
    report_failed("", failed)
    wide = bool(failed)
    print("%-16s %-32s %4s %12s %12s %12s %8s %6s  %s" %
          ("workload", "metric", "n", "median", "q1", "q3", "spread", "bound", "verdict"))
    for (workload, name), vals in sorted(values.items()):
        med, q1, q3, sp = summary(vals)
        bound = metrics.get(name, {}).get("bound")
        if bound is None:
            verdict = "-"
        elif sp < bound / 3:
            verdict = "steady"
        elif sp <= bound:
            verdict = "within bound"
        else:
            verdict = "WIDE" if name != "setup_s" else "wide (not bounded)"
            wide = wide or name != "setup_s"
        print("%-16s %-32s %4d %12.6g %12.6g %12.6g %8.4f %6s  %s" %
              (workload, name, len(vals), med, q1, q3, sp,
               "-" if bound is None else bound, verdict))
    return 1 if wide else 0


def compare(args):
    spec, metrics = load_spec()
    (a, failed_a), (b, failed_b) = load_set(args.a), load_set(args.b)
    report_failed("A: ", failed_a)
    report_failed("B: ", failed_b)
    regressed = bool(failed_b)
    print("%-16s %-18s %12s %12s %12s %12s %8s %6s  %s" %
          ("workload", "metric", "median A", "IQR A", "median B", "IQR B",
           "worse", "bound", "verdict"))
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        for workload in sorted({w for (w, n) in a if n == name}):
            va, vb = a.get((workload, name)), b.get((workload, name))
            if not vb:
                print("%-16s %-18s missing in B" % (workload, name))
                regressed = True
                continue
            ma, qa1, qa3, sa = summary(va)
            mb, qb1, qb3, sb = summary(vb)
            worse = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
            all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            if worse > bound:
                verdict = "REGRESSED"
                regressed = True
            elif max(sa, sb) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("%-16s %-18s %12.6g %12s %12.6g %12s %+8.4f %6s  %s" %
                  (workload, name, ma, "%.3g-%.3g" % (qa1, qa3), mb,
                   "%.3g-%.3g" % (qb1, qb3), worse, bound, verdict))
    return 1 if regressed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", nargs="*")
    c.add_argument("--seconds", type=float)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("spread")
    s.add_argument("set")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = ap.parse_args()
    if args.cmd == "collect":
        return collect(args)
    return spread(args) if args.cmd == "spread" else compare(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (the wfd library from src/ plus the two drivers) into
.bench_build/; later calls rebuild incrementally. Build output is shown
(on stderr) only when the build fails, so the last line of stdout is
always the driver's JSON result.

--trace 0 runs the plain driver and prints the end-to-end metrics.
--trace 1 runs the plain driver for half of --seconds to get an untraced
ops_per_s, then the traced driver for the other half; it prints the
per-layer metrics, including trace.overhead_frac against that ops_per_s,
and writes the traced run's spans to .bench_build/spans/<workload>.tsv.
Both drivers must report the same run digest.

--corrupt hands the checkers a deliberately broken input; the run must
then fail (exit 1, "correct": false, no metrics).
"""
import argparse
import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("kv-write-s1", "kv-read-s8-zipf-nofault", "kv-read-s8-zipf",
             "ec-lossy-n64")
# Generous per-driver limit; a run of --seconds S normally takes S + ~3 s.
DRIVER_TIMEOUT_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: run from the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))


def drive(binary, args):
    """Runs one driver; returns (exit code, stdout lines, parsed result)."""
    cmd = [os.path.join(BUILD_DIR, binary)] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(binary + " timed out")
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def digest_of(lines):
    for line in lines:
        m = re.match(r"workload \S+ seed \d+ reps \d+ digest ([0-9a-f]+)$", line)
        if m:
            return m.group(1)
    return None


def printed_metric(lines, name):
    """The value of a metric printed as "metric <name> <value> <unit>"."""
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[:2] == ["metric", name]:
            return fields[2]
    fail("the plain run printed no " + name)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true")
    opts = ap.parse_args()

    build()
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]
    if opts.corrupt:
        common.append("--corrupt")

    if opts.trace == 0:
        code, lines, result = drive("perfbench_plain",
                                    common + ["--seconds", str(opts.seconds)])
        print("\n".join(lines))
        if code != 0 or result is None or not result.get("correct"):
            sys.exit(code or 1)
        return

    half = str(opts.seconds / 2)
    code, lines, untraced = drive("perfbench_plain", common + ["--seconds", half])
    if code != 0 or untraced is None or not untraced.get("correct"):
        print("\n".join(lines))
        sys.exit(code or 1)
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    code, traced_lines, result = drive(
        "perfbench_traced",
        common + ["--seconds", half,
                  "--untraced-ops-per-s", printed_metric(lines, "ops_per_s"),
                  "--spans-out", os.path.join(spans_dir, opts.workload + ".tsv")])
    if code == 0 and digest_of(lines) != digest_of(traced_lines):
        print("perfbench: traced run digest differs from the plain run's",
              file=sys.stderr)
        print("\n".join(traced_lines[:-1]))
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        sys.exit(1)
    print("\n".join(traced_lines))
    if code != 0 or result is None or not result.get("correct"):
        sys.exit(code or 1)


if __name__ == "__main__":
    main()

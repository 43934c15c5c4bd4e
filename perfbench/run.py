#!/usr/bin/env python3
"""Build the perfbench binary from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload <tune_paper|solve_large|serve_mixed>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
perfbench/ (which compiles ../src unchanged) into .bench_build/perfbench;
later runs only check that the build is current.  Build output goes to
standard error.  The last line of standard output is the workload's JSON
result; with --trace 1 it holds every per-layer metric of BENCHMARK.json
(0 for layers the workload does not run) and a Chrome trace is written to
perfbench/out/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("tune_paper", "solve_large", "serve_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def has_sources():
    src = os.path.join(ROOT, "src")
    for _, _, files in os.walk(src):
        if any(f.endswith(".cpp") for f in files):
            return True
    return False


def build():
    if not has_sources():
        fail("no library sources under %s; run from a checkout" % ROOT)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s exited with %d" % (cmd[:2], done.returncode))


def run(args):
    env = dict(os.environ)
    # One OpenMP thread by default: the service's worker threads inherit it.
    # The batch workloads raise their own count inside the binary.
    env["OMP_NUM_THREADS"] = "1"
    env["OMP_DYNAMIC"] = "false"
    t0_ns = time.monotonic_ns()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0-ns", str(t0_ns), "--out", OUT_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("%s printed no result (exit %d)" % (args.workload,
                                                  proc.returncode))
    return json.loads(lines[-1]), proc.returncode


def complete(result, spec, trace):
    """Check the result against BENCHMARK.json; fill unvisited layers."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in units:
            fail("metric %s is not listed in BENCHMARK.json" % name)
        if metric["unit"] != units[name]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metric["unit"], units[name]))
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                fail("end-to-end metric %s is missing" % name)
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e))
    build()
    result, code = run(args)
    # A broken property still prints its result (correct: false), then
    # fails the run.
    print(json.dumps(complete(result, spec, args.trace)))
    sys.exit(code)


if __name__ == "__main__":
    main()

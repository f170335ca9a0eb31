#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt: the DSM library from src/ plus
the benchmark binary) into .bench_build/perfbench; later runs only rebuild what
changed. The binary prints progress and every metric by name and unit, and
the last line of standard output is the result JSON:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones; this script checks that before it exits 0.
The traced run also writes a Chrome trace JSON to .bench_build/traces.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
TRACE_DIR = os.path.join(".bench_build", "traces")
# Wall-clock limits: a run that has to build first gets the long one.
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 890


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, root, timeout):
    """Runs a build step with its output on stderr, keeping stdout clean."""
    done = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    if done.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(root, deadline):
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, root, deadline - time.monotonic())
    run_quiet(["cmake", "--build", build_dir, "--target", "perfbench", "-j",
               str(os.cpu_count() or 1)], root, deadline - time.monotonic())
    return os.path.join(build_dir, "perfbench")


def check_result(line, names):
    """The result line must carry exactly the keys and metrics expected."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are " + ", ".join(sorted(result)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a whole number >= 0")
    if set(result["metrics"]) != names:
        raise ValueError("metrics differ from BENCHMARK.json: " + ", ".join(
            sorted(set(result["metrics"]) ^ names)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "gos", "vm.h")):
        fail("no DSM sources under " + os.path.join(root, "src"))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)
    names = {m["name"] for m in spec["per_layer" if args.trace else
                                     "end_to_end"]}

    built = os.path.isfile(os.path.join(root, BUILD_DIR, "perfbench"))
    deadline = start + (RUN_LIMIT_S if built else BUILD_RUN_LIMIT_S)
    binary = build(root, deadline)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(root, TRACE_DIR)]
    # Its own session, so a timeout or a signal can stop every trial process
    # the benchmark binary forked.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    signal.signal(signal.SIGTERM, lambda *a: (stop(), sys.exit(1)))
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop()
        fail("run exceeded its time limit")
    except KeyboardInterrupt:
        stop()
        raise
    stop()  # reaps any trial process the binary left behind

    if proc.returncode != 0:
        print(out, end="", flush=True)
        fail("benchmark binary exited with status %d" % proc.returncode)
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        check_result(lines[-1], names)
    except ValueError as e:
        fail("bad result line: %s" % e)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()

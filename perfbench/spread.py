#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs every workload on several seeds
and reports each end-to-end metric's spread against its bound.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1]
                                [--workload NAME ...] [--out FILE]
    python3 perfbench/spread.py --compare A.jsonl B.jsonl

Run it from the root of a checkout. The spread of a metric is the distance
between the first and third quartile of its values over the seeds
(statistics.quantiles(values, n=4)), as a share of their median; it should
stay under a third of the metric's bound in BENCHMARK.json (setup_s is
exempt). --compare reads two files written by --out and reports, per
workload and metric, how much worse the second median is than the first.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


def run(spec, workloads, seeds, out):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    results = {}
    for w in workloads:
        for seed in seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            if done.returncode != 0:
                print("%s seed %d: run failed (status %d)" %
                      (w, seed, done.returncode))
                continue
            result = json.loads(done.stdout.strip().split("\n")[-1])
            results.setdefault(w, []).append(result)
            if out:
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
            print("%s seed %d: correct=%s failed=%d" %
                  (w, seed, result["correct"], result["failed"]), flush=True)
    steady = True
    for w, rows in results.items():
        print("\n%s (%d runs)" % (w, len(rows)))
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in rows]
            s = spread(values)
            ok = name == "setup_s" or s <= m["bound"] / 3
            steady = steady and ok
            print("  %-20s median %-14.6g spread %6.2f%%  bound %4.1f%%  %s" %
                  (name, statistics.median(values), 100 * s,
                   100 * m["bound"], "ok" if ok else "WIDE"))
    return steady


def compare(spec, first_path, second_path):
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def medians(path):
        cols = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                row = json.loads(line)
                for name, m in row["result"]["metrics"].items():
                    cols.setdefault((row["workload"], name), []).append(
                        m["value"])
        return {k: statistics.median(v) for k, v in cols.items()}

    a, b = medians(first_path), medians(second_path)
    ok = True
    for key in sorted(a.keys() & b.keys()):
        m = bounds[key[1]]
        w = worse_by(a[key], b[key], m["better"])
        within = w <= m["bound"]
        ok = ok and within
        print("%-16s %-20s %-12.6g %-12.6g worse by %6.2f%%  bound %4.1f%%  %s"
              % (key[0], key[1], a[key], b[key], 100 * w, 100 * m["bound"],
                 "ok" if within else "WORSE"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="FILE")
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        sys.exit(0 if compare(spec, *args.compare) else 1)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    out = open(args.out, "a", encoding="utf-8") if args.out else None
    try:
        steady = run(spec, workloads, seeds, out)
    finally:
        if out:
            out.close()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()

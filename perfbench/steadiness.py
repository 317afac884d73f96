#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json on several seeds and summarizes
each end-to-end metric's median, quartiles and spread (the distance
between the quartiles, as a share of the median), stamped with the CPU
count, Go version and commit. The figures on the run's detail line
(measured but not gated) are summarized too. Run from the repository
root:

    python3 perfbench/steadiness.py --seeds 101-110 --out steadiness.json

Seeds are run seed-major (every workload once per seed) so a slow
stretch of the machine spreads over all workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no result (exit {out.returncode})\n{out.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if out.returncode != 0 or not res["correct"]:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}, correct={res['correct']}\n{out.stderr[-2000:]}")
    detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
    return {**detail, **res["metrics"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="101-110")
    ap.add_argument("--out", help="also write the summary here as JSON")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {w: [] for w in names}
    for seed in seeds_of(args.seeds):
        for w in names:
            runs[w].append(run(w, seed, bench["run_seconds"]))
            print(f"{w} seed {seed} done", file=sys.stderr)

    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True).stdout.strip()
    summary = {"nproc": os.cpu_count(), "go": go, "commit": commit or "unknown",
               "seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for w in names:
        per = {}
        for name in sorted(runs[w][0]):
            vals = [r[name]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            per[name] = {"median": med, "q1": q1, "q3": q3, "gated": name in bounds,
                         "spread": (q3 - q1) / med if med else 0.0, "values": vals}
        summary["workloads"][w] = per
    print(f"nproc {summary['nproc']}, {go}, commit {summary['commit']}, seeds {args.seeds}")
    for w in names:
        print(f"\n{w}")
        for name, m in summary["workloads"][w].items():
            b = bounds.get(name)
            flag = "  (detail, not gated)" if b is None else \
                "" if name == "setup_s" or m["spread"] <= b / 3 else "  > bound/3"
            print(f"  {name:24s} median {m['median']:12.5g}  q1 {m['q1']:12.5g}  q3 {m['q3']:12.5g}"
                  f"  spread {m['spread']:.3f}  bound {b}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Check that the benchmark repeats: two interleaved sets of runs of one build.

    python3 dashbench/steadiness.py [--runs N] [--workloads a,b] [--seconds S]

Run from the root of a checkout. Reads the workloads, end-to-end metrics,
bounds and run length from BENCHMARK.json, then runs every workload 2 x N
times through dashbench/run.py with --trace 0: set A with seeds 1..N and
set B with seeds 101..100+N, alternating which set goes first. Each seed is
used once, so the spread includes seed-to-seed variation as well as noise.

For every workload and end-to-end metric it prints each set's median and
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median, and
the relative change of B's median against A's in the metric's "worse"
direction. A metric is steady when, in both sets, its spread is within the
bound (setup_s is exempt from the spread rule) and B's median is not worse
than A's by more than the bound. It also checks that the share of failed
operations is identical in the two sets. Exits 1 when anything is unsteady.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"steadiness: {workload} seed {seed} failed ({proc.returncode})")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for s in order:
                seed = (1 if s == "A" else 101) + i
                r = run_once(w, seed, seconds)
                results[w][s].append(r)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                print(f"[{i + 1}/{args.runs}] {w} set {s} seed {seed}: "
                      f"correct={r['correct']} failed={r['failed']}/{r['attempted']} {vals}",
                      flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)

    steady = True
    print()
    print(f"{'workload':24} {'metric':20} {'set':3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6} {'B vs A':>8}  verdict")
    for w in workloads:
        shares = {s: sum(r["failed"] for r in results[w][s]) /
                  sum(r["attempted"] for r in results[w][s]) for s in ("A", "B")}
        if shares["A"] != shares["B"]:
            steady = False
            print(f"{w}: failed share differs: A {shares['A']} B {shares['B']}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = {s: summarize([r["metrics"][name]["value"] for r in results[w][s]])
                     for s in ("A", "B")}
            a, b = stats["A"][0], stats["B"][0]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = worse <= bound
            if name != "setup_s":
                ok = ok and all(stats[s][3] <= bound for s in ("A", "B"))
            steady = steady and ok
            for s in ("A", "B"):
                med, q1, q3, spread = stats[s]
                tail = f"{worse:+8.3f}  {'ok' if ok else 'UNSTEADY'}" if s == "B" else ""
                print(f"{w:24} {name:20} {s:3} {med:12.4f} {q1:12.4f} {q3:12.4f}"
                      f" {spread:8.3f} {bound:6.2f} {tail}")
    print("steady" if steady else "UNSTEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

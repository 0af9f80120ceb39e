#!/usr/bin/env python3
"""Steadiness report: runs the benchmark several times per workload, each
with another seed, and reports for every end-to-end metric its median and
its spread, the distance between the first and third quartile as a share
of the median (statistics.quantiles(values, n=4)), against the metric's
bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--json OUT]

Run it from the root of a checkout. Exits 1 if any spread exceeds its
bound or any run fails its output checks.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    report = {"runs": args.runs, "first_seed": args.first_seed, "workloads": {}}
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{w} seed {seed}: {res['failed']} of {res['attempted']} checks failed")
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        rows = {}
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            within = spread <= m["bound"]
            ok = ok and within
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": m["bound"], "unit": m["unit"], "values": vals}
            print(f"  {w:9s} {m['name']:18s} median {med:12.6g} {m['unit']:5s} spread {spread:7.4f}"
                  f" bound {m['bound']:.3f}{'' if within else '  OVER'}", flush=True)
        report["workloads"][w] = rows
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

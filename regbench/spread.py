#!/usr/bin/env python3
"""Run the regsim benchmark over several seeds and report its steadiness.

From the checkout root:

    python3 regbench/spread.py --workload paper-cold --seeds 1-10
    python3 regbench/spread.py --workload serve-routed --seeds 1-10 \
        --out a.json --baseline b.json

For each end-to-end metric (or per-layer metric with --trace 1) it prints
the median over the runs and the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound from BENCHMARK.json and a third of it. With --baseline it
also compares medians against an earlier --out file, and refuses when that
file was measured on another host: results from different hosts are never
compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HOST_KEYS = ("nproc", "cpu", "gomaxprocs", "goVersion", "os", "budget", "calibBudget")


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = os.path.join(".bench_build", "regbench", "results",
                          f"{workload}-seed{seed}-trace{trace}.json")
    with open(record) as f:
        recorded = json.load(f)
    return line, {k: recorded["host"][k] for k in HOST_KEYS}, recorded.get("stealPct", 0.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="write the per-run values and host here")
    ap.add_argument("--baseline", help="compare medians with this earlier --out file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    defs = {m["name"]: m for m in bench["end_to_end" if args.trace == 0 else "per_layer"]}

    values = {name: [] for name in defs}
    host = None
    for seed in seeds(args.seeds):
        line, h, steal = run_once(bench, args.workload, seed, seconds, args.trace)
        if host is not None and h != host:
            sys.exit(f"seed {seed} ran on another host: {h} != {host}")
        host = h
        if not line["correct"] or line["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {line}")
        for name in defs:
            values[name].append(line["metrics"][name]["value"])
        print(f"seed {seed} (steal {steal:.1f}%): "
              + " ".join(f"{n}={line['metrics'][n]['value']:.6g}" for n in defs), flush=True)

    base = None
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)
        if base["host"] != host or base["workload"] != args.workload:
            sys.exit(f"baseline is from another host or workload: {base['host']} {base['workload']}")

    print(f"\n{'metric':28} {'median':>14} {'spread':>8} {'bound':>6} {'bound/3':>8}"
          + ("  vs baseline" if base else ""))
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / abs(med) if med else 0.0
        bound = defs[name].get("bound")
        line = f"{name:28} {med:14.6g} {spread:8.2%}"
        if bound is not None:
            line += f" {bound:6.2f} {bound / 3:8.3f}"
            if spread > bound / 3:
                line += "  SPREAD>bound/3"
        if base:
            bmed = statistics.median(base["values"][name])
            worse = (med - bmed) / abs(bmed) if bmed else 0.0
            if defs[name]["better"] == "higher":
                worse = -worse
            line += f"  {worse:+.2%} worse"
            if bound is not None and worse > bound:
                line += "  BEYOND BOUND"
        print(line)

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "host": host, "seeds": seeds(args.seeds),
                       "values": values}, f, indent=1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check: runs the benchmark once per seed on one workload, as
BENCHMARK.json fixes it (run_seconds, --trace 0), and reports for every
end-to-end metric the median over the runs and the quartile spread
((q3 - q1) / median, quartiles as statistics.quantiles(values, n=4) gives
them), next to the metric's bound.  Each run's share of host CPU time stolen
by the hypervisor (from its context line) is printed with it, so a run slowed
by other guests can be recognised.

Run from the root of the repository:

    python3 perfbench/steady.py --workload edit_commit --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, steal = {}, []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: {lines[-1]}")
        context = next(json.loads(l[len("# context "):]) for l in lines if l.startswith("# context "))
        steal.append(context["cpu_steal_frac"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: cpu_steal_frac={steal[-1]}, "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {len(steal)} runs of {seconds} s, "
          f"cpu_steal_frac max {max(s or 0 for s in steal):.4f}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:20s} median {med:12.4f}  spread {spread:7.4f}  bound {bound}  {verdict}")


if __name__ == "__main__":
    main()

"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 0-9 [--out spread.json]

It makes untraced runs of every workload in BENCHMARK.json.  For every
workload and end-to-end metric it reports the median of the per-run values,
the first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, which must stay within the metric's bound in
BENCHMARK.json.  With --out the summary, stamped with the environment line
the runs printed, is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return json.loads(lines[-1]), env


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "workloads": {}}
    for workload in names:
        per_metric, correct = {}, True
        for seed in args.seeds:
            result, env = run_once(workload, seed, spec["run_seconds"])
            correct = correct and result["correct"]
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            summary["env"] = {k: v for k, v in env.items() if k != "seed"}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                             if k in bounds), flush=True)
        stats = {name: summarise(v) for name, v in per_metric.items()}
        summary["workloads"][workload] = {"correct": correct, "metrics": stats}
        for name, s in stats.items():
            if name in bounds:
                print(f"  {workload} {name}: median {s['median']:.6g} "
                      f"spread {s['spread']:.4f} (bound {bounds[name]})", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()

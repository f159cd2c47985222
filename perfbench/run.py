"""fkpi-lab benchmark: closed-loop CLI workloads, one fresh process per sample.

    python3 perfbench/run.py --workload evolve-etdrk4 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Samples run one after another (a closed
loop with a single client) until --seconds have passed, and at least two.
Each sample starts a new interpreter (sample.py) that runs the workload's
commands through `fkpi_lab.cli.parse_config` and `fkpi_lab.cli.run`.  All
samples and runs of a workload reuse its output directories under
.bench_out/, so after the first sample in a checkout every command rewrites
existing artifacts, as a rerun does.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
traced samples interleaved with untraced ones (see tracer.py).  Both check
every command's output against perfbench/refs.json (gate.py) and that all
samples, traced or not, wrote byte-identical artifacts.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time

import gate
from tracer import median_metrics
from workloads import WORKERS, WORKLOADS

ROOT = gate.ROOT
# Setup-only launches per run, on top of one unmeasured warm-up launch:
# SETUP_FIRST before the first sample, SETUP_BETWEEN after each sample and
# the rest at the end.
SETUP_LAUNCHES = 16
SETUP_FIRST = 4
SETUP_BETWEEN = 2
MIN_SAMPLES = 2
# Traced samples a --trace 1 run needs, so exact counts are compared.
TRACED_SAMPLES = 2
# No sample starts if it is predicted to end after this many seconds.
HARD_STOP_S = 160.0
# Units of the printed end-to-end table (steps_per_s is printed only).
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "steps_per_s": "1/s"}
# Per-layer metrics that count work; they must repeat exactly.  (Bytes
# written do not: the manifest's timestamp varies in length.)
COUNT_SUFFIXES = (".calls", "_per_step", ".bytes", "files_written")


def environment(seed):
    """Where and how the numbers were taken."""
    env = {"nproc": os.cpu_count(), "cpu": platform.machine(),
           "python": platform.python_version(), "workers": WORKERS, "seed": seed}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for level in ("2", "3"):
        for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else ():
            try:
                with open(os.path.join(cache, index, "level")) as fh:
                    if fh.read().strip() != level:
                        continue
                with open(os.path.join(cache, index, "size")) as fh:
                    env[f"l{level}"] = fh.read().strip()
            except OSError:
                continue
    return env


def tail(values):
    """Highest of p50/p90/p99 with at least ten samples above it, or None."""
    n = len(values)
    for p in (99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, sorted(values)[math.ceil(p / 100.0 * n) - 1]
    return None


def run_samples(workload, seed, seconds, trace):
    """Setup launches spread over the run, then samples until the time is
    up; returns the setup times and the samples.

    Setup-only launches run before the first sample, after every sample and
    at the end until there are SETUP_LAUNCHES, so a passing slow spell of
    the host touches only some of them.  With --trace, samples alternate
    untraced and traced, with at least TRACED_SAMPLES traced.
    """
    start = time.monotonic()
    gate.spawn_sample(workload, seed, setup_only=True)  # warm-up, not measured

    def launch(n):
        return [gate.spawn_sample(workload, seed, setup_only=True)["setup_s"]
                for _ in range(n)]

    setups = launch(SETUP_FIRST)
    samples, last = [], 0.0
    while True:
        elapsed = time.monotonic() - start
        traced = sum(s["traced"] for s in samples)
        enough = len(samples) >= MIN_SAMPLES and (not trace or traced >= TRACED_SAMPLES)
        if (enough and elapsed >= seconds) or elapsed + last > HARD_STOP_S:
            break
        began = time.monotonic()
        use_trace = trace and len(samples) % 2 == 1
        sample = gate.spawn_sample(workload, seed, trace=use_trace,
                                   timeout=HARD_STOP_S + 10.0 - elapsed)
        sample["traced"] = use_trace
        samples.append(sample)
        setups += launch(SETUP_BETWEEN)
        last = time.monotonic() - began
    if len(samples) < MIN_SAMPLES:
        raise RuntimeError(f"only {len(samples)} sample(s) fit in {HARD_STOP_S} s")
    setups += launch(max(0, SETUP_LAUNCHES - len(setups)))
    return setups + [s["setup_s"] for s in samples], samples


def check(workload, samples, trace):
    """Correctness and determinism problems over all samples of a run."""
    refs = gate.load_refs()
    problems = []
    for i, sample in enumerate(samples):
        problems += [f"sample {i}: {p}" for p in gate.check_sample(refs, workload, sample)]
    first = samples[0]["commands"]
    for i, sample in enumerate(samples[1:], 1):
        for a, b in zip(first, sample["commands"]):
            if a["digest"] != b["digest"]:
                kind = "traced" if sample["traced"] else "untraced"
                problems.append(f"sample {i} ({kind}): {b['label']} artifacts differ "
                                f"from sample 0")
    traced = [s for s in samples if s["traced"]]
    if trace and len(traced) < TRACED_SAMPLES:
        problems.append(f"only {len(traced)} traced sample(s); exact counts unchecked")
    for sample in traced:
        if len(sample["step_profiles"]) > 1:
            problems.append("solver steps differ in work [ffts, rhs, fields, fft bytes]: "
                            f"{sample['step_profiles']}")
    for sample in traced[1:]:
        layers, first_layers = sample["layers"], traced[0]["layers"]
        for name, value in layers.items():
            if name.endswith(COUNT_SUFFIXES) and value != first_layers[name]:
                problems.append(f"count {name} changed: {first_layers[name]} -> {value}")
    return problems


def baseline_count_changes(workload, layers):
    """Work counts that differ from the seed commit's, as printable lines.

    Files written are left out: they follow the seed, since a failing
    verdict adds a FAILED file.
    """
    with open(os.path.join(gate.HERE, "baseline.json")) as fh:
        base = json.load(fh)["per_layer"][workload]
    return [f"{name}: {base[name]:.12g} -> {value:.12g}"
            for name, value in sorted(layers.items())
            if name.endswith(COUNT_SUFFIXES) and not name.endswith("files_written")
            and value != base[name]]


def report(workload, seed, seconds, trace, setups, samples, problems, units):
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    commands = [c for s in samples for c in s["commands"]]
    attempted = len(commands)
    failed = sum(1 for c in commands if c["exit"] == 1 or c["raised"])

    def wall(s):
        return sum(c["run_s"] for c in s["commands"])

    walls = [wall(s) for s in untraced]
    e2e = {"wall_s": walls, "setup_s": setups,
           "peak_rss_mb": [s["peak_rss_mb"] for s in untraced]}
    solving = [s for s in untraced if s["steps"]]
    if solving:
        e2e["steps_per_s"] = [s["steps"] / s["solve_s"] for s in solving]

    env = environment(seed)
    env["numpy"] = samples[0]["numpy"]
    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={trace}")
    print(f"closed loop, 1 client, fresh process per sample; "
          f"{len(untraced)} untraced + {len(traced)} traced samples")
    print(f"{'metric':<16}{'median':>14}{'tail':>22}{'n':>5}  unit")
    for name, values in e2e.items():
        t = tail(values)
        shown = f"p{t[0]:g} {t[1]:.6g}" if t else "- (n < 20)"
        print(f"{name:<16}{statistics.median(values):>14.6g}{shown:>22}"
              f"{len(values):>5}  {E2E_UNITS[name]}")
    print(f"{'ops_failed_frac':<16}{failed / attempted:>14.6g}"
          f"{'':>22}{attempted:>5}  fraction ({failed} of {attempted} commands "
          f"exited 1 or raised)")
    print("sample wall_s: " + " ".join(
        f"{wall(s):.4f}{'T' if s['traced'] else ''}" for s in samples))
    print("per command (median over untraced samples):")
    for i, entry in enumerate(samples[0]["commands"]):
        runs = [s["commands"][i] for s in untraced]
        exits = sorted({c["exit"] for c in runs})
        fresh = sum(c["fresh"] for c in runs)
        line = (f"  {entry['label']:<26} exit {exits} "
                f"run {statistics.median(c['run_s'] for c in runs):.4f} s  "
                f"dir fresh {fresh}/reused {len(runs) - fresh}")
        if traced:
            tc = [s["commands"][i] for s in traced]
            line += (f"  files {tc[0]['files_written']} "
                     f"bytes {tc[0]['bytes_written']} "
                     f"write {statistics.median(c['write_s'] for c in tc):.4f} s")
        print(line)

    if trace:
        metrics = median_metrics([s["layers"] for s in traced])
        metrics["trace.overhead_frac"] = (
            statistics.median(wall(s) for s in traced) / statistics.median(walls) - 1.0)
        env["trace_overhead_frac"] = metrics["trace.overhead_frac"]
    else:
        metrics = {name: statistics.median(values) for name, values in e2e.items()}
        metrics["ops_ok_frac"] = (attempted - failed) / attempted
    print("env: " + json.dumps(env, sort_keys=True))
    if trace:
        for name in sorted(metrics):
            print(f"  {name:<44} {metrics[name]:.6g}")
        changes = baseline_count_changes(workload, traced[0]["layers"])
        print("exact counts vs the seed commit (baseline.json): "
              + ("same" if not changes else "changed"))
        for line in changes:
            print("  " + line)
    print("correctness + determinism: " + ("ok" if not problems else "FAILED"))
    for p in problems:
        print("  " + p)
    missing = [n for n in units if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "fkpi_lab", "cli.py")):
        print(f"error: no fkpi_lab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    setups, samples = run_samples(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    problems = check(args.workload, samples, bool(args.trace))
    report(args.workload, args.seed, args.seconds, args.trace, setups, samples,
           problems, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark sample: a workload's commands, one after another, in this
fresh process.

run.py starts one process per sample, so start-up time and peak memory
belong to the sample:

    python3 perfbench/sample.py --workload probe-suite --seed 0 \\
        --started-at <time.monotonic() before the process was started> [--trace]

With --setup-only the process stops where the first `cli.run` would be
entered.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import fkpi_lab  # noqa: E402
from fkpi_lab import cli  # noqa: E402

# reference binds numpy.fft before a traced sample patches it.  gate is
# imported only after the timed commands, so that its imports do not count
# as the program's set-up.
import reference  # noqa: E402
from tracer import Tracer, layer_metrics, step_profiles  # noqa: E402
from workloads import OUT_ROOT, WORKLOADS, config_text, output_dir  # noqa: E402


def _dir_has_files(path):
    return os.path.isdir(path) and any(files for _, _, files in os.walk(path))


def _settle(path):
    """fsync every file under path.

    Until writeback allocates their blocks, rewriting fresh files is nearly
    free; once allocated, truncating them costs tens of milliseconds on
    discard-mounted disks.  Syncing after each sample makes every rerun pay
    what a rerun minutes later pays, instead of whatever writeback timing
    happens to leave.
    """
    for base, _dirs, files in os.walk(path):
        for name in files:
            fd = os.open(os.path.join(base, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def run_sample(workload, seed, started_at, trace, setup_only):
    if not os.path.abspath(fkpi_lab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"fkpi_lab imported from {fkpi_lab.__file__}, not {SRC}")
    tracer = Tracer()
    tracer.install(fkpi_lab, full=trace)
    # Keep each command's final field for the gate's trajectory check.
    finals = {}
    solve = cli.solve

    def solve_keeping_final(*args, **kwargs):
        traj = solve(*args, **kwargs)
        finals[tracer.request] = traj.fields[-1]
        return traj
    cli.solve = solve_keeping_final
    commands = WORKLOADS[workload]
    result = {"numpy": cli.np.__version__, "seed": seed, "commands": []}
    for i, (label, command, overrides) in enumerate(commands):
        out = output_dir(workload, label)
        tracer.request = label
        config = cli.parse_config(config_text(command, overrides, seed, out),
                                  command=command)
        if i == 0:
            result["setup_s"] = time.monotonic() - started_at
            if setup_only:
                return result
        fresh = not _dir_has_files(out)
        raised = None
        start = time.perf_counter()
        try:
            code = cli.run(config)
        except Exception as exc:  # noqa: BLE001 - counted as a failed command
            code, raised = 1, f"{type(exc).__name__}: {exc}"
        result["commands"].append({
            "label": label, "exit": code, "raised": raised, "fresh": fresh,
            "run_s": time.perf_counter() - start})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Everything below runs after the timed commands.
    import gate
    solves = [s for s in tracer.spans if s[1] == "evolution.solve"]
    result["solve_s"] = sum(s[3] - s[2] for s in solves)
    result["steps"] = sum(s[6] for s in solves)
    for entry in result["commands"]:
        out = output_dir(workload, entry["label"])
        entry["digest"] = gate.digest_artifacts(out)
        entry["records"] = gate.read_records(out)
        final = finals.get(entry["label"])
        if final is not None:
            entry["final_u"] = reference.lattice_of(
                final.coeffs, final.grid.cell_area).tolist()
        _settle(out)
    if trace:
        labels = list(dict.fromkeys(c[0] for cmds in WORKLOADS.values() for c in cmds))
        layers, write_s = layer_metrics(tracer.spans, labels)
        for entry in result["commands"]:
            written = tracer.files_written.get(entry["label"], ())
            entry["files_written"] = len(written)
            entry["bytes_written"] = sum(os.path.getsize(p) for p in written
                                         if os.path.exists(p))
            entry["write_s"] = write_s.get(entry["label"], 0.0)
        layers["cli.files_written"] = sum(e["files_written"] for e in result["commands"])
        layers["cli.bytes_written"] = sum(e["bytes_written"] for e in result["commands"])
        result["layers"] = layers
        result["step_profiles"] = step_profiles(tracer.spans)
        with open(os.path.join(OUT_ROOT, workload, "spans.jsonl"), "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "request", "size"),
                    s))) + "\n")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run_sample(args.workload, args.seed, args.started_at, args.trace,
                        args.setup_only)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

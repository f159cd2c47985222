"""Compare the run directories of this checkout against another checkout.

    python3 tools/compare_runs.py PARENT_CHECKOUT

Runs a fixed list of CLI configs (every `cli.SETUPS` row at its canonical
config, plus a few variants) once against each checkout's `src` and
compares what each run wrote: `records.*`, `slopes.json`, `plotdata/`,
`FAILED`, `final_state.fkpi`, the manifest without `timestamp` and
`config.output_dir`, the exit status, and stderr with checkout paths
masked.  Every run is a fresh interpreter with only that checkout's `src`
on its path.  Prints, per config, the peak resident set size of each side's
run (parent, then this checkout; the sweep workers are threads, so the run's
own `ru_maxrss` covers them) and `same` or the differing files, naming the
differing manifest keys as dotted paths (`manifest.json: config.grid`) and
the differing records columns (`records.csv: band_hi, band_lo`).  Exits 1
if any config differs; peak memory never enters the verdict.  Standard
library only; the two checkouts need numpy, as the CLI does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parents[1]

# Sweep pool size of every run: results do not depend on it, and two keeps
# the load the same on every host.
WORKERS = 2

# (name, command, --set overrides)
CONFIGS = [
    ("simulate", "simulate", []),
    ("conserve", "conserve", []),
    ("strichartz-linear", "strichartz", ["strichartz.kind=linear"]),
    ("strichartz-lowfreq", "strichartz", ["strichartz.kind=lowfreq"]),
    ("bilinear", "bilinear", []),
    ("trilinear-lw_band", "trilinear", ["trilinear.regime=lw_band"]),
    ("trilinear-lw_modulation", "trilinear", ["trilinear.regime=lw_modulation"]),
    ("trilinear-nonresonant", "trilinear", ["trilinear.regime=nonresonant"]),
    ("scaling", "scaling", []),
    ("illposedness", "illposedness", []),
    ("resonance-scan", "resonance-scan", []),
    ("transversality", "transversality", []),
    ("conserve-strang-dense-512", "conserve",
     ["grid.modes_x=512", "grid.modes_y=512", "evolution.scheme=strang",
      "evolution.snapshot_stride=1", "evolution.T=0.05"]),
    ("simulate-strang-64", "simulate",
     ["grid.modes_x=64", "grid.modes_y=64", "evolution.scheme=strang"]),
    ("strichartz-linear-shift-0.5", "strichartz",
     ["strichartz.kind=linear", "strichartz.comparator_shift=-0.5"]),
    ("trilinear-nonresonant-n1-1-n2-8", "trilinear",
     ["trilinear.regime=nonresonant", "trilinear.n1=1", "trilinear.n2=8"]),
    ("illposedness-alpha-2", "illposedness", ["alpha=2.0"]),
    ("scaling-alpha-3", "scaling", ["alpha=3.0"]),
    ("transversality-alpha-3", "transversality", ["alpha=3.0"]),
]

# Runs the CLI, after checking that fkpi_lab came from the given src, and
# prints the process's peak RSS in MB (ru_maxrss is in KiB on Linux) as the
# last line of stdout; the CLI itself writes nothing there.
RUNNER = ("import resource, sys, fkpi_lab, fkpi_lab.cli\n"
          "if not fkpi_lab.__file__.startswith(sys.argv[1]):\n"
          "    sys.exit(f'fkpi_lab imported from {fkpi_lab.__file__}')\n"
          "status = fkpi_lab.cli.main(sys.argv[2:])\n"
          "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)\n"
          "sys.exit(status)\n")

ARTIFACTS = ("records.csv", "records.jsonl", "slopes.json", "FAILED",
             "final_state.fkpi")


def run_config(checkout, command, overrides, out_dir):
    """Run one config against checkout/src; returns (status, stderr, peak RSS
    in MB, or None when the run died before reporting it)."""
    src = str(checkout / "src")
    argv = [command, "--output-dir", str(out_dir), "--set", f"workers={WORKERS}"]
    for item in overrides:
        argv += ["--set", item]
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", RUNNER, src + os.sep, *argv],
                          cwd=out_dir.parent, env=env, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        peak = float(lines[-1])
    except (IndexError, ValueError):
        peak = None
    return proc.returncode, proc.stderr.replace(src, "<src>"), peak


def manifest_digests(path):
    """{dotted key: sha256} of each top-level manifest key and each key under
    `config`, without `timestamp` and `config.output_dir`."""
    manifest = json.loads(path.read_text())
    manifest.pop("timestamp", None)
    config = manifest.pop("config", {})
    config.pop("output_dir", None)
    keys = [*manifest.items(), *(("config." + k, v) for k, v in config.items())]
    return {k: hashlib.sha256(json.dumps(v, sort_keys=True).encode()).hexdigest()
            for k, v in keys}


def column_digests(path):
    """{column: sha256} of a records file, each column's cells in row order; a
    record without the column reads as null (jsonl) or an empty cell (csv)."""
    lines = path.read_text().splitlines()
    if path.suffix == ".csv":
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    else:
        rows = [json.loads(line) for line in lines]
        header = sorted({k for row in rows for k in row})
    return {k: hashlib.sha256(json.dumps([row.get(k) for row in rows]).encode())
            .hexdigest() for k in header}


# files whose keys or columns a digest map names after "<file>: "
KEYED = {"manifest.json": manifest_digests, "records.csv": column_digests,
         "records.jsonl": column_digests}


def digests(out_dir, status, stderr):
    """{artifact name: sha256} of one run directory, plus exit and stderr."""
    found = {"exit": str(status),
             "stderr": hashlib.sha256(stderr.encode()).hexdigest()}
    for name in ARTIFACTS:
        path = out_dir / name
        if path.exists():
            found[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    for path in sorted((out_dir / "plotdata").glob("*")):
        found[f"plotdata/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    for name, keyed in KEYED.items():
        if (out_dir / name).exists():
            found.update((f"{name}: {key}", digest) for key, digest in
                         keyed(out_dir / name).items())
    return found


def describe(diff):
    """The differing names; a keyed file's differing keys are joined after its
    name, which alone means its bytes differ but no key does."""
    keys = {name: [k[len(name) + 2:] for k in diff if k.startswith(name + ": ")]
            for name in KEYED}
    files = [k for k in diff if ": " not in k and not keys.get(k)]
    return " ".join(files + [f"{name}: " + ", ".join(ks)
                             for name, ks in keys.items() if ks])


def compare(parent, config, work):
    """(the differing names, [parent, change] peak RSS) of one config."""
    name, command, overrides = config
    seen, peaks = [], []
    for side, checkout in (("parent", parent), ("change", HERE)):
        out_dir = work / side / name
        out_dir.mkdir(parents=True)
        status, stderr, peak = run_config(checkout, command, overrides, out_dir)
        seen.append(digests(out_dir, status, stderr))
        peaks.append(peak)
    return differing(*seen), peaks


def report(name, diff, peaks):
    """One config's line: its name, each side's peak RSS, then the verdict."""
    shown = " -> ".join("?" if p is None else f"{p:.1f}" for p in peaks)
    return (f"{name:<34} peak RSS {shown + ' MB':<20} "
            f"{'same' if not diff else 'differs: ' + describe(diff)}")


def differing(old, new):
    """The sorted names whose digests differ between two digest maps."""
    return sorted(k for k in set(old) | set(new) if old.get(k) != new.get(k))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path,
                        help="root of the checkout to compare against")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "fkpi_lab").is_dir():
        parser.error(f"{parent} has no src/fkpi_lab")
    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare_runs-") as tmp:
        for config in CONFIGS:
            diff, peaks = compare(parent, config, pathlib.Path(tmp))
            differing += bool(diff)
            print(report(config[0], diff, peaks), flush=True)
    total = len(CONFIGS)
    print(f"{total} configs: " + ("same" if not differing
                                  else f"{differing} differ"))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

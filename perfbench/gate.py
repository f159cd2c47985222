"""Correctness gate: run artifacts against references captured from the
program, and byte digests for the determinism check.

    python3 perfbench/gate.py capture     # rewrite perfbench/refs.json
    python3 perfbench/gate.py selfcheck   # show the gate rejects broken output

Every command must exit with a code its reference run saw.  Exit 1 (or an
exception out of `cli.run`) is also counted as a failed command; only a
command whose reference exit is 1 (the nonresonant trilinear regime) may
fail and still be correct.  For every command that exits 0 or 2:

- the exit code agrees with the records: 2 exactly when one fails;
- each record has the reference probe name and pass verdict;
- each measured value lies within the record's tolerance of the reference;
- conservation drifts stay within their caps (measured <= comparator);
- a `conserve` run's final field matches an independent reference solve
  for the sample's seed (reference.py) on a 16 x 16 lattice of points,
  within TRAJECTORY_RTOL of the reference's largest value.

A verdict that differed across the capture seeds (the bilinear slope sits
near its cap) is stored as null; such a record must instead agree with its
own slope band, band_lo <= measured <= band_hi.

Tolerances.  Records that do not depend on the seed get a relative
tolerance of RTOL.  Seeded records get SEED_SPREAD times the largest
deviation seen over the capture seeds.  Drift records get at least
DRIFT_ROUNDOFF: a 1000-step run accumulates drifts of about 1e-13 from
round-off alone, and a change of FFT or summation order may move that.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS_PATH = os.path.join(HERE, "refs.json")

RTOL = 1e-6
SEED_SPREAD = 3.0
DRIFT_ROUNDOFF = 1e-11
DRIFT_PROBES = ("mass_drift", "energy_drift")
# Final-field tolerance per scheme, relative to the reference's largest
# value.  At the seed commit ETDRK4 agrees with the reference to about 2e-10
# and Strang, a second-order splitting, to about 8e-7.  Returning the
# initial data, half the time step or dropping the nonlinearity is off by
# 4e-3 or more.
TRAJECTORY_RTOL = {"etdrk4": 1e-7, "strang": 1e-5}
CAPTURE_SEEDS = {"evolve-etdrk4": range(6), "evolve-strang-dense": range(12),
                 "probe-suite": range(16)}


def _artifact_files(out_dir):
    """Run artifacts covered by the byte-identity promise, sorted."""
    names = []
    for base, _dirs, files in os.walk(out_dir):
        for f in files:
            rel = os.path.relpath(os.path.join(base, f), out_dir)
            if rel.startswith("records.") or rel in ("slopes.json", "manifest.json",
                                                     "FAILED") \
                    or rel.startswith("plotdata" + os.sep):
                names.append(rel)
    return sorted(names)


def digest_artifacts(out_dir):
    """sha256 over the artifacts, with the manifest's timestamp key removed."""
    h = hashlib.sha256()
    for rel in _artifact_files(out_dir):
        with open(os.path.join(out_dir, rel), "rb") as fh:
            blob = fh.read()
        if rel == "manifest.json":
            manifest = json.loads(blob)
            manifest.pop("timestamp", None)
            blob = json.dumps(manifest, sort_keys=True).encode()
        h.update(rel.encode() + b"\0" + blob + b"\0")
    return h.hexdigest()


def read_records(out_dir):
    """Records of a run directory as dicts (probe, pass, measured, comparator)."""
    path = os.path.join(out_dir, "records.csv")
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    out = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        out.append({"probe": row["probe"], "pass": row["pass"] == "true",
                    "measured": float(row["measured"]),
                    "comparator": float(row["comparator"]),
                    "band_lo": float(row.get("band_lo") or "-inf"),
                    "band_hi": float(row["band_hi"]) if row.get("band_hi") else None})
    return out


@functools.lru_cache(maxsize=8)
def reference_final(seed, T):
    """Reference final field of a `conserve` run on the gate's lattice."""
    return reference.lattice_samples(seed, T)


def check_command(ref, entry, seed):
    """Problems with one command's outcome; [] when it is correct."""
    label = entry["label"]
    code = "raised " + entry["raised"] if entry["raised"] else f"exit {entry['exit']}"
    if entry["raised"] or entry["exit"] not in ref["exits"]:
        return [f"{label}: {code}, reference exits {ref['exits']}"]
    if entry["exit"] == 1:
        return []
    problems = []
    got, want = entry["records"], ref["records"]
    verdict_exit = 0 if all(g["pass"] for g in got) else 2
    if entry["exit"] != verdict_exit:
        problems.append(f"{label}: exit {entry['exit']}, records imply {verdict_exit}")
    final = ref.get("final")
    if final is not None:
        off = reference.distance(entry["final_u"], reference_final(seed, final["T"]))
        if not off <= final["rtol"]:
            problems.append(f"{label}: final field {off:.3g} from the reference "
                            f"solve, tolerance {final['rtol']:.3g}")
    if len(got) != len(want):
        return problems + [f"{label}: {len(got)} records, reference {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        where = f"{label} record {i} ({w['probe']})"
        if g["probe"] != w["probe"]:
            problems.append(f"{where}: probe {g['probe']}")
        if w["pass"] is None:
            in_band = g["band_hi"] is not None and \
                g["band_lo"] <= g["measured"] <= g["band_hi"]
            if g["pass"] != in_band:
                problems.append(f"{where}: pass {g['pass']} disagrees with its band")
        elif g["pass"] != w["pass"]:
            problems.append(f"{where}: pass {g['pass']}, reference {w['pass']}")
        if not abs(g["measured"] - w["measured"]) <= w["tol"]:
            problems.append(f"{where}: measured {g['measured']!r} outside "
                            f"{w['measured']!r} +- {w['tol']!r}")
        if w["probe"] in DRIFT_PROBES and not g["measured"] <= g["comparator"]:
            problems.append(f"{where}: drift {g['measured']!r} above cap "
                            f"{g['comparator']!r}")
    return problems


def check_sample(refs, workload, sample):
    """Problems over every command of one sample."""
    problems = []
    for entry in sample["commands"]:
        problems += check_command(refs["workloads"][workload][entry["label"]], entry,
                                  sample["seed"])
    return problems


def load_refs():
    with open(REFS_PATH) as fh:
        return json.load(fh)


def spawn_sample(workload, seed, trace=False, setup_only=False, timeout=170.0):
    """Run sample.py in a fresh process; returns its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), "--workload", workload,
           "--seed", str(seed), "--started-at", repr(time.monotonic())]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"sample process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


# ------------------------------------------------------------------ capture


def _record_tol(probe, values):
    ref = statistics.median(values)
    spread = max(abs(v - ref) for v in values)
    tol = max(RTOL * abs(ref), SEED_SPREAD * spread)
    if probe in DRIFT_PROBES:
        tol = max(tol, DRIFT_ROUNDOFF)
    return ref, tol


def _capture_final(overrides, seeds, outcomes):
    """Final-field reference of a `conserve` command, checked on the
    capture seeds."""
    evolution = overrides.get("evolution", {})
    scheme = evolution.get("scheme", reference.CANONICAL_SCHEME)
    T = evolution.get("T", reference.CANONICAL_T)
    seen = max(reference.distance(o["final_u"], reference_final(seed, T))
               for seed, o in zip(seeds, outcomes))
    if not seen <= TRAJECTORY_RTOL[scheme]:
        raise SystemExit(f"{scheme} final field {seen:.3g} from the reference solve")
    return {"scheme": scheme, "T": T, "rtol": TRAJECTORY_RTOL[scheme],
            "seen_max": seen}


def capture():
    """Run every workload over its capture seeds and write refs.json."""
    from workloads import WORKLOADS

    refs = {"rtol": RTOL, "seed_spread": SEED_SPREAD, "drift_roundoff": DRIFT_ROUNDOFF,
            "capture_seeds": {w: list(s) for w, s in CAPTURE_SEEDS.items()},
            "workloads": {}}
    for workload, commands in WORKLOADS.items():
        seeds = CAPTURE_SEEDS[workload]
        runs = [spawn_sample(workload, seed) for seed in seeds]
        per_label = {}
        for i, entry in enumerate(runs[0]["commands"]):
            outcomes = [r["commands"][i] for r in runs]
            exits = sorted({o["exit"] for o in outcomes})
            shapes = {tuple(r["probe"] for r in o["records"]) for o in outcomes}
            if (1 in exits and len(exits) > 1) or len(shapes) != 1:
                raise SystemExit(f"{workload}/{entry['label']}: exit codes {exits} "
                                 f"or record lists differ across capture seeds")
            records = []
            for j, rec in enumerate(entry["records"]):
                seen = [o["records"][j] for o in outcomes]
                verdicts = {r["pass"] for r in seen}
                if len(verdicts) > 1 and rec["band_hi"] is None:
                    raise SystemExit(f"{workload}/{entry['label']} record {j}: "
                                     f"verdict varies and has no band")
                ref, tol = _record_tol(rec["probe"], [r["measured"] for r in seen])
                records.append({"probe": rec["probe"],
                                "pass": verdicts.pop() if len(verdicts) == 1 else None,
                                "measured": ref, "tol": tol})
            per_label[entry["label"]] = {"exits": exits, "records": records}
            _label, command, overrides = commands[i]
            if command == "conserve":
                per_label[entry["label"]]["final"] = _capture_final(
                    overrides, seeds, outcomes)
            print(f"{workload}/{entry['label']}: exits {exits}, "
                  f"{len(records)} records", flush=True)
        refs["workloads"][workload] = per_label
    with open(REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- selfcheck


def _report(name, problems):
    print(f"{name}: " + (f"rejected ({problems[0]})" if problems else "NOT REJECTED"))
    if not problems:
        raise SystemExit(1)


def _selfcheck_records(refs):
    """Break one probe-suite sample's records and artifacts."""
    from workloads import output_dir

    sample = spawn_sample("probe-suite", 0)
    clean_problems = check_sample(refs, "probe-suite", sample)
    if clean_problems:
        raise SystemExit(f"clean probe-suite sample rejected: {clean_problems}")
    out = output_dir("probe-suite", "bilinear")
    ref = refs["workloads"]["probe-suite"]["bilinear"]
    entry = next(e for e in sample["commands"] if e["label"] == "bilinear")
    path = os.path.join(out, "records.csv")
    with open(path) as fh:
        clean = fh.read()
    lines = clean.splitlines()
    header = lines[0].split(",")
    m_col, p_col = header.index("measured"), header.index("pass")

    def rejected(mutate):
        row = lines[1].split(",")
        mutate(row)
        with open(path, "w") as fh:
            fh.write("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
        broken = dict(entry, records=read_records(out))
        problems = check_command(ref, broken, sample["seed"])
        digest = digest_artifacts(out)
        with open(path, "w") as fh:
            fh.write(clean)
        return problems, digest

    def flip(row):
        row[p_col] = "false" if row[p_col] == "true" else "true"

    def nudge(row):
        row[m_col] = repr(ref["records"][0]["measured"] + 2.0 * ref["records"][0]["tol"])

    def last_digit(row):
        row[m_col] = row[m_col][:-1] + ("1" if row[m_col][-1] != "1" else "2")

    _report("flipped verdict", rejected(flip)[0])
    _report("out-of-tolerance value", rejected(nudge)[0])
    digest = rejected(last_digit)[1]
    _report("byte-level change",
            ["artifact digest differs"] if digest != entry["digest"] else [])
    if digest_artifacts(out) != entry["digest"]:
        raise SystemExit("restored artifacts do not match the original digest")
    crashed = dict(entry, exit=1, records=[])
    _report("crash of a command whose reference exit is 0 or 2",
            check_command(ref, crashed, sample["seed"]))


def _selfcheck_trajectory(refs):
    """Swap a Strang sample's final field for what a broken solver gives."""
    workload = "evolve-strang-dense"
    sample = spawn_sample(workload, 0)
    clean_problems = check_sample(refs, workload, sample)
    if clean_problems:
        raise SystemExit(f"clean {workload} sample rejected: {clean_problems}")
    entry = sample["commands"][0]
    ref = refs["workloads"][workload][entry["label"]]
    T = ref["final"]["T"]
    for name, final in (
            ("stepper returning the initial data", reference.lattice_samples(0, 0.0)),
            ("half the time step", reference.lattice_samples(0, T / 2.0)),
            ("nonlinearity dropped", reference.lattice_samples(0, T, nonlinear=False))):
        broken = dict(entry, final_u=final.tolist())
        _report(name, check_command(ref, broken, sample["seed"]))


def selfcheck():
    """Run one probe-suite and one Strang sample, break their outputs in
    several ways and confirm that the gate or the digest rejects each."""
    refs = load_refs()
    _selfcheck_records(refs)
    _selfcheck_trajectory(refs)
    print("gate selfcheck passed")


if __name__ == "__main__":
    action = sys.argv[1] if len(sys.argv) > 1 else ""
    if action == "capture":
        capture()
    elif action == "selfcheck":
        selfcheck()
    else:
        raise SystemExit("usage: gate.py capture|selfcheck")

"""Workload definitions: which CLI commands a sample runs, with which config.

Every workload runs canonical configs through the public API
(`fkpi_lab.cli.parse_config` and `fkpi_lab.cli.run`).  The benchmark seed
reaches the program only as the config `seed`; `workers` is pinned so the
load does not follow the host's core count.
"""

from __future__ import annotations

import json
import os

# Two sweep workers: the reference machine has two cores.
WORKERS = 2

# Final time of the dense Strang run: 50 steps at dt = 1e-3 on 512^2, every
# step kept as a snapshot (about 200 MiB of retained fields).
STRANG_DENSE_T = 0.05

# (label, command, config overrides); the label names the command's output
# directory and its per-command metrics.
WORKLOADS = {
    # Solver-bound: FFT products, SpectralField construction and the ETDRK4
    # stepper; 1 MiB arrays, cache-resident.
    "evolve-etdrk4": [
        ("conserve", "conserve", {}),
    ],
    # Same layers used differently: two linear propagations and two RHS
    # evaluations per step, mass and energy on every snapshot, every field
    # retained; 4 MiB arrays, so the working set exceeds L3.
    "evolve-strang-dense": [
        ("conserve", "conserve", {
            "grid": {"modes_x": 512, "modes_y": 512},
            "evolution": {"scheme": "strang", "snapshot_stride": 1,
                          "T": STRANG_DENSE_T},
        }),
    ],
    # Probe-bound: co-area and second-iterate quadrature, lattice rfftn,
    # artifact writes; almost no time in the stepper.  The nonresonant
    # trilinear command exits 1 at its canonical config and is counted as a
    # failed command.
    "probe-suite": [
        ("strichartz-linear", "strichartz", {"strichartz": {"kind": "linear"}}),
        ("strichartz-lowfreq", "strichartz", {"strichartz": {"kind": "lowfreq"}}),
        ("bilinear", "bilinear", {}),
        ("trilinear-lw_band", "trilinear", {"trilinear": {"regime": "lw_band"}}),
        ("trilinear-lw_modulation", "trilinear",
         {"trilinear": {"regime": "lw_modulation"}}),
        ("trilinear-nonresonant", "trilinear",
         {"trilinear": {"regime": "nonresonant"}}),
        ("scaling", "scaling", {}),
        ("illposedness", "illposedness", {}),
        ("resonance-scan", "resonance-scan", {}),
        ("transversality", "transversality", {}),
    ],
}

# Scratch space for run artifacts, relative to the checkout root.
OUT_ROOT = ".bench_out"


def output_dir(workload, label):
    """Relative output directory of one command; reused by every sample."""
    return os.path.join(OUT_ROOT, workload, label)


def config_text(command, overrides, seed, out_dir):
    """JSON config for one command of a workload."""
    raw = dict(overrides, command=command, seed=seed, workers=WORKERS,
               output_dir=out_dir)
    return json.dumps(raw, sort_keys=True)

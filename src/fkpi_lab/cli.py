"""Batch entry point: JSON-configured experiments, records and plot data on
disk, exit codes for CI gating.

Layout of a run directory:
  manifest.json    echo of the config keys the command reads, package/library
                   versions, wall time
  records.csv      (or records.jsonl with format = "json")
  slopes.json      every slope verdict, when the command fits any
  plotdata/*.dat   two-column (x, y) text files, one per fitted curve
  final_state.fkpi last field of a simulate run
  FAILED           marker file, present only when something failed
A run removes the files of this layout that it did not write.

Exit status: 0 all records pass, 2 at least one record fails, 1 execution
error (bad config, solver blowup, ...).  Reruns with identical config and
seed are byte-identical except for the manifest's timestamp key.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .evolution import EvolutionConfig, solve
from .grid import FrequencyGrid, save_field, to_spectral
from .norms import AnisoIndex, MixedNormSpec, energy_alpha, mass
from .probes import (
    SIZE_LAW_BAND,
    TRANSVERSALITY_BAND,
    Band,
    ProbeSweep,
    bilinear_sweep,
    linear_strichartz_sweep,
    lowfreq_l4_sweep,
    lw_band_sweep,
    lw_modulation_sweep,
    make_record,
    nonresonant_modulation_sweep,
    scaling_exponent_fit,
    illposedness_growth_study,
    slope_report,
    span_records,
    write_records_csv,
    write_records_jsonl,
)
from .symbols import DispersionParams, resonance_size_scan, transversality_check

COMMANDS = ("simulate", "conserve", "strichartz", "bilinear", "trilinear",
            "scaling", "illposedness", "resonance-scan", "transversality")

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class _Key:
    default: object
    kind: str
    help: str
    choices: tuple = ()


SCHEMA = {
    "command": _Key(None, "str", "experiment to run", COMMANDS),
    "alpha": _Key(2.5, "float", "dispersion exponent, 2 <= alpha < 4"),
    "seed": _Key(0, "int", "seed of the random data and samples; read by "
                 "simulate, conserve, bilinear, trilinear, resonance-scan, "
                 "transversality"),
    "workers": _Key(0, "int", "sweep worker pool size; 0 = logical cores"),
    "output_dir": _Key("fkpi-out", "str", "directory for run artifacts"),
    "format": _Key("csv", "str", "records file format", ("csv", "json")),
    "grid": {
        "length_x": _Key(TWO_PI, "float", "periodic box length in x"),
        "length_y": _Key(TWO_PI, "float", "periodic box length in y"),
        "modes_x": _Key(256, "int", "Fourier modes in x"),
        "modes_y": _Key(256, "int", "Fourier modes in y"),
    },
    "evolution": {
        "dt": _Key(1e-3, "float", "time step"),
        "T": _Key(1.0, "float", "final time"),
        "scheme": _Key("etdrk4", "str", "time stepper", ("etdrk4", "strang")),
        "snapshot_stride": _Key(50, "int", "record every k-th step"),
    },
    "probe": {
        "dyadic_range": _Key(None, "float_list",
                             "sweep points (powers of two, ascending); "
                             "every row that reads probe sets one"),
        "trials_per_point": _Key(4, "int", "random trials averaged per "
                                 "point; strichartz takes only 1"),
        "tolerance_lo": _Key(None, "float_or_null",
                             "slope band floor; null = one-sided"),
        "tolerance_hi": _Key(0.1, "float", "slope band cap"),
    },
    "data": {
        "kind": _Key("smooth", "str", "initial data for simulate/conserve",
                     ("smooth", "zero")),
        "amplitude": _Key(0.05, "float", "amplitude of the smooth profile"),
        "l2_norm": _Key(0.0, "float", "if > 0, rescale data to this L2 norm"),
    },
    "conserve": {
        "mass_tol": _Key(1e-6, "float", "relative mass drift cap"),
        "energy_tol": _Key(1e-4, "float", "relative energy drift cap"),
    },
    "strichartz": {
        "kind": _Key("linear", "str", "which space-time ratio to sweep",
                     ("linear", "lowfreq")),
        "q": _Key(4.0, "float", "time exponent of the mixed norm"),
        "r": _Key(4.0, "float", "space exponent of the mixed norm"),
        "T": _Key(1.0, "float", "time window at the first band"),
        "snapshots": _Key(128, "int", "trajectory snapshots per window"),
        "eta_sigma": _Key(2.0, "float", "transverse width of the data bump"),
        "comparator_shift": _Key(0.0, "float",
                                 "multiply the comparator by N^shift "
                                 "(negative control: -0.5)"),
    },
    "bilinear": {
        "n2": _Key(2.0, "float", "low band held fixed during the N1 sweep"),
        "nk": _Key(20, "int", "output-frequency cells per axis"),
        "nw": _Key(64, "int", "level-set nodes per slice"),
        "nx": _Key(48, "int", "xi nodes per slice"),
        "comparator_shift": _Key(0.0, "float",
                                 "multiply the comparator by N1^shift"),
    },
    "trilinear": {
        "regime": _Key("lw_band", "str", "which trilinear sweep to run",
                       ("lw_band", "lw_modulation", "nonresonant")),
        "n1": _Key(8.0, "float", "high band (fixed for modulation sweeps)"),
        "n2": _Key(2.0, "float", "second band"),
        "l": _Key(1.0, "float", "modulation width for band sweeps"),
        "l3": _Key(0.0, "float", "output modulation; 0 = regime default"),
        "nodes_tau": _Key(16, "int", "base tau nodes per patch"),
        "nodes_xi": _Key(12, "int", "xi nodes per patch"),
        "nodes_eta": _Key(12, "int", "eta nodes per patch"),
        "comparator_shift": _Key(0.0, "float",
                                 "multiply the comparator by (sweep var)^shift "
                                 "(modulation regimes only)"),
    },
    "scaling": {
        "s1": _Key(0.0, "float", "x-weight of the fitted norm"),
        "s2": _Key(0.0, "float", "y-weight of the fitted norm"),
        "lambdas": _Key((0.5, 2.0 ** -0.5, 1.0, 2.0 ** 0.5, 2.0), "float_list",
                        "rescaling factors for the fit"),
    },
    "illposedness": {
        "theta": _Key(0.05, "float", "closeness to the critical gamma scaling"),
        "n_list": _Key((256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0),
                       "float_list", "dyadic frequencies of the growth sweep"),
        "t": _Key(1.0, "float", "evaluation time of the second iterate"),
        "quad_res": _Key(12, "int", "box quadrature resolution"),
        "s1": _Key(0.0, "float", "x-weight of the measured norm"),
        "s2": _Key(0.0, "float", "y-weight of the measured norm"),
    },
    "scan": {
        "N": _Key(256.0, "float", "frequency separation of the boxes"),
        "theta": _Key(0.05, "float", "gamma = N^(-(alpha-1)/2 - theta)"),
        "samples": _Key(10000, "int", "uniform samples over the box pair"),
    },
    "transversality": {
        "n_max": _Key(16.0, "float", "magnitude band of the high frequency"),
        "n_min": _Key(2.0, "float", "magnitude band of the low frequency"),
        "samples": _Key(1000, "int", "resonant pairs to sample"),
        "c": _Key(0.1, "float", "resonance acceptance |Omega| <= c |Omega1|"),
    },
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    regime: str | None
    alpha: float
    seed: int
    workers: int
    output_dir: str
    format: str
    grid: FrequencyGrid | None
    evolution: EvolutionConfig | None
    probe: ProbeSweep | None
    sections: dict


def _is_number(value):
    # NaN is not a number here, so no record can carry a silent NaN verdict
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and not math.isnan(value))


def _coerce(path, value, key):
    kind = key.kind
    if kind == "float":
        if not _is_number(value):
            raise ValueError(f"'{path}' must be a number, got {value!r}")
        return float(value)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"'{path}' must be an integer, got {value!r}")
        return int(value)
    if kind == "str":
        if not isinstance(value, str):
            raise ValueError(f"'{path}' must be a string, got {value!r}")
        if key.choices and value not in key.choices:
            raise ValueError(
                f"'{path}' must be one of {list(key.choices)}, got {value!r}")
        return value
    if kind == "float_list":
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"'{path}' must be a nonempty list of numbers")
        out = []
        for v in value:
            if not _is_number(v):
                raise ValueError(f"'{path}' must hold numbers, got {v!r}")
            out.append(float(v))
        return tuple(out)
    if kind == "float_or_null":
        if value is None:
            return None
        return _coerce(path, value, _Key(None, "float", ""))
    raise AssertionError(f"unhandled kind {kind}")


def _walk_schema(raw):
    """Validate a raw JSON object against SCHEMA; unknown keys are fatal."""
    cfg = {}
    for key, val in raw.items():
        if key not in SCHEMA:
            raise ValueError(f"unknown key '{key}'")
        spec = SCHEMA[key]
        if isinstance(spec, dict):
            if not isinstance(val, dict):
                raise ValueError(f"'{key}' must be a JSON object")
            sub = {}
            for k2, v2 in val.items():
                if k2 not in spec:
                    raise ValueError(f"unknown key '{key}.{k2}'")
                sub[k2] = _coerce(f"{key}.{k2}", v2, spec[k2])
            cfg[key] = sub
        else:
            cfg[key] = _coerce(key, val, spec)
    return cfg


def _fill_section(name, present, row=None):
    """The section as given, each missing key taken from `row`, else SCHEMA."""
    out = dict(present or {})
    for k2, key in SCHEMA[name].items():
        out.setdefault(k2, (row or {}).get(k2, key.default))
    return out


def _json_object(text):
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    return raw


def parse_config(text, command=None):
    """Parse and validate a JSON config; `command` overrides/fills the key."""
    return _build_config(_json_object(text), command)


def _build_config(raw, command):
    cfg = _walk_schema(raw)

    cmd = cfg.get("command")
    if command is not None:
        if cmd is not None and cmd != command:
            raise ValueError(
                f"command mismatch: '{command}' on the command line but "
                f"'{cmd}' in the config")
        cmd = command
    if cmd is None:
        raise ValueError("command is required")
    if cmd not in COMMANDS:
        raise ValueError(f"'command' must be one of {list(COMMANDS)}, got {cmd!r}")

    alpha = cfg.get("alpha", SCHEMA["alpha"].default)
    DispersionParams(alpha)  # range check
    seed = cfg.get("seed", SCHEMA["seed"].default)
    workers = cfg.get("workers", SCHEMA["workers"].default)
    if workers < 0:
        raise ValueError(f"workers must be nonnegative, got {workers}")

    key = REGIME_KEYS.get(cmd)
    regime = _fill_section(cmd, cfg.get(cmd))[key] if key else None
    reads = _reads(cmd, regime)
    unread = [name for name in cfg if isinstance(SCHEMA[name], dict)
              and name not in reads]
    if unread:
        raise ValueError(f"{cmd} does not read the section(s) {', '.join(unread)};"
                         f" it reads {', '.join(reads)}")
    sections = {name: _fill_section(name, cfg.get(name), row)
                for name, row in reads.items()}
    # schema keys of these sections are the constructors' field names
    grid = FrequencyGrid(**sections["grid"]) if "grid" in reads else None
    evolution = EvolutionConfig(**sections["evolution"]) if "evolution" in reads else None
    probe = None
    if "probe" in reads:
        p = sections["probe"]
        lo = -math.inf if p["tolerance_lo"] is None else p["tolerance_lo"]
        probe = ProbeSweep(dyadic_range=p["dyadic_range"],
                           trials_per_point=p["trials_per_point"], seed=seed,
                           tolerance_band=(lo, p["tolerance_hi"]))
    return RunConfig(
        command=cmd, regime=regime, alpha=alpha, seed=seed, workers=workers,
        output_dir=cfg.get("output_dir", SCHEMA["output_dir"].default),
        format=cfg.get("format", SCHEMA["format"].default),
        grid=grid, evolution=evolution, probe=probe, sections=sections)


def apply_overrides(raw, assignments):
    """Apply --set key=value pairs (dotted paths) onto the raw JSON dict."""
    for item in assignments:
        if "=" not in item:
            raise ValueError(f"--set needs key=value, got {item!r}")
        path, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        parts = path.split(".")
        if len(parts) == 1:
            raw[parts[0]] = value
        elif len(parts) == 2:
            raw.setdefault(parts[0], {})
            if not isinstance(raw[parts[0]], dict):
                raise ValueError(f"'{parts[0]}' is not a section")
            raw[parts[0]][parts[1]] = value
        else:
            raise ValueError(f"--set supports at most one dot, got {path!r}")
    return raw


# ------------------------------------------------------------------ commands


def _smooth_data(grid, amplitude, l2_target, seed):
    rng = np.random.default_rng([seed, 101])
    x, y = grid.x[:, None], grid.y[None, :]
    samples = amplitude * sum(
        rng.normal() * np.cos(i * x + j * y + rng.uniform(0.0, TWO_PI))
        for i in (1, 2)
        for j in (-1, 0, 1)
    )
    u0 = to_spectral(samples, grid)
    if l2_target > 0.0:
        norm = math.sqrt(mass(u0))
        if norm > 0.0:
            u0 = u0 * (l2_target / norm)
    return u0


def _rel_drift(value, reference):
    if value == reference:
        return 0.0
    return abs(value - reference) / max(abs(reference), 1e-300)


def _evolve(params, config):
    grid, ev, data = config.grid, config.evolution, config.sections["data"]
    if data["kind"] == "zero":
        u0 = to_spectral(np.zeros((grid.modes_x, grid.modes_y)), grid)
    else:
        u0 = _smooth_data(grid, data["amplitude"], data["l2_norm"], config.seed)
    # mass and energy of each snapshot as the march reaches it; only the
    # final field is kept
    traj = solve(params, u0, ev,
                 observe=lambda f: (mass(f), energy_alpha(params, f)))
    masses, energies = zip(*traj.observed)
    base = {"alpha": config.alpha, "dt": ev.dt, "T": ev.T, "scheme": ev.scheme,
            "seed": config.seed}
    return traj, base, masses, energies


def _simulate(params, config, sec):
    traj, base, masses, energies = _evolve(params, config)
    records = [make_record("simulate_" + name, base, values[-1], values[0], True,
                           note="final vs initial")
               for name, values in (("mass", masses), ("energy", energies))]
    curves = [("mass_t", traj.times, masses), ("energy_t", traj.times, energies)]
    final = os.path.join(config.output_dir, "final_state.fkpi")
    save_field(traj.fields[-1], final)
    return records, curves


def _conserve(params, config, tol):
    traj, base, masses, energies = _evolve(params, config)
    records, curves = [], []
    for name, values in (("mass", masses), ("energy", energies)):
        drift = [_rel_drift(v, values[0]) for v in values]
        band = Band(hi=tol[name + "_tol"])
        records.append(band.record(name + "_drift", base, max(drift)))
        curves.append((name + "_drift_t", traj.times, drift))
    return records, curves


def _curve(records, name, xs, value="ratio"):
    """The records and one plot curve: `value` of each point record vs xs."""
    return records, [(name, xs, [getattr(r, value) for r in records[:-1]])]


def _pool(config):
    return config.workers or os.cpu_count()


def _nodes(sec):
    return (sec["nodes_tau"], sec["nodes_xi"], sec["nodes_eta"])


def _lw_band(params, config, sec):
    if sec["comparator_shift"] != 0.0:
        raise ValueError(
            "trilinear.comparator_shift applies to the modulation sweeps "
            "only, not to the lw_band regime")
    return _curve(lw_band_sweep(params, sec["n2"], config.probe, l=sec["l"],
                                workers=_pool(config), nodes=_nodes(sec)),
                  "lw_n1", config.probe.dyadic_range)


def _scaling(params, config, sec):
    record, norms = scaling_exponent_fit(
        params, AnisoIndex(sec["s1"], sec["s2"]), sec["lambdas"], config.grid)
    return [record], [("scaling_norm_lambda", sec["lambdas"], norms)]


def _resonance_scan(params, config, _):
    sec = config.sections["scan"]
    gamma = sec["N"] ** (-(config.alpha - 1.0) / 2.0 - sec["theta"])
    r = resonance_size_scan(params, sec["N"], gamma, samples=sec["samples"],
                            seed=config.seed)
    base = {"alpha": config.alpha, "N": sec["N"], "gamma": gamma,
            "samples": sec["samples"], "seed": config.seed}
    return span_records("resonance_scan", base, [
        ("omega1_over_N^alpha*gamma", r.omega1_ratio_min, r.omega1_ratio_max),
        ("omega_over_N^(alpha-1)*gamma^2", r.omega_ratio_min, r.omega_ratio_max),
    ], SIZE_LAW_BAND), []


def _transversality(params, config, sec):
    r = transversality_check(params, sec["n_max"], sec["n_min"],
                             samples=sec["samples"], seed=config.seed, c=sec["c"])
    base = {"alpha": config.alpha, "n_max": sec["n_max"], "n_min": sec["n_min"],
            "c": sec["c"], "samples": sec["samples"], "seed": config.seed}
    return span_records("transversality", base, [
        ("cross_over_Nmax^(alpha/2+1)*Nmin", r.cross_ratio_min, r.cross_ratio_max),
        ("slope_gap_over_Nmax^(alpha/2)", r.slope_gap_ratio_min, r.slope_gap_ratio_max),
    ], TRANSVERSALITY_BAND), []


# One row per (command, regime): each section its call reads besides the
# command's own, with the keys whose canonical value is not SCHEMA's, and
# the call (params, config, own section) -> (records, plot curves).  Given
# sections are completed from the row; unread ones are rejected.  Library
# functions are named inside the calls, so they are looked up when a command
# runs (perfbench/tracer.py patches them); nothing here runs at import.
SETUPS = {
    ("simulate", None): ({"grid": {}, "evolution": {}, "data": {}}, _simulate),
    ("conserve", None): ({"grid": {}, "evolution": {}, "data": {}}, _conserve),
    ("strichartz", "linear"): (
        {"grid": {"modes_x": 512, "modes_y": 64},
         "probe": {"dyadic_range": (8.0, 16.0, 32.0, 64.0, 128.0), "trials_per_point": 1}},
        lambda params, c, sec: _curve(linear_strichartz_sweep(
            params, MixedNormSpec(sec["q"], sec["r"]), c.probe, c.grid,
            T=sec["T"], snapshots=sec["snapshots"], eta_sigma=sec["eta_sigma"],
            workers=_pool(c), comparator_shift=sec["comparator_shift"]),
            "linear_strichartz_band_n", c.probe.dyadic_range)),
    ("strichartz", "lowfreq"): (
        {"grid": {"length_x": 256.0 * math.pi, "length_y": 16.0 * math.pi,
                  "modes_x": 512, "modes_y": 64},
         "probe": {"dyadic_range": (0.015625, 0.03125, 0.0625, 0.125, 0.25, 0.5),
                   "trials_per_point": 1, "tolerance_lo": -0.2, "tolerance_hi": 0.2}},
        lambda params, c, sec: _curve(lowfreq_l4_sweep(
            params, c.probe, c.grid, sec["eta_sigma"], T=sec["T"],
            snapshots=sec["snapshots"], workers=_pool(c),
            comparator_shift=sec["comparator_shift"]),
            "lowfreq_l4_N", c.probe.dyadic_range)),
    ("bilinear", None): (
        {"probe": {"dyadic_range": (8.0, 16.0, 32.0, 64.0), "trials_per_point": 8}},
        lambda params, c, sec: _curve(bilinear_sweep(
            params, sec["n2"], c.probe, workers=_pool(c),
            comparator_shift=sec["comparator_shift"],
            resolution=(sec["nk"], sec["nw"], sec["nx"])),
            "bilinear_n1", c.probe.dyadic_range)),
    ("trilinear", "lw_band"): (
        {"probe": {"dyadic_range": (8.0, 16.0, 32.0, 64.0), "tolerance_hi": 0.2}},
        _lw_band),
    ("trilinear", "lw_modulation"): (
        {"probe": {"dyadic_range": (1.0, 2.0, 4.0, 8.0), "tolerance_hi": 0.2}},
        lambda params, c, sec: _curve(lw_modulation_sweep(
            params, sec["n1"], sec["n2"], c.probe, workers=_pool(c),
            comparator_shift=sec["comparator_shift"], nodes=_nodes(sec)),
            "lw_modulation_l", c.probe.dyadic_range)),
    ("trilinear", "nonresonant"): (
        {"probe": {"dyadic_range": (1.0, 2.0, 4.0, 8.0), "tolerance_hi": 0.2}},
        lambda params, c, sec: _curve(nonresonant_modulation_sweep(
            params, sec["n1"], sec["n2"], c.probe,
            l3=sec["l3"] if sec["l3"] > 0.0 else None, workers=_pool(c),
            comparator_shift=sec["comparator_shift"], nodes=_nodes(sec)),
            "nonresonant_l1", c.probe.dyadic_range)),
    ("scaling", None): (
        {"grid": {"length_x": 64.0 * math.pi, "length_y": 64.0 * math.pi,
                  "modes_x": 512, "modes_y": 1024}}, _scaling),
    ("illposedness", None): (
        {},
        lambda params, c, sec: _curve(illposedness_growth_study(
            params, sec["theta"], sec["n_list"],
            sbar=AnisoIndex(sec["s1"], sec["s2"]), t=sec["t"],
            quad_res=sec["quad_res"]), "illposedness_norm_N", sec["n_list"],
            "measured")),
    ("resonance-scan", None): ({"scan": {}}, _resonance_scan),
    ("transversality", None): ({}, _transversality),
}

# section key that picks the regime of a multi-regime command
REGIME_KEYS = {"strichartz": "kind", "trilinear": "regime"}


def _reads(command, regime):
    """{section: canonical overrides} of every section the row's call reads."""
    return {**SETUPS[command, regime][0], **({command: {}} if command in SCHEMA else {})}


def _run_setup(config):
    call = SETUPS[config.command, config.regime][1]
    return call(DispersionParams(config.alpha), config,
                config.sections.get(config.command))


HANDLERS = {command: _run_setup for command, _ in SETUPS}


# ----------------------------------------------------------------- artifacts


def _write_curves(out_dir, curves):
    plot_dir = os.path.join(out_dir, "plotdata")
    os.makedirs(plot_dir, exist_ok=True)
    for name, xs, ys in curves:
        lines = [f"{repr(float(x))} {repr(float(y))}" for x, y in zip(xs, ys)]
        with open(os.path.join(plot_dir, name + ".dat"), "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _write_manifest(out_dir, config, n_records, failures, wall, error=None):
    manifest = {
        "command": config.command,
        # the six top-level keys, and the sections the command reads
        "config": {**{key: getattr(config, key) for key, spec in SCHEMA.items()
                      if not isinstance(spec, dict)}, **config.sections},
        "versions": {
            "fkpi_lab": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "records": n_records,
        "failures": failures,
        "timestamp": {"unix": time.time(), "wall_time_s": wall},
    }
    if error is not None:
        manifest["error"] = error
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _remove_unwritten(out, written):
    """Remove each layout file under `out` that this run did not write."""
    plots = glob.glob(os.path.join("plotdata", "*.dat"), root_dir=out)
    for name in {"records.csv", "records.jsonl", "slopes.json", "final_state.fkpi",
                 "FAILED", *plots} - written:
        if os.path.exists(os.path.join(out, name)):
            os.remove(os.path.join(out, name))


def run(config):
    """Execute one experiment; returns the process exit status.  Afterwards
    `output_dir` holds only what this run wrote."""
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    marker = os.path.join(out, "FAILED")
    start = time.monotonic()
    try:
        records, curves = HANDLERS[config.command](config)
        slopes = slope_report(records)
        # a NaN slope or band edge raises here, before any artifact is written
        slopes_json = json.dumps(slopes, indent=2, sort_keys=True, allow_nan=False)
    except Exception as exc:  # noqa: BLE001 - the contract is an exit code
        wall = time.monotonic() - start
        _write_manifest(out, config, 0, [], wall, error=str(exc))
        with open(marker, "w") as fh:
            fh.write(f"error: {exc}\n")
        _remove_unwritten(out, {"FAILED"})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.monotonic() - start

    name = "records.jsonl" if config.format == "json" else "records.csv"
    write = write_records_jsonl if config.format == "json" else write_records_csv
    write(records, os.path.join(out, name))
    # _simulate saves the final state
    written = {name, "final_state.fkpi"} if config.command == "simulate" else {name}
    if slopes:
        with open(os.path.join(out, "slopes.json"), "w") as fh:
            fh.write(slopes_json + "\n")
        written.add("slopes.json")
    _write_curves(out, curves)
    written.update(os.path.join("plotdata", c + ".dat") for c, _, _ in curves)
    failures = [r.probe_name for r in records if not r.passed]
    _write_manifest(out, config, len(records), failures, wall)
    if failures:
        with open(marker, "w") as fh:
            fh.write("\n".join(failures) + "\n")
        written.add("FAILED")
    _remove_unwritten(out, written)
    return 2 if failures else 0


# ----------------------------------------------------------------------- CLI


def _shown(value):
    return json.dumps(list(value) if isinstance(value, tuple) else value)


def _describe(name, key):
    text = key.help
    if key.choices:
        text += f" (one of {', '.join(str(c) for c in key.choices)})"
    shown = "required" if name == "command" else _shown(key.default)
    return f"  {name:<28} default {shown:<22} {text}"


def _schema_help():
    lines = ["configuration keys (JSON file; override with --set key=value):"]
    for key, spec in SCHEMA.items():
        if isinstance(spec, dict):
            lines += [_describe(f"{key}.{k2}", sub) for k2, sub in spec.items()]
        else:
            lines.append(_describe(key, spec))
    lines += ["", "canonical setups: the sections each command reads, with the "
              "keys that differ", "from the defaults above; a given section is "
              "completed from its row, and a", "section the command does not "
              "read is rejected:"]
    for command, regime in SETUPS:
        reads = _reads(command, regime)
        lines.append(f"  {command + ' ' + (regime or ''):<24} reads {', '.join(reads)}")
        lines += [f"  {'':<24} {name}: " + " ".join(
            f"{k}={v / math.pi:g}pi" if k.startswith("length") else f"{k}={_shown(v)}"
            for k, v in keys.items()) for name, keys in reads.items() if keys]
    lines += [
        "trilinear nonresonant needs n1 <= n2/4: --set trilinear.n1=1 "
        "--set trilinear.n2=8",
        "",
        "exit status: 0 = all records pass, 2 = some record failed, "
        "1 = execution error",
    ]
    return "\n".join(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fkpi-lab",
        description="Dispersive-estimate laboratory: run one experiment and "
                    "write its records, slopes, and plot data.",
        epilog=_schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, nargs="?", default=None,
                        help="experiment to run (may also come from the config)")
    parser.add_argument("--config", metavar="FILE",
                        help="JSON configuration file")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override one config key (dotted paths reach "
                             "into sections)")
    parser.add_argument("--output-dir", metavar="DIR",
                        help="shorthand for --set output_dir=DIR")
    parser.add_argument("--seed", metavar="S", type=int,
                        help="shorthand for --set seed=S")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        text = ""
        if args.config is not None:
            with open(args.config) as fh:
                text = fh.read()
        raw = apply_overrides(_json_object(text), args.overrides)
        if args.output_dir is not None:
            raw["output_dir"] = args.output_dir
        if args.seed is not None:
            raw["seed"] = args.seed
        return run(_build_config(raw, args.command))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

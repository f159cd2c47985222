"""Falsification probes for the estimate zoo: each inequality or exponent law
is operationalized as a measured/comparator ratio swept over a dyadic
parameter, with an ordinary least-squares slope of log ratio vs log parameter
as the verdict.  Implicit constants are unknowable, so trends are the only
falsifiable content; a probe "passes" when its slope stays inside the stated
band.

Probe families:
  * linear / low-frequency Strichartz ratios on evolution grids,
  * the bilinear product-norm ratio in the resonant-transversal regime,
    computed by an exact level-set (co-area) quadrature in frequency space,
  * trilinear lattice integrals (Loomis-Whitney and non-resonant regimes),
  * the anisotropic scaling-exponent fit,
  * the second-iterate norm-growth study.

Records serialize to CSV and JSON lines; identical (config, seed) reruns
are byte-identical.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .evolution import box_data_norms, propagate_linear, second_iterate_boxdata
from .grid import SpectralField, fractional_x_derivative, is_dyadic
from .norms import MixedNormSpec, mass, spacetime_norm
from .symbols import omega1_arrays, omega_arrays, resonance_arrays


@dataclass(frozen=True)
class ExperimentRecord:
    probe_name: str
    inputs: dict
    measured: float
    comparator: float
    passed: bool
    note: str = ""

    @property
    def ratio(self):
        """measured / comparator, or NaN for a zero comparator."""
        return self.measured / self.comparator if self.comparator != 0.0 else math.nan

    def to_dict(self):
        out = {"probe": self.probe_name}
        out.update(self.inputs)
        out["measured"] = self.measured
        out["comparator"] = self.comparator
        out["ratio"] = self.ratio
        out["pass"] = self.passed
        out["note"] = self.note
        return out


def make_record(probe_name, inputs, measured, comparator, passed, note=""):
    return ExperimentRecord(probe_name, dict(inputs), float(measured),
                            float(comparator), bool(passed), note)


@dataclass(frozen=True)
class Band:
    """A record's verdict: pass when lo <= v <= hi for each checked column
    v.  The record carries the band as the columns band_lo, band_hi and, when
    given, target; an infinite edge is an empty CSV cell and a JSON null."""

    lo: float = -math.inf
    hi: float = math.inf
    target: float | None = None

    def record(self, probe_name, inputs, measured, comparator=None,
               checked=("measured",), note=""):
        """The verdict record; `checked` names the columns held to the band.
        The comparator defaults to the target, else the upper edge."""
        if comparator is None:
            comparator = self.hi if self.target is None else self.target
        values = dict(inputs, measured=measured)
        passed = all(self.lo <= values[c] <= self.hi for c in checked)
        edges = {"band_lo": self.lo, "band_hi": self.hi}
        columns = {k: None if math.isinf(v) else v for k, v in edges.items()}
        if self.target is not None:
            columns["target"] = self.target
        return make_record(probe_name, {**inputs, **columns}, measured, comparator,
                           passed, note)


# The resonance and transversality size laws: every sampled ratio within a
# factor 8 (16) of its law; the growth study's box data norms in [1/4, 4].
SIZE_LAW_BAND = Band(0.125, 8.0)
TRANSVERSALITY_BAND = Band(0.0625, 16.0)
DATA_NORM_BAND = Band(0.25, 4.0)
# Center proposals per nonresonant trial before the L3 shell counts as missed.
_CENTER_TRIES = 64


def span_records(probe_name, inputs, spans, band):
    """One record per (law, ratio_min, ratio_max) span: measured = the max,
    and both ends held to the band."""
    return [band.record(probe_name, dict(inputs, law=law, ratio_min=lo), hi,
                        checked=("ratio_min", "measured")) for law, lo, hi in spans]


def growth_band(alpha, theta):
    """The growth-slope band of illposedness_growth_study."""
    target = 1.75 - 0.75 * alpha - 1.5 * theta
    lo, hi = target - 0.1, target + 0.1
    if alpha < 7.0 / 3.0 - 2.0 * theta:
        lo = max(lo, 0.0)
    elif alpha > 7.0 / 3.0 + 2.0 * theta:
        hi = min(hi, 0.0)
    return Band(lo, hi, target)


@dataclass(frozen=True)
class ProbeSweep:
    dyadic_range: tuple
    trials_per_point: int
    seed: int
    tolerance_band: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.dyadic_range)
        if not vals:
            raise ValueError("dyadic_range must be nonempty")
        if any(not is_dyadic(v) for v in vals):
            raise ValueError(f"dyadic_range must hold powers of two, got {vals}")
        if list(vals) != sorted(vals):
            raise ValueError("dyadic_range must be ascending")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        lo, hi = self.tolerance_band
        if not lo <= hi:
            raise ValueError("tolerance_band must be ordered")
        object.__setattr__(self, "dyadic_range", vals)


def fit_loglog_slope(xs, ys):
    """OLS slope of log y against log x; needs >= 4 points for a verdict."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 4:
        raise ValueError("slope fit needs at least 4 sweep points")
    data = np.concatenate([xs, ys])
    if not np.all((data > 0.0) & np.isfinite(data)):
        raise ValueError("slope fit needs positive finite data")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _run_points(point_fn, keys, workers):
    if workers is None or workers <= 1:
        return [point_fn(k) for k in keys]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(point_fn, keys))


def _sweep(sweep, point, var, inputs, workers, shift=0.0, symbol="N"):
    """Run point(x) over the sweep, then append the slope verdict.

    A nonzero shift multiplies each point's comparator by x^shift (the
    negative controls); symbol names x in the record note.
    """
    def one(x):
        rec = point(x)
        if shift == 0.0:
            return rec
        return replace(rec, comparator=rec.comparator * x ** shift,
                       note=f"comparator shifted by {symbol}^{shift}")

    records = _run_points(one, sweep.dyadic_range, workers)
    slope = fit_loglog_slope(sweep.dyadic_range, [r.ratio for r in records])
    return records + [Band(*sweep.tolerance_band).record(
        records[0].probe_name + "_slope", dict(inputs, sweep_variable=var), slope,
        note=f"log-log slope of ratio vs {var}")]


# ------------------------------------------------------- record persistence


def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def write_records_csv(records, path):
    keys = sorted({k for r in records for k in r.inputs})
    header = ["probe"] + keys + ["measured", "comparator", "ratio", "pass", "note"]
    rows = [r.to_dict() for r in records]
    lines = [",".join(header)] + [
        ",".join(_format_cell(row.get(k)).replace(",", ";") for k in header)
        for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_records_jsonl(records, path):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r.to_dict(), sort_keys=True) + "\n")


def slope_report(records):
    """The slope verdicts (the records with a sweep variable), JSON-ready."""
    return [{"probe": r.probe_name, "sweep_variable": r.inputs["sweep_variable"],
             "slope": r.measured, "band_lo": r.inputs.get("band_lo"),
             "band_hi": r.inputs.get("band_hi"), "pass": r.passed,
             **{k: r.inputs[k] for k in ("target",) if k in r.inputs}}
            for r in records if "sweep_variable" in r.inputs]


# --------------------------------------------------- evolution-grid probes


def band_bump_field(grid, xi_lo, xi_hi, eta_sigma):
    """Real zero-x-mean data: a Gaussian bump hard-truncated to a xi band.

    The profile is centered mid-band with width (xi_hi-xi_lo)/4; support is
    exactly {xi_lo <= |xi| <= xi_hi}.
    """
    if not (0.0 < xi_lo < xi_hi):
        raise ValueError("band must satisfy 0 < xi_lo < xi_hi")
    xi = np.abs(grid.xi)[:, None]
    eta = grid.eta[None, :]
    center = 0.5 * (xi_lo + xi_hi)
    sigma = 0.25 * (xi_hi - xi_lo)
    bump = np.exp(-0.5 * ((xi - center) / sigma) ** 2 - 0.5 * (eta / eta_sigma) ** 2)
    bump *= (xi >= xi_lo) & (xi <= xi_hi)
    return SpectralField(grid, bump)


def _single_trial(sweep):
    """A Strichartz point is one deterministic evolution: no trials to average."""
    if sweep.trials_per_point != 1:
        raise ValueError(
            f"trials_per_point must be 1 for the Strichartz sweeps, got "
            f"{sweep.trials_per_point}: their points are deterministic")


def _linear_trajectory(params, u0, T, snapshots):
    """Yield (t_k, U(t_k) u0) on snapshots + 1 uniform times, each state one
    step of T / snapshots from the last, so one phase table serves them all
    and only the current state is alive."""
    times = np.linspace(0.0, T, snapshots + 1)
    u = u0
    yield 0.0, u
    for t in times[1:]:
        u = propagate_linear(params, u, T / snapshots)
        yield float(t), u


def linear_strichartz_ratio(params, spec, u0, T, snapshots, extra_inputs=None):
    """Ratio of the x-smoothed free-evolution norm against the data's L^2 size.

    measured = L^q_t L^r norm of |D_x|^{-gamma} U(t) u0 over [0, T] with the
    admissible smoothing gamma = (1 - 2/r)(1/2 - alpha/4); comparator = ||u0||.
    """
    if not spec.strichartz_admissible:
        raise ValueError(f"(q, r) = ({spec.q}, {spec.r}) is not admissible")
    inputs = {"alpha": params.alpha, "q": spec.q, "r": spec.r, "T": T}
    if extra_inputs:
        inputs.update(extra_inputs)
    l2 = math.sqrt(mass(u0))
    if l2 == 0.0:
        return make_record("linear_strichartz", inputs, 0.0, 0.0, True,
                           note="degenerate: zero data")
    gamma = spec.gamma_weight(params.alpha)
    w0 = fractional_x_derivative(u0, -gamma)
    traj = _linear_trajectory(params, w0, T, snapshots)
    measured = spacetime_norm(traj, spec)
    return make_record("linear_strichartz", inputs, measured, l2, True)


def linear_strichartz_sweep(params, spec, sweep, grid, T, snapshots, eta_sigma,
                            workers, comparator_shift):
    """Band-sweep of linear_strichartz_ratio plus its slope verdict.

    The time window shrinks like 1/N from T at the first band, tracking the
    band's dispersal time; on a fixed periodic box a fixed window would only
    see the equidistributed plateau, which carries no band information.
    comparator_shift multiplies the comparator by N^shift.  The slope moves
    by exactly the shift, so a negative control must push the honest slope
    past the cap: at the CLI's canonical alpha = 2.5 setup the slope is
    -0.160, so shift -1/4 (0.090) stays under the 0.1 cap and -1/2 (0.340)
    fails.
    """
    _single_trial(sweep)
    n0 = sweep.dyadic_range[0]
    return _sweep(
        sweep, lambda n: linear_strichartz_ratio(
            params, spec, band_bump_field(grid, n, 2.0 * n, eta_sigma),
            T=T * n0 / n, snapshots=snapshots, extra_inputs={"band_n": n}),
        "band_n", {"alpha": params.alpha, "q": spec.q, "r": spec.r}, workers,
        comparator_shift)


def lowfreq_l4_ratio(params, N, K, u0, T, snapshots):
    """L^4 space-time ratio for data in a low-frequency band of width K at N.

    comparator = K^{1/4} N^{1/8} ||u0||; the support must lie in
    {N <= |xi| <= N + K} exactly (relative leakage below 1e-9).
    """
    if not is_dyadic(N) or N >= 1.0:
        raise ValueError(f"N must be dyadic and < 1, got {N}")
    if not is_dyadic(K):
        raise ValueError(f"K must be dyadic, got {K}")
    axi = np.abs(u0.grid.xi)
    # spectral power of each xi row, summed over eta
    power = np.sum(np.abs(u0.half) ** 2 * u0.grid.half_weight, axis=1)
    total = float(np.sum(power))
    if total == 0.0:
        return make_record("lowfreq_l4", {"alpha": params.alpha, "N": N, "K": K},
                           0.0, 0.0, True, note="degenerate: zero data")
    outside = float(np.sum(power[(axi < N) | (axi > N + K)]))
    if outside > 1e-9 * total:
        raise ValueError(
            f"support violation: {outside / total:.2e} of the data lies "
            f"outside {N} <= |xi| <= {N + K}")
    inputs = {"alpha": params.alpha, "N": N, "K": K, "T": T}
    l2 = math.sqrt(mass(u0))
    spec = MixedNormSpec(4.0, 4.0)
    traj = _linear_trajectory(params, u0, T, snapshots)
    measured = spacetime_norm(traj, spec)
    comparator = K ** 0.25 * N ** 0.125 * l2
    return make_record("lowfreq_l4", inputs, measured, comparator, True)


def lowfreq_l4_sweep(params, sweep, grid, eta_sigma, T, snapshots, workers, comparator_shift):
    _single_trial(sweep)
    return _sweep(
        sweep, lambda n: lowfreq_l4_ratio(
            params, n, n, band_bump_field(grid, n, 2.0 * n, eta_sigma), T=T,
            snapshots=snapshots),
        "N", {"alpha": params.alpha}, workers, comparator_shift)


# ------------------------------------------------- bilinear (co-area) probe


def exact_resonant_center(params, n_high, n_low, rng):
    """One (p1, p2) pair on the resonant variety, p1 high band, p2 low.

    eta1 is the exact root of Omega = 0 given the other three coordinates,
    so the center is resonant to rounding.
    """
    u1 = rng.random()
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return _resonant_center_from_uniforms(params, n_high, n_low, u1,
                                          rng.random(), rng.random(), sign)


def _resonant_center_from_uniforms(params, n_high, n_low, u1, u2, u3, sign):
    alpha = params.alpha
    xi1 = n_high * (1.0 + u1)
    xi2 = n_low * (1.0 + u3)
    eta2 = (u2 - 0.5) * n_high ** (alpha / 2.0)
    om1 = omega1_arrays(alpha, xi1, xi2)
    d = xi1 * xi2 * (xi1 + xi2)
    cross = math.sqrt(om1 * d) * sign
    eta1 = (cross + eta2 * xi1) / xi2
    return (xi1, eta1), (xi2, eta2)


def coarea_product_norm(alpha, box_a, box_b, nk, nw, nx):
    """L^2_{t in [0,1], x, y} norm of the product of two free waves with
    unit-L^2 indicator data on two frequency boxes.

    For fixed output frequency k the interaction phase is quadratic in the
    inner eta, so the level sets are explicit; the time integral collapses
    to pi * int |g_k(W)|^2 dW once g varies on W-scales >> 1 (true here:
    the phase spread per box is >> 2pi, checked by the caller).
    """
    xa0, xa1, ya0, ya1 = box_a
    xb0, xb1, yb0, yb1 = box_b
    amp2 = 1.0 / ((xa1 - xa0) * (ya1 - ya0) * (xb1 - xb0) * (yb1 - yb0))
    kx_e = np.linspace(xa0 + xb0, xa1 + xb1, nk + 1)
    ky_e = np.linspace(ya0 + yb0, ya1 + yb1, nk + 1)
    kx = 0.5 * (kx_e[:-1] + kx_e[1:])
    ky = 0.5 * (ky_e[:-1] + ky_e[1:])
    dky = ky_e[1:] - ky_e[:-1]
    # eta1 slice of each output row ky: rows with an empty slice add nothing
    ey_lo = np.maximum(ya0, ky - yb1)
    ey_hi = np.minimum(ya1, ky - yb0)
    rows = ey_hi > ey_lo
    ky, dky = ky[rows], dky[rows]
    ey = np.linspace(ey_lo[rows], ey_hi[rows], 9, axis=-1)[:, None, :]
    kyc = ky[:, None, None]
    total = 0.0
    span_lo, span_hi = math.inf, -math.inf
    for i, kxi in enumerate(kx):
        lo = max(xa0, kxi - xb1)
        hi = min(xa1, kxi - xb0)
        if hi <= lo or not ky.size:
            continue
        xi1 = np.linspace(lo, hi, nx + 1)
        xi1 = 0.5 * (xi1[:-1] + xi1[1:])
        dx1 = (hi - lo) / nx
        xi2 = kxi - xi1
        # Phi(eta') = a eta'^2 + b eta' + c along each (ky, xi1) slice; all
        # arrays are (ky row, xi1 node, level or eta node)
        a = (kxi / (xi1 * xi2))[None, :, None]
        b = (-2.0 * kyc) / xi2[None, :, None]
        c = ((np.abs(xi1) ** alpha * xi1 + np.abs(xi2) ** alpha * xi2)[None, :, None]
             + kyc ** 2 / xi2[None, :, None])
        phis = a * ey ** 2 + b * ey + c
        wlo, whi = phis.min(axis=(1, 2)), phis.max(axis=(1, 2))
        span_lo = min(span_lo, float(wlo.min()))
        span_hi = max(span_hi, float(whi.max()))
        live = whi > wlo
        if not live.any():
            continue
        wlo, whi, b, c, kyl = wlo[live], whi[live], b[live], c[live], kyc[live]
        wgrid = np.linspace(wlo, whi, nw, axis=-1)[:, None, :]
        dw = (whi - wlo) / (nw - 1)
        disc = b ** 2 - 4.0 * a * (c - wgrid)
        ok = disc > 0.0
        sq = np.sqrt(np.where(ok, disc, 1.0))
        g = 0.0
        for sgn in (1.0, -1.0):
            eta1 = (-b + sgn * sq) / (2.0 * a)
            inside = (ok & (eta1 >= ya0) & (eta1 <= ya1)
                      & (kyl - eta1 >= yb0) & (kyl - eta1 <= yb1))
            g = g + np.sum(np.where(inside, 1.0 / sq, 0.0), axis=1) * dx1
        cell = (kx_e[i + 1] - kx_e[i]) * dky[live]
        # added one ky row at a time: the summation order of a per-cell loop
        for contribution in (cell * np.sum(g ** 2, axis=1) * dw).tolist():
            total += contribution
    span = span_hi - span_lo if span_hi > span_lo else 0.0
    return math.sqrt(math.pi * amp2 * total), span


def bilinear_ratio(params, n1, n2, trials, seed, resolution):
    """Resonant bilinear product-norm ratio at high band n1, low band n2.

    Data are unit-L^2 indicator boxes: the high box tracks one exact
    resonant center; the low box spans the full transverse slope range
    (height n2 n1^{alpha/2}), which is what saturates the bound.
    comparator = n2^{1/2} n1^{-alpha/4}.
    """
    if not (is_dyadic(n1) and is_dyadic(n2)):
        raise ValueError("n1, n2 must be dyadic")
    if n1 < 4.0 * n2:
        raise ValueError(f"need n1 >> n2 (at least 4x), got {n1}, {n2}")
    nk, nw, nx = resolution
    if nk < 8 or nw < 16 or nx < 16:
        raise ValueError(f"resolution too coarse: {resolution}")
    alpha = params.alpha
    vals = []
    min_span = math.inf
    # stratified over the xi1 band, antithetic over the resonant branch sign
    pairs = [(p, s) for p in range((trials + 1) // 2) for s in (1.0, -1.0)]
    count = (trials + 1) // 2
    for pair, sign in pairs[:trials]:
        rng = np.random.default_rng([seed, int(round(math.log2(n1))) + 64,
                                     int(round(math.log2(n2))) + 64, pair])
        u1 = (pair + rng.random()) / count
        (x1, e1), (x2, e2) = _resonant_center_from_uniforms(
            params, n1, n2, u1, rng.random(), rng.random(), sign)
        w = 0.5 * n2
        h = 4.0 * n2 * (n1 / (4.0 * n2)) ** 0.25
        a2 = 0.5 * n2
        b2 = n2 * n1 ** (alpha / 2.0)
        box_a = (x1 - w / 2.0, x1 + w / 2.0, e1 - h / 2.0, e1 + h / 2.0)
        box_b = (x2 - a2 / 2.0, x2 + a2 / 2.0, e2 - b2 / 2.0, e2 + b2 / 2.0)
        m, span = coarea_product_norm(alpha, box_a, box_b, nk, nw, nx)
        vals.append(m)
        min_span = min(min_span, span)
    if min_span < 64.0:
        raise ValueError(
            f"phase spread {min_span:.1f} too small for the time-decorrelation "
            "step; enlarge the boxes or the bands")
    inputs = {"alpha": alpha, "n1": n1, "n2": n2, "trials": trials, "seed": seed}
    measured = float(np.mean(vals))
    comparator = math.sqrt(n2) * n1 ** (-alpha / 4.0)
    if measured == 0.0:
        return make_record("bilinear", inputs, 0.0, comparator, True,
                           note="degenerate: empty interaction")
    return make_record("bilinear", inputs, measured, comparator, True)


def bilinear_sweep(params, n2, sweep, workers, comparator_shift, resolution):
    return _sweep(
        sweep, lambda n1: bilinear_ratio(params, n1, n2, trials=sweep.trials_per_point,
                                         seed=sweep.seed, resolution=resolution),
        "n1", {"alpha": params.alpha, "n2": n2}, workers, comparator_shift)


# ------------------------------------------------ trilinear lattice probes


@dataclass(frozen=True, eq=False)
class LatticeFunction:
    """Nonnegative samples on a uniform (tau, xi, eta) lattice patch."""

    spacing: tuple
    offset: tuple
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.spacing) != 3 or len(self.offset) != 3:
            raise ValueError("spacing and offset must be 3-tuples")
        if any(s <= 0.0 for s in self.spacing):
            raise ValueError("spacing must be positive")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3:
            raise ValueError("values must be a 3d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if np.any(v < 0.0):
            raise ValueError("values must be nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def cell_volume(self):
        return self.spacing[0] * self.spacing[1] * self.spacing[2]

    def l2_norm(self):
        return math.sqrt(float(np.sum(self.values ** 2)) * self.cell_volume)


def trilinear_integral(f1, f2, f3):
    """Sum f1(a) f2(b) f3(a+b) over lattice pairs, via zero-padded FFT.

    The three lattices must share spacings, and f3's offset must equal
    offset1 + offset2 so that a + b lands on f3's nodes.
    """
    for a, b in ((f1, f2), (f1, f3)):
        if not np.allclose(a.spacing, b.spacing, rtol=1e-9, atol=0.0):
            raise ValueError(f"lattice spacing mismatch: {a.spacing} vs {b.spacing}")
    want = np.add(f1.offset, f2.offset)
    tol = 1e-6 * min(f1.spacing)
    if np.max(np.abs(np.subtract(f3.offset, want))) > tol:
        raise ValueError(
            f"offset mismatch: f3 must sit at offset1 + offset2 = {tuple(want)}")
    s1, s2, s3 = f1.values.shape, f2.values.shape, f3.values.shape
    full = tuple(a + b - 1 for a, b in zip(s1, s2))
    axes = (0, 1, 2)
    conv = np.fft.irfftn(
        np.fft.rfftn(f1.values, full, axes) * np.fft.rfftn(f2.values, full, axes),
        full, axes)
    clip = tuple(min(a, b) for a, b in zip(full, s3))
    sub = conv[: clip[0], : clip[1], : clip[2]]
    return float(np.sum(sub * f3.values[: clip[0], : clip[1], : clip[2]]))


def _modulation_mask(params, shell_l, band_n, offset, spacing, shape):
    # dyadic modulation shell L/4 <= |tau - omega| <= 4L, band condition in xi,
    # on the lattice offset + spacing * index
    tau, xi, eta = (o + d * np.arange(n) for o, d, n in zip(offset, spacing, shape))
    om = omega_arrays(params.alpha, xi[:, None], eta[None, :])
    gap = np.abs(tau[:, None, None] - om[None, :, :])
    mask = (gap >= shell_l / 4.0) & (gap <= 4.0 * shell_l)
    band_ok = (np.abs(xi) >= band_n / 8.0) & (np.abs(xi) <= 8.0 * band_n)
    return mask & band_ok[None, :, None]


def _shell_lattice(params, center, band_n, shell_l, spacing, nodes, tau_shift, rng):
    """Random U[0,1] data on the dyadic modulation shell around the tangent
    patch at the given center frequency.
    """
    xi_c, eta_c = center
    dtau, dxi, deta = spacing
    ntau, nxi, neta = nodes
    off = (float(omega_arrays(params.alpha, xi_c, eta_c)) - 0.5 * ntau * dtau + tau_shift,
           xi_c - 0.5 * nxi * dxi,
           eta_c - 0.5 * neta * deta)
    mask = _modulation_mask(params, shell_l, band_n, off, spacing, nodes)
    if not mask.any():
        need = math.ceil(10.0 * shell_l / dtau)
        raise ValueError(
            f"empty admissible support: modulation shell |tau-omega| ~ {shell_l} "
            f"missed by the patch; need about {need} tau nodes at spacing {dtau}")
    values = rng.random(mask.shape) * mask
    return LatticeFunction(spacing=spacing, offset=off, values=values)


def _trilinear_patch_run(params, p1, p2, bands, shells, nodes, rng,
                         lattice_scale=None):
    """One trial of the lattice trilinear probe; returns measured / prod norms.

    lattice_scale pins the node spacings; sweeps hold it fixed while the
    shell widths vary, otherwise the whole construction would rescale with
    the modulation and the sweep would measure nothing.
    """
    alpha = params.alpha
    n_grad = 2.5 * max(abs(p1[0]), abs(p2[0]))
    l_min = min(shells) if lattice_scale is None else lattice_scale
    dtau = l_min / 2.0
    spacing = (dtau,
               dtau / (2.0 * (alpha + 1.0) * n_grad ** alpha),
               dtau / (4.0 * math.sqrt(1.0 + alpha) * n_grad ** (alpha / 2.0)))

    def tau_count(li):
        # widen the patch to cover the shell; once the shell dwarfs any
        # reachable patch the membership test saturates and the base
        # window is enough
        span = math.ceil(8.0 * li / dtau) + 4
        return nodes[0] if span > 512 else max(nodes[0], span)

    nt1 = tau_count(shells[0])
    nt2 = tau_count(shells[1])
    jit1 = rng.uniform(-0.5, 0.5) * shells[0]
    jit2 = rng.uniform(-0.5, 0.5) * shells[1]
    f1 = _shell_lattice(params, p1, bands[0], shells[0], spacing,
                        (nt1, nodes[1], nodes[2]), jit1, rng)
    f2 = _shell_lattice(params, p2, bands[1], shells[1], spacing,
                        (nt2, nodes[1], nodes[2]), jit2, rng)
    # f3 lives on the sum lattice, where a + b can actually land
    off3 = tuple(a + b for a, b in zip(f1.offset, f2.offset))
    shape3 = (nt1 + nt2 - 1, 2 * nodes[1] - 1, 2 * nodes[2] - 1)
    mask = _modulation_mask(params, shells[2], bands[2], off3, spacing, shape3)
    if not mask.any():
        raise ValueError(
            f"empty admissible support for the output factor: the shell "
            f"|tau-omega| ~ {shells[2]} misses the sum patch; widen the tau "
            f"window or move L3")
    f3 = LatticeFunction(spacing=spacing, offset=off3,
                         values=rng.random(mask.shape) * mask)
    cell = f1.cell_volume
    measured = trilinear_integral(f1, f2, f3) * cell ** 2
    norms = f1.l2_norm() * f2.l2_norm() * f3.l2_norm()
    if norms == 0.0:
        return 0.0
    return measured / norms


def lw_ratio(params, n1, n2, l1, l2, l3, trials, seed, nodes, lattice_scale=None,
             extra_inputs=None):
    """Loomis-Whitney regime: transversal resonant interaction at low
    modulation.  comparator = N1^{-3a/4+1/2} N2^{-1/2} (L1 L2 L3)^{1/2}.

    The centers are exactly resonant, so |eta1 xi2 - eta2 xi1| =
    sqrt(Omega1 xi1 xi2 (xi1 + xi2)) > 0: transversal, never collinear.
    """
    if not (is_dyadic(n1) and is_dyadic(n2)) or n2 > n1:
        raise ValueError("need dyadic n2 <= n1")
    alpha = params.alpha
    if max(l1, l2, l3) > n1 ** alpha * n2 / 8.0:
        raise ValueError(
            f"modulation {max(l1, l2, l3)} violates L << N1^alpha N2 "
            f"(= {n1 ** alpha * n2})")
    inputs = {"alpha": alpha, "n1": n1, "n2": n2, "l1": l1, "l2": l2, "l3": l3,
              "trials": trials, "seed": seed}
    if extra_inputs:
        inputs.update(extra_inputs)
    comparator = (n1 ** (-0.75 * alpha + 0.5) * n2 ** -0.5
                  * math.sqrt(l1 * l2 * l3))
    vals = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, 17, trial])
        p1, p2 = exact_resonant_center(params, n1, n2, rng)
        vals.append(_trilinear_patch_run(params, p1, p2, (n1, n2, n1),
                                         (l1, l2, l3), nodes, rng,
                                         lattice_scale=lattice_scale))
    measured = float(np.mean(vals))
    if measured == 0.0:
        return make_record("lw", inputs, 0.0, comparator, True,
                           note="degenerate: incompatible supports")
    return make_record("lw", inputs, measured, comparator, True)


def lw_modulation_sweep(params, n1, n2, sweep, workers, comparator_shift, nodes):
    """Sweep L1 = L2 = L3 = L over sweep.dyadic_range at fixed bands."""
    scale = sweep.dyadic_range[0]
    return _sweep(
        sweep, lambda l: lw_ratio(params, n1, n2, l, l, l, trials=sweep.trials_per_point,
                                  seed=sweep.seed, nodes=nodes, lattice_scale=scale,
                                  extra_inputs={"sweep_l": l}),
        "modulation_l", {"alpha": params.alpha, "n1": n1, "n2": n2}, workers,
        comparator_shift, "L")


def lw_band_sweep(params, n2, sweep, l, workers, nodes):
    """Sweep the high band N1 at fixed modulation (the coarse-lattice check)."""
    return _sweep(
        sweep, lambda n1: lw_ratio(params, n1, n2, l, l, l, trials=sweep.trials_per_point,
                                   seed=sweep.seed, nodes=nodes),
        "n1", {"alpha": params.alpha, "n2": n2, "l": l}, workers)


def _nonresonant_centers(params, n1, n2, l3, rng):
    alpha = params.alpha
    for _ in range(_CENTER_TRIES):
        xi1 = rng.uniform(n1, 2.0 * n1)
        xi2 = rng.uniform(n2, 2.0 * n2) * (1.0 if rng.random() < 0.5 else -1.0)
        if abs(xi1 + xi2) < n2 / 8.0:
            continue
        eta1 = rng.uniform(-0.5, 0.5) * n2 ** (alpha / 2.0) * xi1
        eta2 = rng.uniform(-0.5, 0.5) * n2 ** (alpha / 2.0) * xi2
        om = float(resonance_arrays(alpha, xi1, eta1, xi2, eta2))
        if 0.5 * l3 <= abs(om) <= 2.0 * l3:
            return (xi1, eta1), (xi2, eta2)
    raise ValueError("could not place a non-resonant center inside the L3 shell")


def nonresonant_ratio(params, n1, n2, l1, l2, l3, trials, seed, nodes,
                      lattice_scale=None, extra_inputs=None):
    """High-modulation regime N1 << N2 ~ N3 with max L >= N1 N2^alpha.

    comparator = (L1 L2 L3)^{1/2} / Lmax^{1/4} * N2^{-alpha/2} N1^{1/4}.
    """
    if not (is_dyadic(n1) and is_dyadic(n2)) or n1 > n2 / 4.0:
        raise ValueError("need dyadic n1 << n2 (at least 4x)")
    alpha = params.alpha
    lmax = max(l1, l2, l3)
    if lmax < n1 * n2 ** alpha:
        raise ValueError(
            f"high-modulation regime needs max L >= N1 N2^alpha = {n1 * n2 ** alpha}")
    inputs = {"alpha": alpha, "n1": n1, "n2": n2, "l1": l1, "l2": l2, "l3": l3,
              "trials": trials, "seed": seed}
    if extra_inputs:
        inputs.update(extra_inputs)
    comparator = (math.sqrt(l1 * l2 * l3) / lmax ** 0.25
                  * n2 ** (-alpha / 2.0) * n1 ** 0.25)
    vals = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, 23, trial])
        p1, p2 = _nonresonant_centers(params, n1, n2, l3, rng)
        vals.append(_trilinear_patch_run(params, p1, p2, (n1, n2, n2),
                                         (l1, l2, l3), nodes, rng,
                                         lattice_scale=lattice_scale))
    measured = float(np.mean(vals))
    if measured == 0.0:
        return make_record("nonresonant", inputs, 0.0, comparator, True,
                           note="degenerate: incompatible supports")
    return make_record("nonresonant", inputs, measured, comparator, True)


def nonresonant_modulation_sweep(params, n1, n2, sweep, l3, workers, comparator_shift,
                                 nodes):
    """Sweep L1 with L2 fixed and L3 in the high shell (None: 4 N1 N2^alpha)."""
    if l3 is None:
        l3 = 4.0 * n1 * n2 ** params.alpha
    scale = sweep.dyadic_range[0]
    return _sweep(
        sweep, lambda l1: nonresonant_ratio(
            params, n1, n2, l1, scale, l3, trials=sweep.trials_per_point,
            seed=sweep.seed, nodes=nodes, lattice_scale=scale,
            extra_inputs={"sweep_l1": l1}),
        "l1", {"alpha": params.alpha, "n1": n1, "n2": n2, "l3": l3}, workers,
        comparator_shift, "L1")


# ------------------------------------------------------- scaling exponent


def scaling_norm_pair(params, idx, lam, grid):
    """(lattice norm, analytic norm) of the rescaled reference profile.

    Reference data phihat = i xi exp(-(xi^2+eta^2)/2); the rescaling
    phihat_lambda(xi, eta) = C phihat(lambda xi, lambda^{(alpha+2)/2} eta)
    is evaluated in closed form on the lattice, so no interpolation error
    enters the fit.  The analytic norm uses the Gaussian-moment closed form.
    """
    alpha = params.alpha
    m = (alpha + 2.0) / 2.0
    pref = lam ** (-alpha) * lam ** (1.0 + m)
    xi = grid.xi[:, None]
    eta = grid.eta[None, :]
    sx = lam * xi
    sy = lam ** m * eta
    prof = pref * 1j * sx * np.exp(-0.5 * (sx ** 2 + sy ** 2))
    power = (np.abs(prof) ** 2
             * np.where(xi != 0.0, np.abs(xi), 1.0) ** (2.0 * idx.s1)
             * np.where(eta != 0.0, np.abs(eta), 1.0) ** (2.0 * idx.s2))
    power[grid.xi == 0.0] *= 0.0 if idx.s1 != 0.0 else 1.0
    if idx.s2 != 0.0:
        power[:, grid.eta == 0.0] = 0.0
    lattice = math.sqrt(float(np.sum(power)) * (2.0 * math.pi) ** 2
                        / (grid.length_x * grid.length_y))
    # int |xi|^{2 s1} (lam xi)^2 e^{-(lam xi)^2} dxi etc., Gamma moments
    ix = math.gamma(idx.s1 + 1.5) * lam ** (2.0 - (2.0 * idx.s1 + 3.0))
    iy = math.gamma(idx.s2 + 0.5) * lam ** (-m * (2.0 * idx.s2 + 1.0))
    analytic = pref * math.sqrt(ix * iy)
    return lattice, analytic


def scaling_exponent_fit(params, idx, lambdas, grid):
    """Fit the norm-vs-lambda law of the anisotropic rescaling.

    Returns the slope record and the lattice norm at each lambda.  The
    record's band is [target - 0.02, target + 0.02] around the target
    exponent -3 alpha/4 + 1 - s1 - (alpha/2 + 1) s2, which is also its
    comparator.  Raises when more than 1% of the weighted energy falls off
    the lattice.
    """
    if idx.s1 <= -1.25 or idx.s2 <= -0.25:
        raise ValueError("weights below the integrability floor of the profile")
    lambdas = tuple(float(x) for x in lambdas)
    if len(lambdas) < 4:
        raise ValueError("need at least 4 lambda values for the fit")
    if any(x <= 0.0 for x in lambdas):
        raise ValueError("lambda values must be positive")
    norms = []
    for lam in lambdas:
        lattice, analytic = scaling_norm_pair(params, idx, lam, grid)
        if abs(lattice ** 2 - analytic ** 2) > 0.01 * analytic ** 2:
            raise ValueError(
                f"resolution loss at lambda={lam}: lattice captures "
                f"{lattice ** 2 / analytic ** 2:.4f} of the weighted energy")
        norms.append(lattice)
    slope = fit_loglog_slope(lambdas, norms)
    alpha = params.alpha
    target = -0.75 * alpha + 1.0 - idx.s1 - (alpha / 2.0 + 1.0) * idx.s2
    inputs = {"alpha": alpha, "s1": idx.s1, "s2": idx.s2,
              "lambda_min": min(lambdas), "lambda_max": max(lambdas),
              "points": len(lambdas), "sweep_variable": "lambda"}
    return Band(target - 0.02, target + 0.02, target).record(
        "scaling_exponent", inputs, slope, note="slope of log norm vs log lambda"), norms


# ------------------------------------------------------ norm-growth study


def illposedness_growth_study(params, theta, n_list, sbar, t, quad_res):
    """Second-iterate norm growth over a dyadic N sweep.

    Per N: gamma = N^{-(alpha-1)/2-theta}, the second-iterate norm at time
    t, and the band [1/4, 4] on the two box data norms (data_norm_1,
    data_norm_2).  The summary record fits the log-norm slope; its band
    about the target 7/4 - 3 alpha/4 - 3 theta/2 is [max(target - 0.1, 0),
    target + 0.1] below alpha = 7/3 - 2 theta (growth), [target - 0.1,
    min(target + 0.1, 0)] above 7/3 + 2 theta (decay), target +- 0.1 between.
    """
    if not (0.0 < theta <= 0.5):
        raise ValueError(f"theta must lie in (0, 1/2], got {theta}")
    ns = [float(n) for n in n_list]
    if len(ns) < 5:
        raise ValueError("need at least 5 dyadic N values")
    if any(not is_dyadic(n) for n in ns) or ns != sorted(ns):
        raise ValueError("n_list must be ascending powers of two")
    alpha = params.alpha
    records, values = [], []
    for n in ns:
        gamma = n ** (-(alpha - 1.0) / 2.0 - theta)
        d1, d2 = box_data_norms(params, n, gamma, sbar)
        u2 = second_iterate_boxdata(params, n, gamma, sbar, t, quad_res=quad_res)
        values.append(u2)
        records.append(DATA_NORM_BAND.record(
            "illposedness_growth",
            {"alpha": alpha, "theta": theta, "N": n, "gamma": gamma, "t": t,
             "data_norm_1": d1, "data_norm_2": d2},
            u2, d1 * d2, checked=("data_norm_1", "data_norm_2")))
    records.append(growth_band(alpha, theta).record(
        "illposedness_growth_slope",
        {"alpha": alpha, "theta": theta, "n_min": ns[0], "n_max": ns[-1],
         "points": len(ns), "t": t, "sweep_variable": "N"},
        fit_loglog_slope(ns, values), note="slope of log second-iterate norm vs log N"))
    return records

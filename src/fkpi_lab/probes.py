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
from dataclasses import dataclass, field

import numpy as np

from .evolution import box_data_norms, propagate_linear, second_iterate_boxdata
from .grid import SpectralField, fractional_x_derivative, is_dyadic
from .norms import AnisoIndex, MixedNormSpec, mass, spacetime_norm
from .symbols import omega1_arrays, omega_arrays, resonance_difference_arrays

RATIO_TOL = 1e-9


@dataclass(frozen=True)
class ExperimentRecord:
    probe_name: str
    inputs: dict
    measured: float
    comparator: float
    ratio: float
    passed: bool
    note: str = ""

    def __post_init__(self):
        if self.comparator != 0.0 and math.isfinite(self.comparator):
            want = self.measured / self.comparator
            if math.isfinite(want) and abs(self.ratio - want) > RATIO_TOL * max(abs(want), 1.0):
                raise ValueError("ratio must equal measured/comparator")

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
    ratio = measured / comparator if comparator != 0.0 else float("nan")
    return ExperimentRecord(probe_name, dict(inputs), float(measured),
                            float(comparator), float(ratio), bool(passed), note)


@dataclass(frozen=True)
class ProbeSweep:
    alpha: float
    dyadic_range: tuple
    trials_per_point: int = 1
    seed: int = 0
    tolerance_band: tuple = (-math.inf, 0.1)

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


def _slope_summary(probe_name, var_name, xs, ratios, band, inputs):
    slope = fit_loglog_slope(xs, ratios)
    lo, hi = band
    rec_inputs = dict(inputs)
    rec_inputs["sweep_variable"] = var_name
    if math.isfinite(lo):
        rec_inputs["band_lo"] = lo
    rec_inputs["band_hi"] = hi
    return make_record(
        probe_name + "_slope",
        rec_inputs,
        slope,
        hi,
        lo <= slope <= hi,
        note=f"log-log slope of ratio vs {var_name}",
    )


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
        return make_record(rec.probe_name, rec.inputs, rec.measured,
                           rec.comparator * x ** shift, rec.passed,
                           note=f"comparator shifted by {symbol}^{shift}")

    records = _run_points(one, sweep.dyadic_range, workers)
    summary = _slope_summary(records[0].probe_name, var, sweep.dyadic_range,
                             [r.ratio for r in records], sweep.tolerance_band,
                             inputs)
    return records + [summary]


# ------------------------------------------------------- record persistence


def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records_csv(records, path):
    keys = sorted({k for r in records for k in r.inputs})
    header = ["probe"] + keys + ["measured", "comparator", "ratio", "pass", "note"]
    lines = [",".join(header)]
    for r in records:
        row = [r.probe_name]
        row += [_format_cell(r.inputs[k]) if k in r.inputs else "" for k in keys]
        row += [repr(r.measured), repr(r.comparator), repr(r.ratio),
                _format_cell(r.passed), r.note.replace(",", ";")]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_records_jsonl(records, path):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r.to_dict(), sort_keys=True) + "\n")


def slope_report(records):
    """Collect the *_slope summary records into a JSON-ready list."""
    out = []
    for r in records:
        if not r.probe_name.endswith("_slope"):
            continue
        out.append({
            "probe": r.probe_name,
            "sweep_variable": r.inputs.get("sweep_variable"),
            "slope": r.measured,
            "band_lo": r.inputs.get("band_lo"),
            "band_hi": r.inputs.get("band_hi"),
            "pass": r.passed,
        })
    return out


# --------------------------------------------------- evolution-grid probes


def band_bump_field(grid, xi_lo, xi_hi, eta_sigma, xi_sigma=None):
    """Real zero-x-mean data: a Gaussian bump hard-truncated to a xi band.

    The profile is centered mid-band with width (xi_hi-xi_lo)/4 unless
    xi_sigma overrides it; support is exactly {xi_lo <= |xi| <= xi_hi}.
    """
    if not (0.0 < xi_lo < xi_hi):
        raise ValueError("band must satisfy 0 < xi_lo < xi_hi")
    xi = np.abs(grid.xi_grid)
    eta = grid.eta_grid
    center = 0.5 * (xi_lo + xi_hi)
    sigma = xi_sigma if xi_sigma is not None else 0.25 * (xi_hi - xi_lo)
    bump = np.exp(-0.5 * ((xi - center) / sigma) ** 2 - 0.5 * (eta / eta_sigma) ** 2)
    bump *= (xi >= xi_lo) & (xi <= xi_hi)
    return SpectralField(grid, bump)


def _linear_trajectory(params, u0, T, snapshots):
    times = np.linspace(0.0, T, snapshots + 1)
    return [(float(t), propagate_linear(params, u0, float(t))) for t in times]


def linear_strichartz_ratio(params, spec, u0, T=1.0, snapshots=128, extra_inputs=None):
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


def linear_strichartz_sweep(params, spec, sweep, grid, T=1.0, snapshots=128,
                            eta_sigma=2.0, workers=None, comparator_shift=0.0):
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
    n0 = sweep.dyadic_range[0]
    return _sweep(
        sweep, lambda n: linear_strichartz_ratio(
            params, spec, band_bump_field(grid, n, 2.0 * n, eta_sigma),
            T=T * n0 / n, snapshots=snapshots, extra_inputs={"band_n": n}),
        "band_n", {"alpha": params.alpha, "q": spec.q, "r": spec.r}, workers,
        comparator_shift)


def lowfreq_l4_ratio(params, N, K, u0, T=1.0, snapshots=128, extra_inputs=None):
    """L^4 space-time ratio for data in a low-frequency band of width K at N.

    comparator = K^{1/4} N^{1/8} ||u0||; the support must lie in
    {N <= |xi| <= N + K} exactly (relative leakage below 1e-9).
    """
    if not is_dyadic(N) or N >= 1.0:
        raise ValueError(f"N must be dyadic and < 1, got {N}")
    if not is_dyadic(K):
        raise ValueError(f"K must be dyadic, got {K}")
    axi = np.abs(u0.grid.xi_grid)
    power = np.abs(u0.coeffs) ** 2
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
    if extra_inputs:
        inputs.update(extra_inputs)
    l2 = math.sqrt(mass(u0))
    spec = MixedNormSpec(4.0, 4.0)
    traj = _linear_trajectory(params, u0, T, snapshots)
    measured = spacetime_norm(traj, spec)
    comparator = K ** 0.25 * N ** 0.125 * l2
    return make_record("lowfreq_l4", inputs, measured, comparator, True)


def lowfreq_l4_sweep(params, sweep, grid, eta_sigma, T=1.0, snapshots=128,
                     workers=None, comparator_shift=0.0):
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
    total = 0.0
    span_lo, span_hi = math.inf, -math.inf
    for i, kxi in enumerate(kx):
        lo = max(xa0, kxi - xb1)
        hi = min(xa1, kxi - xb0)
        if hi <= lo:
            continue
        xi1 = np.linspace(lo, hi, nx + 1)
        xi1 = 0.5 * (xi1[:-1] + xi1[1:])
        dx1 = (hi - lo) / nx
        xi2 = kxi - xi1
        for j, kyj in enumerate(ky):
            ey_lo = max(ya0, kyj - yb1)
            ey_hi = min(ya1, kyj - yb0)
            if ey_hi <= ey_lo:
                continue
            # Phi(eta') = a eta'^2 + b eta' + c along the slice
            a = kxi / (xi1 * xi2)
            b = -2.0 * kyj / xi2
            c = (np.abs(xi1) ** alpha * xi1 + np.abs(xi2) ** alpha * xi2
                 + kyj ** 2 / xi2)
            ey = np.linspace(ey_lo, ey_hi, 9)
            phis = a[:, None] * ey[None, :] ** 2 + b[:, None] * ey[None, :] + c[:, None]
            wlo, whi = float(phis.min()), float(phis.max())
            span_lo = min(span_lo, wlo)
            span_hi = max(span_hi, whi)
            if whi <= wlo:
                continue
            wgrid = np.linspace(wlo, whi, nw)
            dw = (whi - wlo) / (nw - 1)
            disc = b[:, None] ** 2 - 4.0 * a[:, None] * (c[:, None] - wgrid[None, :])
            ok = disc > 0.0
            sq = np.sqrt(np.where(ok, disc, 1.0))
            g = np.zeros(nw)
            for sgn in (1.0, -1.0):
                eta1 = (-b[:, None] + sgn * sq) / (2.0 * a[:, None])
                inside = (ok & (eta1 >= ya0) & (eta1 <= ya1)
                          & (kyj - eta1 >= yb0) & (kyj - eta1 <= yb1))
                g += np.sum(np.where(inside, 1.0 / sq, 0.0), axis=0) * dx1
            cell = (kx_e[i + 1] - kx_e[i]) * (ky_e[j + 1] - ky_e[j])
            total += cell * float(np.sum(g ** 2)) * dw
    span = span_hi - span_lo if span_hi > span_lo else 0.0
    return math.sqrt(math.pi * amp2 * total), span


def bilinear_ratio(params, n1, n2, trials=6, seed=0, resolution=(20, 64, 48),
                   extra_inputs=None):
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
    if extra_inputs:
        inputs.update(extra_inputs)
    measured = float(np.mean(vals))
    comparator = math.sqrt(n2) * n1 ** (-alpha / 4.0)
    if measured == 0.0:
        return make_record("bilinear", inputs, 0.0, comparator, True,
                           note="degenerate: empty interaction")
    return make_record("bilinear", inputs, measured, comparator, True)


def bilinear_sweep(params, n2, sweep, workers=None, comparator_shift=0.0,
                   resolution=(20, 64, 48)):
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


def lw_ratio(params, n1, n2, l1, l2, l3, trials=4, seed=0, nodes=(16, 12, 12),
             center_pair=None, lattice_scale=None, extra_inputs=None):
    """Loomis-Whitney regime: transversal resonant interaction at low
    modulation.  comparator = N1^{-3a/4+1/2} N2^{-1/2} (L1 L2 L3)^{1/2}.

    A collinear center pair (eta1 xi2 = eta2 xi1) voids the transversality
    hypothesis: the record is flagged outside-hypothesis, not passed.
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
        if center_pair is None:
            p1, p2 = exact_resonant_center(params, n1, n2, rng)
        else:
            p1, p2 = center_pair
        cross = p1[1] * p2[0] - p2[1] * p1[0]
        scale = abs(p1[1] * p2[0]) + abs(p2[1] * p1[0]) + n1 ** (alpha / 2.0) * n2
        if abs(cross) <= 1e-8 * scale:
            return make_record("lw", inputs, 0.0, comparator, False,
                               note="outside-hypothesis: collinear group velocities")
        vals.append(_trilinear_patch_run(params, p1, p2, (n1, n2, n1),
                                         (l1, l2, l3), nodes, rng,
                                         lattice_scale=lattice_scale))
    measured = float(np.mean(vals))
    if measured == 0.0:
        return make_record("lw", inputs, 0.0, comparator, True,
                           note="degenerate: incompatible supports")
    return make_record("lw", inputs, measured, comparator, True)


def lw_modulation_sweep(params, n1, n2, sweep, workers=None, comparator_shift=0.0,
                        nodes=(16, 12, 12)):
    """Sweep L1 = L2 = L3 = L over sweep.dyadic_range at fixed bands."""
    scale = sweep.dyadic_range[0]
    return _sweep(
        sweep, lambda l: lw_ratio(params, n1, n2, l, l, l, trials=sweep.trials_per_point,
                                  seed=sweep.seed, nodes=nodes, lattice_scale=scale,
                                  extra_inputs={"sweep_l": l}),
        "modulation_l", {"alpha": params.alpha, "n1": n1, "n2": n2}, workers,
        comparator_shift, "L")


def lw_band_sweep(params, n2, sweep, l=1.0, workers=None, nodes=(16, 12, 12)):
    """Sweep the high band N1 at fixed modulation (the coarse-lattice check)."""
    return _sweep(
        sweep, lambda n1: lw_ratio(params, n1, n2, l, l, l, trials=sweep.trials_per_point,
                                   seed=sweep.seed, nodes=nodes),
        "n1", {"alpha": params.alpha, "n2": n2, "l": l}, workers)


def _nonresonant_centers(params, n1, n2, l3, rng, max_tries=64):
    alpha = params.alpha
    for _ in range(max_tries):
        xi1 = rng.uniform(n1, 2.0 * n1)
        xi2 = rng.uniform(n2, 2.0 * n2) * (1.0 if rng.random() < 0.5 else -1.0)
        if abs(xi1 + xi2) < n2 / 8.0:
            continue
        eta1 = rng.uniform(-0.5, 0.5) * n2 ** (alpha / 2.0) * xi1
        eta2 = rng.uniform(-0.5, 0.5) * n2 ** (alpha / 2.0) * xi2
        om = float(resonance_difference_arrays(alpha, xi1, eta1, xi2, eta2))
        if 0.5 * l3 <= abs(om) <= 2.0 * l3:
            return (xi1, eta1), (xi2, eta2)
    raise ValueError("could not place a non-resonant center inside the L3 shell")


def nonresonant_ratio(params, n1, n2, l1, l2, l3, trials=4, seed=0,
                      nodes=(16, 12, 12), lattice_scale=None, extra_inputs=None):
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


def nonresonant_modulation_sweep(params, n1, n2, sweep, l3=None, workers=None,
                                 comparator_shift=0.0, nodes=(16, 12, 12)):
    """Sweep L1 over sweep.dyadic_range with L2 fixed and L3 in the high shell."""
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
    xi = grid.xi_grid
    eta = grid.eta_grid
    sx = lam * xi
    sy = lam ** m * eta
    prof = pref * 1j * sx * np.exp(-0.5 * (sx ** 2 + sy ** 2))
    power = (np.abs(prof) ** 2
             * np.where(xi != 0.0, np.abs(xi), 1.0) ** (2.0 * idx.s1)
             * np.where(eta != 0.0, np.abs(eta), 1.0) ** (2.0 * idx.s2))
    power[xi == 0.0] *= 0.0 if idx.s1 != 0.0 else 1.0
    if idx.s2 != 0.0:
        power[eta == 0.0] = 0.0
    lattice = math.sqrt(float(np.sum(power)) * (2.0 * math.pi) ** 2
                        / (grid.length_x * grid.length_y))
    # int |xi|^{2 s1} (lam xi)^2 e^{-(lam xi)^2} dxi etc., Gamma moments
    ix = math.gamma(idx.s1 + 1.5) * lam ** (2.0 - (2.0 * idx.s1 + 3.0))
    iy = math.gamma(idx.s2 + 0.5) * lam ** (-m * (2.0 * idx.s2 + 1.0))
    analytic = pref * math.sqrt(ix * iy)
    return lattice, analytic


def scaling_exponent_fit(params, idx, lambdas, grid):
    """Fit the norm-vs-lambda law of the anisotropic rescaling.

    Returns the slope record and the lattice norm at each lambda.
    pass = |fitted slope - (-3 alpha/4 + 1 - s1 - (alpha/2 + 1) s2)| <= 0.02.
    Raises when more than 1% of the weighted energy falls off the lattice.
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
              "points": len(lambdas)}
    return make_record("scaling_exponent", inputs, slope, target,
                       abs(slope - target) <= 0.02,
                       note="slope of log norm vs log lambda"), norms


# ------------------------------------------------------ norm-growth study


def illposedness_growth_study(params, theta, n_list, sbar=None, t=1.0, quad_res=12):
    """Second-iterate norm growth over a dyadic N sweep.

    Per N: gamma = N^{-(alpha-1)/2-theta}, box data norms checked against
    [1/4, 4], then the second-iterate norm at time t.  The summary record
    fits the log-norm slope against 7/4 - 3 alpha/4 - 3 theta/2 (tolerance
    0.1) and checks the sign away from the alpha = 7/3 threshold.
    """
    if not (0.0 < theta <= 0.5):
        raise ValueError(f"theta must lie in (0, 1/2], got {theta}")
    ns = [float(n) for n in n_list]
    if len(ns) < 5:
        raise ValueError("need at least 5 dyadic N values")
    if any(not is_dyadic(n) for n in ns) or ns != sorted(ns):
        raise ValueError("n_list must be ascending powers of two")
    if sbar is None:
        sbar = AnisoIndex(0.0, 0.0)
    alpha = params.alpha
    records = []
    values = []
    for n in ns:
        gamma = n ** (-(alpha - 1.0) / 2.0 - theta)
        d1, d2 = box_data_norms(params, n, gamma, sbar)
        norms_ok = 0.25 <= d1 <= 4.0 and 0.25 <= d2 <= 4.0
        u2 = second_iterate_boxdata(params, n, gamma, sbar, t, quad_res=quad_res)
        values.append(u2)
        records.append(make_record(
            "illposedness_growth",
            {"alpha": alpha, "theta": theta, "N": n, "gamma": gamma, "t": t},
            u2, d1 * d2, norms_ok,
            note="" if norms_ok else f"data norms ({d1:.3f}, {d2:.3f}) leave [1/4, 4]"))
    slope = fit_loglog_slope(ns, values)
    target = 1.75 - 0.75 * alpha - 1.5 * theta
    ok = abs(slope - target) <= 0.1
    threshold = 7.0 / 3.0
    if alpha < threshold - 2.0 * theta:
        ok = ok and slope > 0.0
    elif alpha > threshold + 2.0 * theta:
        ok = ok and slope < 0.0
    records.append(make_record(
        "illposedness_growth_slope",
        {"alpha": alpha, "theta": theta, "n_min": ns[0], "n_max": ns[-1],
         "points": len(ns), "t": t},
        slope, target, ok,
        note="slope of log second-iterate norm vs log N"))
    return records

"""Time evolution: exact linear propagator, ETDRK4 and Strang steppers for

    u_t = |D_x|^alpha u_x + dx^{-1} dyy u + u u_x,

and the continuum quadrature for the second Picard iterate launched from
the thin-box data that drives the quadratic norm-growth mechanism.

The linear multiplier is the pure phase e^{i t omega(xi, eta)}; every
scheme here works on the stored half spectrum of Fourier coefficients
directly, with multipliers tabulated on the same half.  Evolution requires
zero x-mean data (the antiderivative in the symbol), and the nonlinearity
preserves that exactly since it is a total x-derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import dealiased_product, require_zero_x_mean, trusted_field
from .symbols import interaction_boxes, omega_arrays, resonance_arrays

SCHEMES = ("etdrk4", "strang")


class BlowupError(RuntimeError):
    """Raised when a time step produces nonfinite coefficients."""

    def __init__(self, step_index, time):
        self.step_index = step_index
        self.time = time
        super().__init__(f"nonfinite field after step {step_index} (t = {time:.6g})")


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    T: float
    scheme: str = "etdrk4"
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.T < 0.0:
            raise ValueError(f"T must be nonnegative, got {self.T}")
        if self.T > 0.0 and self.dt > self.T:
            raise ValueError(f"dt={self.dt} exceeds T={self.T}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")

    def n_steps(self):
        if self.T == 0.0:
            return 0
        n = round(self.T / self.dt)
        if abs(n * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ValueError(f"dt={self.dt} does not divide T={self.T}")
        return n


@dataclass
class Trajectory:
    """The recorded times, the final field, and, when `solve` was given an
    observer, `observed`: the observer's result at each recorded time."""
    config: EvolutionConfig
    times: list
    # [final state]: a list of one, as perfbench/sample.py reads fields[-1]
    fields: list
    observed: list | None = None


@lru_cache(maxsize=16)
def _omega_grid(grid, alpha):
    """omega on the half spectrum, shape grid.half_shape."""
    xi = grid.xi_half
    # omega is singular on the xi = 0 plane, which carries no zero-x-mean data
    om = np.where(xi != 0.0,
                  omega_arrays(alpha, np.where(xi != 0.0, xi, 1.0), grid.eta_half),
                  0.0)
    om.flags.writeable = False
    return om


@lru_cache(maxsize=16)
def _burgers_multiplier(grid):
    """0.5 i xi: the derivative and the 1/2 of N(u) = 1/2 d/dx (u^2)."""
    mult = 0.5j * grid.xi_half
    mult.flags.writeable = False
    return mult


@lru_cache(maxsize=8)
def _linear_phase(grid, alpha, t):
    """e^{i t omega} on the half spectrum; one table per step size."""
    phase = np.exp(1j * t * _omega_grid(grid, alpha))
    phase.flags.writeable = False
    return phase


def propagate_linear(params, field, t):
    """Apply the free group e^{i t omega}. Isometric on every multiplier norm."""
    require_zero_x_mean(field, "propagate_linear")
    # phase * half in this order: complex products round differently with
    # their operands swapped, and this order reproduces the canonical records
    return trusted_field(field.grid,
                         _linear_phase(field.grid, params.alpha, t) * field.half)


def nonlinearity(params, field):
    """N(u) = 1/2 d/dx (u^2), 2/3-rule dealiased. Exactly zero x-mean."""
    square = dealiased_product(field, field)
    return trusted_field(field.grid, square.half * _burgers_multiplier(field.grid))


def _phi(z, k):
    """phi_k(z) = (e^z - sum_{j<k} z^j/j!) / z^k, stable near z = 0."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    small = np.abs(z) < 0.5
    # truncated Taylor sum_{j>=0} z^j/(j+k)!, 18 terms: remainder < 1e-21
    zs = z[small]
    acc = np.zeros_like(zs)
    for j in range(17, -1, -1):
        acc = acc * zs + 1.0 / math.factorial(j + k)
    out[small] = acc
    zb = z[~small]
    ez = np.exp(zb)
    head = np.zeros_like(zb)
    term = np.ones_like(zb)
    for j in range(k):
        head = head + term
        term = term * zb / (j + 1)
    out[~small] = (ez - head) / zb ** k
    return out


@lru_cache(maxsize=8)
def _etdrk4_tables(grid, alpha, dt):
    z = 1j * dt * _omega_grid(grid, alpha)
    e_full = _linear_phase(grid, alpha, dt)
    e_half = _linear_phase(grid, alpha, dt / 2.0)
    q = 0.5 * dt * _phi(z / 2.0, 1)
    f1 = dt * (_phi(z, 1) - 3.0 * _phi(z, 2) + 4.0 * _phi(z, 3))
    # stored doubled: 2 f2 is the only use, and doubling is exact
    f2x2 = 2.0 * (dt * (_phi(z, 2) - 2.0 * _phi(z, 3)))
    f3 = dt * (4.0 * _phi(z, 3) - _phi(z, 2))
    tables = (e_full, e_half, q, f1, f2x2, f3)
    for t in tables:
        t.flags.writeable = False
    return tables


def _etdrk4_step(params, field, dt):
    """One ETDRK4 step (Cox-Matthews).  Stages accumulate in place, each sum
    and product in the association and operand order that reproduces the
    canonical records bit for bit (complex products round differently with
    their operands swapped)."""
    e_full, e_half, q, f1, f2x2, f3 = _etdrk4_tables(field.grid, params.alpha, dt)
    grid = field.grid
    u = field.half
    eu = e_half * u
    n_u = nonlinearity(params, field).half
    a = q * n_u
    a += eu
    n_a = nonlinearity(params, trusted_field(grid, a)).half
    b = q * n_a
    b += eu
    n_b = nonlinearity(params, trusted_field(grid, b)).half
    # c = e_half a + (2 n_b - n_u) q, into eu's buffer
    tmp = 2.0 * n_b
    tmp -= n_u
    tmp *= q
    c = np.multiply(e_half, a, out=eu)
    c += tmp
    n_c = nonlinearity(params, trusted_field(grid, c)).half
    # out = e_full u + f1 n_u + 2 f2 (n_a + n_b) + f3 n_c, left to right
    out = e_full * u
    out += np.multiply(f1, n_u, out=tmp)
    np.add(n_a, n_b, out=tmp)
    out += np.multiply(f2x2, tmp, out=tmp)
    out += np.multiply(f3, n_c, out=tmp)
    return trusted_field(grid, out)


def _strang_step(params, field, dt):
    half = propagate_linear(params, field, dt / 2.0)
    # explicit midpoint for the Burgers substep
    k1 = nonlinearity(params, half)
    mid = half + (dt / 2.0) * k1
    k2 = nonlinearity(params, mid)
    half = half + dt * k2
    return propagate_linear(params, half, dt / 2.0)


def step(params, field, config):
    """Advance one time step of config.dt with config.scheme."""
    require_zero_x_mean(field, "time step")
    if config.scheme == "etdrk4":
        return _etdrk4_step(params, field, config.dt)
    return _strang_step(params, field, config.dt)


def solve(params, u0, config, observe=None):
    """March to T = config.T, recording every snapshot_stride-th state.

    The initial state and the final state are always recorded.  With an
    observer, `observe(u)` runs on each recorded state as the march reaches
    it and its results go to `observed`; `observe=lambda f: f` collects the
    snapshots themselves.  `fields` holds the final state only, so no
    snapshot outlives its step unless the observer keeps it.  Raises
    BlowupError (with the offending step index) on nonfinite output.
    """
    require_zero_x_mean(u0, "solve")
    n = config.n_steps()
    times = [0.0]
    observed = None if observe is None else [observe(u0)]
    u = u0
    for i in range(1, n + 1):
        u = step(params, u, config)
        if not np.all(np.isfinite(u.half)):
            raise BlowupError(i, i * config.dt)
        if i % config.snapshot_stride == 0 or i == n:
            times.append(i * config.dt)
            if observe is not None:
                observed.append(observe(u))
    return Trajectory(config=config, times=times, fields=[u], observed=observed)


# ------------------------------------------- second iterate from box data


def _phi_window(z):
    """(e^{-iz} - 1)/z for real z as its (real, imaginary) parts, stable
    near zero.  Half-angle form: -2 sin^2(z/2)/z and -2 sin(z/2) cos(z/2)/z,
    with sin^2 = tau^2/(1 + tau^2) and sin cos = tau/(1 + tau^2) for
    tau = tan(z/2), so one tangent replaces the complex exponential."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-4
    zb = np.where(small, 1.0, z)
    tau = np.tan(0.5 * zb)
    im = -2.0 * tau / ((1.0 + tau * tau) * zb)
    re = im * tau
    zs = z[small]
    re[small] = -zs / 2.0 + zs ** 3 / 24.0
    im[small] = -1.0 + zs ** 2 / 6.0
    return re, im


def box_data_norms(params, N, gamma, sbar):
    """Anisotropic Sobolev norms of the two box profiles by quadrature.

    phi_i has modulus gamma^{-3/2} on its box (the high box carries the
    extra N^{-s1-(1+alpha/2)s2} factor), so the norms stay O(1) in N.
    """
    alpha = params.alpha
    (x1, e1), (x2, e2) = interaction_boxes(alpha, N, gamma)
    nodes, wts = leggauss(32)

    def weighted_box_integral(xr, er, s1, s2):
        xs = 0.5 * (xr[1] - xr[0]) * nodes + 0.5 * (xr[1] + xr[0])
        wx = 0.5 * (xr[1] - xr[0]) * wts
        ys = 0.5 * (er[1] - er[0]) * nodes + 0.5 * (er[1] + er[0])
        wy = 0.5 * (er[1] - er[0]) * wts
        ix = np.sum(wx * (1.0 + xs ** 2) ** s1)
        iy = np.sum(wy * (1.0 + ys ** 2) ** s2)
        return ix * iy

    amp2_1 = gamma ** -3.0
    amp2_2 = gamma ** -3.0 * N ** (-2.0 * (sbar.s1 + (1.0 + alpha / 2.0) * sbar.s2))
    n1 = math.sqrt(2.0 * amp2_1 * weighted_box_integral(x1, e1, sbar.s1, sbar.s2))
    n2 = math.sqrt(2.0 * amp2_2 * weighted_box_integral(x2, e2, sbar.s1, sbar.s2))
    return n1, n2


def _u2_norm_once(alpha, N, gamma, s1, s2, t, q_inner, q_outer):
    """H^{s1,s2} norm of the second iterate at time t, c = 1 amplitude.

    Output frequencies live on the sum box (the high-low piece); the inner
    integral runs over the D1 slice compatible with the output point.  All
    integrals are Gauss-Legendre on smooth cells, split at the kinks of the
    slice-length functions.
    """
    a = math.sqrt(1.0 + alpha)
    h_c = a * N ** ((alpha + 2.0) / 2.0)
    # amplitudes gamma^{-3/2} on each box, matching box_data_norms
    pref = gamma ** -3.0 * N ** (-(s1 + (1.0 + alpha / 2.0) * s2))
    gl_x, gl_w = leggauss(q_inner)
    ox, ow = leggauss(q_outer)
    # output cells in delta = xi - N, eps = eta - h_c; knots at slice kinks
    dknots = [-gamma, -gamma / 2.0, 0.0, gamma / 2.0, gamma, 2.0 * gamma]
    eknots = [-a * gamma ** 2, (1.0 - a) * gamma ** 2, a * gamma ** 2, (1.0 + a) * gamma ** 2]
    total = 0.0
    for di in range(len(dknots) - 1):
        d0, d1 = dknots[di], dknots[di + 1]
        dd = 0.5 * (d1 - d0) * ox + 0.5 * (d1 + d0)
        wd = 0.5 * (d1 - d0) * ow
        for ei in range(len(eknots) - 1):
            e0, e1 = eknots[ei], eknots[ei + 1]
            ee = 0.5 * (e1 - e0) * ox + 0.5 * (e1 + e0)
            we = 0.5 * (e1 - e0) * ow
            dmesh, emesh = np.meshgrid(dd, ee, indexing="ij")
            xi = N + dmesh
            eta = h_c + emesh
            # xi1 slice: the positive piece [gamma/2, gamma] when reachable,
            # else the mirrored piece [-gamma, -gamma/2]
            lo_a = np.maximum(gamma / 2.0, dmesh - gamma)
            hi_a = np.minimum(gamma, dmesh)
            use_a = (hi_a - lo_a) > 0.0
            lo_b = np.maximum(-gamma, dmesh - gamma)
            hi_b = np.minimum(-gamma / 2.0, dmesh)
            lo1 = np.where(use_a, lo_a, lo_b)
            hi1 = np.where(use_a, hi_a, hi_b)
            len1 = np.maximum(hi1 - lo1, 0.0)
            lo_h = np.maximum(-a * gamma ** 2, emesh - gamma ** 2)
            hi_h = np.minimum(a * gamma ** 2, emesh)
            len_h = np.maximum(hi_h - lo_h, 0.0)
            x1 = lo1[..., None] + (gl_x[None, None, :] + 1.0) * 0.5 * len1[..., None]
            w1 = 0.5 * len1[..., None] * gl_w[None, None, :]
            h1 = lo_h[..., None] + (gl_x[None, None, :] + 1.0) * 0.5 * len_h[..., None]
            wh = 0.5 * len_h[..., None] * gl_w[None, None, :]
            xi1 = x1[..., :, None]
            eta1 = h1[..., None, :]
            xi2 = xi[..., None, None] - xi1
            eta2 = eta[..., None, None] - eta1
            om = resonance_arrays(alpha, xi1, eta1, xi2, eta2)
            # the kernel t phi(t om) against the product weights w1 wh, in
            # real and imaginary parts
            inner2 = sum(np.einsum("dei,dei->de", np.einsum("deij,dej->dei", part, wh),
                                   w1) ** 2
                         for part in _phi_window(t * om))
            u2hat2 = (pref * t * xi) ** 2 * inner2
            wgt = (1.0 + xi ** 2) ** s1 * (1.0 + eta ** 2) ** s2
            total += float(np.sum((wd[:, None] * we[None, :]) * u2hat2 * wgt))
    return math.sqrt(2.0 * total)  # mirrored output piece


def second_iterate_boxdata(params, N, gamma, sbar, t, quad_res=12):
    """Norm of the second Picard iterate from the box data, by quadrature.

    Verifies convergence by doubling quad_res; relative change above 1%
    raises, since the growth-law slopes would then be untrustworthy.
    """
    if quad_res < 8:
        raise ValueError("quad_res must be at least 8")
    if t == 0.0:
        return 0.0
    alpha = params.alpha
    theta = -math.log(gamma) / math.log(N) - (alpha - 1.0) / 2.0
    if theta <= 0.0:
        raise ValueError("gamma too large: requires gamma < N^(-(alpha-1)/2)")
    coarse = _u2_norm_once(alpha, N, gamma, sbar.s1, sbar.s2, t, quad_res, quad_res)
    fine = _u2_norm_once(alpha, N, gamma, sbar.s1, sbar.s2, t, 2 * quad_res, 2 * quad_res)
    if abs(fine - coarse) > 0.01 * max(abs(fine), 1e-300):
        raise ValueError(
            f"quadrature not converged at quad_res={quad_res}: "
            f"{coarse:.6g} vs {fine:.6g}"
        )
    return fine

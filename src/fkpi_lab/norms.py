"""Conserved quantities and the norm zoo used by the probes.

All spectral sums follow the grid convention: integral |u|^2 dx dy equals
sum |coeffs|^2 / (Lx*Ly).  They run over the stored half spectrum, each
column weighted by grid.half_weight (1 for eta = 0, 2 for the others).
The anisotropic Sobolev scale carries separate orders (s1, s2) in xi and
eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import plane_residual, to_physical, trusted_field


@dataclass(frozen=True)
class AnisoIndex:
    s1: float
    s2: float = 0.0


@dataclass(frozen=True)
class MixedNormSpec:
    """Space-time exponents L^q_t L^r_{xy}; math.inf marks a sup norm."""

    q: float
    r: float

    def __post_init__(self):
        if not self.q > 2.0:
            raise ValueError(f"q must exceed 2, got {self.q}")
        if not (2.0 <= self.r):
            raise ValueError(f"r must be at least 2, got {self.r}")

    @property
    def strichartz_admissible(self):
        inv_q = 0.0 if math.isinf(self.q) else 1.0 / self.q
        inv_r = 0.0 if math.isinf(self.r) else 1.0 / self.r
        return abs(inv_q + inv_r - 0.5) <= 1e-12

    def gamma_weight(self, alpha):
        """Smoothing order gamma(r) = (1 - 2/r)(1/2 - alpha/4)."""
        inv_r = 0.0 if math.isinf(self.r) else 1.0 / self.r
        return (1.0 - 2.0 * inv_r) * (0.5 - alpha / 4.0)


def _vol(grid):
    return grid.length_x * grid.length_y


def mass(field):
    """L^2 mass integral |u|^2 by Parseval."""
    power = np.abs(field.half) ** 2 * field.grid.half_weight
    return float(np.sum(power) / _vol(field.grid))


def _check_eta_column(field, what):
    # modes (xi=0, eta!=0) make 1/xi weights meaningless
    if plane_residual(field, (0, slice(1, None))):
        raise ValueError(
            f"{what} undefined: field carries eta-dependent content on the xi=0 plane"
        )


@lru_cache(maxsize=16)
def _quadratic_weight(grid, alpha):
    """1/2 |xi|^alpha + 1/2 (eta/xi)^2 on the half (0 where xi = 0), times
    half_weight / (Lx*Ly), so that the quadratic energy is one weighted sum."""
    xi, eta = grid.xi_half, grid.eta_half
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(xi != 0.0, (eta / np.where(xi != 0.0, xi, 1.0)) ** 2, 0.0)
    w = 0.5 * (np.abs(xi) ** alpha + w) * grid.half_weight / _vol(grid)
    w.flags.writeable = False
    return w


def energy_alpha(params, field):
    """Hamiltonian: 1/2 |D_x^{a/2} u|^2 + 1/2 |dx^{-1} dy u|^2 + 1/6 int u^3.

    Quadratic terms are exact spectral sums; the cubic term is a dealiased
    physical quadrature (exact whenever u is band-limited to the retained
    modes, as evolved fields are).
    """
    _check_eta_column(field, "energy_alpha")
    grid = field.grid
    u_deal = to_physical(trusted_field(grid, field.half * grid.dealias_mask))
    cubic = float(np.sum(u_deal * u_deal * u_deal) * grid.cell_area) / 6.0
    weight = _quadratic_weight(grid, params.alpha)
    return float(np.sum(weight * np.abs(field.half) ** 2)) + cubic


def _lr_norm(field, r):
    u = to_physical(field)
    if math.isinf(r):
        return float(np.max(np.abs(u)))
    return float((np.sum(np.abs(u) ** r) * field.grid.cell_area) ** (1.0 / r))


def spacetime_norm(trajectory, spec):
    """L^q_t L^r_xy norm of a sampled trajectory [(t_i, field_i), ...].

    Any iterable of pairs works, a generator included; snapshots are read
    one at a time and not kept.  Time integration is trapezoidal on the
    (uniform) snapshot times; q = inf or r = inf fall back to the max over
    the sampled set.
    """
    times, vals = [], []
    for t, f in trajectory:
        times.append(t)
        vals.append(_lr_norm(f, spec.r))
    if len(times) < 2:
        raise ValueError("spacetime_norm needs at least two snapshots")
    times = np.array(times, dtype=float)
    vals = np.array(vals)
    dts = np.diff(times)
    if np.any(dts <= 0.0):
        raise ValueError("snapshot times must be strictly increasing")
    if np.max(np.abs(dts - dts[0])) > 1e-9 * max(abs(times[-1]), 1.0):
        raise ValueError("snapshot times must be uniformly spaced")
    if math.isinf(spec.q):
        return float(np.max(vals))
    w = np.full(len(times), dts[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(np.sum(w * vals ** spec.q) ** (1.0 / spec.q))

"""Dispersion relation, resonance function, and characteristic-surface
geometry for the fractional KP-I symbol

    omega(xi, eta) = |xi|^alpha xi + eta^2/xi,    xi != 0.

Everything here is closed-form; the module exists so the formulas live in
one place.  A second, independent route to each quantity (a direct formula
against an algebraically rearranged one) lives in tests/oracles.py, where
the two are cross-checked.  The *_arrays functions take plain ndarrays or
floats and vectorize over samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Samplers never produce |xi| below this: the symbol is singular at xi = 0.
XI_GUARD = 1e-8
# Proposal rounds of the resonant sampler before it reports starvation.
_SAMPLER_ROUNDS = 64


@dataclass(frozen=True)
class DispersionParams:
    """Dispersion strength alpha.

    The estimates under study live on 2 < alpha < 4; the growth studies
    evaluate the boundary alpha = 2 as well (the classical fifth-order
    threshold sits inside (2, 4), so the sign change is bracketed from
    below).  Hence the constructor admits [2, 4).
    """

    alpha: float

    def __post_init__(self):
        if not (2.0 <= self.alpha < 4.0):
            raise ValueError(f"alpha must lie in [2, 4), got {self.alpha}")


# ---------------------------------------------------------------- array core


def omega_arrays(alpha, xi, eta):
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return np.abs(xi) ** alpha * xi + eta * eta / xi


def grad_omega_arrays(alpha, xi, eta):
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    gx = (alpha + 1.0) * np.abs(xi) ** alpha - (eta / xi) ** 2
    gy = 2.0 * eta / xi
    return gx, gy


def omega1_arrays(alpha, xi1, xi2):
    s = xi1 + xi2
    return (
        np.abs(s) ** alpha * s
        - np.abs(xi1) ** alpha * xi1
        - np.abs(xi2) ** alpha * xi2
    )


def omega2_arrays(alpha, xi1, eta1, xi2, eta2):
    cross = eta1 * xi2 - eta2 * xi1
    return cross * cross / (xi1 * xi2 * (xi1 + xi2))


def resonance_arrays(alpha, xi1, eta1, xi2, eta2):
    """Omega = Omega1 - Omega2 in the partial-fractions form."""
    return omega1_arrays(alpha, xi1, xi2) - omega2_arrays(alpha, xi1, eta1, xi2, eta2)


# ------------------------------------------------------------------ the scan


@dataclass(frozen=True)
class ResonanceScanReport:
    omega1_ratio_min: float
    omega1_ratio_max: float
    omega_ratio_min: float
    omega_ratio_max: float


def interaction_boxes(alpha, N, gamma):
    """The low/high frequency boxes D~1, D~2 driving the growth mechanism.

    D~1 = [gamma/2, gamma] x [-sqrt(1+alpha) gamma^2, sqrt(1+alpha) gamma^2]
    D~2 = [N, N+gamma] x [h, h + gamma^2],  h = sqrt(1+alpha) N^{(alpha+2)/2}.
    """
    a = math.sqrt(1.0 + alpha)
    h = a * N ** ((alpha + 2.0) / 2.0)
    box1 = ((gamma / 2.0, gamma), (-a * gamma ** 2, a * gamma ** 2))
    box2 = ((N, N + gamma), (h, h + gamma ** 2))
    return box1, box2


def resonance_size_scan(params, N, gamma, samples, seed):
    """Sample D~1 x D~2 uniformly and measure both resonance size laws."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if N < 2.0:
        raise ValueError(f"N must be >= 2 (asymptotic box separation), got {N}")
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    alpha = params.alpha
    theta = -math.log(gamma) / math.log(N) - (alpha - 1.0) / 2.0
    if theta <= 0.0:
        raise ValueError(
            f"gamma={gamma} is too large for N={N}: requires gamma < N^(-(alpha-1)/2)"
        )
    (x1r, e1r), (x2r, e2r) = interaction_boxes(alpha, N, gamma)
    rng = np.random.default_rng(seed)
    xi1 = rng.uniform(*x1r, size=samples)
    eta1 = rng.uniform(*e1r, size=samples)
    xi2 = rng.uniform(*x2r, size=samples)
    eta2 = rng.uniform(*e2r, size=samples)
    om1 = omega1_arrays(alpha, xi1, xi2)
    om = om1 - omega2_arrays(alpha, xi1, eta1, xi2, eta2)
    r1 = np.abs(om1) / (N ** alpha * gamma)
    r2 = np.abs(om) / (N ** (alpha - 1.0) * gamma ** 2)
    return ResonanceScanReport(
        omega1_ratio_min=float(r1.min()), omega1_ratio_max=float(r1.max()),
        omega_ratio_min=float(r2.min()), omega_ratio_max=float(r2.max()),
    )


# -------------------------------------------------------- resonant sampling


def sample_resonant_pairs(params, n_max, n_min, count, rng, c):
    """Rejection-sample pairs with dyadic magnitudes lying in {|Omega| <= c|Omega1|}.

    Magnitudes are drawn from [N/2, N] with random signs (xi1 + xi2 = 0
    excluded), the p2 group-velocity slope is drawn freely, and eta1 is
    proposed around the exact resonance root eta1* solving Omega = 0; the
    root exists because Omega1 * xi1 xi2 (xi1+xi2) > 0 on these ranges.
    Returns (xi1, eta1, xi2, eta2) arrays of length `count`.
    """
    if c <= 0.0 or c >= 1.0:
        raise ValueError(f"resonant fraction c must lie in (0, 1), got {c}")
    alpha = params.alpha
    got = 0
    chunks = []
    for _ in range(_SAMPLER_ROUNDS):
        n = max(4 * count, 64)
        s1 = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        s2 = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        xi1 = s1 * rng.uniform(n_max / 2.0, n_max, size=n)
        xi2 = s2 * rng.uniform(n_min / 2.0, n_min, size=n)
        ok = (np.abs(xi1 + xi2) > XI_GUARD) & (np.abs(xi1) > XI_GUARD) & (np.abs(xi2) > XI_GUARD)
        m2 = rng.uniform(-0.5, 0.5, size=n) * n_max ** (alpha / 2.0)
        eta2 = m2 * xi2
        g = omega1_arrays(alpha, xi1, xi2)
        d = xi1 * xi2 * (xi1 + xi2)
        gd = g * d
        ok &= gd > 0.0
        root = np.sqrt(np.where(ok, gd, 1.0))
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        # propose around the root, then keep the honest resonance test
        cross = sign * root * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, size=n))
        eta1 = (cross + eta2 * xi1) / xi2
        om1 = g
        om = resonance_arrays(alpha, xi1, eta1, xi2, eta2)
        ok &= np.abs(om) <= c * np.abs(om1)
        if np.any(ok):
            chunks.append((xi1[ok], eta1[ok], xi2[ok], eta2[ok]))
            got += int(np.sum(ok))
        if got >= count:
            break
    if got == 0:
        raise ValueError(
            f"empty resonant sample set for c={c}, N_max={n_max}, N_min={n_min}"
        )
    if got < count:
        raise ValueError(
            f"resonant sampler starved: {got}/{count} accepted for c={c}"
        )
    cols = [np.concatenate([ch[i] for ch in chunks])[:count] for i in range(4)]
    return tuple(cols)


@dataclass(frozen=True)
class TransversalityReport:
    cross_ratio_min: float
    cross_ratio_max: float
    slope_gap_ratio_min: float
    slope_gap_ratio_max: float


def transversality_check(params, n_max, n_min, samples, seed, c):
    """Measure the two transversality size laws on resonant samples:

    |eta1 xi2 - eta2 xi1| against N_max^{alpha/2+1} N_min, and the
    group-velocity slope gap |eta1/xi1 - eta2/xi2| (which lower-bounds the
    gradient gap |grad omega(p1) - grad omega(p2)|) against N_max^{alpha/2}.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    alpha = params.alpha
    rng = np.random.default_rng(seed)
    xi1, eta1, xi2, eta2 = sample_resonant_pairs(params, n_max, n_min, samples, rng, c=c)
    cross = np.abs(eta1 * xi2 - eta2 * xi1)
    slope_gap = np.abs(eta1 / xi1 - eta2 / xi2)
    r1 = cross / (n_max ** (alpha / 2.0 + 1.0) * n_min)
    r2 = slope_gap / n_max ** (alpha / 2.0)
    # sanity: the full gradient gap dominates the slope gap mechanism
    g1x, g1y = grad_omega_arrays(alpha, xi1, eta1)
    g2x, g2y = grad_omega_arrays(alpha, xi2, eta2)
    grad_gap = np.hypot(g1x - g2x, g1y - g2y)
    if not np.all(grad_gap >= slope_gap):
        raise AssertionError("gradient gap fell below the slope-gap lower bound")
    return TransversalityReport(
        cross_ratio_min=float(r1.min()), cross_ratio_max=float(r1.max()),
        slope_gap_ratio_min=float(r2.min()), slope_gap_ratio_max=float(r2.max()),
    )

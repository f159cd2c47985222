"""Independent routes to quantities the package computes, for the tests.

Each function here reaches a value by another road than the package does:
the resonance function by differencing omega, the determinant of the
surface normals by cofactors and by its closed form, the quadratic energy
and the anisotropic Sobolev norm as sums over the full `coeffs` spectrum
(the package sums the stored half with column weights), and the solution
itself by Picard iteration on the Duhamel formula.  The package never
imports this module.
"""

import math

import numpy as np

from fkpi_lab.evolution import nonlinearity, propagate_linear
from fkpi_lab.grid import SpectralField, require_zero_x_mean, trusted_field
from fkpi_lab.symbols import grad_omega_arrays, omega1_arrays, omega_arrays

# ------------------------------------------------------------------ symbols


def resonance_difference_arrays(alpha, xi1, eta1, xi2, eta2):
    """omega(p1 + p2) - omega(p1) - omega(p2), against the partial fractions
    of `resonance_arrays`."""
    return (
        omega_arrays(alpha, xi1 + xi2, eta1 + eta2)
        - omega_arrays(alpha, xi1, eta1)
        - omega_arrays(alpha, xi2, eta2)
    )


def normal_determinant_closed_arrays(alpha, xi1, eta1, xi2, eta2):
    cross = eta1 * xi2 - eta2 * xi1
    d = xi1 * xi2 * (xi1 + xi2)
    inner = (alpha + 1.0) * (-omega1_arrays(alpha, xi1, xi2)) - cross * cross / d
    return -2.0 * cross / d * inner


def normal_determinant_numeric_arrays(alpha, xi1, eta1, xi2, eta2):
    """Cofactor expansion of det[n(p1) n(p2) n(p1+p2)] with n = (1, -grad)."""
    g1x, g1y = grad_omega_arrays(alpha, xi1, eta1)
    g2x, g2y = grad_omega_arrays(alpha, xi2, eta2)
    g3x, g3y = grad_omega_arrays(alpha, xi1 + xi2, eta1 + eta2)
    a, b, c = -g1x, -g2x, -g3x
    d, e, f = -g1y, -g2y, -g3y
    # | 1 1 1 ; a b c ; d e f |
    return (b * f - c * e) - (a * f - c * d) + (a * e - b * d)


# -------------------------------------------------- full-spectrum norms


def _full_sum(field, weight):
    """sum weight |coeffs|^2 / (Lx Ly) over the full spectrum."""
    g = field.grid
    return float(np.sum(weight * np.abs(field.coeffs) ** 2)) / (g.length_x * g.length_y)


def quadratic_energy(params, field):
    """1/2 |D_x^{a/2} u|^2 + 1/2 |dx^{-1} dy u|^2: energy_alpha without its
    cubic term; the xi = 0 plane carries no weight."""
    xi, eta = field.grid.xi[:, None], field.grid.eta[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        transverse = np.where(xi != 0.0, (eta / np.where(xi != 0.0, xi, 1.0)) ** 2, 0.0)
    return 0.5 * _full_sum(field, np.abs(xi) ** params.alpha + transverse)


def sobolev_aniso(field, idx):
    """Anisotropic Sobolev norm with weight (1+xi^2)^{s1/2} (1+eta^2)^{s2/2}."""
    xi, eta = field.grid.xi[:, None], field.grid.eta[None, :]
    return math.sqrt(_full_sum(field, (1.0 + xi * xi) ** idx.s1
                               * (1.0 + eta * eta) ** idx.s2))


def x_derivative(field):
    return SpectralField(field.grid, field.coeffs * (1j * field.grid.xi[:, None]))


# ------------------------------------------------------------------- Picard


def prefix_weights(n, dt):
    """Lower-triangular quadrature weights W[i, :] integrating over [0, i*dt].

    Even prefixes use composite Simpson; odd ones splice a 3/8 panel onto
    the final three intervals (plain trapezoid for the lone i = 1 case).
    """
    w = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        if i == 1:
            w[1, 0] = w[1, 1] = dt / 2.0
        elif i % 2 == 0:
            w[i, 0] = w[i, i] = dt / 3.0
            w[i, 1:i:2] += 4.0 * dt / 3.0
            w[i, 2:i:2] += 2.0 * dt / 3.0
        else:
            w[i, : i - 2] = w[i - 3, : i - 2]
            w[i, i - 3 : i + 1] += np.array([1.0, 3.0, 3.0, 1.0]) * 3.0 * dt / 8.0
    return w


def picard_iterate(params, u0, k, T, dt):
    """k-th Picard iterate at time T on the Duhamel ladder.

    u^0(t) = U(t) u0;  u^{j+1}(t) = U(t) u0 + int_0^t U(t-s) N(u^j(s)) ds,
    integrals by composite Simpson at spacing dt (3/8 splice on odd
    prefixes).  Works in the interaction picture so the stiff phase never
    enters the quadrature.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    require_zero_x_mean(u0, "picard_iterate")
    n = max(1, round(T / dt))
    if abs(n * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"dt={dt} does not divide T={T}")
    if k == 0 or T == 0.0:
        return propagate_linear(params, u0, T)
    grid = u0.grid
    w = prefix_weights(n, dt)
    # v^j holds interaction-picture half spectra at every node
    v = np.repeat(u0.half[None], n + 1, axis=0)
    for _ in range(k):
        # the integrand at node i overwrites v[i] once read: the only stacks
        # of n + 1 nodes are v and the quadrature's result
        for i in range(n + 1):
            ui = propagate_linear(params, trusted_field(grid, v[i].copy()), i * dt)
            v[i] = propagate_linear(params, nonlinearity(params, ui), -i * dt).half
        v = np.tensordot(w, v, axes=(1, 0))
        v += u0.half
    return propagate_linear(params, trusted_field(grid, v[n]), n * dt)

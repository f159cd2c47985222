"""Independent reference for the final state of a `conserve` run.

The gate cannot store the final field for every seed, so it recomputes it.
This module re-derives the canonical smooth initial data from the seed and
integrates

    u_t = |D_x|^alpha u_x + dx^{-1} dyy u + u u_x     on the 2pi box

with an integrating-factor (Lawson) RK4 scheme on a coarse grid.  The data
lives on the modes |k_x| <= 2, |k_y| <= 1 and its amplitude is small, so the
solution stays spectrally concentrated and a 32^2 grid resolves the low
modes far below the gate's tolerance.  Nothing here calls fkpi_lab, so a
wrong stepper, propagator or time step in the program cannot hide behind
the same mistake in its reference.

`lattice_samples` gives u(T) at the points (2pi p/n, 2pi q/n), p, q < n,
which the benchmark also reads off the program's final field.
"""

from __future__ import annotations

import math

import numpy as np
# Bound at import, before a traced sample patches numpy.fft, so reading the
# program's final field adds no spans.
from numpy.fft import fft2, fftfreq, ifft2

# Canonical `conserve` parameters (cli.py defaults).
ALPHA = 2.5
AMPLITUDE = 0.05
DT = 1e-3
CANONICAL_T = 1.0
CANONICAL_SCHEME = "etdrk4"
# Coarse grid of the reference solve, and the lattice the gate compares on.
REF_MODES = 32
LATTICE = 16


def initial_samples(seed, modes):
    """The canonical smooth data on a modes x modes grid of the 2pi box."""
    rng = np.random.default_rng([seed, 101])
    x = np.arange(modes) * (2.0 * math.pi / modes)
    x, y = np.meshgrid(x, x, indexing="ij")
    u = np.zeros((modes, modes))
    for i in (1, 2):
        for j in (-1, 0, 1):
            weight = rng.normal()
            u += weight * np.cos(i * x + j * y + rng.uniform(0.0, 2.0 * math.pi))
    return AMPLITUDE * u


def lattice_samples(seed, T, nonlinear=True, modes=REF_MODES, n=LATTICE):
    """Reference u(T) on the n x n lattice; T = 0 gives the initial data."""
    k = fftfreq(modes, d=1.0 / modes)
    xi, eta = np.meshgrid(k, k, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = np.where(xi != 0.0, np.abs(xi) ** ALPHA * xi
                         + eta ** 2 / np.where(xi != 0.0, xi, 1.0), 0.0)
    keep = np.abs(k) <= (modes - 1) // 3
    mask = np.outer(keep, keep)

    def rhs(a):
        u = ifft2(a * mask).real
        return 0.5j * xi * fft2(u * u) * mask

    a = fft2(initial_samples(seed, modes))
    steps = round(T / DT)
    half = np.exp(0.5j * DT * omega)
    full = half * half
    for _ in range(steps):
        if not nonlinear:
            a = full * a
            continue
        k1 = rhs(a)
        k2 = rhs(half * (a + 0.5 * DT * k1))
        k3 = rhs(half * a + 0.5 * DT * k2)
        k4 = rhs(full * a + DT * half * k3)
        a = full * a + (DT / 6.0) * (full * k1 + 2.0 * half * (k2 + k3) + k4)
    u = ifft2(a).real
    stride = modes // n
    return u[::stride, ::stride]


def lattice_of(coeffs, cell_area, n=LATTICE):
    """The program's field, given by its coefficients, on the n x n lattice."""
    u = ifft2(coeffs).real / cell_area
    return u[::coeffs.shape[0] // n, ::coeffs.shape[1] // n]


def distance(got, want):
    """Largest pointwise difference relative to the reference's largest value."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))

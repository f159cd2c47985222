"""Spectral representation of real planar fields on a periodic box.

The box [0, Lx) x [0, Ly) stands in for the plane; all fields are stored
by Fourier coefficients on the wavenumber lattice

    xi_k  = 2*pi*k/Lx,   eta_m = 2*pi*m/Ly,

with k, m running over the usual FFT index range.  Coefficients are
normalized to approximate the continuum Fourier transform,

    coeffs = dx * dy * FFT2(samples),

so that Parseval reads  integral |u|^2 dx dy = sum |coeffs|^2 / (Lx*Ly)
and coefficient magnitudes of a fixed profile are independent of the box
size.  Inversion uses the e^{+i(x xi + y eta)} convention.

Real fields keep exact Hermitian symmetry coeffs(-k) = conj(coeffs(k));
every operation re-symmetrizes, so the invariant never decays under
round-off.  The Nyquist row/column is permanently zeroed (it cannot be
assigned a symmetric partner on an even grid).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MAGIC = b"FKPI1"

# Relative tolerance for rejecting almost-but-not Hermitian input.
_SYMMETRY_RTOL = 1e-10
# Relative tolerance below which a field counts as having zero x-mean.
ZERO_X_MEAN_RTOL = 1e-12


@dataclass(frozen=True)
class FrequencyGrid:
    """Periodic box geometry plus mode counts. Immutable and hashable."""

    length_x: float = 2.0 * math.pi * 128.0
    length_y: float = 2.0 * math.pi * 128.0
    modes_x: int = 256
    modes_y: int = 256

    def __post_init__(self):
        if not (self.length_x > 0.0 and self.length_y > 0.0):
            raise ValueError("box lengths must be positive")
        for name in ("modes_x", "modes_y"):
            m = getattr(self, name)
            if m < 8 or m % 2 != 0:
                raise ValueError(f"{name} must be even and at least 8, got {m}")

    @cached_property
    def dx(self):
        return self.length_x / self.modes_x

    @cached_property
    def dy(self):
        return self.length_y / self.modes_y

    @cached_property
    def x(self):
        return np.arange(self.modes_x) * self.dx

    @cached_property
    def y(self):
        return np.arange(self.modes_y) * self.dy

    @cached_property
    def xi(self):
        """1-d array of x-wavenumbers in FFT order, 2*pi*k/Lx."""
        return 2.0 * math.pi * np.fft.fftfreq(self.modes_x, d=self.dx)

    @cached_property
    def eta(self):
        return 2.0 * math.pi * np.fft.fftfreq(self.modes_y, d=self.dy)

    @cached_property
    def xi_grid(self):
        return np.meshgrid(self.xi, self.eta, indexing="ij")[0]

    @cached_property
    def eta_grid(self):
        return np.meshgrid(self.xi, self.eta, indexing="ij")[1]

    @cached_property
    def dealias_mask(self):
        """Two-thirds rule mask: True on retained (index) modes.

        Retains |k| <= (M-1)//3 so that 3*kmax < M strictly; at the exact
        M/3 boundary a product of two retained modes would alias back onto
        a retained one.
        """
        kx = np.fft.fftfreq(self.modes_x, d=1.0 / self.modes_x)
        ky = np.fft.fftfreq(self.modes_y, d=1.0 / self.modes_y)
        keep_x = np.abs(kx) <= (self.modes_x - 1) // 3
        keep_y = np.abs(ky) <= (self.modes_y - 1) // 3
        return np.outer(keep_x, keep_y)

    @cached_property
    def cell_area(self):
        return self.dx * self.dy


def _reflect(coeffs):
    # coefficient at -k for every k, on the FFT index lattice
    return np.roll(np.flip(coeffs, axis=(0, 1)), shift=1, axis=(0, 1))


def hermitian_defect(coeffs):
    """Max abs deviation from coeffs(-k) = conj(coeffs(k))."""
    return float(np.max(np.abs(coeffs - np.conj(_reflect(coeffs)))))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A field held by its Fourier coefficients on a FrequencyGrid.

    ``is_real`` fields are kept exactly Hermitian: the constructor
    rejects grossly asymmetric input and folds the remainder, so the
    symmetry holds to the last bit afterwards.
    """

    grid: FrequencyGrid
    coeffs: np.ndarray
    is_real: bool = True

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        shape = (self.grid.modes_x, self.grid.modes_y)
        if c.shape != shape:
            raise ValueError(f"coefficient shape {c.shape} does not match grid {shape}")
        c = c.copy()
        c[self.grid.modes_x // 2, :] = 0.0
        c[:, self.grid.modes_y // 2] = 0.0
        if self.is_real:
            scale = max(1.0, float(np.max(np.abs(c))))
            defect = hermitian_defect(c)
            if defect > _SYMMETRY_RTOL * scale:
                raise ValueError(
                    f"coefficients violate Hermitian symmetry (defect {defect:.3e}) "
                    "for a field declared real"
                )
            c = 0.5 * (c + np.conj(_reflect(c)))
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def with_coeffs(self, coeffs, is_real=None):
        return SpectralField(self.grid, coeffs,
                             self.is_real if is_real is None else is_real)

    def x_mean_residual(self):
        """Largest |coefficient| on the xi = 0 plane."""
        return float(np.max(np.abs(self.coeffs[0, :])))

    def __add__(self, other):
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs,
                             self.is_real and other.is_real)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs,
                             self.is_real and other.is_real)

    def __mul__(self, scalar):
        s = complex(scalar)
        real = self.is_real and s.imag == 0.0
        return SpectralField(self.grid, self.coeffs * scalar, real)

    __rmul__ = __mul__


@dataclass(frozen=True)
class DyadicBand:
    """A dyadic frequency magnitude N (a power of two, possibly < 1)."""

    value: float

    def __post_init__(self):
        mantissa, _ = math.frexp(self.value)
        if self.value <= 0.0 or mantissa != 0.5:
            raise ValueError(f"dyadic band requires a positive power of two, got {self.value}")

    def contains(self, xi):
        """Wide-band membership N/8 <= |xi| <= 8N."""
        a = np.abs(xi)
        return (a >= self.value / 8.0) & (a <= 8.0 * self.value)


def _require_same_grid(f, g):
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")


def plane_residual(field, index):
    """Largest |coefficient| at coeffs[index], or 0.0 when that is round-off:
    at most ZERO_X_MEAN_RTOL times the field's largest coefficient (or 1)."""
    res = float(np.max(np.abs(field.coeffs[index])))
    scale = max(1.0, float(np.max(np.abs(field.coeffs))))
    return res if res > ZERO_X_MEAN_RTOL * scale else 0.0


def require_zero_x_mean(field, what="operation"):
    res = plane_residual(field, (0, slice(None)))
    if res:
        raise ValueError(
            f"{what} requires zero x-mean: residual {res:.3e} on the xi=0 plane"
        )


def to_physical(field):
    """Point samples on the grid. Real ndarray for real fields."""
    samples = np.fft.ifft2(field.coeffs) / field.grid.cell_area
    if field.is_real:
        return samples.real.copy()
    return samples


def to_spectral(samples, grid, is_real=None):
    """Transform point samples to a SpectralField (left inverse of to_physical)."""
    samples = np.asarray(samples)
    shape = (grid.modes_x, grid.modes_y)
    if samples.shape != shape:
        raise ValueError(f"sample array shape {samples.shape} does not match grid {shape}")
    if is_real is None:
        is_real = np.isrealobj(samples)
    coeffs = np.fft.fft2(samples) * grid.cell_area
    return SpectralField(grid, coeffs, is_real)


def x_derivative(field):
    return field.with_coeffs(field.coeffs * (1j * field.grid.xi_grid))


def y_derivative(field):
    return field.with_coeffs(field.coeffs * (1j * field.grid.eta_grid))


def x_antiderivative(field):
    """Inverse x-derivative. Defined only on zero-x-mean fields."""
    require_zero_x_mean(field, "x_antiderivative")
    xi = field.grid.xi_grid
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = np.where(xi != 0.0, 1.0 / (1j * xi), 0.0)
    return field.with_coeffs(field.coeffs * mult)


def fractional_x_derivative(field, s):
    """|D_x|^s: multiply coefficients by |xi|^s. Negative s needs zero x-mean."""
    if s == 0:
        return field.with_coeffs(field.coeffs)
    if s < 0:
        require_zero_x_mean(field, f"fractional_x_derivative(s={s})")
    xi = field.grid.xi_grid
    with np.errstate(divide="ignore"):
        mult = np.where(xi != 0.0, np.abs(xi) ** float(s), 0.0)
    return field.with_coeffs(field.coeffs * mult)


def project_dyadic(field, band):
    """Sharp Littlewood-Paley piece: keep N/2 < |xi| <= N."""
    n = band.value if isinstance(band, DyadicBand) else DyadicBand(band).value
    a = np.abs(field.grid.xi_grid)
    mask = (a > n / 2.0) & (a <= n)
    return field.with_coeffs(field.coeffs * mask.astype(float))


def dealiased_product(f, g):
    """Pointwise product with the 2/3 rule applied before and after.

    Both inputs are truncated to the retained modes, multiplied in
    physical space, and the result is truncated again, so quadratic
    aliasing cannot fold spurious energy back into retained modes.
    """
    _require_same_grid(f, g)
    grid = f.grid
    mask = grid.dealias_mask
    fa = np.fft.ifft2(f.coeffs * mask)
    ga = np.fft.ifft2(g.coeffs * mask)
    # fa, ga are cell_area * samples; one net 1/cell_area restores the convention
    coeffs = np.fft.fft2(fa * ga) / grid.cell_area * mask
    return SpectralField(grid, coeffs, f.is_real and g.is_real)


def save_field(field, path):
    """Write magic, box lengths, mode counts, then row-major (re, im) f64 pairs."""
    header = _MAGIC + struct.pack(
        "<ddqq",
        field.grid.length_x,
        field.grid.length_y,
        field.grid.modes_x,
        field.grid.modes_y,
    )
    body = np.ascontiguousarray(field.coeffs).astype("<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def load_field(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a spectral field file (bad magic)")
    off = len(_MAGIC)
    lx, ly, mx, my = struct.unpack_from("<ddqq", blob, off)
    off += struct.calcsize("<ddqq")
    grid = FrequencyGrid(lx, ly, int(mx), int(my))
    count = int(mx) * int(my)
    coeffs = np.frombuffer(blob, dtype="<c16", count=count, offset=off)
    coeffs = coeffs.reshape(int(mx), int(my)).copy()
    is_real = hermitian_defect(coeffs) == 0.0
    return SpectralField(grid, coeffs, is_real)

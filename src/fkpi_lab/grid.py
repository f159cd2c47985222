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

Fields are real, so coeffs(-k) = conj(coeffs(k)) and half the spectrum
determines the rest.  A SpectralField stores only the rfft2 half,
`half = coeffs[:, :modes_y//2 + 1]`, and every solver, product and
diagnostic works on it.  `coeffs` is the full (modes_x, modes_y) spectrum
as a derived view: it is rebuilt from the half on each access and never
kept.  Hermitian symmetry is checked and folded to the last bit where data
enters (SpectralField, to_spectral, load_field); on the half that leaves
one condition, an exactly Hermitian eta = 0 column, which real transforms
and exactly Hermitian multipliers keep after.  The Nyquist row/column is
zero (it has no symmetric partner on an even grid).  The FKPI1 file format
holds the full spectrum, as it always has.
"""

from __future__ import annotations

import math
import numbers
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

    length_x: float
    length_y: float
    modes_x: int
    modes_y: int

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
    def half_shape(self):
        """Shape of a stored field: all xi rows, eta columns 0..modes_y/2."""
        return (self.modes_x, self.modes_y // 2 + 1)

    @cached_property
    def xi_half(self):
        """xi as a (modes_x, 1) column; it broadcasts over a half spectrum."""
        return self.xi[:, None]

    @cached_property
    def eta_half(self):
        """eta of the half's columns as a (1, modes_y/2 + 1) row."""
        return self.eta[None, : self.half_shape[1]]

    @cached_property
    def half_weight(self):
        """Multiplicity of each half-spectrum column in a full-spectrum sum:
        1 for eta = 0, 2 for the columns whose mirror lies in eta < 0."""
        w = np.full(self.half_shape[1], 2.0)
        w[0] = 1.0
        return w

    @cached_property
    def dealias_mask(self):
        """Two-thirds rule mask on the half spectrum: True on retained modes.

        Retains |k| <= (M-1)//3 so that 3*kmax < M strictly; at the exact
        M/3 boundary a product of two retained modes would alias back onto
        a retained one.
        """
        kx = np.fft.fftfreq(self.modes_x, d=1.0 / self.modes_x)
        ky = np.fft.fftfreq(self.modes_y, d=1.0 / self.modes_y)[: self.half_shape[1]]
        keep_x = np.abs(kx) <= (self.modes_x - 1) // 3
        keep_y = np.abs(ky) <= (self.modes_y - 1) // 3
        return np.outer(keep_x, keep_y)

    @cached_property
    def product_scale(self):
        """dealias_mask / cell_area: truncates a product's rfft2 and restores
        the coefficient normalization in one multiply."""
        return self.dealias_mask / self.cell_area

    @cached_property
    def cell_area(self):
        return self.dx * self.dy


def _reflect(coeffs):
    # coefficient at -k for every k, on the FFT index lattice
    return np.roll(np.flip(coeffs, axis=(0, 1)), shift=1, axis=(0, 1))


def hermitian_defect(coeffs):
    """Max abs deviation from coeffs(-k) = conj(coeffs(k))."""
    return float(np.max(np.abs(coeffs - np.conj(_reflect(coeffs)))))


@dataclass(frozen=True, eq=False, init=False)
class SpectralField:
    """A real field held by the rfft2 half of its Fourier coefficients.

    SpectralField(grid, coeffs) takes a full spectrum: it rejects grossly
    asymmetric input, zeroes the Nyquist planes, folds the remainder to
    exact Hermitian symmetry and keeps the half.
    """

    grid: FrequencyGrid
    half: np.ndarray

    def __init__(self, grid, coeffs):
        object.__setattr__(self, "grid", grid)
        self.__post_init__(coeffs)

    def __post_init__(self, coeffs):
        c = np.array(coeffs, dtype=np.complex128)
        shape = (self.grid.modes_x, self.grid.modes_y)
        if c.shape != shape:
            raise ValueError(f"coefficient shape {c.shape} does not match grid {shape}")
        c[self.grid.modes_x // 2, :] = 0.0
        c[:, self.grid.modes_y // 2] = 0.0
        scale = max(1.0, float(np.max(np.abs(c))))
        defect = hermitian_defect(c)
        if defect > _SYMMETRY_RTOL * scale:
            raise ValueError(
                f"coefficients violate Hermitian symmetry (defect {defect:.3e}) "
                "for a field declared real"
            )
        h = self.grid.half_shape[1]
        half = 0.5 * (c[:, :h] + np.conj(_reflect(c)[:, :h]))
        half.flags.writeable = False
        object.__setattr__(self, "half", half)

    @property
    def coeffs(self):
        """The full (modes_x, modes_y) spectrum, rebuilt from the half on
        every access: it allocates a full array each time."""
        c = _full_spectrum(self.half, self.grid)
        c.flags.writeable = False
        return c

    def __add__(self, other):
        _require_same_grid(self, other)
        return trusted_field(self.grid, self.half + other.half)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return trusted_field(self.grid, self.half - other.half)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Real):
            raise TypeError(f"a real field scales by real numbers only, got {scalar!r}")
        return trusted_field(self.grid, self.half * scalar)

    __rmul__ = __mul__


def trusted_field(grid, half):
    """Package-internal: SpectralField without the check and fold, for a fresh
    complex128 half spectrum of shape grid.half_shape whose eta = 0 column is
    exactly Hermitian and whose Nyquist row and column are zero."""
    field = object.__new__(SpectralField)
    half.flags.writeable = False
    object.__setattr__(field, "grid", grid)
    object.__setattr__(field, "half", half)
    return field


def _require_same_grid(f, g):
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")


def plane_residual(field, index):
    """Largest |coefficient| at half[index], or 0.0 when that is round-off:
    at most ZERO_X_MEAN_RTOL times the field's largest coefficient (or 1).
    A row of the half holds every value of the full row, up to conjugation."""
    res = float(np.max(np.abs(field.half[index])))
    scale = max(1.0, float(np.max(np.abs(field.half))))
    return res if res > ZERO_X_MEAN_RTOL * scale else 0.0


def require_zero_x_mean(field, what="operation"):
    res = plane_residual(field, (0, slice(None)))
    if res:
        raise ValueError(
            f"{what} requires zero x-mean: residual {res:.3e} on the xi=0 plane"
        )


def to_physical(field):
    """Point samples on the grid, a real ndarray."""
    grid = field.grid
    return np.fft.irfft2(field.half, s=(grid.modes_x, grid.modes_y)) / grid.cell_area


def _fold_eta0(half):
    """Fold the eta = 0 column of a fresh half in place to exact symmetry:
    rfft2 transforms it by a complex FFT along x, which leaves round-off."""
    col = half[:, 0]
    half[:, 0] = 0.5 * (col + np.conj(np.roll(col[::-1], 1)))
    return half


def _full_spectrum(half, grid):
    """Exactly Hermitian full spectrum, Nyquist column zero, from a half."""
    c = np.zeros((grid.modes_x, grid.modes_y), dtype=np.complex128)
    c[:, : grid.modes_y // 2] = half[:, : grid.modes_y // 2]
    # the conjugate mirror fills eta < 0; halved, it folds the eta = 0 column
    c += np.conj(_reflect(c))
    c[:, 0] *= 0.5
    return c


def to_spectral(samples, grid):
    """Transform real point samples to a SpectralField (left inverse of to_physical)."""
    samples = np.asarray(samples)
    shape = (grid.modes_x, grid.modes_y)
    if samples.shape != shape:
        raise ValueError(f"sample array shape {samples.shape} does not match grid {shape}")
    if np.iscomplexobj(samples):
        raise ValueError("samples must be real: fields are real")
    half = np.fft.rfft2(samples) * grid.cell_area
    half[grid.modes_x // 2, :] = 0.0
    half[:, -1] = 0.0
    return trusted_field(grid, _fold_eta0(half))


def x_derivative(field):
    return trusted_field(field.grid, field.half * (1j * field.grid.xi_half))


def fractional_x_derivative(field, s):
    """|D_x|^s: multiply coefficients by |xi|^s. Negative s needs zero x-mean."""
    if s == 0:
        return field
    if s < 0:
        require_zero_x_mean(field, f"fractional_x_derivative(s={s})")
    xi = field.grid.xi_half
    with np.errstate(divide="ignore"):
        mult = np.where(xi != 0.0, np.abs(xi) ** float(s), 0.0)
    return trusted_field(field.grid, field.half * mult)


def is_dyadic(value):
    """True for a positive, finite power of two (possibly below 1)."""
    if value <= 0.0 or not math.isfinite(value):
        return False
    return math.frexp(value)[0] == 0.5


def dealiased_product(f, g):
    """Pointwise product with the 2/3 rule applied before and after.

    Both inputs are truncated to the retained modes, multiplied in
    physical space, and the result is truncated again, so quadratic
    aliasing cannot fold spurious energy back into retained modes.
    """
    _require_same_grid(f, g)
    grid = f.grid
    mask = grid.dealias_mask
    shape = (grid.modes_x, grid.modes_y)
    fa = np.fft.irfft2(f.half * mask, s=shape)
    ga = fa if g is f else np.fft.irfft2(g.half * mask, s=shape)
    # fa, ga are cell_area * samples; one net 1/cell_area restores the convention
    square = np.fft.rfft2(fa * ga)
    square *= grid.product_scale
    return trusted_field(grid, _fold_eta0(square))


def save_field(field, path):
    """Write magic, box lengths, mode counts, then the full spectrum as
    row-major (re, im) f64 pairs."""
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
    return SpectralField(grid, coeffs.reshape(int(mx), int(my)))

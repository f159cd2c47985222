import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fkpi_lab import grid as G


def small_grid(m=32, box=2 * math.pi):
    return G.FrequencyGrid(box, box, m, m)


def random_real_field(grid, seed=0, zero_x_mean=False):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((grid.modes_x, grid.modes_y))
    f = G.to_spectral(samples, grid)
    if zero_x_mean:
        c = f.coeffs.copy()
        c[0, :] = 0.0
        f = G.SpectralField(grid, c)
    return f


class TestFrequencyGrid:
    def test_wavenumbers(self):
        g = small_grid(16, 2 * math.pi)
        assert np.allclose(np.sort(g.xi), np.arange(-8, 8))
        g2 = G.FrequencyGrid(4 * math.pi, 2 * math.pi, 16, 16)
        assert abs(np.sort(g2.xi)[9] - 0.5) < 1e-15  # xi_k = 2 pi k / Lx

    @pytest.mark.parametrize("kw", [
        dict(modes_x=7), dict(modes_x=6), dict(modes_y=33),
        dict(length_x=0.0), dict(length_y=-1.0),
    ])
    def test_validation(self, kw):
        args = dict(length_x=2 * math.pi, length_y=2 * math.pi, modes_x=16, modes_y=16)
        args.update(kw)
        with pytest.raises(ValueError):
            G.FrequencyGrid(**args)

    def test_every_field_is_required(self):
        with pytest.raises(TypeError):
            G.FrequencyGrid(2 * math.pi, 2 * math.pi, 16)

    def test_hashable_and_equal(self):
        assert small_grid() == small_grid()
        assert hash(small_grid()) == hash(small_grid())


class TestSpectralField:
    def test_nyquist_always_zero(self):
        g = small_grid(16)
        c = np.ones((16, 16), dtype=complex)
        f = G.SpectralField(g, c)
        assert np.all(f.coeffs[8, :] == 0.0)
        assert np.all(f.coeffs[:, 8] == 0.0)

    def test_shape_mismatch(self):
        g = small_grid(16)
        with pytest.raises(ValueError):
            G.SpectralField(g, np.zeros((16, 18), dtype=complex))

    def test_asymmetric_real_field_rejected(self):
        g = small_grid(16)
        c = np.zeros((16, 16), dtype=complex)
        c[1, 2] = 1.0  # no conjugate partner
        with pytest.raises(ValueError):
            G.SpectralField(g, c)

    def test_symmetrization_is_exact(self):
        f = random_real_field(small_grid(), seed=3)
        assert G.hermitian_defect(f.coeffs) == 0.0

    def test_complex_scalar_rejected(self):
        f = random_real_field(small_grid(16), seed=4)
        with pytest.raises(TypeError, match="real"):
            f * 1j
        with pytest.raises(TypeError, match="real"):
            np.complex128(2.0) * f

    def test_coeffs_immutable(self):
        f = random_real_field(small_grid(), seed=4)
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 1.0


class TestHalfStorage:
    def test_coeffs_is_a_fresh_full_view(self):
        f = random_real_field(small_grid(16), seed=6)
        assert f.half.shape == (16, 16 // 2 + 1)
        assert f.coeffs is not f.coeffs
        assert f.coeffs.shape == (16, 16)
        assert np.array_equal(f.coeffs[:, : f.half.shape[1]], f.half)
        # only the half stays on the instance, also after the accesses
        arrays = [v for v in vars(f).values() if isinstance(v, np.ndarray)]
        assert [a.shape for a in arrays] == [f.half.shape]

    def test_half_eta0_column_exactly_hermitian(self):
        # to_spectral and the product fold the eta = 0 column that rfft2 leaves
        g = small_grid(32)
        f = random_real_field(g, seed=8)
        for field in (f, G.dealiased_product(f, f)):
            col = field.half[:, 0]
            assert np.array_equal(col, np.conj(np.roll(col[::-1], 1)))

    def test_derivatives_keep_eta0_column_hermitian(self):
        # coeffs mirrors the half, so only the half's own column can break
        f = random_real_field(small_grid(32), seed=9, zero_x_mean=True)
        for field in (G.x_derivative(f), G.fractional_x_derivative(f, 0.5),
                      G.fractional_x_derivative(f, -0.75)):
            col = field.half[:, 0]
            assert np.array_equal(col, np.conj(np.roll(col[::-1], 1)))


class TestTransforms:
    def test_round_trip_identity(self):
        f = random_real_field(small_grid(), seed=1)
        f2 = G.to_spectral(G.to_physical(f), f.grid)
        assert np.max(np.abs(f2.coeffs - f.coeffs)) < 1e-12

    def test_constant_transforms_to_dc_mode(self):
        g = small_grid(16)
        f = G.to_spectral(np.ones((16, 16)), g)
        assert abs(f.coeffs[0, 0] - g.length_x * g.length_y) < 1e-12
        rest = f.coeffs.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-12

    def test_complex_samples_rejected(self):
        with pytest.raises(ValueError, match="real"):
            G.to_spectral(np.ones((16, 16), dtype=complex), small_grid(16))

    def test_sample_shape_rejected(self):
        with pytest.raises(ValueError):
            G.to_spectral(np.ones((16, 8)), small_grid(16))

    def test_parseval(self):
        g = small_grid(64)
        f = random_real_field(g, seed=7)
        u = G.to_physical(f)
        phys = np.sum(u * u) * g.cell_area
        spec = np.sum(np.abs(f.coeffs) ** 2) / (g.length_x * g.length_y)
        assert abs(phys - spec) < 1e-12 * max(1.0, phys)

    def test_inversion_sign_convention(self):
        # coefficient at (+1, 0) with its mirror must produce cos(x), not cos(-x+phase)
        g = small_grid(16)
        c = np.zeros((16, 16), dtype=complex)
        amp = g.length_x * g.length_y / 2.0
        c[1, 0] = amp * (1.0 - 0.5j)
        c[-1, 0] = amp * (1.0 + 0.5j)
        u = G.to_physical(G.SpectralField(g, c))
        x = g.x[:, None]
        expect = np.cos(x) + 0.5 * np.sin(x) + 0.0 * g.y[None, :]
        assert np.max(np.abs(u - expect)) < 1e-12


class TestDerivatives:
    def test_finite_difference_oracle(self):
        # centered differences converge at O(h^2) to the spectral derivative
        box = 2 * math.pi
        errs = []
        for m in (32, 64):
            g = G.FrequencyGrid(box, box, m, m)
            x, y = g.x[:, None], g.y[None, :]
            u = np.exp(np.sin(x)) * np.cos(y)
            f = G.to_spectral(u, g)
            du = G.to_physical(G.x_derivative(f))
            fd = (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2 * g.dx)
            errs.append(np.max(np.abs(du - fd)))
        assert errs[0] < 0.1
        assert errs[0] / errs[1] > 3.0  # second order


class TestFractional:
    def test_identity_at_zero(self):
        f = random_real_field(small_grid(), seed=5)
        assert np.array_equal(G.fractional_x_derivative(f, 0.0).coeffs, f.coeffs)

    def test_single_mode_scaling(self):
        g = small_grid(16)
        c = np.zeros((16, 16), dtype=complex)
        c[3, 0] = 1.0
        c[-3, 0] = 1.0
        out = G.fractional_x_derivative(G.SpectralField(g, c), 2.5)
        assert abs(out.coeffs[3, 0] - 3.0 ** 2.5) < 1e-12

    def test_matches_plain_derivative_magnitude(self):
        f = random_real_field(small_grid(), seed=6, zero_x_mean=True)
        frac = G.fractional_x_derivative(f, 1.0)
        plain = G.x_derivative(f)
        assert np.max(np.abs(np.abs(frac.coeffs) - np.abs(plain.coeffs))) < 1e-12

    def test_negative_order_requires_zero_x_mean(self):
        f = random_real_field(small_grid(), seed=8)
        with pytest.raises(ValueError, match="zero x-mean"):
            G.fractional_x_derivative(f, -0.5)


class TestDyadic:
    def test_is_dyadic(self):
        assert G.is_dyadic(0.5)
        assert not any(G.is_dyadic(v) for v in (3.0, 0.0, -2.0, math.inf, math.nan))


class TestProduct:
    def test_two_cosines(self):
        g = small_grid(32)
        x = g.x[:, None]
        y0 = 0.0 * g.y[None, :]
        a = G.to_spectral(np.cos(3 * x) + y0, g)
        b = G.to_spectral(np.cos(2 * x) + y0, g)
        p = G.to_physical(G.dealiased_product(a, b))
        expect = 0.5 * (np.cos(5 * x) + np.cos(x)) + y0
        assert np.max(np.abs(p - expect)) < 1e-12

    def test_grid_mismatch(self):
        f = random_real_field(small_grid(16), seed=1)
        h = random_real_field(small_grid(32), seed=1)
        with pytest.raises(ValueError, match="grids"):
            G.dealiased_product(f, h)

    def test_direct_convolution_oracle(self):
        # O(M^2) integer-lattice convolution over retained modes, no wrap
        g = small_grid(12)
        m = g.modes_x
        keep = (m - 1) // 3
        rng = np.random.default_rng(11)
        f = random_real_field(g, seed=12)
        h = random_real_field(g, seed=13)
        prod = G.dealiased_product(f, h)
        vol = g.length_x * g.length_y
        idx = range(-keep, keep + 1)
        out = np.zeros((m, m), dtype=complex)
        for j1 in idx:
            for j2 in idx:
                a = f.coeffs[j1 % m, j2 % m]
                if a == 0.0:
                    continue
                for l1 in idx:
                    for l2 in idx:
                        k1, k2 = j1 + l1, j2 + l2
                        if abs(k1) <= keep and abs(k2) <= keep:
                            out[k1 % m, k2 % m] += a * h.coeffs[l1 % m, l2 % m]
        out /= vol
        assert np.max(np.abs(out - prod.coeffs)) < 1e-10 * max(1.0, np.max(np.abs(out)))

    def test_square_matches_product_of_equal_fields(self):
        # the one-transform path for g is f gives the two-transform result bit for bit
        f = random_real_field(small_grid(16), seed=16)
        twin = G.SpectralField(f.grid, f.coeffs)
        assert twin is not f
        assert np.array_equal(G.dealiased_product(f, f).coeffs,
                              G.dealiased_product(f, twin).coeffs)

    def test_matches_complex_fft_product(self):
        # full-spectrum oracle: complex ifft2/fft2 with the 2/3 mask written here
        g = G.FrequencyGrid(2 * math.pi, 4 * math.pi, 24, 16)
        f = random_real_field(g, seed=17)
        h = random_real_field(g, seed=18)
        assert np.max(np.abs(f.coeffs[1:, 0])) > 0.0  # content on the eta = 0 column
        kx = np.fft.fftfreq(24, d=1.0 / 24)
        ky = np.fft.fftfreq(16, d=1.0 / 16)
        mask = np.outer(np.abs(kx) <= 23 // 3, np.abs(ky) <= 15 // 3)
        u = np.fft.ifft2(f.coeffs * mask) / g.cell_area
        v = np.fft.ifft2(h.coeffs * mask) / g.cell_area
        want = np.fft.fft2(u * v) * g.cell_area * mask
        got = G.dealiased_product(f, h).coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_real_output_and_symmetry(self):
        g = small_grid(16)
        f = random_real_field(g, seed=14)
        h = random_real_field(g, seed=15)
        p = G.dealiased_product(f, h)
        assert G.hermitian_defect(p.coeffs) == 0.0
        assert np.max(np.abs(np.imag(np.fft.ifft2(p.coeffs)))) < 1e-12


class TestAlgebraicInvariants:
    def ops(self):
        return [
            ("dx", G.x_derivative),
            ("frac", lambda f: G.fractional_x_derivative(f, 1.3)),
        ]

    def test_multiplier_ops_commute(self):
        f = random_real_field(small_grid(16), seed=20, zero_x_mean=True)
        ops = self.ops()
        scale = np.max(np.abs(f.coeffs))
        for name_a, op_a in ops:
            for name_b, op_b in ops:
                d = np.max(np.abs(op_a(op_b(f)).coeffs - op_b(op_a(f)).coeffs))
                assert d < 1e-12 * scale, (name_a, name_b, d)

    def test_ops_preserve_reality_and_x_mean(self):
        f = random_real_field(small_grid(16), seed=21, zero_x_mean=True)
        for name, op in self.ops():
            out = op(f)
            assert G.hermitian_defect(out.coeffs) == 0.0, name
            assert np.max(np.abs(out.coeffs[0, :])) == 0.0, name


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        f = random_real_field(small_grid(16), seed=30)
        path = tmp_path / "field.fkpi"
        G.save_field(f, path)
        f2 = G.load_field(path)
        assert f2.grid == f.grid
        assert np.array_equal(f2.coeffs, f.coeffs)

    def test_unpaired_coefficient_rejected(self, tmp_path):
        # a hand-written file: header, then one coefficient without its partner
        c = np.zeros((16, 16), dtype="<c16")
        c[2, 5] = 1.0 + 2.0j
        path = tmp_path / "c.fkpi"
        path.write_bytes(b"FKPI1" + struct.pack("<ddqq", 2 * math.pi, 2 * math.pi, 16, 16)
                         + c.tobytes())
        with pytest.raises(ValueError, match="Hermitian symmetry"):
            G.load_field(path)

    def test_golden_bytes(self, tmp_path):
        # digests of the FKPI1 bytes as written by the full-spectrum storage
        # that preceded the half-spectrum one: the format must not move
        golden = "78d7db4e06f2418d8f085d74ed83708138cbc2e0add74f12608652d73b72a5e4"
        g = G.FrequencyGrid(2 * math.pi, 4 * math.pi, 16, 16)
        samples = np.random.default_rng(2022).standard_normal((16, 16))
        first, second = tmp_path / "first.fkpi", tmp_path / "second.fkpi"
        G.save_field(G.to_spectral(samples, g), first)
        G.save_field(G.load_field(first), second)
        assert hashlib.sha256(first.read_bytes()).hexdigest() == golden
        assert hashlib.sha256(second.read_bytes()).hexdigest() == golden

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.fkpi"
        path.write_bytes(b"NOPE!" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            G.load_field(path)

    def test_header_layout(self, tmp_path):
        # magic + two f64 lengths + two i64 mode counts, little endian
        f = random_real_field(small_grid(16), seed=31)
        path = tmp_path / "h.fkpi"
        G.save_field(f, path)
        blob = path.read_bytes()
        assert blob[:5] == b"FKPI1"
        lx, ly, mx, my = struct.unpack_from("<ddqq", blob, 5)
        assert (lx, ly, mx, my) == (f.grid.length_x, f.grid.length_y, 16, 16)
        assert len(blob) == 5 + 32 + 16 * 16 * 16


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_round_trip_and_parseval_property(seed):
    g = G.FrequencyGrid(2 * math.pi, 4 * math.pi, 16, 16)
    f = random_real_field(g, seed=seed)
    u = G.to_physical(f)
    f2 = G.to_spectral(u, g)
    assert np.max(np.abs(f2.coeffs - f.coeffs)) < 1e-12 * max(1.0, np.max(np.abs(f.coeffs)))
    phys = np.sum(u * u) * g.cell_area
    spec = np.sum(np.abs(f.coeffs) ** 2) / (g.length_x * g.length_y)
    assert abs(phys - spec) < 1e-10 * max(1.0, phys)

import math

import numpy as np
import pytest
from oracles import quadratic_energy, sobolev_aniso

from fkpi_lab import norms as nm
from fkpi_lab.evolution import propagate_linear
from fkpi_lab.grid import FrequencyGrid, SpectralField, to_physical, to_spectral
from fkpi_lab.symbols import DispersionParams

TWO_PI = 2.0 * np.pi


def unit_grid(m=32):
    return FrequencyGrid(length_x=TWO_PI, length_y=TWO_PI, modes_x=m, modes_y=m)


def mode_field(grid, kx, ky, amplitude=1.0):
    x, y = np.meshgrid(grid.x, grid.y, indexing="ij")
    return to_spectral(amplitude * np.cos(kx * x + ky * y), grid)


class TestSpecs:
    def test_aniso_index(self):
        idx = nm.AnisoIndex(1.5)
        assert idx.s1 == 1.5 and idx.s2 == 0.0

    def test_mixed_norm_validation(self):
        nm.MixedNormSpec(4.0, 4.0)
        nm.MixedNormSpec(np.inf, 2.0)
        with pytest.raises(ValueError):
            nm.MixedNormSpec(2.0, 4.0)
        with pytest.raises(ValueError):
            nm.MixedNormSpec(4.0, 1.5)

    def test_admissibility(self):
        assert nm.MixedNormSpec(4.0, 4.0).strichartz_admissible
        assert nm.MixedNormSpec(np.inf, 2.0).strichartz_admissible
        assert not nm.MixedNormSpec(3.0, 3.0).strichartz_admissible

    def test_gamma_weight(self):
        # derivative gain (1 - 2/r)(1/2 - alpha/4) of the dispersive estimate
        assert nm.MixedNormSpec(4.0, 4.0).gamma_weight(2.0) == pytest.approx(0.0)
        assert nm.MixedNormSpec(4.0, 4.0).gamma_weight(3.0) == pytest.approx(-0.125)
        assert nm.MixedNormSpec(np.inf, 2.0).gamma_weight(3.0) == pytest.approx(0.0)


class TestMass:
    def test_single_mode(self):
        g = unit_grid()
        u = mode_field(g, 1, 1, amplitude=2.0)
        assert nm.mass(u) == pytest.approx(4.0 * TWO_PI ** 2 / 2.0, rel=1e-12)

    def test_physical_and_spectral_routes_agree(self):
        g = unit_grid()
        rng = np.random.default_rng(7)
        x, y = np.meshgrid(g.x, g.y, indexing="ij")
        samples = sum(
            rng.normal() * np.cos(i * x + j * y + rng.uniform(0, TWO_PI))
            for i in range(1, 4)
            for j in range(-2, 3)
        )
        u = to_spectral(samples, g)
        quadrature = float(np.sum(to_physical(u) ** 2) * g.cell_area)
        assert nm.mass(u) == pytest.approx(quadrature, rel=1e-12)


class TestEnergy:
    def test_single_mode_quadratic(self):
        g = unit_grid()
        p = DispersionParams(2.5)
        u = mode_field(g, 3, 2)
        want = 0.5 * (3.0 ** 2.5 + (2.0 / 3.0) ** 2) * nm.mass(u)
        assert quadratic_energy(p, u) == pytest.approx(want, rel=1e-12)

    def test_pure_x_data_has_no_transverse_term(self):
        g = unit_grid()
        u = mode_field(g, 2, 0)
        for alpha in (2.0, 3.0, 3.5):
            p = DispersionParams(alpha)
            want = 0.5 * 2.0 ** alpha * nm.mass(u)
            assert quadratic_energy(p, u) == pytest.approx(want, rel=1e-12)

    def test_cubic_term_exact_for_band_limited_data(self):
        # u = 2cos x + cos 2x: the only zero-sum triples give int u^3 = 3 Lx Ly
        g = unit_grid()
        x, _ = np.meshgrid(g.x, g.y, indexing="ij")
        u = to_spectral(2.0 * np.cos(x) + np.cos(2.0 * x), g)
        p = DispersionParams(2.0)
        cubic = nm.energy_alpha(p, u) - quadratic_energy(p, u)
        assert cubic == pytest.approx(3.0 * TWO_PI ** 2 / 6.0, rel=1e-12)

    def test_eta_content_on_zero_plane_rejected(self):
        g = unit_grid()
        x, y = np.meshgrid(g.x, g.y, indexing="ij")
        u = to_spectral(np.cos(y), g)  # pure transverse wave, no x dependence
        with pytest.raises(ValueError):
            nm.energy_alpha(DispersionParams(2.5), u)


class TestSobolev:
    def test_single_mode_inhomogeneous(self):
        g = unit_grid()
        u = mode_field(g, 3, 1)
        idx = nm.AnisoIndex(1.0, 2.0)
        want = math.sqrt((1 + 9.0) * (1 + 1.0) ** 2) * math.sqrt(nm.mass(u))
        assert sobolev_aniso(u, idx) == pytest.approx(want, rel=1e-12)

    def test_monotone_in_regularity(self):
        g = unit_grid()
        rng = np.random.default_rng(11)
        x, y = np.meshgrid(g.x, g.y, indexing="ij")
        u = to_spectral(sum(rng.normal() * np.cos(i * x + y) for i in (1, 2, 5)), g)
        vals = [sobolev_aniso(u, nm.AnisoIndex(s, 0.0)) for s in (-1.0, 0.0, 1.0, 2.0)]
        assert vals == sorted(vals)

    def test_zero_index_is_l2(self):
        g = unit_grid()
        u = mode_field(g, 2, 3, amplitude=0.7)
        assert sobolev_aniso(u, nm.AnisoIndex(0.0, 0.0)) == pytest.approx(
            math.sqrt(nm.mass(u)), rel=1e-12
        )

    def test_homogeneity(self):
        g = unit_grid()
        u = mode_field(g, 2, 1)
        idx = nm.AnisoIndex(0.75, -0.25)
        a = sobolev_aniso(u, idx)
        b = sobolev_aniso(u * 3.0, idx)
        assert b == pytest.approx(3.0 * a, rel=1e-12)


class TestHalfSums:
    """The half-spectrum sums against full-spectrum sums (here and in oracles)."""

    def field(self):
        g = FrequencyGrid(length_x=TWO_PI, length_y=2.0 * TWO_PI, modes_x=32, modes_y=24)
        rng = np.random.default_rng(23)
        x, y = np.meshgrid(g.x, g.y, indexing="ij")
        # j = 0 puts content on the eta = 0 column; i >= 1 keeps zero x-mean
        samples = sum(rng.normal() * np.cos(i * x + 0.5 * j * y + rng.uniform(0, TWO_PI))
                      for i in range(1, 5) for j in range(-3, 4))
        u = to_spectral(samples, g)
        assert np.max(np.abs(u.coeffs[1:, 0])) > 0.0
        return u

    def full_sum(self, u, weight):
        g = u.grid
        return float(np.sum(weight * np.abs(u.coeffs) ** 2)) / (g.length_x * g.length_y)

    def test_mass(self):
        u = self.field()
        assert nm.mass(u) == pytest.approx(self.full_sum(u, 1.0), rel=1e-13)

    def test_quadratic_and_full_energy(self):
        u = self.field()
        g = u.grid
        kx = np.fft.fftfreq(g.modes_x, d=1.0 / g.modes_x)
        ky = np.fft.fftfreq(g.modes_y, d=1.0 / g.modes_y)
        mask = np.outer(np.abs(kx) <= (g.modes_x - 1) // 3,
                        np.abs(ky) <= (g.modes_y - 1) // 3)
        u_deal = np.fft.ifft2(u.coeffs * mask).real / g.cell_area
        cubic = float(np.sum(u_deal ** 3) * g.cell_area) / 6.0
        for alpha in (2.0, 2.5, 3.5):
            p = DispersionParams(alpha)
            quad = quadratic_energy(p, u)
            assert nm.energy_alpha(p, u) == pytest.approx(quad + cubic, rel=1e-13)


class TestSpacetime:
    def test_constant_trajectory_l4(self):
        # u(t) = cos x cos y frozen in time: norm is T^{1/4} ||u||_{L^4}
        g = unit_grid()
        u = mode_field(g, 1, 1)
        x, y = np.meshgrid(g.x, g.y, indexing="ij")
        u = to_spectral(np.cos(x) * np.cos(y), g)
        traj = [(0.0, u), (0.25, u), (0.5, u), (0.75, u), (1.0, u)]
        got = nm.spacetime_norm(traj, nm.MixedNormSpec(4.0, 4.0))
        want = (3.0 * TWO_PI / 8.0) ** 0.5  # (int cos^4)^2 = (3L/8)^2 per axis
        assert got == pytest.approx(want, rel=1e-9)

    def test_sup_norm_in_time(self):
        g = unit_grid()
        u = mode_field(g, 1, 0)
        traj = [(0.0, u), (0.5, u * 2.0), (1.0, u)]
        got = nm.spacetime_norm(traj, nm.MixedNormSpec(np.inf, 2.0))
        assert got == pytest.approx(2.0 * math.sqrt(nm.mass(u)), rel=1e-12)

    def test_needs_two_snapshots(self):
        g = unit_grid()
        u = mode_field(g, 1, 0)
        with pytest.raises(ValueError):
            nm.spacetime_norm([(0.0, u)], nm.MixedNormSpec(4.0, 4.0))

    def test_rejects_nonuniform_times(self):
        g = unit_grid()
        u = mode_field(g, 1, 0)
        traj = [(0.0, u), (0.1, u), (0.5, u)]
        with pytest.raises(ValueError):
            nm.spacetime_norm(traj, nm.MixedNormSpec(4.0, 4.0))

    def test_generator_equals_list(self):
        g = unit_grid()
        p = DispersionParams(2.5)
        u = to_spectral(np.cos(g.x[:, None] + 2.0 * g.y[None, :]), g)

        def snaps():
            for t in np.linspace(0.0, 0.5, 9):
                yield float(t), propagate_linear(p, u, float(t))

        for spec in (nm.MixedNormSpec(4.0, 4.0), nm.MixedNormSpec(np.inf, 6.0)):
            assert nm.spacetime_norm(snaps(), spec) == nm.spacetime_norm(list(snaps()), spec)

    @pytest.mark.parametrize("times, match", [
        ((0.0,), "two snapshots"),
        ((0.0, 0.5, 0.5), "increasing"),
        ((0.0, 0.1, 0.5), "uniformly"),
    ])
    def test_generator_errors(self, times, match):
        u = mode_field(unit_grid(), 1, 0)
        with pytest.raises(ValueError, match=match):
            nm.spacetime_norm(((t, u) for t in times), nm.MixedNormSpec(4.0, 4.0))

    def test_free_flow_linf_l2_is_flat(self):
        g = unit_grid()
        p = DispersionParams(2.5)
        x, y = np.meshgrid(g.x, g.y, indexing="ij")
        u = to_spectral(np.cos(x) + 0.5 * np.sin(2 * x + y), g)
        traj = [(t, propagate_linear(p, u, t)) for t in np.linspace(0.0, 0.5, 11)]
        got = nm.spacetime_norm(traj, nm.MixedNormSpec(np.inf, 2.0))
        assert got == pytest.approx(math.sqrt(nm.mass(u)), rel=1e-12)

    def test_quadrature_converges_for_oscillating_norm(self):
        # cos(t) profile integrated in L^4_t against the closed-form integral
        g = unit_grid()
        u = mode_field(g, 1, 1)
        l4 = (0.375 * TWO_PI ** 2) ** 0.25  # ||cos(x+y)||_{L^4}

        def value(n):
            ts = np.linspace(0.0, 1.0, n + 1)
            traj = [(t, u * float(np.cos(t))) for t in ts]
            return nm.spacetime_norm(traj, nm.MixedNormSpec(4.0, 4.0))

        time_part = 3.0 / 8.0 + math.sin(2.0) / 4.0 + math.sin(4.0) / 32.0
        want = l4 * time_part ** 0.25
        assert abs(value(64) - want) < 1e-4 * want


class TestFlowInvariance:
    def test_all_multiplier_norms_conserved_by_free_flow(self):
        g = unit_grid()
        p = DispersionParams(3.0)
        rng = np.random.default_rng(5)
        x, y = np.meshgrid(g.x, g.y, indexing="ij")
        u = to_spectral(sum(rng.normal() * np.cos(i * x + j * y) for i in (1, 3) for j in (0, 2)), g)
        w = propagate_linear(p, u, 11.0)
        checks = [
            (nm.mass(u), nm.mass(w)),
            (quadratic_energy(p, u), quadratic_energy(p, w)),
            (sobolev_aniso(u, nm.AnisoIndex(1.0, 1.0)), sobolev_aniso(w, nm.AnisoIndex(1.0, 1.0))),
        ]
        for a, b in checks:
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)

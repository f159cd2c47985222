import math
import tracemalloc

import numpy as np
import pytest

from fkpi_lab import evolution as ev
from fkpi_lab.grid import (
    FrequencyGrid,
    dealiased_product,
    to_spectral,
    x_derivative,
)
from fkpi_lab.norms import AnisoIndex, energy_alpha, mass, sobolev_aniso
from fkpi_lab.symbols import DispersionParams, interaction_boxes

ALPHA = 2.5


def small_grid(m=64):
    return FrequencyGrid(length_x=2 * np.pi, length_y=2 * np.pi, modes_x=m, modes_y=m)


def smooth_field(grid, amplitude=0.05):
    x, y = np.meshgrid(grid.x, grid.y, indexing="ij")
    samples = amplitude * (np.sin(x) * np.cos(y) + 0.6 * np.cos(2 * x + y))
    return to_spectral(samples, grid)


def final_state(params, u0, dt, T, scheme="etdrk4"):
    cfg = ev.EvolutionConfig(dt=dt, T=T, scheme=scheme, snapshot_stride=10 ** 9)
    return ev.solve(params, u0, cfg).fields[-1]


class TestConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ev.EvolutionConfig(dt=0.0, T=1.0)
        with pytest.raises(ValueError):
            ev.EvolutionConfig(dt=0.1, T=-1.0)
        with pytest.raises(ValueError):
            ev.EvolutionConfig(dt=2.0, T=1.0)
        with pytest.raises(ValueError):
            ev.EvolutionConfig(dt=0.1, T=1.0, scheme="rk4")
        with pytest.raises(ValueError):
            ev.EvolutionConfig(dt=0.1, T=1.0, snapshot_stride=0)

    def test_step_count(self):
        assert ev.EvolutionConfig(dt=0.1, T=1.0).n_steps() == 10
        assert ev.EvolutionConfig(dt=0.1, T=0.0).n_steps() == 0
        with pytest.raises(ValueError):
            ev.EvolutionConfig(dt=0.3, T=1.0).n_steps()


class TestLinearPropagator:
    def test_isometry(self):
        g = small_grid(32)
        u = smooth_field(g)
        p = DispersionParams(ALPHA)
        for t in (0.1, 1.0, 7.3):
            w = ev.propagate_linear(p, u, t)
            assert np.allclose(np.abs(w.coeffs), np.abs(u.coeffs), rtol=0, atol=1e-12)

    def test_group_law(self):
        g = small_grid(32)
        u = smooth_field(g)
        p = DispersionParams(ALPHA)
        one = ev.propagate_linear(p, u, 0.7)
        two = ev.propagate_linear(p, ev.propagate_linear(p, u, 0.3), 0.4)
        scale = np.max(np.abs(one.coeffs))
        assert np.max(np.abs(one.coeffs - two.coeffs)) <= 1e-12 * scale

    def test_inverse(self):
        g = small_grid(32)
        u = smooth_field(g)
        p = DispersionParams(ALPHA)
        back = ev.propagate_linear(p, ev.propagate_linear(p, u, 2.0), -2.0)
        assert np.max(np.abs(back.coeffs - u.coeffs)) <= 1e-12 * np.max(np.abs(u.coeffs))

    def test_preserves_reality(self):
        # the phase is odd in (xi, eta), so conjugate symmetry survives
        from fkpi_lab.grid import hermitian_defect

        g = small_grid(32)
        u = smooth_field(g)
        w = ev.propagate_linear(DispersionParams(ALPHA), u, 1.234)
        assert hermitian_defect(w.coeffs) == 0.0

    def test_eta0_column_hermitian_one_shot_and_chained(self):
        # the probes step the free flow in 128 equal steps of one cached phase
        g = small_grid(64)
        u = smooth_field(g)
        p = DispersionParams(ALPHA)
        one = ev.propagate_linear(p, u, 1.234)
        chain = u
        for _ in range(128):
            chain = ev.propagate_linear(p, chain, 1.234 / 128)
        scale = np.max(np.abs(one.half))
        assert np.max(np.abs(chain.half - one.half)) <= 1e-12 * scale
        for w in (one, chain):
            col = w.half[:, 0]
            assert np.array_equal(col, np.conj(np.roll(col[::-1], 1)))

    def test_phase_table_is_cached_and_read_only(self):
        g = small_grid(16)
        table = ev._linear_phase(g, ALPHA, 0.25)
        assert ev._linear_phase(g, ALPHA, 0.25) is table
        assert not table.flags.writeable

    def test_etdrk4_takes_its_phases_from_the_linear_phase(self):
        g, dt = small_grid(16), 0.0371
        e_full, e_half = ev._etdrk4_tables(g, ALPHA, dt)[:2]
        assert e_full is ev._linear_phase(g, ALPHA, dt)
        assert e_half is ev._linear_phase(g, ALPHA, dt / 2.0)
        # the same bits as the exponentials of z = i dt omega and z / 2
        z = 1j * dt * ev._omega_grid(g, ALPHA)
        assert e_full.tobytes() == np.exp(z).tobytes()
        assert e_half.tobytes() == np.exp(z / 2.0).tobytes()

    def test_rejects_nonzero_x_mean(self):
        g = small_grid(16)
        x, y = np.meshgrid(g.x, g.y, indexing="ij")
        u = to_spectral(np.cos(y) + 0.1, g)
        with pytest.raises(ValueError):
            ev.propagate_linear(DispersionParams(ALPHA), u, 1.0)

    def test_sobolev_norms_conserved(self):
        # free flow is a unimodular multiplier, so every weighted norm is flat
        g = small_grid(32)
        u = smooth_field(g)
        p = DispersionParams(ALPHA)
        w = ev.propagate_linear(p, u, 3.7)
        for idx in (AnisoIndex(0, 0), AnisoIndex(1.5, 0.5), AnisoIndex(-0.5, 1.0)):
            a, b = sobolev_aniso(u, idx), sobolev_aniso(w, idx)
            assert abs(a - b) <= 1e-12 * a


class TestNonlinearity:
    def test_matches_product_form(self):
        g = small_grid(48)
        u = smooth_field(g, amplitude=0.7)
        p = DispersionParams(ALPHA)
        lhs = ev.nonlinearity(p, u)
        rhs = dealiased_product(u, x_derivative(u))
        scale = np.max(np.abs(lhs.coeffs))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-10 * scale

    def test_exactly_zero_x_mean(self):
        g = small_grid(32)
        u = smooth_field(g, amplitude=1.3)
        out = ev.nonlinearity(DispersionParams(ALPHA), u)
        assert np.max(np.abs(out.coeffs[0, :])) == 0.0


class TestPhiFunctions:
    def test_value_at_zero(self):
        for k in (1, 2, 3):
            assert abs(ev._phi(np.array([0.0j]), k)[0] - 1.0 / math.factorial(k)) < 1e-15

    def test_series_matches_formula_at_boundary(self):
        # both evaluation routes agree near the |z| = 0.5 switch
        def brute(z, k):
            return (np.exp(z) - sum(z ** j / math.factorial(j) for j in range(k))) / z ** k

        for k in (1, 2, 3):
            for z in (0.4999j, 0.5001j, 0.75j):
                got = ev._phi(np.array([z]), k)[0]
                assert abs(got - brute(z, k)) < 1e-13


class TestSteppers:
    def test_linear_only_step_is_exact(self, monkeypatch):
        monkeypatch.setattr(ev, "nonlinearity", lambda p, f: f * 0.0)
        g = small_grid(32)
        u = smooth_field(g)
        p = DispersionParams(ALPHA)
        for scheme in ("etdrk4", "strang"):
            cfg = ev.EvolutionConfig(dt=0.05, T=0.05, scheme=scheme)
            got = ev.step(p, u, cfg)
            want = ev.propagate_linear(p, u, 0.05)
            scale = np.max(np.abs(want.coeffs))
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * scale

    def test_linear_only_solve_matches_closed_form(self, monkeypatch):
        monkeypatch.setattr(ev, "nonlinearity", lambda p, f: f * 0.0)
        g = small_grid(32)
        u = smooth_field(g)
        p = DispersionParams(ALPHA)
        cfg = ev.EvolutionConfig(dt=0.01, T=0.3, snapshot_stride=10 ** 9)
        got = ev.solve(p, u, cfg).fields[-1]
        want = ev.propagate_linear(p, u, 0.3)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-10 * np.max(np.abs(want.coeffs))

    def test_etdrk4_order(self):
        g = small_grid(64)
        u = smooth_field(g, amplitude=0.2)
        p = DispersionParams(ALPHA)
        u1 = final_state(p, u, 0.02, 0.2).coeffs
        u2 = final_state(p, u, 0.01, 0.2).coeffs
        u3 = final_state(p, u, 0.005, 0.2).coeffs
        order = math.log2(np.linalg.norm(u1 - u2) / np.linalg.norm(u2 - u3))
        assert order >= 3.5, f"measured order {order:.2f}"

    def test_strang_order(self):
        g = small_grid(64)
        u = smooth_field(g, amplitude=0.2)
        p = DispersionParams(ALPHA)
        u1 = final_state(p, u, 0.02, 0.2, scheme="strang").coeffs
        u2 = final_state(p, u, 0.01, 0.2, scheme="strang").coeffs
        u3 = final_state(p, u, 0.005, 0.2, scheme="strang").coeffs
        order = math.log2(np.linalg.norm(u1 - u2) / np.linalg.norm(u2 - u3))
        assert 1.5 <= order <= 2.6, f"measured order {order:.2f}"

    def test_schemes_agree(self):
        g = small_grid(48)
        u = smooth_field(g, amplitude=0.2)
        p = DispersionParams(ALPHA)
        a = final_state(p, u, 0.002, 0.1).coeffs
        b = final_state(p, u, 0.002, 0.1, scheme="strang").coeffs
        assert np.linalg.norm(a - b) <= 1e-5 * np.linalg.norm(a)

    @pytest.mark.parametrize("scheme", ev.SCHEMES)
    def test_reality_preserved(self, scheme):
        g = small_grid(32)
        u = smooth_field(g, amplitude=0.3)
        p = DispersionParams(ALPHA)
        w = final_state(p, u, 0.01, 0.1, scheme=scheme)
        from fkpi_lab.grid import hermitian_defect

        assert hermitian_defect(w.coeffs) == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_reported_with_step_index(self):
        g = small_grid(32)
        u = smooth_field(g, amplitude=1e8)
        p = DispersionParams(ALPHA)
        cfg = ev.EvolutionConfig(dt=0.5, T=10.0)
        with pytest.raises(ev.BlowupError) as err:
            ev.solve(p, u, cfg)
        assert err.value.step_index >= 1
        assert "step" in str(err.value)


class TestSolveBookkeeping:
    def test_snapshot_stride(self):
        g = small_grid(16)
        u = smooth_field(g)
        p = DispersionParams(ALPHA)
        cfg = ev.EvolutionConfig(dt=0.1, T=1.0, snapshot_stride=3)
        traj = ev.solve(p, u, cfg)
        assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])
        assert len(traj.fields) == 5

    @pytest.mark.parametrize("scheme", ev.SCHEMES)
    def test_snapshots_hold_only_half_spectra(self, scheme):
        g = FrequencyGrid(2 * np.pi, 2 * np.pi, 16, 12)
        u = smooth_field(g)
        cfg = ev.EvolutionConfig(dt=0.1, T=0.5, scheme=scheme)
        for f in ev.solve(DispersionParams(ALPHA), u, cfg).fields:
            arrays = [v for v in vars(f).values() if isinstance(v, np.ndarray)]
            assert [a.shape for a in arrays] == [(16, 12 // 2 + 1)]
            # the one symmetry the half still carries: its eta = 0 column
            col = f.half[:, 0]
            assert np.array_equal(col, np.conj(np.roll(col[::-1], 1)))

    def test_zero_horizon(self):
        g = small_grid(16)
        u = smooth_field(g)
        traj = ev.solve(DispersionParams(ALPHA), u, ev.EvolutionConfig(dt=0.1, T=0.0))
        assert traj.times == [0.0]
        assert traj.fields[0] is u

    @pytest.mark.parametrize("scheme", ev.SCHEMES)
    def test_observer_sees_each_recorded_state_in_order(self, scheme):
        g = small_grid(16)
        u = smooth_field(g, amplitude=0.5)
        p = DispersionParams(ALPHA)
        # 10 steps at stride 3: the final step is off the stride
        cfg = ev.EvolutionConfig(dt=0.1, T=1.0, scheme=scheme, snapshot_stride=3)
        kept = ev.solve(p, u, cfg)
        seen = []

        def observe(f):
            seen.append(f)
            return len(seen)
        traj = ev.solve(p, u, cfg, observe=observe)
        assert traj.times == kept.times
        assert traj.observed == [1, 2, 3, 4, 5]
        assert len(seen) == len(kept.fields) == 5
        assert seen[0] is u
        for got, want in zip(seen, kept.fields):
            assert np.array_equal(got.half, want.half)
        assert kept.observed is None

    def test_observer_at_zero_horizon(self):
        g = small_grid(16)
        u = smooth_field(g)
        seen = []
        traj = ev.solve(DispersionParams(ALPHA), u, ev.EvolutionConfig(dt=0.1, T=0.0),
                        observe=seen.append)
        assert seen == [u]
        assert traj.times == [0.0]
        assert traj.observed == [None]
        assert traj.fields == [u]

    @pytest.mark.parametrize("scheme", ev.SCHEMES)
    def test_observed_run_keeps_the_final_state_only(self, scheme):
        g = small_grid(32)
        u = smooth_field(g, amplitude=0.5)
        p = DispersionParams(ALPHA)
        cfg = ev.EvolutionConfig(dt=0.05, T=1.0, scheme=scheme, snapshot_stride=1)
        kept = ev.solve(p, u, cfg)
        traj = ev.solve(p, u, cfg, observe=mass)
        assert len(traj.fields) == 1
        assert np.array_equal(traj.fields[-1].half, kept.fields[-1].half)
        assert traj.observed == [mass(f) for f in kept.fields]

    def test_mass_and_energy_conserved(self):
        g = small_grid(64)
        u = smooth_field(g, amplitude=0.5)
        p = DispersionParams(ALPHA)
        m0, h0 = mass(u), energy_alpha(p, u)
        w = final_state(p, u, 0.01, 1.0)
        assert abs(mass(w) - m0) <= 1e-6 * m0
        assert abs(energy_alpha(p, w) - h0) <= 1e-6 * max(abs(h0), 1e-30)


class TestPicard:
    def test_prefix_weights_integrate_cubics_exactly(self):
        # Simpson and 3/8 panels are both exact on cubics
        n, dt = 9, 0.13
        w = ev._prefix_weights(n, dt)
        t = np.arange(n + 1) * dt
        for i in range(2, n + 1):
            got = float(w[i] @ t ** 3)
            want = (i * dt) ** 4 / 4.0
            assert abs(got - want) <= 1e-12 * max(want, 1.0), f"prefix {i}"

    def test_zeroth_iterate_is_free_flow(self):
        g = small_grid(32)
        u = smooth_field(g)
        p = DispersionParams(ALPHA)
        got = ev.picard_iterate(p, u, 0, 0.4, 0.01)
        want = ev.propagate_linear(p, u, 0.4)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * np.max(np.abs(want.coeffs))

    def test_contraction_in_amplitude(self):
        # error of the second iterate scales like amplitude^4 (16x per halving)
        g = small_grid(32)
        p = DispersionParams(ALPHA)
        T, dt = 0.2, 0.0025
        errs = []
        for amp in (0.8, 0.4):
            u = smooth_field(g, amplitude=amp)
            ref = final_state(p, u, 0.00125, T).coeffs
            it2 = ev.picard_iterate(p, u, 2, T, dt).coeffs
            errs.append(np.linalg.norm(it2 - ref))
        assert errs[1] <= errs[0] / 8.0, f"halving gave {errs[0] / errs[1]:.1f}x"
        assert errs[1] < 1e-3

    def test_iterates_converge_to_solver(self):
        g = small_grid(32)
        u = smooth_field(g, amplitude=0.05)
        p = DispersionParams(ALPHA)
        ref = final_state(p, u, 0.001, 0.2).coeffs
        gaps = []
        for k in (1, 2, 3):
            it = ev.picard_iterate(p, u, k, 0.2, 0.005).coeffs
            gaps.append(np.linalg.norm(it - ref) / np.linalg.norm(ref))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6

    def test_memory_holds_one_node_stack(self):
        # phases are made per node and the integrand overwrites the iterate:
        # the peak stays below two full-spectrum stacks of n + 1 nodes
        g = small_grid(64)
        u = smooth_field(g)
        p = DispersionParams(ALPHA)
        n = 200
        ev.picard_iterate(p, u, 1, 0.01, 0.01)  # warm the multiplier caches
        tracemalloc.start()
        try:
            ev.picard_iterate(p, u, 2, n * 0.001, 0.001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (n + 1) * g.modes_x * g.modes_y * 16

    def test_validation(self):
        g = small_grid(16)
        u = smooth_field(g)
        p = DispersionParams(ALPHA)
        with pytest.raises(ValueError):
            ev.picard_iterate(p, u, -1, 0.1, 0.01)
        with pytest.raises(ValueError):
            ev.picard_iterate(p, u, 2, 0.1, 0.03)


class TestPhiWindow:
    def test_matches_complex_form(self):
        z = np.linspace(-20.0, 20.0)
        re, im = ev._phi_window(z)
        want = (np.exp(-1j * z) - 1.0) / z
        assert np.max(np.abs(re + 1j * im - want)) <= 1e-15

    def test_near_zero_against_mpmath(self):
        # the complex form cancels here (error ~1e-16/|z|), so the oracle is
        # 40-digit arithmetic; z = 0 is the limit -i
        import mpmath

        z = np.array([0.0, 1e-5, -1e-5, 2e-4, -2e-4])
        re, im = ev._phi_window(z)
        assert re[0] == 0.0 and im[0] == -1.0
        with mpmath.workdps(40):
            for zi, r, m in zip(z[1:], re[1:], im[1:]):
                x = mpmath.mpf(float(zi))
                want = complex((mpmath.exp(-1j * x) - 1) / x)
                assert abs(complex(r, m) - want) <= 1e-15


class TestSecondIterateBoxData:
    SBAR = AnisoIndex(0.0, 0.0)

    @pytest.mark.parametrize("quad_res, value", [
        (8, 0.28082451213315435), (12, 0.2808250245739751)])
    def test_golden_values(self, quad_res, value):
        # captured from the complex-exponential kernel it replaced
        p = DispersionParams(2.5)
        n = 1024.0
        gamma = n ** (-(2.5 - 1.0) / 2.0 - 0.05)
        got = ev.second_iterate_boxdata(p, n, gamma, self.SBAR, 1.0, quad_res=quad_res)
        assert got == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_zero_time(self):
        p = DispersionParams(2.2)
        assert ev.second_iterate_boxdata(p, 1024, 1024 ** -0.65, self.SBAR, 0.0) == 0.0

    def test_small_time_linearity(self):
        p = DispersionParams(2.2)
        gamma = 1024 ** -0.65
        v1 = ev.second_iterate_boxdata(p, 1024, gamma, self.SBAR, 1e-4, quad_res=8)
        v2 = ev.second_iterate_boxdata(p, 1024, gamma, self.SBAR, 2e-4, quad_res=8)
        assert abs(v2 / v1 - 2.0) < 1e-4

    def test_growth_sign_straddles_threshold(self):
        # norm grows in N below alpha = 7/3 and decays above it
        theta = 0.05
        for alpha, sign in ((2.0, 1.0), (2.6, -1.0)):
            p = DispersionParams(alpha)
            vals = []
            for N in (2 ** 10, 2 ** 12):
                gamma = N ** (-(alpha - 1) / 2 - theta)
                vals.append(ev.second_iterate_boxdata(p, N, gamma, self.SBAR, 0.5, quad_res=8))
            assert sign * (vals[1] - vals[0]) > 0.0, f"alpha={alpha}: {vals}"

    def test_quadrature_guards(self):
        p = DispersionParams(2.2)
        with pytest.raises(ValueError):
            ev.second_iterate_boxdata(p, 1024, 1024 ** -0.65, self.SBAR, 0.5, quad_res=4)
        with pytest.raises(ValueError):
            ev.second_iterate_boxdata(p, 1024, 0.9, self.SBAR, 0.5)

    def test_box_norms_order_one(self):
        p = DispersionParams(2.2)
        pairs = []
        for N in (2 ** 8, 2 ** 12):
            gamma = N ** (-0.6 - 0.05)
            pairs.append(ev.box_data_norms(p, N, gamma, self.SBAR))
        for n1, n2 in pairs:
            assert 0.25 <= n1 <= 4.0 and 0.25 <= n2 <= 4.0
        assert abs(pairs[0][0] - pairs[1][0]) < 0.05 * pairs[0][0]

    def test_boxes_spec(self):
        (x1, _), (x2, e2) = interaction_boxes(3.0, 64.0, 0.01)
        assert x1 == (0.005, 0.01)
        assert x2 == (64.0, 64.01)
        assert e2[1] - e2[0] == pytest.approx(0.0001)

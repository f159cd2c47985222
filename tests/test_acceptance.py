"""End-to-end acceptance gates at their advertised tolerances and budgets.

Each class exercises one headline guarantee of the package on its real
configuration, so this module is slower than the unit suites (about a
minute, dominated by the 256^2 conservation run).  Known defect: the
resonance magnitude law for Omega fails its [1/8, 8] band under uniform
box sampling at every tested (alpha, N); see TestResonanceSizeLaw.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

import fkpi_lab.symbols as S
from fkpi_lab.cli import _smooth_data, main
from fkpi_lab.evolution import (
    EvolutionConfig,
    propagate_linear,
    second_iterate_boxdata,
    solve,
)
from fkpi_lab.grid import FrequencyGrid, SpectralField
from fkpi_lab.norms import AnisoIndex, MixedNormSpec, energy_alpha, mass, sobolev_aniso
from fkpi_lab.probes import (
    LatticeFunction,
    ProbeSweep,
    bilinear_sweep,
    band_bump_field,
    illposedness_growth_study,
    linear_strichartz_sweep,
    lowfreq_l4_sweep,
    lw_band_sweep,
    lw_modulation_sweep,
    nonresonant_modulation_sweep,
    scaling_exponent_fit,
    trilinear_integral,
)

INF = math.inf


def random_valid_pairs(n, seed):
    rng = np.random.default_rng(seed)
    sign = lambda: np.where(rng.random(n) < 0.5, -1.0, 1.0)
    xi1 = sign() * rng.uniform(0.1, 4.0, n)
    xi2 = sign() * rng.uniform(0.1, 4.0, n)
    keep = np.abs(xi1 + xi2) > 1e-3
    eta1 = rng.uniform(-5.0, 5.0, n)
    eta2 = rng.uniform(-5.0, 5.0, n)
    return xi1[keep], eta1[keep], xi2[keep], eta2[keep]


class TestResonanceIdentity:
    def test_partial_fractions_match_raw_difference(self):
        start = time.perf_counter()
        alpha = 2.7
        xi1, eta1, xi2, eta2 = random_valid_pairs(10**5, seed=11)
        frac = S.resonance_arrays(alpha, xi1, eta1, xi2, eta2)
        diff = S.resonance_difference_arrays(alpha, xi1, eta1, xi2, eta2)
        scale = np.maximum(
            1.0,
            np.abs(S.omega1_arrays(alpha, xi1, xi2))
            + np.abs(S.omega2_arrays(alpha, xi1, eta1, xi2, eta2)),
        )
        assert xi1.size > 9 * 10**4
        assert np.max(np.abs(frac - diff) / scale) < 1e-10
        assert time.perf_counter() - start < 5.0


class TestNormalsDeterminant:
    def test_closed_form_matches_numeric(self):
        alpha = 3.1
        xi1, eta1, xi2, eta2 = random_valid_pairs(10**5, seed=12)
        closed = S.normal_determinant_closed_arrays(alpha, xi1, eta1, xi2, eta2)
        numeric = S.normal_determinant_numeric_arrays(alpha, xi1, eta1, xi2, eta2)
        scale = np.maximum(1.0, np.abs(closed))
        assert np.max(np.abs(closed - numeric) / scale) < 1e-10

    def test_symmetric_hand_case(self):
        # alpha = 2, xi1 = xi2 = 1, eta1 = -eta2 = 1:
        # cross = 2, d = 2, Omega1 = 6, det = -2 (2/2) (3 (-6) - 2) = 40
        q = (1.0, 1.0, 1.0, -1.0)  # (xi1, eta1, xi2, eta2)
        assert float(S.normal_determinant_closed_arrays(2.0, *q)) == pytest.approx(40.0, rel=1e-12)
        assert float(S.normal_determinant_numeric_arrays(2.0, *q)) == pytest.approx(40.0, rel=1e-12)


class TestGradientCheck:
    def test_gradient_matches_central_differences(self):
        alpha = 2.4
        rng = np.random.default_rng(13)
        n = 10**4
        xi = np.where(rng.random(n) < 0.5, -1.0, 1.0) * rng.uniform(0.5, 4.0, n)
        eta = rng.uniform(-5.0, 5.0, n)
        gx, gy = S.grad_omega_arrays(alpha, xi, eta)
        hx = 1e-5 * np.maximum(1.0, np.abs(xi))
        hy = 1e-5 * np.maximum(1.0, np.abs(eta))
        nx = (S.omega_arrays(alpha, xi + hx, eta)
              - S.omega_arrays(alpha, xi - hx, eta)) / (2.0 * hx)
        ny = (S.omega_arrays(alpha, xi, eta + hy)
              - S.omega_arrays(alpha, xi, eta - hy)) / (2.0 * hy)
        scale = np.maximum(1.0, np.hypot(gx, gy))
        assert np.max(np.hypot(nx - gx, ny - gy) / scale) < 1e-6


class TestResonanceSizeLaw:
    """Both magnitude laws over alpha in {2.2, 2.5}, N in {2^4 .. 2^10}."""

    def scan(self, alpha, k):
        N = float(2 ** k)
        gamma = N ** (-(alpha - 1.0) / 2.0 - 0.05)
        return S.resonance_size_scan(S.DispersionParams(alpha), N, gamma,
                                     samples=10**4, seed=k)

    @pytest.mark.parametrize("alpha", [2.2, 2.5])
    def test_omega1_band(self, alpha):
        start = time.perf_counter()
        for k in range(4, 11):
            report = self.scan(alpha, k)
            assert report.omega1_ratio_min >= 0.125
            assert report.omega1_ratio_max <= 8.0
        assert time.perf_counter() - start < 30.0

    @pytest.mark.parametrize("alpha", [2.2, 2.5])
    def test_omega_band(self, alpha):
        # Known failure at every (alpha, N): expanding Omega in the box
        # variables gives Omega/(N^(alpha-1) gamma^2) = (alpha+1)[(alpha+2)up
        # + (alpha/2+1)u^2 + 2w N^(1-alpha/2)] + o(1) with u in [1/2,1],
        # p in [0,1], w in [-1,1].  The signed w cross-term is O(1) at these
        # N and produces zero crossings (ratio_min ~ 1e-3), and the top
        # corner evaluates to ~22-26, above the cap 8.  The law holds only
        # up to constants larger than the band allows, so this cannot pass
        # as stated; see test_symbols for the single-point diagnosis.
        for k in range(4, 11):
            report = self.scan(alpha, k)
            assert report.omega_ratio_min >= 0.125
            assert report.omega_ratio_max <= 8.0


class TestConservation:
    def test_mass_and_energy_drift_at_standard_resolution(self):
        grid = FrequencyGrid(length_x=2.0 * math.pi, length_y=2.0 * math.pi,
                             modes_x=256, modes_y=256)
        u0 = _smooth_data(grid, 0.05, 0.1, seed=0)
        assert math.sqrt(mass(u0)) == pytest.approx(0.1, rel=1e-12)
        params = S.DispersionParams(3.0)
        traj = solve(params, u0, EvolutionConfig(dt=1e-3, T=1.0, snapshot_stride=50),
                     observe=lambda f: (mass(f), energy_alpha(params, f)))
        assert len(traj.observed) == 21
        (m0, e0), *_ = traj.observed
        mass_drift = max(abs(m - m0) for m, _ in traj.observed) / m0
        energy_drift = max(abs(e - e0) for _, e in traj.observed) / abs(e0)
        assert mass_drift <= 1e-6
        assert energy_drift <= 1e-4


class TestLinearPropagator:
    def setup_method(self):
        self.grid = FrequencyGrid(length_x=2.0 * math.pi, length_y=2.0 * math.pi,
                                  modes_x=64, modes_y=64)
        self.params = S.DispersionParams(2.6)
        self.u = band_bump_field(self.grid, 8.0, 16.0, 2.0)

    @pytest.mark.parametrize("idx", [AnisoIndex(0.0, 0.0), AnisoIndex(1.0, 0.0),
                                     AnisoIndex(0.5, 0.25)])
    def test_isometry(self, idx):
        before = sobolev_aniso(self.u, idx)
        for t in (0.1, 0.7, 3.0):
            after = sobolev_aniso(propagate_linear(self.params, self.u, t), idx)
            assert abs(after - before) <= 1e-12 * before

    def test_group_law(self):
        one = propagate_linear(self.params, propagate_linear(self.params, self.u,
                                                             0.3), 0.4)
        two = propagate_linear(self.params, self.u, 0.7)
        scale = np.max(np.abs(two.coeffs))
        assert np.max(np.abs(one.coeffs - two.coeffs)) <= 1e-12 * scale

    def test_identity_and_inverse(self):
        zero = propagate_linear(self.params, self.u, 0.0)
        assert np.array_equal(zero.coeffs, self.u.coeffs)
        back = propagate_linear(self.params,
                                propagate_linear(self.params, self.u, 1.3), -1.3)
        scale = np.max(np.abs(self.u.coeffs))
        assert np.max(np.abs(back.coeffs - self.u.coeffs)) <= 1e-12 * scale


class TestScalingExponent:
    LAMBDAS = (0.5, 2.0 ** -0.5, 1.0, 2.0 ** 0.5, 2.0)
    GRID = FrequencyGrid(length_x=64.0 * math.pi, length_y=64.0 * math.pi,
                         modes_x=512, modes_y=1024)

    @pytest.mark.parametrize("s1,s2,target", [(0.0, 0.0, -1.25),
                                              (1.0, 0.0, -2.25)])
    def test_fitted_slope_matches_closed_form(self, s1, s2, target):
        record, _ = scaling_exponent_fit(S.DispersionParams(3.0),
                                         AnisoIndex(s1, s2), self.LAMBDAS,
                                         self.GRID)
        assert record.comparator == pytest.approx(target, abs=1e-12)
        assert record.inputs["target"] == record.comparator
        assert abs(record.measured - target) <= 0.02
        assert record.passed


class TestNormInflation:
    N_LIST = (256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0)
    THETA = 0.05

    @pytest.mark.parametrize("alpha", [2.0, 2.2])
    def test_growth_exponent(self, alpha):
        start = time.perf_counter()
        records = illposedness_growth_study(S.DispersionParams(alpha),
                                            self.THETA, self.N_LIST)
        summary = records[-1]
        target = 1.75 - 0.75 * alpha - 1.5 * self.THETA
        assert summary.comparator == pytest.approx(target, abs=1e-12)
        assert summary.inputs["target"] == summary.comparator
        assert abs(summary.measured - target) <= 0.1
        assert summary.passed
        assert time.perf_counter() - start < 600.0

    def test_sign_change_across_threshold(self):
        low = illposedness_growth_study(S.DispersionParams(2.0), self.THETA,
                                        self.N_LIST)
        high = illposedness_growth_study(S.DispersionParams(2.6), self.THETA,
                                         self.N_LIST)
        assert low[-1].measured > 0.0
        assert high[-1].measured < 0.0

    def test_quadrature_self_convergence(self):
        params = S.DispersionParams(2.2)
        N = 1024.0
        gamma = N ** (-(2.2 - 1.0) / 2.0 - self.THETA)
        sbar = AnisoIndex(0.0, 0.0)
        coarse = second_iterate_boxdata(params, N, gamma, sbar, 1.0, quad_res=12)
        fine = second_iterate_boxdata(params, N, gamma, sbar, 1.0, quad_res=24)
        assert abs(fine - coarse) < 0.01 * abs(fine)


# The trend sweeps are deterministic, so each (probe, shift) runs once per
# pytest run and the tests below share its slope summary.
P3 = S.DispersionParams(3.0)


@functools.cache
def linear_trend(shift):
    sweep = ProbeSweep((8.0, 16.0, 32.0, 64.0, 128.0), 1, 0, (-INF, 0.1))
    grid = FrequencyGrid(length_x=2.0 * math.pi, length_y=2.0 * math.pi,
                         modes_x=512, modes_y=64)
    return linear_strichartz_sweep(P3, MixedNormSpec(4.0, 4.0), sweep, grid,
                                   comparator_shift=shift)[-1]


@functools.cache
def lowfreq_trend(shift):
    sweep = ProbeSweep(tuple(2.0 ** -k for k in range(6, 0, -1)), 1, 0,
                       (-0.2, 0.2))
    grid = FrequencyGrid(length_x=256.0 * math.pi, length_y=16.0 * math.pi,
                         modes_x=512, modes_y=64)
    return lowfreq_l4_sweep(P3, sweep, grid, eta_sigma=1.0,
                            comparator_shift=shift)[-1]


@functools.cache
def bilinear_trend(shift):
    sweep = ProbeSweep((8.0, 16.0, 32.0, 64.0), 8, 0, (-INF, 0.1))
    return bilinear_sweep(P3, 2.0, sweep, workers=4, comparator_shift=shift)[-1]


@functools.cache
def lattice_trends():
    bands = ProbeSweep((8.0, 16.0, 32.0, 64.0), 4, 0, (-INF, 0.2))
    widths = ProbeSweep((1.0, 2.0, 4.0, 8.0), 4, 0, (-INF, 0.2))
    return (
        lw_band_sweep(P3, 2.0, bands)[-1],
        lw_modulation_sweep(P3, 8.0, 2.0, widths)[-1],
        nonresonant_modulation_sweep(P3, 1.0, 8.0, widths)[-1],
    )


class TestTrendSuite:
    """Slope bands for all five ratio probes, each over >= 4 dyadic points,
    plus the wrong-comparator negative control.

    The three shiftable probes flip individually under a 1/4 exponent
    error.  The lattice probes sit 0.5+ below their cap, so a 1/4 shift
    cannot flip them alone; the suite verdict is the conjunction, and the
    control conjunction fails through its flipped members.
    """

    def test_linear_band_slope(self):
        summary = linear_trend(0.0)
        assert summary.measured <= 0.1 and summary.passed

    def test_lowfreq_band_slope(self):
        summary = lowfreq_trend(0.0)
        assert -0.2 <= summary.measured <= 0.2 and summary.passed

    def test_bilinear_resonant_slope(self):
        summary = bilinear_trend(0.0)
        assert summary.measured <= 0.1 and summary.passed

    def test_lattice_probe_slopes(self):
        for summary in lattice_trends():
            assert summary.measured <= 0.2 and summary.passed

    def test_negative_controls_flip(self):
        assert not linear_trend(-0.25).passed
        assert not lowfreq_trend(-0.25).passed
        assert not bilinear_trend(-0.25).passed

    def test_control_suite_conjunction_fails(self):
        verdict = all(s.passed for s in lattice_trends())
        assert verdict  # honest members stay green...
        control = [linear_trend(-0.25), lowfreq_trend(-0.25), bilinear_trend(-0.25)]
        assert not all(s.passed for s in control)  # ...the suite still fails


class TestTrilinearOracle:
    @staticmethod
    def direct(f1, f2, f3):
        # brute-force double sum, organized as shifted slices over f2 indices
        total = 0.0
        n1 = f1.values.shape
        n3 = f3.values.shape
        for i in range(f2.values.shape[0]):
            for j in range(f2.values.shape[1]):
                for k in range(f2.values.shape[2]):
                    w = f2.values[i, j, k]
                    if w == 0.0:
                        continue
                    lo = [i, j, k]
                    sl1 = tuple(
                        slice(max(0, n1[d] - (n3[d] - lo[d])), min(n1[d], n3[d] - lo[d]))
                        for d in range(3)
                    )
                    sl3 = tuple(
                        slice(sl1[d].start + lo[d], sl1[d].stop + lo[d])
                        for d in range(3)
                    )
                    total += w * np.sum(f1.values[sl1] * f3.values[sl3])
        return total

    def test_transform_equals_brute_force_on_random_lattices(self):
        rng = np.random.default_rng(101)
        for trial in range(100):
            spacing = tuple(rng.uniform(0.25, 4.0, 3))
            offset = tuple(int(v) for v in rng.integers(-20, 20, 3))
            shape1 = tuple(int(v) for v in rng.integers(2, 17, 3))
            shape2 = tuple(int(v) for v in rng.integers(2, 17, 3))
            shape3 = tuple(a + b - 1 for a, b in zip(shape1, shape2))
            off2 = tuple(int(v) for v in rng.integers(-20, 20, 3))
            off3 = tuple(a + b for a, b in zip(offset, off2))
            f1 = LatticeFunction(spacing, offset, rng.random(shape1))
            f2 = LatticeFunction(spacing, off2, rng.random(shape2))
            f3 = LatticeFunction(spacing, off3, rng.random(shape3))
            fast = trilinear_integral(f1, f2, f3)
            slow = self.direct(f1, f2, f3)
            assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))


class TestRunDeterminism:
    def run_twice(self, tmp_path, *argv):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(list(argv) + ["--output-dir", str(out)]) == 0
            outs.append(out)
        return outs

    def test_conserve_records_byte_identical(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "command": "conserve", "alpha": 3.0,
            "grid": {"modes_x": 32, "modes_y": 32},
            "evolution": {"dt": 0.05, "T": 0.1, "snapshot_stride": 1},
            "data": {"l2_norm": 0.1},
        }))
        a, b = self.run_twice(tmp_path, "--config", str(cfg))
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        assert ((a / "plotdata" / "mass_drift_t.dat").read_bytes()
                == (b / "plotdata" / "mass_drift_t.dat").read_bytes())

    def test_seeded_probe_records_byte_identical(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "command": "trilinear", "alpha": 3.0, "seed": 5,
            "trilinear": {"regime": "lw_modulation"},
            "probe": {"dyadic_range": [1, 2, 4, 8], "trials_per_point": 2,
                      "tolerance_hi": 0.2},
        }))
        a, b = self.run_twice(tmp_path, "--config", str(cfg))
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        assert (a / "slopes.json").read_bytes() == (b / "slopes.json").read_bytes()

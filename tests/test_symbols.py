import math
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    normal_determinant_closed_arrays,
    normal_determinant_numeric_arrays,
    resonance_difference_arrays,
)

from fkpi_lab import symbols as S


def params(alpha):
    return S.DispersionParams(alpha)


def grad(alpha, xi, eta):
    return tuple(float(g) for g in S.grad_omega_arrays(alpha, xi, eta))


def random_pairs(n, seed, xi_lo=0.1, xi_hi=4.0, eta_hi=5.0):
    rng = np.random.default_rng(seed)
    sign = lambda: np.where(rng.random(n) < 0.5, -1.0, 1.0)
    xi1 = sign() * rng.uniform(xi_lo, xi_hi, n)
    xi2 = sign() * rng.uniform(xi_lo, xi_hi, n)
    keep = np.abs(xi1 + xi2) > 1e-3
    eta1 = rng.uniform(-eta_hi, eta_hi, n)
    eta2 = rng.uniform(-eta_hi, eta_hi, n)
    return xi1[keep], eta1[keep], xi2[keep], eta2[keep]


class TestTypes:
    def test_alpha_range(self):
        assert params(2.0).alpha == 2.0  # boundary kept for the growth studies
        assert params(3.9).alpha == 3.9
        for bad in (1.9, 4.0, 4.5, -1.0):
            with pytest.raises(ValueError):
                params(bad)


class TestOmega:
    def test_values(self):
        assert float(S.omega_arrays(2.0, 1.0, 0.0)) == 1.0
        assert float(S.omega_arrays(3.0, 1.0, 2.0)) == 5.0
        # odd symmetry of |xi|^alpha xi
        assert float(S.omega_arrays(2.7, -1.0, 0.0)) == -1.0

    def test_grad_values(self):
        assert grad(2.0, 1.0, 0.0) == (3.0, 0.0)
        assert grad(2.0, 1.0, 1.0) == (2.0, 2.0)

    def test_grad_finite_difference_oracle(self):
        # central differences of omega, step 1e-6, on points with |xi| >= 0.1
        alpha = 2.7
        n = 2000
        rng = np.random.default_rng(5)
        xi = np.where(rng.random(n) < 0.5, -1.0, 1.0) * rng.uniform(0.1, 4.0, n)
        eta = rng.uniform(-5.0, 5.0, n)
        gx, gy = S.grad_omega_arrays(alpha, xi, eta)
        h = 1e-6
        fx = (S.omega_arrays(alpha, xi + h, eta) - S.omega_arrays(alpha, xi - h, eta)) / (2 * h)
        fy = (S.omega_arrays(alpha, xi, eta + h) - S.omega_arrays(alpha, xi, eta - h)) / (2 * h)
        err = np.hypot(gx - fx, gy - fy)
        scale = np.maximum(1.0, np.hypot(gx, gy))
        assert np.max(err / scale) < 1e-6

    def test_surface_normal(self):
        # n = (1, -grad omega), the columns normal_determinant_numeric_arrays stacks
        gx, gy = grad(2.0, 1.0, 0.0)
        assert np.array_equal([1.0, -gx, -gy], [1.0, -3.0, 0.0])
        gx, gy = grad(3.0, 1.0, 1.0)
        assert np.array_equal([1.0, -gx, -gy], [1.0, -3.0, -2.0])


class TestResonance:
    def test_basic_value(self):
        q = (1.0, 0.0, 1.0, 0.0)  # (xi1, eta1, xi2, eta2)
        assert float(S.resonance_arrays(2.0, *q)) == 6.0
        assert float(S.omega1_arrays(2.0, 1.0, 1.0)) == 6.0
        assert float(S.omega2_arrays(2.0, *q)) == 0.0

    def test_omega2_value(self):
        assert float(S.omega2_arrays(2.0, 1.0, 1.0, 1.0, -1.0)) == 2.0

    def test_collinear_reduces_to_omega1(self):
        q = (2.0, 3.0, 4.0, 6.0)
        assert float(S.omega2_arrays(2.5, *q)) == 0.0
        assert float(S.resonance_arrays(2.5, *q)) == float(S.omega1_arrays(2.5, 2.0, 4.0))

    def test_fraction_equals_difference(self):
        # the partial-fractions identity, checked against the raw omega sum
        alpha = 2.3
        xi1, eta1, xi2, eta2 = random_pairs(20000, seed=7)
        frac = S.resonance_arrays(alpha, xi1, eta1, xi2, eta2)
        diff = resonance_difference_arrays(alpha, xi1, eta1, xi2, eta2)
        scale = np.maximum(
            1.0,
            np.abs(S.omega1_arrays(alpha, xi1, xi2))
            + np.abs(S.omega2_arrays(alpha, xi1, eta1, xi2, eta2)),
        )
        assert np.max(np.abs(frac - diff) / scale) < 1e-10

    def test_split_identity(self):
        alpha = 3.4
        xi1, eta1, xi2, eta2 = random_pairs(5000, seed=8)
        om1 = S.omega1_arrays(alpha, xi1, xi2)
        om2 = S.omega2_arrays(alpha, xi1, eta1, xi2, eta2)
        om = S.resonance_arrays(alpha, xi1, eta1, xi2, eta2)
        scale = np.maximum(1.0, np.abs(om1) + np.abs(om2))
        assert np.max(np.abs(om1 - om2 - om) / scale) < 1e-12

    def test_swap_symmetry(self):
        alpha = 2.6
        xi1, eta1, xi2, eta2 = random_pairs(5000, seed=9)
        keepers = [
            S.resonance_arrays,
            lambda a, x1, e1, x2, e2: S.omega1_arrays(a, x1, x2),
            S.omega2_arrays,
        ]
        for fn in keepers:
            v = fn(alpha, xi1, eta1, xi2, eta2)
            w = fn(alpha, xi2, eta2, xi1, eta1)
            assert np.max(np.abs(v - w) / np.maximum(1.0, np.abs(v))) < 1e-12
        # the normals determinant changes sign under a column swap; its size is symmetric
        b12 = normal_determinant_closed_arrays(alpha, xi1, eta1, xi2, eta2)
        b21 = normal_determinant_closed_arrays(alpha, xi2, eta2, xi1, eta1)
        assert np.max(np.abs(np.abs(b12) - np.abs(b21)) / np.maximum(1.0, np.abs(b12))) < 1e-12

    def test_galilean_shift(self):
        alpha = 3.1
        xi1, eta1, xi2, eta2 = random_pairs(5000, seed=10)
        c = 1.7
        a0 = eta1 * xi2 - eta2 * xi1
        a1 = (eta1 + c * xi1) * xi2 - (eta2 + c * xi2) * xi1
        assert np.max(np.abs(a1 - a0) / np.maximum(1.0, np.abs(a0))) < 1e-12
        om2_0 = S.omega2_arrays(alpha, xi1, eta1, xi2, eta2)
        om2_1 = S.omega2_arrays(alpha, xi1, eta1 + c * xi1, xi2, eta2 + c * xi2)
        assert np.max(np.abs(om2_1 - om2_0) / np.maximum(1.0, np.abs(om2_0))) < 1e-12


class TestDeterminant:
    def test_hand_value(self):
        q = (1.0, 1.0, 1.0, -1.0)
        assert abs(float(normal_determinant_numeric_arrays(2.0, *q)) - 40.0) < 1e-12
        assert abs(float(normal_determinant_closed_arrays(2.0, *q)) - 40.0) < 1e-12

    def test_collinear_vanishes(self):
        q = (1.0, 2.0, 3.0, 6.0)
        assert float(normal_determinant_closed_arrays(2.8, *q)) == 0.0
        assert abs(float(normal_determinant_numeric_arrays(2.8, *q))) < 1e-9

    def test_mutual_oracle(self):
        alpha = 3.3
        xi1, eta1, xi2, eta2 = random_pairs(20000, seed=11)
        num = normal_determinant_numeric_arrays(alpha, xi1, eta1, xi2, eta2)
        clo = normal_determinant_closed_arrays(alpha, xi1, eta1, xi2, eta2)
        cross = eta1 * xi2 - eta2 * xi1
        d = xi1 * xi2 * (xi1 + xi2)
        inner_size = (alpha + 1) * np.abs(S.omega1_arrays(alpha, xi1, xi2)) + cross ** 2 / np.abs(d)
        scale = 1.0 + np.abs(2.0 * cross / d) * inner_size
        assert np.max(np.abs(num - clo) / scale) < 1e-10


class TestResonanceScan:
    def test_geometry_validation(self):
        p = params(2.2)
        with pytest.raises(ValueError):
            S.resonance_size_scan(p, 1.0, 0.01, samples=10000, seed=0)
        with pytest.raises(ValueError):
            S.resonance_size_scan(p, 256.0, 0.0, samples=10000, seed=0)
        with pytest.raises(ValueError):  # theta <= 0: box assumptions degenerate
            S.resonance_size_scan(p, 256.0, 256.0 ** (-0.5), samples=10000, seed=0)

    def test_deterministic_under_seed(self):
        p = params(2.5)
        n = 2.0 ** 8
        gamma = n ** (-(2.5 - 1) / 2 - 0.05)
        r1 = S.resonance_size_scan(p, n, gamma, samples=500, seed=42)
        r2 = S.resonance_size_scan(p, n, gamma, samples=500, seed=42)
        assert r1 == r2
        r3 = S.resonance_size_scan(p, n, gamma, samples=500, seed=43)
        assert r1 != r3

    def test_zero_samples(self):
        with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
            S.resonance_size_scan(params(2.5), 256.0, 256.0 ** -0.8, samples=0, seed=0)

    def test_size_law_bands_at_example_point(self):
        # alpha=2.2, N=2^8, theta=0.05, 1e4 samples: both ratio ranges in [1/8, 8].
        # The omega1 law holds with constants (alpha+1)*[1/2, 1].  The full-Omega
        # law cannot hold pointwise on these boxes: expanding Omega in the box
        # variables gives Omega/(N^(alpha-1) gamma^2) =
        # (alpha+1)[(alpha+2)*u*p + (alpha/2+1)*u^2 + 2*w*N^(1-alpha/2)] + o(1)
        # with u in [1/2,1], p in [0,1], w in [-1,1]; the w cross-term produces
        # zero crossings (min ratio ~ 0) and the top corner exceeds 8.
        p = params(2.2)
        n = 2.0 ** 8
        gamma = n ** (-(2.2 - 1) / 2 - 0.05)
        rep = S.resonance_size_scan(p, n, gamma, samples=10 ** 4, seed=3)
        assert rep.omega1_ratio_min >= 1 / 8 and rep.omega1_ratio_max <= 8
        assert rep.omega_ratio_min >= 1 / 8 and rep.omega_ratio_max <= 8, (
            f"full-Omega ratio range [{rep.omega_ratio_min:.3g}, "
            f"{rep.omega_ratio_max:.3g}] leaves [1/8, 8]: the eta1 cross term "
            "2(alpha+1)N^(1-alpha/2) is O(1) at this N and changes sign"
        )

    def test_taylor_exponent_in_n(self):
        # decoupled check of the exponent alpha-1: at fixed gamma the median
        # |Omega| grows like N^(alpha-1) gamma^2 across a dyadic N sweep
        alpha = 2.5
        p = params(alpha)
        meds = []
        ns = [2.0 ** k for k in (6, 8, 10, 12)]
        for n in ns:
            gamma = n ** (-(alpha - 1) / 2 - 0.05)
            rng = np.random.default_rng(17)
            (x1r, e1r), (x2r, e2r) = S.interaction_boxes(alpha, n, gamma)
            xi1 = rng.uniform(*x1r, 4000)
            eta1 = rng.uniform(*e1r, 4000)
            xi2 = rng.uniform(*x2r, 4000)
            eta2 = rng.uniform(*e2r, 4000)
            om = S.resonance_arrays(alpha, xi1, eta1, xi2, eta2)
            meds.append(np.median(np.abs(om)) / gamma ** 2)
        slope = np.polyfit(np.log([n for n in ns]), np.log(meds), 1)[0]
        assert abs(slope - (alpha - 1)) < 0.25


class TestTransversality:
    def test_report_bands(self):
        p = params(3.0)
        rep = S.transversality_check(p, 2.0 ** 6, 2.0 ** 2, samples=1000, seed=0, c=0.1)
        assert 1 / 16 <= rep.cross_ratio_min <= rep.cross_ratio_max <= 16
        assert 1 / 16 <= rep.slope_gap_ratio_min <= rep.slope_gap_ratio_max <= 16

    def test_deterministic(self):
        p = params(3.0)
        a = S.transversality_check(p, 16.0, 4.0, samples=200, seed=9, c=0.1)
        b = S.transversality_check(p, 16.0, 4.0, samples=200, seed=9, c=0.1)
        assert a == b

    def test_zero_samples(self):
        with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
            S.transversality_check(params(3.0), 16.0, 2.0, samples=0, seed=0, c=0.1)

    def test_empty_set_error(self):
        p = params(3.0)
        with pytest.raises(ValueError, match="resonant"):
            S.transversality_check(p, 16.0, 4.0, samples=100, seed=0, c=0.0)

    def test_mixed_sign_pairs_present(self):
        p = params(2.4)
        rng = np.random.default_rng(4)
        xi1, eta1, xi2, eta2 = S.sample_resonant_pairs(p, 32.0, 4.0, 500, rng, c=0.1)
        assert np.any(xi1 * xi2 < 0) and np.any(xi1 * xi2 > 0)
        om = S.resonance_arrays(p.alpha, xi1, eta1, xi2, eta2)
        om1 = S.omega1_arrays(p.alpha, xi1, xi2)
        assert np.all(np.abs(om) <= 0.1 * np.abs(om1) * (1 + 1e-12))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=2.0, max_value=3.99),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
)
def test_resonance_identity_property(alpha, xi1, eta1, xi2, eta2):
    if abs(xi1) < 0.05 or abs(xi2) < 0.05 or abs(xi1 + xi2) < 0.05:
        return
    frac = float(S.resonance_arrays(alpha, xi1, eta1, xi2, eta2))
    diff = float(resonance_difference_arrays(alpha, xi1, eta1, xi2, eta2))
    scale = max(
        1.0,
        abs(float(S.omega1_arrays(alpha, xi1, xi2)))
        + abs(float(S.omega2_arrays(alpha, xi1, eta1, xi2, eta2))),
    )
    assert abs(frac - diff) / scale < 1e-10

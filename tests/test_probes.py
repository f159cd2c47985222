import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fkpi_lab import probes as pr
from fkpi_lab.grid import FrequencyGrid, SpectralField, to_spectral
from fkpi_lab.norms import AnisoIndex, MixedNormSpec
from fkpi_lab.symbols import DispersionParams, resonance_difference_arrays

P3 = DispersionParams(3.0)
TWO_PI = 2.0 * math.pi


def small_grid(mx=64, my=16, lx=TWO_PI, ly=TWO_PI):
    return FrequencyGrid(length_x=lx, length_y=ly, modes_x=mx, modes_y=my)


def smooth_field(grid, amplitude=0.3, seed=11):
    rng = np.random.default_rng(seed)
    x, y = np.meshgrid(grid.x, grid.y, indexing="ij")
    samples = amplitude * sum(
        rng.normal() * np.cos(i * x + j * y + rng.uniform(0.0, TWO_PI))
        for i in (1, 2, 3)
        for j in (-1, 0, 2)
    )
    return to_spectral(samples, grid)


def random_lattice(rng, shape, spacing, offset):
    return pr.LatticeFunction(spacing=spacing, offset=offset,
                              values=rng.random(shape))


def direct_trilinear(f1, f2, f3):
    """Brute-force double sum over (a, b) index pairs; no transforms."""
    n1 = f1.values.shape
    n3 = f3.values.shape
    total = 0.0
    for b0 in range(f2.values.shape[0]):
        for b1 in range(f2.values.shape[1]):
            for b2 in range(f2.values.shape[2]):
                vb = f2.values[b0, b1, b2]
                if vb == 0.0:
                    continue
                c0 = min(n1[0], n3[0] - b0)
                c1 = min(n1[1], n3[1] - b1)
                c2 = min(n1[2], n3[2] - b2)
                if c0 <= 0 or c1 <= 0 or c2 <= 0:
                    continue
                total += vb * float(np.sum(
                    f1.values[:c0, :c1, :c2]
                    * f3.values[b0:b0 + c0, b1:b1 + c1, b2:b2 + c2]))
    return total


class TestRecord:
    def test_ratio_consistency_enforced(self):
        with pytest.raises(ValueError):
            pr.ExperimentRecord("x", {}, 2.0, 4.0, 0.7, True)
        pr.ExperimentRecord("x", {}, 2.0, 4.0, 0.5, True)

    def test_make_record_fills_ratio(self):
        rec = pr.make_record("x", {"n": 2.0}, 3.0, 1.5, True)
        assert rec.ratio == pytest.approx(2.0, rel=1e-15)

    def test_zero_comparator_gives_nan_ratio(self):
        rec = pr.make_record("x", {}, 0.0, 0.0, True, note="degenerate")
        assert math.isnan(rec.ratio)

    def test_to_dict_shape(self):
        d = pr.make_record("x", {"n": 2.0}, 3.0, 1.5, False, note="why").to_dict()
        assert d["probe"] == "x" and d["n"] == 2.0
        assert d["pass"] is False and d["note"] == "why"
        assert set(d) == {"probe", "n", "measured", "comparator", "ratio",
                          "pass", "note"}


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1e-6, max_value=1e6))
def test_record_ratio_property(measured, comparator):
    rec = pr.make_record("p", {}, measured, comparator, True)
    assert abs(rec.ratio - measured / comparator) <= 1e-9 * max(
        1.0, abs(measured / comparator))


class TestProbeSweep:
    def test_valid(self):
        s = pr.ProbeSweep(3.0, (1.0, 2.0, 4.0), trials_per_point=3)
        assert s.dyadic_range == (1.0, 2.0, 4.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pr.ProbeSweep(3.0, ())

    def test_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            pr.ProbeSweep(3.0, (1.0, 3.0))

    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            pr.ProbeSweep(3.0, (4.0, 2.0))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            pr.ProbeSweep(3.0, (1.0, 2.0), trials_per_point=0)

    def test_rejects_unordered_band(self):
        with pytest.raises(ValueError):
            pr.ProbeSweep(3.0, (1.0, 2.0), tolerance_band=(0.2, -0.2))


class TestSlopeFit:
    def test_exact_power_law(self):
        xs = [1.0, 2.0, 4.0, 8.0, 16.0]
        ys = [3.0 * x ** -0.75 for x in xs]
        assert pr.fit_loglog_slope(xs, ys) == pytest.approx(-0.75, abs=1e-12)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            pr.fit_loglog_slope([1.0, 2.0, 4.0], [1.0, 1.0, 1.0])

    def test_needs_positive_data(self):
        with pytest.raises(ValueError):
            pr.fit_loglog_slope([1.0, 2.0, 4.0, 8.0], [1.0, -1.0, 1.0, 1.0])


class TestPersistence:
    def records(self):
        return [
            pr.make_record("a", {"n": 2.0, "seed": 0}, 1.0, 2.0, True),
            pr.make_record("b", {"n": 4.0, "l": 1.0}, 3.0, 1.0, False,
                           note="first, second"),
        ]

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "records.csv"
        pr.write_records_csv(self.records(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "probe,l,n,seed,measured,comparator,ratio,pass,note"
        assert lines[1].startswith("a,,2.0,0,") and lines[1].endswith("true,")
        # note commas must not break the column count
        assert lines[2].count(",") == lines[0].count(",")
        assert "first; second" in lines[2]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        pr.write_records_jsonl(self.records(), path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["probe"] == "a" and rows[0]["pass"] is True
        assert rows[1]["ratio"] == pytest.approx(3.0)

    def test_writers_are_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        pr.write_records_csv(self.records(), p1)
        pr.write_records_csv(self.records(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_slope_report_collects_summaries(self):
        recs = self.records() + [pr.make_record(
            "a_slope", {"sweep_variable": "n", "band_hi": 0.1}, -0.05, 0.1, True)]
        rep = pr.slope_report(recs)
        assert len(rep) == 1
        assert rep[0]["slope"] == pytest.approx(-0.05)
        assert rep[0]["band_lo"] is None and rep[0]["band_hi"] == 0.1


class TestLatticeFunction:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            pr.LatticeFunction((1.0, 1.0, 1.0), (0.0, 0.0, 0.0),
                               -np.ones((2, 2, 2)))

    def test_rejects_nonfinite(self):
        v = np.ones((2, 2, 2))
        v[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            pr.LatticeFunction((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), v)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            pr.LatticeFunction((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), np.ones((2, 2)))
        with pytest.raises(ValueError):
            pr.LatticeFunction((1.0, 0.0, 1.0), (0.0, 0.0, 0.0), np.ones((2, 2, 2)))

    def test_l2_norm(self):
        f = pr.LatticeFunction((0.5, 1.0, 2.0), (0.0, 0.0, 0.0),
                               2.0 * np.ones((2, 3, 4)))
        assert f.l2_norm() == pytest.approx(math.sqrt(4.0 * 24 * 1.0), rel=1e-14)


class TestTrilinearIntegral:
    SPACING = (0.5, 1.0, 0.25)

    def make(self, values, offset=(0.0, 0.0, 0.0)):
        return pr.LatticeFunction(self.SPACING, offset, values)

    def test_zero_factor(self):
        rng = np.random.default_rng(0)
        f1 = self.make(rng.random((4, 4, 4)))
        f2 = self.make(np.zeros((4, 4, 4)))
        f3 = self.make(rng.random((7, 7, 7)))
        assert pr.trilinear_integral(f1, f2, f3) == 0.0

    def test_point_masses(self):
        v1 = np.zeros((5, 5, 5))
        v2 = np.zeros((5, 5, 5))
        v3 = np.zeros((9, 9, 9))
        v1[1, 2, 3] = 1.0
        v2[2, 0, 4] = 1.0
        v3[3, 2, 7] = 1.0
        assert pr.trilinear_integral(self.make(v1), self.make(v2),
                                     self.make(v3)) == pytest.approx(1.0)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            s1 = tuple(rng.integers(2, 9, size=3))
            s2 = tuple(rng.integers(2, 9, size=3))
            s3 = tuple(rng.integers(2, 13, size=3))
            off1 = tuple(rng.uniform(-3.0, 3.0, size=3))
            off2 = tuple(rng.uniform(-3.0, 3.0, size=3))
            off3 = tuple(a + b for a, b in zip(off1, off2))
            f1 = random_lattice(rng, s1, self.SPACING, off1)
            f2 = random_lattice(rng, s2, self.SPACING, off2)
            f3 = random_lattice(rng, s3, self.SPACING, off3)
            fast = pr.trilinear_integral(f1, f2, f3)
            slow = direct_trilinear(f1, f2, f3)
            assert fast == pytest.approx(slow, rel=1e-10, abs=1e-10)

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        f1 = random_lattice(rng, (5, 4, 3), self.SPACING, (0.0, 0.0, 0.0))
        f2 = random_lattice(rng, (3, 4, 5), self.SPACING, (1.0, 0.0, 0.0))
        f3 = random_lattice(rng, (7, 7, 7), self.SPACING, (1.0, 0.0, 0.0))
        base = pr.trilinear_integral(f1, f2, f3)
        scaled = pr.LatticeFunction(f1.spacing, f1.offset, 3.0 * f1.values)
        assert pr.trilinear_integral(scaled, f2, f3) == pytest.approx(
            3.0 * base, rel=1e-12)

    def test_spacing_mismatch_raises(self):
        rng = np.random.default_rng(1)
        f1 = random_lattice(rng, (3, 3, 3), (0.5, 1.0, 0.25), (0.0, 0.0, 0.0))
        f2 = random_lattice(rng, (3, 3, 3), (0.5, 1.0, 0.5), (0.0, 0.0, 0.0))
        f3 = random_lattice(rng, (5, 5, 5), (0.5, 1.0, 0.25), (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="spacing"):
            pr.trilinear_integral(f1, f2, f3)

    def test_offset_mismatch_raises(self):
        rng = np.random.default_rng(1)
        f1 = random_lattice(rng, (3, 3, 3), self.SPACING, (0.0, 0.0, 0.0))
        f2 = random_lattice(rng, (3, 3, 3), self.SPACING, (1.0, 0.0, 0.0))
        f3 = random_lattice(rng, (5, 5, 5), self.SPACING, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="offset"):
            pr.trilinear_integral(f1, f2, f3)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_trilinear_transform_equals_direct_property(seed):
    rng = np.random.default_rng(seed)
    spacing = tuple(rng.uniform(0.1, 2.0, size=3))
    s1 = tuple(rng.integers(1, 7, size=3))
    s2 = tuple(rng.integers(1, 7, size=3))
    s3 = tuple(rng.integers(1, 11, size=3))
    off1 = tuple(rng.uniform(-2.0, 2.0, size=3))
    off2 = tuple(rng.uniform(-2.0, 2.0, size=3))
    off3 = tuple(a + b for a, b in zip(off1, off2))
    f1 = random_lattice(rng, s1, spacing, off1)
    f2 = random_lattice(rng, s2, spacing, off2)
    f3 = random_lattice(rng, s3, spacing, off3)
    fast = pr.trilinear_integral(f1, f2, f3)
    slow = direct_trilinear(f1, f2, f3)
    assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))


# ------------------------------------------------------------- bilinear probe


def histogram_product_norm(alpha, box_a, box_b, nk, nbins, nfine):
    """Level-set densities by brute histogram of the interaction phase,
    sharing the outer k-grid of coarea_product_norm."""
    xa0, xa1, ya0, ya1 = box_a
    xb0, xb1, yb0, yb1 = box_b
    amp2 = 1.0 / ((xa1 - xa0) * (ya1 - ya0) * (xb1 - xb0) * (yb1 - yb0))
    kx_e = np.linspace(xa0 + xb0, xa1 + xb1, nk + 1)
    ky_e = np.linspace(ya0 + yb0, ya1 + yb1, nk + 1)
    kx = 0.5 * (kx_e[:-1] + kx_e[1:])
    ky = 0.5 * (ky_e[:-1] + ky_e[1:])
    total = 0.0
    for i, kxi in enumerate(kx):
        lo, hi = max(xa0, kxi - xb1), min(xa1, kxi - xb0)
        if hi <= lo:
            continue
        x1g = np.linspace(lo, hi, nfine + 1)
        x1g = 0.5 * (x1g[:-1] + x1g[1:])
        dx1 = (hi - lo) / nfine
        x2g = kxi - x1g
        for j, kyj in enumerate(ky):
            ey_lo, ey_hi = max(ya0, kyj - yb1), min(ya1, kyj - yb0)
            if ey_hi <= ey_lo:
                continue
            e1g = np.linspace(ey_lo, ey_hi, nfine + 1)
            e1g = 0.5 * (e1g[:-1] + e1g[1:])
            de1 = (ey_hi - ey_lo) / nfine
            phi = ((np.abs(x1g) ** alpha * x1g
                    + np.abs(x2g) ** alpha * x2g)[:, None]
                   + e1g[None, :] ** 2 * (kxi / (x1g * x2g))[:, None]
                   - 2.0 * kyj * e1g[None, :] / x2g[:, None]
                   + kyj ** 2 / x2g[:, None])
            counts, edges = np.histogram(phi.ravel(), bins=nbins)
            width = edges[1] - edges[0]
            g2 = float(np.sum((counts * dx1 * de1) ** 2)) / width
            cell = (kx_e[i + 1] - kx_e[i]) * (ky_e[j + 1] - ky_e[j])
            total += cell * g2
    return math.sqrt(math.pi * amp2 * total)


def brute_time_product_norm(alpha, box_a, box_b, nk, nfine, nt):
    """No level sets at all: trapezoid in t of |int e^{-it Phi}|^2 over the
    same k-cells; checks the pi time-decorrelation step."""
    xa0, xa1, ya0, ya1 = box_a
    xb0, xb1, yb0, yb1 = box_b
    amp2 = 1.0 / ((xa1 - xa0) * (ya1 - ya0) * (xb1 - xb0) * (yb1 - yb0))
    kx_e = np.linspace(xa0 + xb0, xa1 + xb1, nk + 1)
    ky_e = np.linspace(ya0 + yb0, ya1 + yb1, nk + 1)
    kx = 0.5 * (kx_e[:-1] + kx_e[1:])
    ky = 0.5 * (ky_e[:-1] + ky_e[1:])
    ts = np.linspace(0.0, 1.0, nt)
    wt = np.full(nt, 1.0 / (nt - 1))
    wt[0] *= 0.5
    wt[-1] *= 0.5
    total = 0.0
    for i, kxi in enumerate(kx):
        lo, hi = max(xa0, kxi - xb1), min(xa1, kxi - xb0)
        if hi <= lo:
            continue
        x1g = np.linspace(lo, hi, nfine + 1)
        x1g = 0.5 * (x1g[:-1] + x1g[1:])
        dx1 = (hi - lo) / nfine
        x2g = kxi - x1g
        for j, kyj in enumerate(ky):
            ey_lo, ey_hi = max(ya0, kyj - yb1), min(ya1, kyj - yb0)
            if ey_hi <= ey_lo:
                continue
            e1g = np.linspace(ey_lo, ey_hi, nfine + 1)
            e1g = 0.5 * (e1g[:-1] + e1g[1:])
            de1 = (ey_hi - ey_lo) / nfine
            phi = ((np.abs(x1g) ** alpha * x1g
                    + np.abs(x2g) ** alpha * x2g)[:, None]
                   + e1g[None, :] ** 2 * (kxi / (x1g * x2g))[:, None]
                   - 2.0 * kyj * e1g[None, :] / x2g[:, None]
                   + kyj ** 2 / x2g[:, None]).ravel()
            waves = np.exp(-1j * ts[:, None] * phi[None, :]).sum(axis=1)
            waves *= dx1 * de1
            cell = (kx_e[i + 1] - kx_e[i]) * (ky_e[j + 1] - ky_e[j])
            total += cell * float(np.sum(wt * np.abs(waves) ** 2))
    return math.sqrt(amp2 * total)


def oracle_boxes():
    (x1, e1), (x2, e2) = pr._resonant_center_from_uniforms(
        P3, 8.0, 2.0, 0.37, 0.61, 0.23, 1.0)
    box_a = (x1 - 0.125, x1 + 0.125, e1 - 0.25, e1 + 0.25)
    box_b = (x2 - 0.125, x2 + 0.125, e2 - 1.0, e2 + 1.0)
    return box_a, box_b


class TestBilinearOracles:
    def test_level_sets_match_histogram(self):
        box_a, box_b = oracle_boxes()
        fast, _ = pr.coarea_product_norm(3.0, box_a, box_b, 12, 96, 64)
        slow = histogram_product_norm(3.0, box_a, box_b, 12, 64, 400)
        assert fast == pytest.approx(slow, rel=0.03)

    def test_time_decorrelation_matches_brute_quadrature(self):
        box_a, box_b = oracle_boxes()
        fast, span = pr.coarea_product_norm(3.0, box_a, box_b, 4, 96, 64)
        assert span > 200.0  # decorrelation needs many phase cycles
        slow = brute_time_product_norm(3.0, box_a, box_b, 4, 96, 513)
        assert fast == pytest.approx(slow, rel=0.05)


class TestBilinearRatio:
    def test_center_lies_on_resonant_variety(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            (x1, e1), (x2, e2) = pr.exact_resonant_center(P3, 16.0, 2.0, rng)
            om = float(resonance_difference_arrays(3.0, x1, e1, x2, e2))
            om1 = abs(x1 + x2) ** 3 * (x1 + x2) - x1 ** 4 - x2 ** 4
            assert abs(om) <= 1e-9 * abs(om1)
            assert 16.0 <= x1 <= 32.0 and 2.0 <= x2 <= 4.0

    def test_deterministic_per_seed(self):
        a = pr.bilinear_ratio(P3, 8.0, 2.0, trials=2, seed=9,
                              resolution=(8, 16, 16))
        b = pr.bilinear_ratio(P3, 8.0, 2.0, trials=2, seed=9,
                              resolution=(8, 16, 16))
        c = pr.bilinear_ratio(P3, 8.0, 2.0, trials=2, seed=10,
                              resolution=(8, 16, 16))
        assert a.measured == b.measured and a.ratio == b.ratio
        assert a.measured != c.measured

    def test_band_separation_required(self):
        with pytest.raises(ValueError, match="n1 >> n2"):
            pr.bilinear_ratio(P3, 4.0, 2.0)
        with pytest.raises(ValueError, match="dyadic"):
            pr.bilinear_ratio(P3, 12.0, 2.0)

    def test_resolution_floor(self):
        with pytest.raises(ValueError, match="resolution"):
            pr.bilinear_ratio(P3, 8.0, 2.0, resolution=(4, 16, 16))

    def test_comparator_exponent(self):
        rec = pr.bilinear_ratio(P3, 16.0, 2.0, trials=2, seed=0,
                                resolution=(8, 16, 16))
        assert rec.comparator == pytest.approx(math.sqrt(2.0) * 16.0 ** -0.75)


# ------------------------------------------------------ evolution-grid probes


class TestLinearStrichartz:
    def test_isometry_endpoint_ratio_is_one(self):
        u0 = smooth_field(small_grid())
        rec = pr.linear_strichartz_ratio(P3, MixedNormSpec(math.inf, 2.0), u0,
                                         T=0.5, snapshots=8)
        assert rec.ratio == pytest.approx(1.0, abs=1e-12)

    def test_zero_data_degenerate(self):
        g = small_grid()
        u0 = to_spectral(np.zeros((g.modes_x, g.modes_y)), g)
        rec = pr.linear_strichartz_ratio(P3, MixedNormSpec(4.0, 4.0), u0)
        assert rec.measured == 0.0 and "degenerate" in rec.note

    def test_inadmissible_spec_raises(self):
        u0 = smooth_field(small_grid())
        with pytest.raises(ValueError, match="admissible"):
            pr.linear_strichartz_ratio(P3, MixedNormSpec(4.0, 6.0), u0)

    def test_amplitude_homogeneity(self):
        g = small_grid()
        u0 = smooth_field(g)
        u2 = SpectralField(g, 2.7 * u0.coeffs)
        spec = MixedNormSpec(4.0, 4.0)
        r1 = pr.linear_strichartz_ratio(P3, spec, u0, T=0.5, snapshots=8)
        r2 = pr.linear_strichartz_ratio(P3, spec, u2, T=0.5, snapshots=8)
        assert r1.ratio == pytest.approx(r2.ratio, rel=1e-12)

    def test_band_sweep_and_negative_control(self):
        sweep = pr.ProbeSweep(3.0, (2.0, 4.0, 8.0, 16.0),
                              tolerance_band=(-math.inf, 0.1))
        g = FrequencyGrid(length_x=TWO_PI, length_y=TWO_PI,
                          modes_x=128, modes_y=16)
        spec = MixedNormSpec(4.0, 4.0)
        recs = pr.linear_strichartz_sweep(P3, spec, sweep, grid=g, snapshots=48)
        assert len(recs) == 5
        assert recs[-1].probe_name == "linear_strichartz_slope"
        assert recs[-1].passed
        bad = pr.linear_strichartz_sweep(P3, spec, sweep, grid=g, snapshots=48,
                                         comparator_shift=-0.25)
        assert not bad[-1].passed


class TestLowfreqL4:
    def grid(self):
        return FrequencyGrid(length_x=TWO_PI * 128.0, length_y=TWO_PI,
                             modes_x=512, modes_y=16)

    def single_mode(self, grid, amplitude=0.7):
        x, _ = np.meshgrid(grid.x, grid.y, indexing="ij")
        return to_spectral(amplitude * np.cos(0.25 * x), grid)

    def test_single_mode_closed_form(self):
        # constant-modulus traveling wave: ||u||_{L4}^4 = (3/8) A^4 Lx Ly
        g = self.grid()
        u0 = self.single_mode(g)
        rec = pr.lowfreq_l4_ratio(P3, 0.25, 0.25, u0, snapshots=16)
        want = 0.7 * (0.375 * g.length_x * g.length_y) ** 0.25
        assert rec.measured == pytest.approx(want, rel=1e-12)
        assert rec.comparator == pytest.approx(
            0.25 ** 0.25 * 0.25 ** 0.125 * math.sqrt(0.49 * g.length_x
                                                     * g.length_y / 2.0))

    def test_amplitude_invariance(self):
        g = self.grid()
        r1 = pr.lowfreq_l4_ratio(P3, 0.25, 0.25, self.single_mode(g, 0.7),
                                 snapshots=8)
        r2 = pr.lowfreq_l4_ratio(P3, 0.25, 0.25, self.single_mode(g, 1.9),
                                 snapshots=8)
        assert r1.ratio == pytest.approx(r2.ratio, rel=1e-12)

    def test_support_violation_raises(self):
        g = self.grid()
        u0 = self.single_mode(g)
        with pytest.raises(ValueError, match="support"):
            pr.lowfreq_l4_ratio(P3, 0.125, 0.0625, u0)

    def test_band_validation(self):
        g = self.grid()
        u0 = self.single_mode(g)
        with pytest.raises(ValueError, match="dyadic"):
            pr.lowfreq_l4_ratio(P3, 2.0, 0.25, u0)
        with pytest.raises(ValueError, match="dyadic"):
            pr.lowfreq_l4_ratio(P3, 0.25, 0.3, u0)


# --------------------------------------------------------- lattice trilinear


class TestLwRatio:
    def test_collinear_centers_flagged_outside_hypothesis(self):
        rec = pr.lw_ratio(P3, 8.0, 2.0, 1.0, 1.0, 1.0,
                          center_pair=((8.0, 4.0), (2.0, 1.0)))
        assert not rec.passed
        assert "outside-hypothesis" in rec.note
        assert rec.measured == 0.0

    def test_modulation_cap(self):
        with pytest.raises(ValueError, match="L << N1"):
            pr.lw_ratio(P3, 2.0, 2.0, 1.0, 1.0, 16.0)

    def test_band_validation(self):
        with pytest.raises(ValueError, match="dyadic"):
            pr.lw_ratio(P3, 2.0, 8.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="dyadic"):
            pr.lw_ratio(P3, 10.0, 2.0, 1.0, 1.0, 1.0)

    def test_deterministic(self):
        a = pr.lw_ratio(P3, 8.0, 2.0, 1.0, 1.0, 1.0, trials=2, seed=4)
        b = pr.lw_ratio(P3, 8.0, 2.0, 1.0, 1.0, 1.0, trials=2, seed=4)
        assert a.measured == b.measured and a.to_dict() == b.to_dict()

    def test_coarse_lattice_example(self):
        # N2 = 2, N1 in {8, 16, 32}, unit modulations: decay, never growth
        ns = (8.0, 16.0, 32.0)
        ratios = [pr.lw_ratio(P3, n, 2.0, 1.0, 1.0, 1.0, trials=4, seed=0).ratio
                  for n in ns]
        slope = float(np.polyfit(np.log(ns), np.log(ratios), 1)[0])
        assert slope <= 0.2

    def test_empty_shell_reports_required_resolution(self):
        # tau spacing far above the shell width, patch too small to matter
        spacing = (64.0, 1e-9, 1e-9)
        with pytest.raises(ValueError, match="tau nodes"):
            pr._shell_lattice(P3, (8.0, 1.0), 8.0, 1.0, spacing, (8, 8, 8),
                              0.0, np.random.default_rng(0))


class TestNonresonantRatio:
    def test_band_separation_required(self):
        with pytest.raises(ValueError, match="n1 << n2"):
            pr.nonresonant_ratio(P3, 4.0, 8.0, 1.0, 1.0, 4096.0)

    def test_needs_high_modulation(self):
        with pytest.raises(ValueError, match="max L >="):
            pr.nonresonant_ratio(P3, 1.0, 8.0, 1.0, 1.0, 1.0)

    def test_runs_in_regime(self):
        rec = pr.nonresonant_ratio(P3, 1.0, 8.0, 1.0, 1.0, 2048.0, trials=2,
                                   seed=0, lattice_scale=1.0)
        assert rec.passed and rec.measured > 0.0
        want = (math.sqrt(2048.0) / 2048.0 ** 0.25) * 8.0 ** -1.5 * 1.0
        assert rec.comparator == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------- scaling exponent


class TestScalingFit:
    LAMBDAS = (0.5, 2.0 ** -0.5, 1.0, 2.0 ** 0.5, 2.0)
    GRID = FrequencyGrid(length_x=64.0 * math.pi, length_y=64.0 * math.pi,
                         modes_x=512, modes_y=1024)

    def test_identity_scale_matches_gaussian_closed_form(self):
        lattice, analytic = pr.scaling_norm_pair(P3, AnisoIndex(0.0, 0.0), 1.0,
                                                 self.GRID)
        assert analytic == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
        assert lattice == pytest.approx(analytic, rel=1e-6)

    def test_fitted_slope_hits_target(self):
        rec, norms = pr.scaling_exponent_fit(P3, AnisoIndex(0.0, 0.0),
                                             self.LAMBDAS, self.GRID)
        assert rec.passed
        assert rec.comparator == pytest.approx(-1.25)
        assert abs(rec.measured - rec.comparator) <= 0.02
        # the returned norms are the lattice norms the slope was fitted to
        assert norms == [pr.scaling_norm_pair(P3, AnisoIndex(0.0, 0.0), lam,
                                              self.GRID)[0]
                         for lam in self.LAMBDAS]
        assert rec.measured == pr.fit_loglog_slope(self.LAMBDAS, norms)

    def test_weight_floor(self):
        with pytest.raises(ValueError, match="floor"):
            pr.scaling_exponent_fit(P3, AnisoIndex(-1.5, 0.0), self.LAMBDAS,
                                    self.GRID)
        with pytest.raises(ValueError, match="floor"):
            pr.scaling_exponent_fit(P3, AnisoIndex(0.0, -0.5), self.LAMBDAS,
                                    self.GRID)

    def test_needs_four_lambdas(self):
        with pytest.raises(ValueError, match="4 lambda"):
            pr.scaling_exponent_fit(P3, AnisoIndex(0.0, 0.0),
                                    lambdas=(0.5, 1.0, 2.0), grid=self.GRID)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError, match="positive"):
            pr.scaling_exponent_fit(P3, AnisoIndex(0.0, 0.0),
                                    lambdas=(-1.0, 0.5, 1.0, 2.0), grid=self.GRID)

    def test_resolution_loss_raises(self):
        g = FrequencyGrid(length_x=TWO_PI, length_y=TWO_PI,
                          modes_x=64, modes_y=16)
        with pytest.raises(ValueError, match="resolution loss"):
            pr.scaling_exponent_fit(P3, AnisoIndex(0.0, 0.0), self.LAMBDAS, grid=g)


# ------------------------------------------------------------- growth study


class TestGrowthStudy:
    def test_validation(self):
        with pytest.raises(ValueError, match="theta"):
            pr.illposedness_growth_study(P3, 0.0, [32.0, 64.0, 128.0, 256.0,
                                                   512.0])
        with pytest.raises(ValueError, match="5 dyadic"):
            pr.illposedness_growth_study(P3, 0.05, [32.0, 64.0, 128.0, 256.0])
        with pytest.raises(ValueError, match="powers of two"):
            pr.illposedness_growth_study(P3, 0.05, [32.0, 48.0, 128.0, 256.0,
                                                    512.0])

    def test_record_structure(self):
        p = DispersionParams(2.5)
        ns = [32.0, 64.0, 128.0, 256.0, 512.0]
        recs = pr.illposedness_growth_study(p, 0.1, ns, quad_res=8)
        assert len(recs) == len(ns) + 1
        for rec, n in zip(recs, ns):
            assert rec.probe_name == "illposedness_growth"
            assert rec.inputs["N"] == n
            assert rec.inputs["gamma"] == pytest.approx(n ** -0.85)
        summary = recs[-1]
        assert summary.probe_name == "illposedness_growth_slope"
        assert summary.comparator == pytest.approx(1.75 - 0.75 * 2.5 - 0.15)

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import resonance_difference_arrays

from fkpi_lab import probes as pr
from fkpi_lab.grid import FrequencyGrid, SpectralField, to_spectral
from fkpi_lab.norms import AnisoIndex, MixedNormSpec
from fkpi_lab.symbols import DispersionParams

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
        s = pr.ProbeSweep((1.0, 2.0, 4.0), trials_per_point=3)
        assert s.dyadic_range == (1.0, 2.0, 4.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pr.ProbeSweep(())

    def test_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            pr.ProbeSweep((1.0, 3.0))

    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            pr.ProbeSweep((4.0, 2.0))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            pr.ProbeSweep((1.0, 2.0), trials_per_point=0)

    def test_rejects_unordered_band(self):
        with pytest.raises(ValueError):
            pr.ProbeSweep((1.0, 2.0), tolerance_band=(0.2, -0.2))


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

    def test_slope_report_selects_by_sweep_variable(self):
        recs = [pr.make_record("b_slope", {}, 0.5, 1.0, True),
                pr.Band(-1.27, -1.23, -1.25).record(
                    "scaling_exponent", {"sweep_variable": "lambda"}, -1.24)]
        assert pr.slope_report(recs) == [{
            "probe": "scaling_exponent", "sweep_variable": "lambda", "slope": -1.24,
            "band_lo": -1.27, "band_hi": -1.23, "pass": True, "target": -1.25}]


class TestBand:
    def test_two_sided(self):
        band = pr.Band(-0.2, 0.2)
        for value, ok in ((-0.2, True), (0.0, True), (0.2, True),
                          (-0.2000001, False), (0.2000001, False), (math.nan, False)):
            rec = band.record("a_slope", {"sweep_variable": "n"}, value)
            assert rec.passed is ok
            assert rec.inputs["band_lo"] == -0.2 and rec.inputs["band_hi"] == 0.2
            assert rec.comparator == 0.2 and "target" not in rec.inputs

    def test_one_sided_edges_are_empty_cells_and_nulls(self, tmp_path):
        cap, floor = pr.Band(hi=0.1), pr.Band(lo=0.0)
        recs = [cap.record("a", {}, -1e300), cap.record("b", {}, 0.1000001),
                floor.record("c", {}, 1e300), floor.record("d", {}, -1e-300)]
        assert [r.passed for r in recs] == [True, False, True, False]
        assert recs[0].inputs["band_lo"] is None and recs[0].inputs["band_hi"] == 0.1
        assert recs[2].inputs["band_lo"] == 0.0 and recs[2].inputs["band_hi"] is None
        pr.write_records_csv(recs, tmp_path / "records.csv")
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert lines[0].startswith("probe,band_hi,band_lo,measured,")
        assert lines[1].startswith("a,0.1,,") and lines[3].startswith("c,,0.0,")
        pr.write_records_jsonl(recs, tmp_path / "records.jsonl")
        rows = [json.loads(line)
                for line in (tmp_path / "records.jsonl").read_text().splitlines()]
        assert rows[0]["band_lo"] is None and rows[2]["band_hi"] is None

    def test_target_column_and_comparator(self):
        band = pr.Band(-1.27, -1.23, -1.25)
        rec = band.record("scaling_exponent", {"sweep_variable": "lambda"}, -1.26)
        assert rec.passed
        assert rec.inputs["target"] == rec.comparator == -1.25
        assert band.record("x", {}, -1.2, comparator=3.0).comparator == 3.0

    def test_checked_columns_replace_measured(self):
        band = pr.DATA_NORM_BAND
        ok = band.record("g", {"d1": 0.25, "d2": 4.0}, 1e9, 1.0, checked=("d1", "d2"))
        bad = band.record("g", {"d1": 0.3, "d2": 4.1}, 1.0, 1.0, checked=("d1", "d2"))
        assert ok.passed and not bad.passed
        assert ok.comparator == 1.0

    def test_span_checks_both_ends(self):
        spans = [("inside", 0.2, 7.0), ("edges", 0.125, 8.0), ("low", 0.1, 7.0),
                 ("high", 0.2, 9.0), ("both", 0.01, 100.0)]
        recs = pr.span_records("scan", {"N": 2.0}, spans, pr.SIZE_LAW_BAND)
        assert [r.passed for r in recs] == [True, True, False, False, False]
        for rec, (law, lo, hi) in zip(recs, spans):
            # the rule before the band: lo <= ratio_min and ratio_max <= hi
            assert rec.passed == (0.125 <= lo and hi <= 8.0)
            assert rec.inputs["law"] == law and rec.inputs["ratio_min"] == lo
            assert rec.measured == hi and rec.comparator == 8.0
            assert rec.inputs["band_lo"] == 0.125 and rec.inputs["band_hi"] == 8.0
        wide = pr.span_records("t", {}, [("x", 0.0625, 16.0)], pr.TRANSVERSALITY_BAND)
        assert wide[0].passed and wide[0].comparator == 16.0


def old_growth_verdict(alpha, theta, slope):
    """The growth-slope rule the band replaced: |slope - target| <= 0.1, and
    a strict sign away from the alpha = 7/3 threshold."""
    target = 1.75 - 0.75 * alpha - 1.5 * theta
    ok = abs(slope - target) <= 0.1
    if alpha < 7.0 / 3.0 - 2.0 * theta:
        ok = ok and slope > 0.0
    elif alpha > 7.0 / 3.0 + 2.0 * theta:
        ok = ok and slope < 0.0
    return ok


class TestGrowthBand:
    THETA = 0.05

    @pytest.mark.parametrize("alpha, lo, hi", [
        (2.0, 0.075, 0.275), (2.2, 0.0, 0.125), (7.0 / 3.0, -0.175, 0.025),
        (2.5, -0.3, -0.1), (3.0, -0.675, -0.475)])
    def test_edges(self, alpha, lo, hi):
        # 2.0 and 2.2 lie below 7/3 - 2 theta, 2.5 and 3 above 7/3 + 2 theta;
        # only 2.2's lower edge and 2.5's upper edge are moved to zero
        band = pr.growth_band(alpha, self.THETA)
        assert band.target == pytest.approx(1.75 - 0.75 * alpha - 0.075, abs=1e-15)
        assert band.lo == pytest.approx(lo, abs=1e-15)
        assert band.hi == pytest.approx(hi, abs=1e-15)

    @pytest.mark.parametrize("alpha", [2.0, 2.2, 7.0 / 3.0, 2.5, 3.0])
    def test_verdict_matches_old_rule(self, alpha):
        band = pr.growth_band(alpha, self.THETA)
        recs = pr.illposedness_growth_study(DispersionParams(alpha), self.THETA,
                                            [32.0, 64.0, 128.0, 256.0, 512.0],
                                            quad_res=8)
        fitted = recs[-1].measured
        assert recs[-1].passed == old_growth_verdict(alpha, self.THETA, fitted)
        slopes = [fitted, -1e-9, 1e-9] + [band.target + d for d in (
            0.0, 0.05, -0.05, 0.099, -0.099, 0.101, -0.101, 0.3, -0.3)]
        for slope in slopes:
            new = band.record("s", {}, slope).passed
            assert new == old_growth_verdict(alpha, self.THETA, slope), slope
        # Only a slope of exactly 0.0 can differ: the old sign rule was strict,
        # the band's zero edge is closed.  Of these alphas that is 2.2 only.
        zero = band.record("s", {}, 0.0).passed
        assert zero == (band.lo <= 0.0 <= band.hi)
        assert (zero != old_growth_verdict(alpha, self.THETA, 0.0)) == (alpha == 2.2)


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


def loop_coarea_product_norm(alpha, box_a, box_b, nk, nw, nx):
    """coarea_product_norm as one (kx, ky) cell at a time: the reference for
    the row-vectorized form, which keeps its arithmetic and summation order."""
    xa0, xa1, ya0, ya1 = box_a
    xb0, xb1, yb0, yb1 = box_b
    amp2 = 1.0 / ((xa1 - xa0) * (ya1 - ya0) * (xb1 - xb0) * (yb1 - yb0))
    kx_e = np.linspace(xa0 + xb0, xa1 + xb1, nk + 1)
    ky_e = np.linspace(ya0 + yb0, ya1 + yb1, nk + 1)
    kx = 0.5 * (kx_e[:-1] + kx_e[1:])
    ky = 0.5 * (ky_e[:-1] + ky_e[1:])
    total = 0.0
    span_lo, span_hi = math.inf, -math.inf
    for i, kxi in enumerate(kx):
        lo, hi = max(xa0, kxi - xb1), min(xa1, kxi - xb0)
        if hi <= lo:
            continue
        xi1 = np.linspace(lo, hi, nx + 1)
        xi1 = 0.5 * (xi1[:-1] + xi1[1:])
        dx1 = (hi - lo) / nx
        xi2 = kxi - xi1
        for j, kyj in enumerate(ky):
            ey_lo, ey_hi = max(ya0, kyj - yb1), min(ya1, kyj - yb0)
            if ey_hi <= ey_lo:
                continue
            a = kxi / (xi1 * xi2)
            b = -2.0 * kyj / xi2
            c = (np.abs(xi1) ** alpha * xi1 + np.abs(xi2) ** alpha * xi2
                 + kyj ** 2 / xi2)
            ey = np.linspace(ey_lo, ey_hi, 9)
            phis = a[:, None] * ey[None, :] ** 2 + b[:, None] * ey[None, :] + c[:, None]
            wlo, whi = float(phis.min()), float(phis.max())
            span_lo, span_hi = min(span_lo, wlo), max(span_hi, whi)
            if whi <= wlo:
                continue
            wgrid = np.linspace(wlo, whi, nw)
            dw = (whi - wlo) / (nw - 1)
            disc = b[:, None] ** 2 - 4.0 * a[:, None] * (c[:, None] - wgrid[None, :])
            ok = disc > 0.0
            sq = np.sqrt(np.where(ok, disc, 1.0))
            g = np.zeros(nw)
            for sgn in (1.0, -1.0):
                eta1 = (-b[:, None] + sgn * sq) / (2.0 * a[:, None])
                inside = (ok & (eta1 >= ya0) & (eta1 <= ya1)
                          & (kyj - eta1 >= yb0) & (kyj - eta1 <= yb1))
                g += np.sum(np.where(inside, 1.0 / sq, 0.0), axis=0) * dx1
            cell = (kx_e[i + 1] - kx_e[i]) * (ky_e[j + 1] - ky_e[j])
            total += cell * float(np.sum(g ** 2)) * dw
    span = span_hi - span_lo if span_hi > span_lo else 0.0
    return math.sqrt(math.pi * amp2 * total), span


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

    @pytest.mark.parametrize("nk, value, span", [
        (12, 0.018686180010606266, 1065.0156210855348),
        (4, 0.018166292214260544, 1061.8509671785869)])
    def test_golden_values(self, nk, value, span):
        # captured from the nested-loop quadrature it replaced
        box_a, box_b = oracle_boxes()
        got, got_span = pr.coarea_product_norm(3.0, box_a, box_b, nk, 96, 64)
        assert got == pytest.approx(value, rel=1e-13, abs=0.0)
        assert got_span == pytest.approx(span, rel=1e-13, abs=0.0)

    def test_rows_equal_cell_loop(self, monkeypatch):
        # boxes of the canonical bilinear sweep, bit for bit
        calls = []
        fast = pr.coarea_product_norm

        def spy(*args):
            calls.append(args)
            return fast(*args)

        monkeypatch.setattr(pr, "coarea_product_norm", spy)
        for n1 in (8.0, 64.0):
            pr.bilinear_ratio(DispersionParams(2.5), n1, 2.0, trials=2)
        assert len(calls) == 4
        for args in calls:
            assert fast(*args) == loop_coarea_product_norm(*args)

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


LINEAR_GRID = FrequencyGrid(length_x=TWO_PI, length_y=TWO_PI, modes_x=512, modes_y=64)
LOWFREQ_GRID = FrequencyGrid(length_x=256.0 * math.pi, length_y=16.0 * math.pi,
                             modes_x=512, modes_y=64)


def canonical_strichartz_point():
    """The first band (n = 8) of the CLI's canonical linear Strichartz row."""
    return DispersionParams(2.5), pr.band_bump_field(LINEAR_GRID, 8.0, 16.0, 2.0)


def mesh_band_bump_half(grid, xi_lo, xi_hi, eta_sigma):
    """band_bump_field's profile evaluated on full (modes_x, modes_y) meshes."""
    xi, eta = np.meshgrid(grid.xi, grid.eta, indexing="ij")
    xi = np.abs(xi)
    center = 0.5 * (xi_lo + xi_hi)
    sigma = 0.25 * (xi_hi - xi_lo)
    bump = np.exp(-0.5 * ((xi - center) / sigma) ** 2 - 0.5 * (eta / eta_sigma) ** 2)
    bump *= (xi >= xi_lo) & (xi <= xi_hi)
    return SpectralField(grid, bump).half


class TestBandBump:
    # the canonical linear bands (n = 128 reaches the Nyquist row) and the
    # canonical low-frequency bands
    @pytest.mark.parametrize("grid, n", [(LINEAR_GRID, 2.0 ** k) for k in range(3, 8)]
                             + [(LOWFREQ_GRID, 2.0 ** -k) for k in range(1, 7)])
    def test_matches_mesh_construction_bitwise(self, grid, n):
        got = pr.band_bump_field(grid, n, 2.0 * n, 2.0).half
        assert got.tobytes() == mesh_band_bump_half(grid, n, 2.0 * n, 2.0).tobytes()


class TestLinearStrichartz:
    def test_golden_canonical_point(self):
        # captured when every snapshot was propagated from t = 0 in one shot
        p, u0 = canonical_strichartz_point()
        rec = pr.linear_strichartz_ratio(p, MixedNormSpec(4.0, 4.0), u0,
                                         T=1.0, snapshots=128)
        assert rec.measured == pytest.approx(0.7009742037269251, rel=1e-12, abs=0.0)
        assert rec.comparator == pytest.approx(0.7974210416378513, rel=1e-12, abs=0.0)

    def test_trajectory_is_streamed(self):
        # one snapshot alive at a time: the peak was 133 half fields when the
        # trajectory was a list
        p, u0 = canonical_strichartz_point()
        spec = MixedNormSpec(4.0, 4.0)
        tracemalloc.start()
        try:
            pr.linear_strichartz_ratio(p, spec, u0, T=1.0, snapshots=128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * u0.half.nbytes

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
        sweep = pr.ProbeSweep((2.0, 4.0, 8.0, 16.0),
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


def mesh_scaling_norm_pair(params, idx, lam, grid):
    """scaling_norm_pair's lattice and analytic norms on full meshgrids."""
    alpha = params.alpha
    m = (alpha + 2.0) / 2.0
    pref = lam ** (-alpha) * lam ** (1.0 + m)
    xi, eta = np.meshgrid(grid.xi, grid.eta, indexing="ij")
    sx = lam * xi
    sy = lam ** m * eta
    prof = pref * 1j * sx * np.exp(-0.5 * (sx ** 2 + sy ** 2))
    power = (np.abs(prof) ** 2
             * np.where(xi != 0.0, np.abs(xi), 1.0) ** (2.0 * idx.s1)
             * np.where(eta != 0.0, np.abs(eta), 1.0) ** (2.0 * idx.s2))
    power[xi == 0.0] *= 0.0 if idx.s1 != 0.0 else 1.0
    if idx.s2 != 0.0:
        power[eta == 0.0] = 0.0
    lattice = math.sqrt(float(np.sum(power)) * (2.0 * math.pi) ** 2
                        / (grid.length_x * grid.length_y))
    ix = math.gamma(idx.s1 + 1.5) * lam ** (2.0 - (2.0 * idx.s1 + 3.0))
    iy = math.gamma(idx.s2 + 0.5) * lam ** (-m * (2.0 * idx.s2 + 1.0))
    return lattice, pref * math.sqrt(ix * iy)


class TestScalingFit:
    LAMBDAS = (0.5, 2.0 ** -0.5, 1.0, 2.0 ** 0.5, 2.0)
    GRID = FrequencyGrid(length_x=64.0 * math.pi, length_y=64.0 * math.pi,
                         modes_x=512, modes_y=1024)

    def test_identity_scale_matches_gaussian_closed_form(self):
        lattice, analytic = pr.scaling_norm_pair(P3, AnisoIndex(0.0, 0.0), 1.0,
                                                 self.GRID)
        assert analytic == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
        assert lattice == pytest.approx(analytic, rel=1e-6)

    @pytest.mark.parametrize("s1, s2", [(0.0, 0.0), (0.5, 0.25), (-0.5, 0.0)])
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_matches_mesh_form_bitwise(self, s1, s2, lam):
        idx = AnisoIndex(s1, s2)
        assert (pr.scaling_norm_pair(P3, idx, lam, self.GRID)
                == mesh_scaling_norm_pair(P3, idx, lam, self.GRID))

    def test_builds_no_coordinate_mesh(self):
        # a full xi/eta mesh pair adds four real arrays; the mesh form peaks at 9.2
        real_full = 8 * self.GRID.modes_x * self.GRID.modes_y
        tracemalloc.start()
        try:
            pr.scaling_norm_pair(P3, AnisoIndex(0.5, 0.25), 2.0, self.GRID)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * real_full

    def test_fitted_slope_hits_target(self):
        rec, norms = pr.scaling_exponent_fit(P3, AnisoIndex(0.0, 0.0),
                                             self.LAMBDAS, self.GRID)
        assert rec.passed
        assert rec.comparator == pytest.approx(-1.25)
        assert rec.inputs["target"] == rec.comparator
        assert rec.inputs["band_lo"] == rec.comparator - 0.02
        assert rec.inputs["band_hi"] == rec.comparator + 0.02
        assert rec.inputs["sweep_variable"] == "lambda"
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
            assert rec.passed
            assert 0.25 <= rec.inputs["data_norm_1"] <= 4.0
            assert 0.25 <= rec.inputs["data_norm_2"] <= 4.0
            assert rec.comparator == rec.inputs["data_norm_1"] * rec.inputs["data_norm_2"]
            assert (rec.inputs["band_lo"], rec.inputs["band_hi"]) == (0.25, 4.0)
        summary = recs[-1]
        assert summary.probe_name == "illposedness_growth_slope"
        assert summary.comparator == pytest.approx(1.75 - 0.75 * 2.5 - 0.15)
        assert summary.inputs["target"] == summary.comparator
        assert summary.inputs["sweep_variable"] == "N"

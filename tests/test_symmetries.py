"""The equation's symmetries as oracles for the solver's march.

If u solves u_t = |D_x|^alpha u_x + dx^{-1} dyy u + u u_x on the box
(Lx, Ly), then

    v(t, x, y) = lam^alpha u(lam^(alpha+1) t, lam x, lam^((alpha+2)/2) y)

solves it on (Lx / lam, Ly / lam^((alpha+2)/2)), and the discrete solver
inherits the relation: with dt and T divided by lam^(alpha+1), omega, the
Burgers multiplier and the cell area all scale by powers of lam.  On the
same mode counts the grid points correspond one to one, so v's samples are
lam^alpha times u's at the matching time.  When every factor is a power of
two the two marches do the same arithmetic up to exact binary scalings, and
the relation holds bit for bit; otherwise it holds to round-off.  The free
flow inherits the same relation, and so the Strichartz ratio, whose
|D_x|^{-gamma} weight makes it scale-invariant, takes one value on both
boxes.

The symbol is even in eta and the nonlinearity has no y-derivative, so
u(t, x, -y) solves the equation whenever u does.
"""

import math

import numpy as np
import pytest

from fkpi_lab import evolution as ev
from fkpi_lab import probes
from fkpi_lab.grid import FrequencyGrid, to_physical, to_spectral
from fkpi_lab.norms import MixedNormSpec
from fkpi_lab.symbols import DispersionParams

# a box with Lx != Ly, so that swapped frequency axes break the relation
LX, LY = 2.0 * math.pi, 4.0 * math.pi
MODES = 64
STEPS = 50
DT = 2e-3
AMPLITUDE = 0.5


def samples():
    """Zero x-mean samples indexed by grid point, the same on every box."""
    x = 2.0 * math.pi * np.arange(MODES)[:, None] / MODES
    y = 2.0 * math.pi * np.arange(MODES)[None, :] / MODES
    return AMPLITUDE * (np.sin(x) * np.cos(y) + 0.6 * np.cos(2.0 * x + y))


def boxes(alpha, lam):
    """(grid, sample factor lam^alpha, time factor lam^(alpha+1)) of the
    original box and of the rescaled one."""
    return ((FrequencyGrid(LX, LY, MODES, MODES), 1.0, 1.0),
            (FrequencyGrid(LX / lam, LY / lam ** ((alpha + 2.0) / 2.0), MODES, MODES),
             lam ** alpha, lam ** (alpha + 1.0)))


def final_samples(alpha, lam, scheme):
    """Physical samples at T of the original run and of the rescaled one,
    the latter divided by lam^alpha."""
    params = DispersionParams(alpha)
    out = []
    for grid, amp, tf in boxes(alpha, lam):
        cfg = ev.EvolutionConfig(dt=DT / tf, T=STEPS * DT / tf, scheme=scheme,
                                 snapshot_stride=STEPS)
        u0 = to_spectral(amp * samples(), grid)
        traj = ev.solve(params, u0, cfg)
        assert traj.times[-1] == STEPS * cfg.dt
        out.append(to_physical(traj.fields[-1]) / amp)
    return out


# every factor lam^alpha, lam^(alpha+1), lam^((alpha+2)/2) a power of two:
# alpha = 2.5, lam = 16 gives 1024, 16384, 512; alpha = 2, lam = 2 gives 4, 8, 4
DYADIC = [(2.5, 16.0), (2.5, 1.0 / 16.0), (2.0, 2.0), (2.0, 0.5)]
# a non-dyadic y factor (2^2.5 and 2^-4.5), and every factor non-dyadic
NON_DYADIC = [(3.0, 2.0), (2.5, 0.25), (2.5, 3.0)]


@pytest.mark.parametrize("scheme", ev.SCHEMES)
@pytest.mark.parametrize("alpha, lam", DYADIC)
def test_dyadic_rescaling_is_bitwise(alpha, lam, scheme):
    u, v = final_samples(alpha, lam, scheme)
    # the nonlinearity has acted: the state is percents away from the free flow
    grid = FrequencyGrid(LX, LY, MODES, MODES)
    free = to_physical(ev.propagate_linear(DispersionParams(alpha),
                                           to_spectral(samples(), grid),
                                           STEPS * DT))
    assert np.max(np.abs(u - free)) > 0.01 * np.max(np.abs(u))
    assert np.array_equal(u, v)


@pytest.mark.parametrize("scheme", ev.SCHEMES)
@pytest.mark.parametrize("alpha, lam", NON_DYADIC)
def test_rescaling_holds_to_round_off(alpha, lam, scheme):
    u, v = final_samples(alpha, lam, scheme)
    assert np.max(np.abs(u - v)) <= 1e-13 * np.max(np.abs(u))


def free_samples(alpha, lam):
    """propagate_linear's samples at T on both boxes, as final_samples."""
    params = DispersionParams(alpha)
    return [to_physical(ev.propagate_linear(params, to_spectral(amp * samples(), grid),
                                            STEPS * DT / tf)) / amp
            for grid, amp, tf in boxes(alpha, lam)]


# (2.5, 16) and (2, 2); then (3, 2) and (2.5, 3)
@pytest.mark.parametrize("alpha, lam", DYADIC[::2])
def test_free_flow_dyadic_rescaling_is_bitwise(alpha, lam):
    assert np.array_equal(*free_samples(alpha, lam))


@pytest.mark.parametrize("alpha, lam", NON_DYADIC[::2])
def test_free_flow_rescaling_holds_to_round_off(alpha, lam):
    u, v = free_samples(alpha, lam)
    assert np.max(np.abs(u - v)) <= 1e-13 * np.max(np.abs(u))


STRICHARTZ = [(2.5, 16.0), (2.0, 2.0), (3.0, 2.0), (2.5, 3.0)]


def strichartz_gap(alpha, lam):
    """Relative gap between linear_strichartz_ratio (q = r = 4, 32 snapshots)
    on the original box and on the rescaled one."""
    params = DispersionParams(alpha)
    ratios = [probes.linear_strichartz_ratio(
                  params, MixedNormSpec(4.0, 4.0), to_spectral(amp * samples(), grid),
                  T=STEPS * DT / tf, snapshots=32).ratio
              for grid, amp, tf in boxes(alpha, lam)]
    return abs(ratios[1] - ratios[0]) / ratios[0]


@pytest.mark.parametrize("alpha, lam", STRICHARTZ)
def test_strichartz_ratio_is_scale_invariant(alpha, lam):
    assert strichartz_gap(alpha, lam) <= 1e-13


def test_strichartz_invariance_needs_the_smoothing_weight(monkeypatch):
    # without |D_x|^{-gamma} the ratio scales like lam^gamma: 15.9% off at
    # alpha = 2.5, lam = 16 and 4.2% at lam = 2; at alpha = 2, gamma = 0
    monkeypatch.setattr(probes, "fractional_x_derivative", lambda field, s: field)
    assert strichartz_gap(2.5, 16.0) > 0.1
    assert strichartz_gap(2.5, 2.0) > 0.03
    assert strichartz_gap(2.0, 2.0) <= 1e-13


def reflect_y(a):
    """a[:, -j mod modes_y]: the samples of u(x, -y)."""
    return np.roll(np.flip(a, axis=1), 1, axis=1)


@pytest.mark.parametrize("scheme", ev.SCHEMES)
@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0])
def test_y_reflection(alpha, scheme):
    params = DispersionParams(alpha)
    grid = FrequencyGrid(LX, LY, MODES, MODES)
    cfg = ev.EvolutionConfig(dt=DT, T=STEPS * DT, scheme=scheme, snapshot_stride=STEPS)
    u, v = (to_physical(ev.solve(params, to_spectral(a, grid), cfg).fields[-1])
            for a in (samples(), reflect_y(samples())))
    # the data are not themselves symmetric in y
    assert np.max(np.abs(reflect_y(samples()) - samples())) > 0.1
    assert np.max(np.abs(reflect_y(u) - v)) <= 1e-13 * np.max(np.abs(u))

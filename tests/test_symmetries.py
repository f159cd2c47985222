"""The equation's scaling symmetry as an oracle for the solver's march.

If u solves u_t = |D_x|^alpha u_x + dx^{-1} dyy u + u u_x on the box
(Lx, Ly), then

    v(t, x, y) = lam^alpha u(lam^(alpha+1) t, lam x, lam^((alpha+2)/2) y)

solves it on (Lx / lam, Ly / lam^((alpha+2)/2)), and the discrete solver
inherits the relation: with dt and T divided by lam^(alpha+1), omega, the
Burgers multiplier and the cell area all scale by powers of lam.  On the
same mode counts the grid points correspond one to one, so v's samples are
lam^alpha times u's at the matching time.  When every factor is a power of
two the two marches do the same arithmetic up to exact binary scalings, and
the relation holds bit for bit; otherwise it holds to round-off.
"""

import math

import numpy as np
import pytest

from fkpi_lab import evolution as ev
from fkpi_lab.grid import FrequencyGrid, to_physical, to_spectral
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


def final_samples(alpha, lam, scheme):
    """Physical samples at T of the original run and of the rescaled one,
    the latter divided by lam^alpha."""
    params = DispersionParams(alpha)
    time_factor = lam ** (alpha + 1.0)
    y_factor = lam ** ((alpha + 2.0) / 2.0)
    out = []
    for grid, amp, tf in (
            (FrequencyGrid(LX, LY, MODES, MODES), 1.0, 1.0),
            (FrequencyGrid(LX / lam, LY / y_factor, MODES, MODES), lam ** alpha,
             time_factor)):
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

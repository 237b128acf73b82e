"""Compact bump density, single-mode velocity, and state construction."""

import numpy as np
import pytest

from vacflow.fields import Grid, ScalarField
from vacflow.initial_data import (
    bump_density,
    reform_state_from_density,
    velocity_modes,
)
from vacflow.params import validate_params


def test_bump_peaks_at_amplitude_on_a_grid_node():
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    rho = bump_density(g, amplitude=0.5, width=0.8)
    assert float(rho.values.max()) == 0.5
    assert float(rho.values.min()) == 0.0


def test_bump_is_exactly_zero_outside_its_support():
    g = Grid(dim=1, n=128, box_length=2.0 * np.pi)
    width = 0.8
    rho = bump_density(g, amplitude=0.5, width=width)
    x = g.coordinates[0]
    outside = np.abs(x - np.pi) >= width
    assert np.all(rho.values[outside] == 0.0)
    inside = np.abs(x - np.pi) < width
    assert np.all(rho.values[inside] > 0.0)


def test_bump_background_lifts_the_floor():
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    rho = bump_density(g, amplitude=0.3, width=0.8, background=1.0)
    assert float(rho.values.min()) == 1.0
    assert float(rho.values.max()) == pytest.approx(1.3)


def test_bump_wraps_periodically_around_the_seam():
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    rho = bump_density(g, amplitude=0.5, width=0.8, center=(0.0,))
    vals = rho.values
    # mirror symmetry across the seam: x = h and x = L - h see the same s
    assert vals[1] == pytest.approx(vals[-1], rel=1e-14)
    assert vals[0] == 0.5


def test_bump_multidimensional_support_is_a_ball():
    g = Grid(dim=2, n=32, box_length=2.0 * np.pi)
    rho = bump_density(g, amplitude=1.0, width=1.0)
    x, y = g.coordinates
    r2 = (x - np.pi) ** 2 + (y - np.pi) ** 2
    assert np.all(rho.values[r2 >= 1.0] == 0.0)
    assert np.all(rho.values[r2 < 1.0] > 0.0)


def test_bump_validation():
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    with pytest.raises(ValueError, match="amplitude"):
        bump_density(g, amplitude=-0.1, width=0.5)
    with pytest.raises(ValueError, match="background"):
        bump_density(g, amplitude=0.1, width=0.5, background=-1.0)
    with pytest.raises(ValueError, match="width"):
        bump_density(g, amplitude=0.1, width=0.0)
    with pytest.raises(ValueError, match="width"):
        bump_density(g, amplitude=0.1, width=2.0)  # beyond L/4
    with pytest.raises(ValueError, match="center"):
        bump_density(g, amplitude=0.1, width=0.5, center=(1.0, 2.0))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="center must be finite"):
            bump_density(g, amplitude=0.1, width=0.5, center=(bad,) * g.dim)
        with pytest.raises(ValueError,
                           match="amplitude must be nonnegative and finite"):
            bump_density(g, amplitude=bad, width=0.5)
        with pytest.raises(ValueError,
                           match="background must be nonnegative and finite"):
            bump_density(g, amplitude=0.1, width=0.5, background=bad)


def test_velocity_modes_analytic_values():
    g = Grid(dim=2, n=32, box_length=2.0 * np.pi)
    u = velocity_modes(g, amplitude=0.25, mode=2)
    x, y = g.coordinates
    assert np.max(np.abs(u.values[0] - 0.25 * np.sin(2.0 * x))) < 1e-14
    assert np.max(np.abs(u.values[1] - 0.25 * np.sin(2.0 * y))) < 1e-14


def test_velocity_modes_degenerate_cases():
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    assert not velocity_modes(g, amplitude=0.0, mode=3).values.any()
    assert not velocity_modes(g, amplitude=0.5, mode=0).values.any()
    with pytest.raises(ValueError, match="mode"):
        velocity_modes(g, amplitude=0.5, mode=-1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            velocity_modes(g, amplitude=bad, mode=0)


def test_reform_state_builds_consistent_proxies():
    p = validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-0.1,
                        delta1=1.5, delta2=2.5)
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    rho = bump_density(g, amplitude=0.5, width=0.8, background=0.1)
    u = velocity_modes(g, amplitude=0.1)
    st = reform_state_from_density(rho, u, p)
    assert np.max(np.abs(st.vphi.values - rho.values**0.25)) < 1e-14
    assert np.max(np.abs(st.phi.values - rho.values**0.5)) < 1e-14
    assert st.u is u


def test_reform_state_rejects_bad_inputs():
    p = validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-0.1,
                        delta1=1.5, delta2=2.5)
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    g2 = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    rho = bump_density(g, amplitude=0.5, width=0.8)
    with pytest.raises(ValueError, match="grids"):
        reform_state_from_density(rho, velocity_modes(g2, 0.1), p)
    with pytest.raises(ValueError, match="nonnegative"):
        reform_state_from_density(ScalarField(g, np.full(32, -0.1)),
                                  velocity_modes(g, 0.1), p)

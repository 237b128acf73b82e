"""Primitive-variable oracle, manufactured cases, and order studies."""

import math

import numpy as np
import pytest

from vacflow.fields import Grid, ScalarField, VectorField
from vacflow.initial_data import bump_density
from vacflow.linearized import FrozenCoefficients, SolverAbort, solve_linearized
from vacflow.operators import ReformState
from vacflow.oracle import (
    ManufacturedCase,
    acoustic_dispersion,
    advection_temporal_study,
    cross_compare,
    default_case,
    observed_orders,
    oracle_mass_drift,
    oracle_mms_error,
    oracle_temporal_study,
    primitive_solve,
    reform_mms_error,
    reform_spatial_errors,
    reform_temporal_study,
    soft_viscosity_params,
)
from vacflow.params import validate_params

L = 2.0 * math.pi


def stiff_params():
    return validate_params(A=1.0, gamma=3.0, alpha=1.0, beta=0.5,
                           delta1=3.0, delta2=6.0)


def smooth_positive(n=64):
    g = Grid(dim=1, n=n, box_length=L)
    x = g.coordinates[0]
    rho = ScalarField(g, 1.0 + 0.2 * np.cos(x))
    u = VectorField(g, (0.05 * np.sin(x))[None, :])
    return rho, u


# -- primitive solver basics --------------------------------------------------


def test_constant_state_is_exactly_stationary():
    g = Grid(dim=1, n=32, box_length=L)
    rho0 = ScalarField(g, np.full(g.shape, 1.0))
    u0 = VectorField(g, np.zeros((1,) + g.shape))
    traj = primitive_solve(rho0, u0, stiff_params(), 0.05)
    assert float(np.max(np.abs(traj.final.rho.values - 1.0))) <= 1e-12
    assert float(np.max(np.abs(traj.final.u.values))) <= 1e-12


def test_oracle_refuses_vacuum_data():
    g = Grid(dim=1, n=64, box_length=L)
    rho0 = bump_density(g, 0.5, 0.8)
    u0 = VectorField(g, np.zeros((1,) + g.shape))
    with pytest.raises(ValueError, match="min rho"):
        primitive_solve(rho0, u0, stiff_params(), 0.01)


def test_oracle_rejects_grid_mismatch():
    g = Grid(dim=1, n=64, box_length=L)
    other = Grid(dim=1, n=32, box_length=L)
    rho0 = ScalarField(g, np.full(g.shape, 1.0))
    u0 = VectorField(other, np.zeros((1,) + other.shape))
    with pytest.raises(ValueError, match="grids disagree"):
        primitive_solve(rho0, u0, stiff_params(), 0.01)


def test_oracle_mass_drift_at_roundoff():
    rho0, u0 = smooth_positive()
    traj = primitive_solve(rho0, u0, stiff_params(), 0.02)
    # measured 2.8e-16: the continuity update is a pure derivative, so the
    # mean mode never moves
    assert oracle_mass_drift(traj) <= 1e-13


def test_oracle_sampling_times_with_fixed_dt():
    g = Grid(dim=1, n=32, box_length=L)
    rho0 = ScalarField(g, np.full(g.shape, 1.0))
    u0 = VectorField(g, np.zeros((1,) + g.shape))
    traj = primitive_solve(rho0, u0, stiff_params(), 0.08, dt=0.005,
                           sample_dt=0.02)
    assert traj.times == pytest.approx([0.0, 0.02, 0.04, 0.06, 0.08],
                                       abs=1e-12)
    assert len(traj.states) == 5
    assert traj.final is traj.states[-1]


def test_both_solvers_sample_the_same_times():
    rho0, u0 = smooth_positive(n=16)
    p = stiff_params()
    g = rho0.grid
    t_window, sample_dt = 0.01, 0.01 / 3
    init = ReformState(
        ScalarField(g, rho0.values ** (0.5 * (p.delta1 - 1.0))),
        ScalarField(g, rho0.values ** (0.5 * (p.gamma - 1.0))), u0)
    coeffs = FrozenCoefficients.from_state(init, init.vphi, 0.0, t_window,
                                           dt=0.003, sample_dt=sample_dt)
    reform = solve_linearized(init, coeffs, p)
    oracle = primitive_solve(rho0, u0, p, t_window, dt=0.002,
                             sample_dt=sample_dt)
    assert reform.times == oracle.times


def test_oracle_aborts_when_density_leaves_regime():
    g = Grid(dim=1, n=32, box_length=L)
    rho0 = ScalarField(g, np.full(g.shape, 1.2e-8))
    u0 = VectorField(g, np.zeros((1,) + g.shape))

    def drain(t):
        return np.full(g.shape, -5e-8), np.zeros((1,) + g.shape)

    with pytest.raises(SolverAbort, match="oracle regime"):
        primitive_solve(rho0, u0, stiff_params(), 1.0, forcing=drain)


# -- manufactured cases -------------------------------------------------------


def test_manufactured_fields_avoid_vacuum():
    with pytest.raises(ValueError, match="below the base"):
        default_case(amp_rho=1.0)


def test_manufactured_time_derivatives_match_finite_differences():
    case = default_case(Grid(dim=2, n=16, box_length=L), amp_u=0.15)
    h = 1e-5
    t = 0.37
    pairs = [(case.rho, case.drho_dt), (case.u, case.du_dt),
             (case.vphi, case.dvphi_dt), (case.phi, case.dphi_dt)]
    for f, df in pairs:
        fd = (f(t + h) - f(t - h)) / (2.0 * h)
        assert float(np.max(np.abs(fd - df(t)))) <= 1e-8


def test_forced_run_sits_on_the_exact_solution():
    case = default_case(Grid(dim=1, n=64, box_length=L))
    assert reform_mms_error(case, 2e-4, 0.004) <= 1e-12
    soft = default_case(Grid(dim=1, n=64, box_length=L),
                        soft_viscosity_params())
    assert oracle_mms_error(soft, 2e-4, 0.004) <= 1e-13


# -- order studies ------------------------------------------------------------


def test_reform_temporal_order_three():
    case = default_case(Grid(dim=1, n=64, box_length=L))
    T = 0.02
    study = reform_temporal_study(case, [T / 4, T / 8, T / 16], T)
    assert study.monotone
    for p in study.orders:
        assert 2.8 < p < 3.2


def test_oracle_temporal_order_four():
    case = default_case(Grid(dim=1, n=64, box_length=L),
                        soft_viscosity_params())
    T = 0.02
    study = oracle_temporal_study(case, [T / 2, T / 4, T / 8], T)
    assert study.monotone
    for p in study.orders:
        assert 3.7 < p < 4.3


def test_advection_temporal_order_three():
    study = advection_temporal_study(Grid(dim=1, n=64, box_length=L),
                                     [0.05, 0.025, 0.0125], 0.5)
    assert study.monotone
    for p in study.orders:
        assert 2.8 < p < 3.2


def test_spatial_errors_sit_at_the_time_floor():
    errs = reform_spatial_errors([16, 32, 64], 2e-4, 0.004)
    # band-limited exact fields: refining the grid changes nothing
    assert max(errs) <= 1e-12
    assert max(errs) / min(errs) < 1.5


def test_observed_orders_flags_degenerate_pairs():
    flat = observed_orders([0.1, 0.05], [1e-3, 1e-3], "flat")
    assert flat.orders == (0.0,)
    assert not flat.monotone
    hit_zero = observed_orders([0.1, 0.05], [1e-3, 0.0], "zero")
    assert math.isnan(hit_zero.orders[0])
    with pytest.raises(ValueError, match="at least two"):
        observed_orders([0.1], [1e-3], "short")
    with pytest.raises(ValueError, match="at least two"):
        observed_orders([0.1, 0.05], [1e-3], "ragged")


# -- dispersion and cross comparison ------------------------------------------


def test_acoustic_dispersion_matches_prediction():
    report = acoustic_dispersion(soft_viscosity_params())
    # measured 3.2e-10 relative
    assert report.rel_error <= 1e-8
    assert report.crossings >= 4


def test_dispersion_rejects_overdamped_mode():
    heavy = validate_params(A=1.0, gamma=3.0, alpha=50.0, beta=25.0,
                            delta1=3.0, delta2=6.0)
    with pytest.raises(ValueError, match="overdamped"):
        acoustic_dispersion(heavy)


def test_cross_compare_agrees_on_smooth_data():
    rho0, u0 = smooth_positive()
    report = cross_compare(rho0, u0, stiff_params(), 0.01,
                           sample_dt=0.01 / 8)
    assert report.picard_converged
    assert report.picard_iterations <= 10
    assert len(report.times) == 9
    # measured 5.7e-9 at this size and window
    assert report.sup_distance <= 1e-7
    assert report.distances[0] <= 1e-12


def test_cross_compare_refuses_vacuum():
    g = Grid(dim=1, n=64, box_length=L)
    rho0 = bump_density(g, 0.5, 0.8)
    u0 = VectorField(g, np.zeros((1,) + g.shape))
    with pytest.raises(ValueError, match="min rho"):
        cross_compare(rho0, u0, stiff_params(), 0.01)

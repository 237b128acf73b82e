"""Ledger, validity verdict, vacuum clause, conservation, reconstruction,
characteristic tracing, and nonlinear residuals."""

import csv
import math

import numpy as np
import pytest

from vacflow.diagnostics import (
    SEAM_FRACTION,
    _nonuniform_derivative,
    characteristics_check,
    conservation,
    density_of,
    horizon_times,
    ledger,
    nonlinear_residual,
    reconstruct_primitive,
    reform_rhs,
    vacuum_residual,
    validity,
    write_characteristics_csv,
    write_ledger_csv,
)
from vacflow.fields import Grid, ScalarField, VectorField
from vacflow.fixedpoint import picard_solve
from vacflow.initial_data import bump_density, reform_state_from_density
from vacflow.operators import ReformState, stable_power
from vacflow.params import validate_params

from stacking import stacked


def soft_params():
    return validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-0.1,
                           delta1=1.5, delta2=2.5)


def state_from_density(grid, rho, u_values, params, t=0.0):
    return ReformState(
        vphi=ScalarField(grid, stable_power(rho, 0.5 * (params.delta1 - 1.0))),
        phi=ScalarField(grid, stable_power(rho, 0.5 * (params.gamma - 1.0))),
        u=VectorField(grid, u_values),
        time=t,
    )


def static_trajectory(state, times):
    return stacked([state] * len(times), [float(t) for t in times])


def zero_trajectory(n=16, times=(0.0, 0.5, 1.0)):
    g = Grid(dim=1, n=n, box_length=2.0 * np.pi)
    z = ReformState(
        vphi=ScalarField(g, np.zeros(n)),
        phi=ScalarField(g, np.zeros(n)),
        u=VectorField(g, np.zeros((1, n))),
    )
    return static_trajectory(z, times)


def test_nonuniform_derivative_exact_on_quadratics():
    times = np.array([0.0, 0.3, 0.7, 1.0])
    stack = np.stack([1.0 + 2.0 * t + 3.0 * t**2 * np.ones(4) for t in times])
    got = _nonuniform_derivative(stack, times)
    want = np.stack([(2.0 + 6.0 * t) * np.ones(4) for t in times])
    assert np.max(np.abs(got - want)) < 1e-12
    with pytest.raises(ValueError, match="three samples"):
        _nonuniform_derivative(stack[:2], times[:2])


def test_density_roundtrip_through_the_proxy():
    p = soft_params()
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    rho = 0.4 + 0.3 * np.cos(g.coordinates[0])
    st = state_from_density(g, rho, np.zeros((1, 32)), p)
    assert np.max(np.abs(density_of(st.vphi.values, p) - rho)) < 1e-13


def test_horizon_ladder_hand_values():
    # c3 = 1 makes every power of (1 + c3) a plain power of two
    assert horizon_times(1.0, 1.0, 1.5) == (0.25, 2.0**-8, 2.0**-10, 2.0**-10)
    assert horizon_times(1.0, 1.0, 2.0) == (0.25, 2.0**-10, 2.0**-12, 2.0**-12)
    # short trajectories truncate every level
    assert horizon_times(0.01, 1.0, 1.5) == (0.01, 2.0**-8, 2.0**-10, 2.0**-10)
    # zero c3 leaves nothing to shrink
    assert horizon_times(0.5, 0.0, 2.0) == (0.5, 0.5, 0.5, 0.5)


def test_ledger_zero_data_has_unit_constant_and_full_horizons():
    p = soft_params()  # m = 2
    led = ledger(zero_trajectory(), p)
    assert led.c0 == 1.0
    assert led.c_levels == (1.0, 1.0, 1.0)
    assert led.horizons == (0.25, 2.0**-10, 2.0**-12, 2.0**-12)
    assert led.t_star_star == 2.0**-12
    assert led.level_ok.all()
    assert led.first_crossing is None
    assert np.all(led.weighted_integrals == 0.0)


def test_ledger_first_row_is_always_inside_threshold():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    rho = 0.5 + 0.3 * np.cos(x)
    st = state_from_density(g, rho, 0.2 * np.sin(x)[None, :], p)
    led = ledger(static_trajectory(st, [0.0, 0.001]), p)
    assert led.level_ok[0].all()
    assert led.c0 > 1.0
    with pytest.raises(ValueError, match="calib_C"):
        ledger(static_trajectory(st, [0.0, 0.001]), p, calib_C=0.5)


def test_ledger_trapezoid_integral_converges_second_order():
    # u grows like 1 + t^2, so the weighted seminorm squared integrates to
    # (28/15) of its t = 0 value over [0, 1]
    p = soft_params()
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    w = np.full(32, 0.5)

    def integral_error(nt):
        times = np.linspace(0.0, 1.0, nt)
        states = [
            ReformState(
                vphi=ScalarField(g, w),
                phi=ScalarField(g, np.zeros(32)),
                u=VectorField(g, ((1.0 + t**2) * np.sin(x))[None, :]),
                time=float(t),
            )
            for t in times
        ]
        led = ledger(stacked(states, times), p)
        got = led.weighted_integrals[-1]
        from vacflow.fields import weighted_seminorm
        w0 = np.array([
            weighted_seminorm(states[0].vphi, states[0].u, s + 1) ** 2
            for s in (1, 2, 3)
        ])
        exact = (28.0 / 15.0) * w0
        return np.max(np.abs(got - exact) / exact)

    e_coarse = integral_error(9)
    e_fine = integral_error(17)
    assert e_fine < e_coarse
    assert 3.2 < e_coarse / e_fine < 4.8


def test_validity_static_compact_bump_holds_to_the_end():
    p = soft_params()
    g = Grid(dim=1, n=128, box_length=2.0 * np.pi)
    rho = bump_density(g, amplitude=0.5, width=0.8)
    st = state_from_density(g, rho.values, np.zeros((1, 128)), p)
    traj = static_trajectory(st, [0.0, 0.05, 0.1])
    led = ledger(traj, p)
    verdict = validity(traj, led, p)
    assert verdict.t_valid == 0.1
    assert verdict.reasons == ("none",)
    assert verdict.margins is not None
    assert all(m >= SEAM_FRACTION * g.box_length for m in verdict.margins)
    assert all(verdict.ledger_ok)


def test_validity_flags_coefficient_regime_exit_at_start():
    p = validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-1.0,
                        delta1=1.5, delta2=2.5)
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    hot = np.full(32, 0.95)  # alpha + beta hot^4 < alpha/2
    st = ReformState(
        vphi=ScalarField(g, hot),
        phi=ScalarField(g, np.zeros(32)),
        u=VectorField(g, np.zeros((1, 32))),
    )
    traj = static_trajectory(st, [0.0, 0.1, 0.2])
    verdict = validity(traj, ledger(traj, p), p)
    assert verdict.t_valid == 0.0
    assert "coefficient" in verdict.reasons


def test_validity_flags_support_too_close_to_the_seam():
    p = soft_params()
    g = Grid(dim=1, n=128, box_length=2.0 * np.pi)
    wide = bump_density(g, amplitude=0.3, width=1.5)
    # shift the bump so its support edge sits a few cells from the seam,
    # close enough to break the L/8 buffer without wrapping around
    rolled = np.roll(wide.values, 28)
    st = state_from_density(g, rolled, np.zeros((1, 128)), p)
    traj = static_trajectory(st, [0.0, 0.1, 0.2])
    verdict = validity(traj, ledger(traj, p), p)
    assert "support" in verdict.reasons
    assert verdict.t_valid == 0.0


def test_vacuum_report_flags_a_vacuum_free_run():
    p = soft_params()
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    rho = 0.5 + 0.2 * np.cos(g.coordinates[0])
    st = state_from_density(g, rho, np.zeros((1, 32)), p)
    rep = vacuum_residual(static_trajectory(st, [0.0, 0.1, 0.2]), p)
    assert rep.no_vacuum
    assert rep.cell_count == 0
    assert rep.residual == 0.0


def test_vacuum_residual_measures_convective_stress_in_empty_cells():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    zero_rho = ReformState(
        vphi=ScalarField(g, np.zeros(64)),
        phi=ScalarField(g, np.zeros(64)),
        u=VectorField(g, np.sin(x)[None, :]),
    )
    traj = static_trajectory(zero_rho, [0.0, 0.1, 0.2])
    rep = vacuum_residual(traj, p)
    assert not rep.no_vacuum
    # static u means du/dt = 0, so the residual is max |u u_x| = 1/2
    assert rep.residual == pytest.approx(0.5, abs=1e-12)

    still = ReformState(
        vphi=ScalarField(g, np.zeros(64)),
        phi=ScalarField(g, np.zeros(64)),
        u=VectorField(g, np.full((1, 64), 0.7)),
    )
    rep = vacuum_residual(static_trajectory(still, [0.0, 0.1, 0.2]), p)
    assert rep.residual < 1e-12

    with pytest.raises(ValueError, match="three samples"):
        vacuum_residual(static_trajectory(still, [0.0, 0.1]), p)


def test_conservation_static_trajectory_has_zero_drift():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    rho = bump_density(g, amplitude=0.5, width=0.8)
    st = state_from_density(g, rho.values, 0.1 * np.ones((1, 64)), p)
    rep = conservation(static_trajectory(st, [0.0, 0.1, 0.2]), p)
    assert rep.mass_drift == 0.0
    assert rep.momentum_drift == 0.0
    assert rep.mass[0] > 0.0


def test_conservation_detects_a_doubling():
    p = soft_params()
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    rho = 0.4 + 0.1 * np.cos(g.coordinates[0])
    a = state_from_density(g, rho, np.zeros((1, 32)), p, t=0.0)
    b = state_from_density(g, 2.0 * rho, np.zeros((1, 32)), p, t=1.0)
    rep = conservation(stacked([a, b], [0.0, 1.0]), p)
    assert rep.mass_drift == pytest.approx(1.0, rel=1e-12)


def test_reconstruction_gap_vanishes_when_the_proxies_coincide():
    p = validate_params(A=1.0, gamma=3.0, alpha=1.0, beta=0.5,
                        delta1=3.0, delta2=6.0)
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    rho = 0.3 + 0.2 * np.cos(g.coordinates[0])
    st = state_from_density(g, rho, np.zeros((1, 32)), p)
    prim, gap = reconstruct_primitive(st, p)
    assert gap == 0.0
    assert np.max(np.abs(prim.rho.values - rho)) < 1e-13


def test_reconstruction_gap_small_for_consistent_data():
    p = soft_params()
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    rho = 0.3 + 0.2 * np.cos(g.coordinates[0])
    st = state_from_density(g, rho, np.zeros((1, 32)), p)
    prim, gap = reconstruct_primitive(st, p)
    assert gap < 1e-12
    assert prim.time == 0.0


def test_characteristics_still_velocity_is_exact():
    p = soft_params()
    g = Grid(dim=1, n=128, box_length=2.0 * np.pi)
    rho = bump_density(g, amplitude=0.5, width=0.8)
    st = state_from_density(g, rho.values, np.zeros((1, 128)), p)
    traj = static_trajectory(st, [0.0, 0.05, 0.1])
    rep = characteristics_check(traj, p, n_particles=16, seed=1)
    assert rep.traced > 0
    assert rep.dropped == 0
    assert rep.max_rel_error < 1e-12
    assert rep.seam_buffer == SEAM_FRACTION * g.box_length


def test_characteristics_uniform_translation_small_error():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    c, T = 0.3, 0.7
    times = np.linspace(0.0, T, 9)
    states = [
        state_from_density(g, 0.5 + 0.2 * np.cos(x - c * t),
                           np.full((1, 64), c), p, t=float(t))
        for t in times
    ]
    traj = stacked(states, times)
    rep = characteristics_check(traj, p, n_particles=32, seed=5)
    assert rep.traced == 32
    assert rep.max_rel_error < 2e-3


def test_characteristics_agree_with_a_solved_run():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    rho = ScalarField(g, 0.5 + 0.2 * np.cos(x))
    u = VectorField(g, 0.2 * np.sin(x)[None, :])
    init = reform_state_from_density(rho, u, p)
    traj, trace = picard_solve(init, p, 0.0, 0.05, picard_tol=1e-12)
    assert trace.converged
    rep = characteristics_check(traj, p, n_particles=48, seed=3)
    assert rep.traced == 48
    assert rep.max_rel_error < 2e-3


def test_characteristics_seam_buffer_drops_and_empty_density():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    rho = 0.5 + 0.2 * np.cos(g.coordinates[0])
    st = state_from_density(g, rho, np.zeros((1, 64)), p)
    traj = static_trajectory(st, [0.0, 0.1])
    rep = characteristics_check(traj, p, n_particles=8, seed=2,
                                seam_buffer=10.0)
    assert rep.traced == 0
    assert rep.dropped == 8
    assert all(math.isnan(row.rel_error) for row in rep.particles)

    empty = ReformState(
        vphi=ScalarField(g, np.zeros(64)),
        phi=ScalarField(g, np.zeros(64)),
        u=VectorField(g, np.zeros((1, 64))),
    )
    rep = characteristics_check(static_trajectory(empty, [0.0, 0.1]), p)
    assert rep.traced == 0 and rep.dropped == 0
    with pytest.raises(ValueError, match="two samples"):
        characteristics_check(static_trajectory(st, [0.0]), p)


def test_residuals_vanish_on_a_constant_equilibrium():
    p = soft_params()
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    rho = np.full(32, 0.6)
    st = state_from_density(g, rho, np.zeros((1, 32)), p)
    rep = nonlinear_residual(static_trajectory(st, [0.0, 0.1, 0.2]), p)
    assert rep.reform_linf < 1e-13
    assert rep.primitive_linf < 1e-13


def test_residuals_catch_a_static_non_solution():
    # nonuniform density with zero velocity is not a solution: the pressure
    # gradient must show up in the momentum residual while the mass residual
    # stays zero
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    rho = 0.5 + 0.2 * np.cos(g.coordinates[0])
    st = state_from_density(g, rho, np.zeros((1, 64)), p)
    rep = nonlinear_residual(static_trajectory(st, [0.0, 0.1, 0.2]), p)
    assert rep.primitive_mass_l2 < 1e-13
    assert rep.primitive_momentum_l2 > 1e-3
    assert rep.reform_u_l2 > 1e-3
    with pytest.raises(ValueError, match="three samples"):
        nonlinear_residual(static_trajectory(st, [0.0, 0.1]), p)


def test_reform_rhs_still_state_is_stationary():
    p = soft_params()
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    st = state_from_density(g, np.full(32, 0.7), np.zeros((1, 32)), p)
    d_vphi, d_phi, d_u = reform_rhs(st, p, eta=0.0)
    assert np.max(np.abs(d_vphi)) < 1e-14
    assert np.max(np.abs(d_phi)) < 1e-14
    assert np.max(np.abs(d_u)) < 1e-14


def test_ledger_and_characteristics_csv_shapes(tmp_path):
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    rho = bump_density(g, amplitude=0.5, width=0.8)
    st = state_from_density(g, rho.values, np.zeros((1, 64)), p)
    traj = static_trajectory(st, [0.0, 0.05, 0.1])

    led_path = tmp_path / "ledger.csv"
    write_ledger_csv(ledger(traj, p), led_path)
    with open(led_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "time"
    assert rows[0][-3:] == ["ok1", "ok2", "ok3"]
    assert len(rows) == 4

    char_path = tmp_path / "chars.csv"
    write_characteristics_csv(
        characteristics_check(traj, p, n_particles=6, seed=4), char_path)
    with open(char_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["start", "dropped", "rel_error"]
    assert len(rows) == 7

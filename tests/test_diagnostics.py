"""Ledger, validity verdict, vacuum clause, conservation, reconstruction,
characteristic tracing, and nonlinear residuals."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
# st names a state in this module
from hypothesis import strategies as hst

import vacflow.diagnostics
from vacflow.diagnostics import (
    SEAM_FRACTION,
    VAC_EPS,
    ResidualReport,
    _sample_derivative,
    _seam_buffer,
    characteristics_check,
    conservation,
    density_of,
    horizon_times,
    initial_constant,
    ledger,
    nonlinear_residual,
    primitive_rates,
    reform_rhs,
    rk4_step,
    vacuum_residual,
    validity,
)
from vacflow.fields import Grid, ScalarField, VectorField, quadrature_l2, sobolev_norm
from vacflow.fixedpoint import picard_solve
from vacflow.initial_data import bump_density, reform_state_from_density
from vacflow.linearized import DEFAULT_SAMPLES_PER_WINDOW
from vacflow.operators import ReformState, advect, momentum_rhs_symmetric, stable_power
from vacflow.oracle import default_case, primitive_rhs
from vacflow.params import validate_params

from stacking import deriv, mapping_rss_kib, stacked, windowed


def soft_params():
    return validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-0.1,
                           delta1=1.5, delta2=2.5)


def state_from_density(grid, rho, u_values, params):
    return ReformState(
        vphi=ScalarField(grid, stable_power(rho, 0.5 * (params.delta1 - 1.0))),
        phi=ScalarField(grid, stable_power(rho, 0.5 * (params.gamma - 1.0))),
        u=VectorField(grid, u_values),
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
    for i, t in enumerate(times):
        got = _sample_derivative(stack.__getitem__, times, i)
        assert np.max(np.abs(got - (2.0 + 6.0 * t))) < 1e-12
    with pytest.raises(ValueError, match="three samples"):
        _sample_derivative(stack.__getitem__, times[:2], 0)


def whole_stack_derivative(stack, times):
    """The derivative of every sample at once, as the diagnostics computed
    it before they streamed it: the reference of the streamed routes."""
    out = np.empty_like(stack)
    for i in range(1, len(times) - 1):
        hl = times[i] - times[i - 1]
        hr = times[i + 1] - times[i]
        out[i] = (-hr / (hl * (hl + hr)) * stack[i - 1]
                  + (hr - hl) / (hl * hr) * stack[i]
                  + hl / (hr * (hl + hr)) * stack[i + 1])
    h0, h1 = times[1] - times[0], times[2] - times[1]
    out[0] = (-(2.0 * h0 + h1) / (h0 * (h0 + h1)) * stack[0]
              + (h0 + h1) / (h0 * h1) * stack[1]
              - h0 / (h1 * (h0 + h1)) * stack[2])
    hm, hmm = times[-1] - times[-2], times[-2] - times[-3]
    out[-1] = (hm / (hmm * (hm + hmm)) * stack[-3]
               - (hm + hmm) / (hmm * hm) * stack[-2]
               + (2.0 * hm + hmm) / (hm * (hm + hmm)) * stack[-1])
    return out


def whole_stack_residual(traj, p, eta, forcing):
    """nonlinear_residual from whole-window derivative stacks."""
    times = np.asarray(traj.times)
    g = traj.grid
    dvphi, dphi, du = (whole_stack_derivative(s, times)
                       for s in (traj.vphi, traj.phi, traj.u))
    rho_st = density_of(traj.vphi, p)
    mom_st = rho_st[:, None] * traj.u
    drho = whole_stack_derivative(rho_st, times)
    dmom = whole_stack_derivative(mom_st, times)
    rp = ru = rlinf = pm = pmom = plinf = 0.0
    for i in range(1, len(times) - 1):
        rhs = reform_rhs(traj.state(i), p, eta)
        f_vphi, f_phi, f_u = rhs[0], rhs[1], rhs[2:]
        rows = forcing(times[i])
        r1 = dvphi[i] - f_vphi - rows[0]
        r2 = dphi[i] - f_phi - rows[1]
        r3 = du[i] - f_u - rows[2:]
        rp = max(rp, quadrature_l2(g, r2))
        ru = max(ru, quadrature_l2(g, r3))
        rlinf = max(rlinf, float(np.abs(r1).max()), float(np.abs(r2).max()),
                    float(np.abs(r3).max()))
        rates_rho, rates_mom = primitive_rates(g, p, rho_st[i], mom_st[i], traj.u[i])
        r_mass, r_mom = drho[i] - rates_rho, dmom[i] - rates_mom
        pm = max(pm, quadrature_l2(g, r_mass))
        pmom = max(pmom, quadrature_l2(g, r_mom))
        plinf = max(plinf, float(np.abs(r_mass).max()), float(np.abs(r_mom).max()))
    return ResidualReport(rp, ru, rlinf, pm, pmom, plinf)


def test_streamed_derivatives_equal_the_whole_stack_references_bit_for_bit():
    # uneven samples with a shorter last interval, vacuum cells and a
    # momentum forcing: ledger, vacuum_residual and nonlinear_residual read
    # their time derivatives per sample and must match the whole-window
    # stacks exactly
    p = soft_params()
    g = Grid(dim=2, n=16, box_length=2.0 * np.pi)
    times = [0.0, 0.1, 0.25, 0.3, 0.32]
    rng = np.random.default_rng(11)
    states = []
    for t in times:
        rho = np.clip(0.5 + 0.3 * rng.standard_normal(g.shape), 0.0, None)
        states.append(state_from_density(g, rho, 0.1 * rng.standard_normal((2,) + g.shape),
                                         p))
    traj = stacked(states, times)
    stamp = np.asarray(times)

    def forcing(t):
        """Rows stacked like (vphi, phi, u): vphi unforced, phi forced by t
        and u by -t."""
        return np.stack([np.full(g.shape, c) for c in (0.0, t, -t, -t)])

    got = nonlinear_residual(traj, p, 0.2, forcing=forcing)
    assert got == whole_stack_residual(traj, p, 0.2, forcing)

    led = ledger(traj, p)
    dv, dp, du = (whole_stack_derivative(s, stamp) for s in (traj.vphi, traj.phi, traj.u))
    for i in range(len(times)):
        assert led.dvphi_h2[i] == sobolev_norm(ScalarField(g, dv[i]), 2)
        assert led.dphi_h2[i] == sobolev_norm(ScalarField(g, dp[i]), 2)
        assert led.du_h1[i] == sobolev_norm(VectorField(g, du[i]), 1)

    rep = vacuum_residual(traj, p)
    assert rep.cell_count > 0
    worst = 0.0
    for i, vphi in enumerate(traj.vphi):
        mask = density_of(vphi, p) < VAC_EPS
        if mask.any():
            u = traj.u[i]
            resid = du[i] + np.sum(u * g.grad(u), axis=1)
            worst = max(worst, float(np.sqrt(np.sum(resid**2, axis=0))[mask].max()))
    assert rep.residual == worst


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


def test_ledger_sums_c0_from_its_own_norms(monkeypatch):
    # c0 is summed from the level-3 norms the loop takes of sample 0, so the
    # ledger neither computes them again nor reads sample 0 once released
    p = soft_params()
    traj = moving_bump_trajectory(4)
    want = initial_constant(traj.state(0))

    def refused(state):
        raise AssertionError("ledger recomputed c0")

    monkeypatch.setattr(vacflow.diagnostics, "initial_constant", refused)
    led = ledger(traj, p)
    assert led.c0 == want > 1.0
    assert type(led.c0) is float


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
    assert led.level_ok.all()


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
    traj = static_trajectory(st, [0.0, 0.1, 0.2])
    rep = conservation(traj, p)
    assert rep.mass_drift == 0.0
    assert rep.momentum_drift == 0.0
    assert density_of(traj.vphi[0], p).sum() > 0.0


def test_conservation_detects_a_doubling():
    p = soft_params()
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    rho = 0.4 + 0.1 * np.cos(g.coordinates[0])
    a = state_from_density(g, rho, np.zeros((1, 32)), p)
    b = state_from_density(g, 2.0 * rho, np.zeros((1, 32)), p)
    rep = conservation(stacked([a, b], [0.0, 1.0]), p)
    assert rep.mass_drift == pytest.approx(1.0, rel=1e-12)


def test_density_of_recovers_the_density():
    p = validate_params(A=1.0, gamma=3.0, alpha=1.0, beta=0.5,
                        delta1=3.0, delta2=6.0)
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    rho = 0.3 + 0.2 * np.cos(g.coordinates[0])
    st = state_from_density(g, rho, np.zeros((1, 32)), p)
    assert np.max(np.abs(density_of(st.vphi.values, p) - rho)) < 1e-13


def test_rk4_step_is_fourth_order_and_reads_the_stage_times():
    # dy/dt = t y from y(0) = 1 has y(1) = exp(1/2); the error at t = 1
    # falls about 16-fold per halving of the step
    asked = []

    def rate(t, y):
        asked.append(t)
        return t * y

    def error(n):
        y = np.array([1.0])
        for k in range(n):
            y = rk4_step(rate, k / n, y, 1.0 / n)
        return abs(float(y[0]) - math.exp(0.5))

    coarse, fine = error(8), error(16)
    assert 14.0 < coarse / fine < 18.0
    assert asked[:4] == [0.0, 1.0 / 16, 1.0 / 16, 1.0 / 8]


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
    assert _seam_buffer(g, rho.values) == SEAM_FRACTION * g.box_length


def test_characteristics_uniform_translation_small_error():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    c, T = 0.3, 0.7
    times = np.linspace(0.0, T, 9)
    states = [
        state_from_density(g, 0.5 + 0.2 * np.cos(x - c * t),
                           np.full((1, 64), c), p)
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
    traj, trace = picard_solve(init, p, 0.0, 0.05, picard_tol=1e-12,
                               sample_dt=0.05 / DEFAULT_SAMPLES_PER_WINDOW)
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


def test_characteristics_draw_distinct_support_cells_by_seed():
    p = soft_params()
    g = Grid(dim=2, n=16, box_length=2.0 * np.pi)
    rho = bump_density(g, amplitude=0.5, width=1.2).values
    traj = static_trajectory(state_from_density(g, rho, np.zeros((2, 16, 16)),
                                                p), [0.0, 0.1])
    support = {tuple(float(c) * g.spacing for c in cell)
               for cell in np.argwhere(rho > VAC_EPS)}
    assert 8 < len(support) < rho.size

    def starts(n_particles, seed):
        rep = characteristics_check(traj, p, n_particles=n_particles,
                                    seed=seed, seam_buffer=0.0)
        return [row.start for row in rep.particles]

    drawn = starts(8, 1)
    assert len(set(drawn)) == 8 and set(drawn) <= support
    assert starts(8, 1) == drawn
    assert starts(8, 2) != drawn
    every = starts(rho.size, 1)
    assert len(every) == len(support) and set(every) == support


# one sample of moving_bump_trajectory: d + 2 = 4 rows of 64 x 64
SAMPLE_KIB = 4 * 64 * 64 * 8 // 1024


def moving_bump_trajectory(nt):
    """A 2-D n = 64 trajectory of nt samples: a compact bump that grows in
    time under a velocity that fades."""
    p = soft_params()
    g = Grid(dim=2, n=64, box_length=2.0 * np.pi)
    rho = bump_density(g, amplitude=0.5, width=0.8).values
    x, y = g.coordinates
    u = 0.1 * np.stack(np.broadcast_arrays(np.sin(y), np.cos(x)))
    times = np.linspace(0.0, 0.05, nt)
    return stacked([state_from_density(g, (1.0 + t) * rho, (1.0 - t) * u, p)
                    for t in times], times)


def test_ledger_horizons_follow_their_formula_and_t_valid_is_a_sample_time():
    # the ledger builds its constants and horizons from horizon_times and
    # validity reads t_valid off the sample grid; neither report checks them
    p = soft_params()
    traj = moving_bump_trajectory(8)
    for calib_C in (1.0, 4.0):
        led = ledger(traj, p, calib_C=calib_C)
        c1, c2, c3 = led.c_levels
        assert led.c0 >= 1.0
        assert c1 == c2 == c3 == math.sqrt(calib_C) * led.c0
        assert led.horizons == horizon_times(traj.times[-1], c3, p.m)
        assert validity(traj, led, p).t_valid in traj.times


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                    reason="needs /proc/self/smaps")
def test_characteristics_keep_only_the_samples_in_flight_resident():
    # the check reads u of every sample of a window in shared memory; a read
    # fault may map the neighbouring pages too (fault-around), so the bound
    # is a few samples, where keeping what it read would hold the u rows of
    # all 16 samples, 1 MiB
    p = soft_params()
    ref = moving_bump_trajectory(16)
    traj = windowed(ref)
    got = characteristics_check(traj, p, n_particles=16, seed=3)
    assert mapping_rss_kib(traj.samples) <= 3 * SAMPLE_KIB
    want = characteristics_check(ref, p, n_particles=16, seed=3)
    assert got.traced == want.traced > 0
    assert got.max_rel_error == want.max_rel_error


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                    reason="needs /proc/self/smaps")
def test_certificates_keep_only_the_samples_in_flight_resident():
    # the ledger, validity, conservation and vacuum checks (a run's ledger
    # job) each read every sample of a window in shared memory and release
    # each once their stencils have moved past it; keeping what they read
    # would hold all 16 samples, 2 MiB
    p = soft_params()
    ref = moving_bump_trajectory(16)
    traj = windowed(ref)
    led = ledger(ref, p)
    checks = {
        "ledger": lambda t: ledger(t, p),
        "validity": lambda t: validity(t, led, p),
        "conservation": lambda t: conservation(t, p),
        "vacuum": lambda t: vacuum_residual(t, p),
    }
    for name, check in checks.items():
        got = check(traj)
        assert mapping_rss_kib(traj.samples) <= 3 * SAMPLE_KIB, name
        want = check(ref)
        for field, value in vars(want).items():
            assert np.array_equal(getattr(got, field), value), (name, field)
    assert vacuum_residual(ref, p).cell_count > 0


def test_characteristics_take_each_samples_divergence_once(monkeypatch):
    p = soft_params()
    traj = moving_bump_trajectory(5)
    taken = []
    div = Grid.div

    def logged(self, vec):
        taken.append(vec.copy())
        return div(self, vec)

    monkeypatch.setattr(Grid, "div", logged)
    characteristics_check(traj, p, n_particles=8, seed=3)
    assert len(taken) == len(traj.times)
    for vec, u in zip(taken, traj.u):
        assert np.array_equal(vec, u)


def per_product_primitive_rates(g, p, rho, mom, u):
    """(rho_t, (rho u)_t) with every product through Grid.mult and every
    derivative its own transform pair."""
    def dx(values, axis):
        return deriv(g, values, tuple(int(a == axis) for a in range(g.dim)))

    drho = np.zeros_like(rho)
    for j in range(g.dim):
        drho -= dx(g.mult(rho, u[j]), j)
    pressure = p.A * stable_power(rho, p.gamma)
    mu = p.alpha * stable_power(rho, p.delta1)
    lam = p.beta * stable_power(rho, p.delta2)
    div_u = g.div(u)
    jac = [[dx(u[a], b) for b in range(g.dim)] for a in range(g.dim)]
    dmom = np.empty_like(mom)
    for a in range(g.dim):
        acc = -dx(pressure, a)
        for b in range(g.dim):
            acc -= dx(g.mult(mom[a], u[b]), b)
            acc += dx(g.mult(mu, jac[a][b] + jac[b][a]), b)
        acc += dx(g.mult(lam, div_u), a)
        dmom[a] = acc
    return drho, dmom


@settings(max_examples=20, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), dim=hst.integers(1, 3))
def test_primitive_rates_equal_the_per_product_loop(seed, dim):
    # White noise on purpose: every mode is populated, so each truncation
    # matters.
    p = soft_params()
    g = Grid(dim=dim, n=8, box_length=2.0 * np.pi)
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.0, 1.0, g.shape)
    u = rng.standard_normal((dim,) + g.shape)
    got = primitive_rates(g, p, rho, rho * u, u)
    want = per_product_primitive_rates(g, p, rho, rho * u, u)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def batched_inverse_primitive_rates(g, p, rho, mom, u):
    """primitive_rates with the masked factors and the Jacobian brought back
    in one inverse call, as first written: the reference the two inverse
    calls are checked against bit for bit."""
    d = g.dim
    mu = p.alpha * stable_power(rho, p.delta1)
    lam = p.beta * stable_power(rho, p.delta2)
    spectra = g.fft(np.concatenate((np.stack((rho, mu, lam)), u, mom)))
    jac_hat = spectra[3:3 + d, None] * g.ik_masked
    masked = g.ifft(np.concatenate((
        g.dealias_mask * spectra, jac_hat.reshape((d * d,) + g.spectral_shape))))
    (rho_m, mu_m, lam_m), u_m, mom_m, jac = np.split(masked, [3, 3 + d, 3 + 2 * d])
    jac = jac.reshape((d, d) + g.shape)
    stress = mu_m * (jac + np.swapaxes(jac, 0, 1)) - mom_m[:, None] * u_m
    stress[range(d), range(d)] += lam_m * np.trace(jac)
    pressure = p.A * stable_power(rho, p.gamma)
    fluxes = g.fft(np.concatenate((rho_m * u_m, stress.reshape((d * d,) + g.shape),
                                   pressure[None])))
    mass_hat, stress_hat = fluxes[:d], fluxes[d:-1].reshape((d, d) + g.spectral_shape)
    rates = g.ifft(np.concatenate((
        -np.sum(g.ik_masked * mass_hat, axis=0)[None],
        np.sum(g.ik_masked * stress_hat, axis=1) - g.ik * fluxes[-1])))
    return rates[0], rates[1:]


def all_slopes_rk4_step(rate, t, y, dt):
    """Classic RK4 with all four slopes kept until the update, as first
    written: the reference rk4_step is checked against."""
    k1 = rate(t, y)
    k2 = rate(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rate(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rate(t + dt, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def oracle_rate(g, p, rhs, forcing=None):
    """The rate of (rho, rho u) that primitive_solve steps, with rhs in place
    of primitive_rhs and t times the rows forcing added when given."""
    def rate(t, y):
        dr, dm = rhs(g, p, y[0], y[1:])
        out = np.concatenate(([dr], dm))
        if forcing is not None:
            out += t * forcing
        return out

    return rate


def batched_inverse_primitive_rhs(g, p, rho, mom):
    return batched_inverse_primitive_rates(g, p, rho, mom, mom / rho)


def oracle_state(g, seed):
    """(rho, rho u) rows with rho in [0.3, 1] and u of white noise."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.3, 1.0, g.shape)
    return np.concatenate(([rho], rho * rng.standard_normal((g.dim,) + g.shape)))


@settings(max_examples=20, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), dim=hst.integers(1, 3))
def test_primitive_rates_equal_their_batched_inverse_bit_for_bit(seed, dim):
    p = soft_params()
    g = Grid(dim=dim, n=8 if dim == 3 else 16, box_length=2.0 * np.pi)
    y = oracle_state(g, seed)
    args = (g, p, y[0], y[1:], y[1:] / y[0])
    for got, want in zip(primitive_rates(*args), batched_inverse_primitive_rates(*args)):
        assert np.array_equal(got, want)


@settings(max_examples=20, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), dim=hst.integers(1, 3),
       forced=hst.booleans())
def test_rk4_step_equals_the_all_slopes_step_bit_for_bit(seed, dim, forced):
    p = soft_params()
    g = Grid(dim=dim, n=8 if dim == 3 else 16, box_length=2.0 * np.pi)
    y = oracle_state(g, seed)
    forcing = np.random.default_rng(seed + 1).standard_normal(y.shape) if forced else None
    rate = oracle_rate(g, p, primitive_rhs, forcing)
    assert np.array_equal(rk4_step(rate, 0.25, y, 1e-3),
                          all_slopes_rk4_step(rate, 0.25, y, 1e-3))


def test_an_oracle_rk4_step_holds_less_than_the_all_slopes_step():
    # The all-slopes step keeps k1, k2 and k3 through the fourth rate, and
    # the batched inverse holds the 18 masked factor and Jacobian spectra,
    # their transform's intermediates and the 18 physical rows at once;
    # rk4_step keeps the running sum and one slope, and primitive_rates
    # inverts the 9 masked factors and the 9 Jacobian entries in turn and
    # drops the factor spectra before the fluxes. At 3-D n=16 the two
    # peaks measured 2,796 and 3,572 KiB (0.78).
    p = soft_params()
    g = Grid(dim=3, n=16, box_length=2.0 * np.pi)
    y = oracle_state(g, 5)
    peaks = []
    for step, rhs in ((rk4_step, primitive_rhs),
                      (all_slopes_rk4_step, batched_inverse_primitive_rhs)):
        rate = oracle_rate(g, p, rhs)
        step(rate, 0.0, y, 1e-3)  # builds the grid's cached multipliers
        tracemalloc.start()
        try:
            step(rate, 0.0, y, 1e-3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    held, all_slopes = peaks
    assert held <= 0.85 * all_slopes, (held, all_slopes)


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


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                    reason="needs /proc/self/smaps")
def test_residuals_keep_only_the_samples_in_flight_resident():
    # each sample is released once the three-point stencils have moved past
    # it; keeping what they read would hold all 10 samples, 1.25 MiB
    p = soft_params()
    ref = moving_bump_trajectory(10)
    traj = windowed(ref)
    got = nonlinear_residual(traj, p)
    assert mapping_rss_kib(traj.samples) <= 4 * SAMPLE_KIB
    assert got == nonlinear_residual(ref, p)


def test_residuals_subtract_a_manufactured_forcing():
    # the manufactured fields solve the system forced by reform_forcing, so
    # with it only the central-difference error, O(h^2), is left of the
    # reformulated residual; without it the forcing itself shows
    case = default_case(Grid(dim=2, n=16, box_length=2.0 * np.pi))
    eta, h = 0.3, 1e-3
    traj = stacked([case.state(t) for t in (0.2, 0.2 + h, 0.2 + 2 * h)],
                   [0.2, 0.2 + h, 0.2 + 2 * h])
    forced = nonlinear_residual(traj, case.params, eta,
                                forcing=case.reform_forcing(eta))
    unforced = nonlinear_residual(traj, case.params, eta)
    assert forced.reform_linf < 1e-5
    assert min(unforced.reform_phi_l2, unforced.reform_u_l2) > 1e-2
    assert forced.primitive_linf == unforced.primitive_linf


HARD = validate_params(A=1.0, gamma=3.0, alpha=1.0, beta=0.5,
                       delta1=3.0, delta2=6.0)


def random_reform_state(g, rng):
    return ReformState(ScalarField(g, rng.uniform(0.1, 0.9, g.shape)),
                       ScalarField(g, rng.uniform(0.0, 0.7, g.shape)),
                       VectorField(g, rng.uniform(-0.3, 0.3, (g.dim,) + g.shape)))


def per_product_transport_rows(state, params):
    """The vphi and phi rows of reform_rhs as first written: every factor
    truncated on its own, the advection through operators.advect."""
    grid = state.grid
    vphi, phi, u = state.vphi.values, state.phi.values, state.u.values
    factors = grid.dealias(np.concatenate((u, np.stack((vphi, phi, grid.div(u))))))
    um, (vphi_m, phi_m, div_m) = factors[:grid.dim], factors[grid.dim:]
    sources = np.stack((0.5 * (params.delta1 - 1.0) * vphi_m,
                        0.5 * (params.gamma - 1.0) * phi_m)) * div_m
    return -grid.dealias(advect(grid, um, np.stack((vphi, phi))) + sources)


reform_cases = dict(seed=hst.integers(0, 2**32 - 1), dim=hst.integers(1, 3),
                    hard=hst.booleans(), eta=hst.sampled_from((0.0, 0.25)))


@settings(max_examples=20, deadline=None)
@given(**reform_cases)
def test_reform_rhs_transport_rows_equal_the_per_product_lines(seed, dim, hard, eta):
    p = HARD if hard else soft_params()
    g = Grid(dim=dim, n=8 if dim == 3 else 16, box_length=2.0 * np.pi)
    state = random_reform_state(g, np.random.default_rng(seed))
    rhs = reform_rhs(state, p, eta)
    assert rhs.shape == (dim + 2,) + g.shape
    for got, want in zip(rhs[:2], per_product_transport_rows(state, p)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=20, deadline=None)
@given(**reform_cases)
def test_reform_rhs_velocity_rows_equal_the_symmetric_route(seed, dim, hard, eta):
    p = HARD if hard else soft_params()
    g = Grid(dim=dim, n=8 if dim == 3 else 16, box_length=2.0 * np.pi)
    state = random_reform_state(g, np.random.default_rng(seed))
    d_u = reform_rhs(state, p, eta)[2:]
    want = momentum_rhs_symmetric(p, state, state.vphi, eta, state)
    assert np.max(np.abs(d_u - want)) <= 1e-9 * np.max(np.abs(want))


def test_reform_rhs_still_state_is_stationary():
    p = soft_params()
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    st = state_from_density(g, np.full(32, 0.7), np.zeros((1, 32)), p)
    d_vphi, d_phi, d_u = reform_rhs(st, p, eta=0.0)
    assert np.max(np.abs(d_vphi)) < 1e-14
    assert np.max(np.abs(d_phi)) < 1e-14
    assert np.max(np.abs(d_u)) < 1e-14

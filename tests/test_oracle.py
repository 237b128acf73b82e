"""Primitive-variable oracle, manufactured cases, and order studies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacflow.fields import Grid, ScalarField, VectorField, quadrature_l2
from vacflow.initial_data import bump_density
from vacflow.linearized import (
    SolverAbort,
    sample_times,
    solve_linearized,
)
from vacflow.operators import ReformState
from vacflow.oracle import (
    ManufacturedCase,
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

from stacking import frozen, transport

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
    traj = primitive_solve(rho0, u0, stiff_params(), 0.05, sample_dt=0.05)
    assert float(np.max(np.abs(traj.rho[-1] - 1.0))) <= 1e-12
    assert float(np.max(np.abs(traj.u[-1]))) <= 1e-12


def test_oracle_refuses_vacuum_data():
    g = Grid(dim=1, n=64, box_length=L)
    rho0 = bump_density(g, 0.5, 0.8)
    u0 = VectorField(g, np.zeros((1,) + g.shape))
    with pytest.raises(ValueError, match="min rho"):
        primitive_solve(rho0, u0, stiff_params(), 0.01, sample_dt=0.01)


def test_oracle_rejects_grid_mismatch():
    g = Grid(dim=1, n=64, box_length=L)
    other = Grid(dim=1, n=32, box_length=L)
    rho0 = ScalarField(g, np.full(g.shape, 1.0))
    u0 = VectorField(other, np.zeros((1,) + other.shape))
    with pytest.raises(ValueError, match="grids disagree"):
        primitive_solve(rho0, u0, stiff_params(), 0.01, sample_dt=0.01)


def test_oracle_mass_drift_at_roundoff():
    rho0, u0 = smooth_positive()
    # a cadence finer than the adaptive step, so every step is a sample
    traj = primitive_solve(rho0, u0, stiff_params(), 0.02, sample_dt=0.02 / 64)
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
    assert traj.rho.shape == (5,) + g.shape
    assert traj.u.shape == (5, 1) + g.shape


@settings(max_examples=25, deadline=None)
@given(k=st.integers(6, 8), m=st.integers(1, 4), q=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_the_oracle_cadence_decides_only_what_is_recorded(k, m, q, seed):
    # as for the main solver: a dyadic step and a sample interval m dt that
    # divides the window give the same steps and the same final bits
    g = Grid(dim=1, n=16, box_length=L)
    dt = 2.0 ** -k
    t_window = q * m * dt
    rng = np.random.default_rng(seed)
    rho0 = ScalarField(g, rng.uniform(0.8, 1.2, g.shape))
    u0 = VectorField(g, rng.uniform(-0.1, 0.1, (1,) + g.shape))
    g_rate, f_rate = 0.1 * rng.standard_normal((2, 1) + g.shape)

    def solve(sample_dt):
        return primitive_solve(rho0, u0, soft_viscosity_params(), t_window,
                               sample_dt=sample_dt, dt=dt,
                               forcing=lambda t: (t * g_rate[0], t * f_rate))

    sampled, whole = solve(m * dt), solve(t_window)
    assert sampled.times == sample_times(t_window, m * dt)
    assert whole.times == [0.0, t_window]
    assert sampled.dt_history == whole.dt_history == [dt] * (q * m)
    assert np.array_equal(sampled.rho[-1], whole.rho[-1])
    assert np.array_equal(sampled.u[-1], whole.u[-1])


def test_both_solvers_sample_the_same_times():
    rho0, u0 = smooth_positive(n=16)
    p = stiff_params()
    g = rho0.grid
    t_window, sample_dt = 0.01, 0.01 / 3
    init = ReformState(
        ScalarField(g, rho0.values ** (0.5 * (p.delta1 - 1.0))),
        ScalarField(g, rho0.values ** (0.5 * (p.gamma - 1.0))), u0)
    stage = frozen(init.u.values, init.phi.values, init.vphi.values)
    reform = solve_linearized(init, p, stage, 0.0, t_window, dt=0.003,
                              sample_dt=sample_dt)
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
        primitive_solve(rho0, u0, stiff_params(), 1.0, sample_dt=1.0,
                        forcing=drain)


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


def test_manufactured_forcing_evaluates_each_stage_time_once(monkeypatch):
    import vacflow.oracle

    times, built = [], []
    rhs = vacflow.oracle.reform_rhs
    stage = ManufacturedCase.stage
    reform_forcing = ManufacturedCase.reform_forcing

    def counted(self, eta):
        rows = reform_forcing(self, eta)

        def counted_rows(t):
            times.append(t)
            return rows(t)

        return counted_rows

    def counted_stage(self, grid, t):
        built.append(t)
        return stage(self, grid, t)

    monkeypatch.setattr(ManufacturedCase, "reform_forcing", counted)
    monkeypatch.setattr(ManufacturedCase, "stage", counted_stage)
    reform_mms_error(default_case(), 0.01, 0.04)
    # 4 steps, each with stage times t, t + dt/4, t + dt/2, t + 3dt/4 and
    # t + dt, the last shared with the next step: 4 * 4 + 1 = 17, for the
    # forcing and for the coefficients alike
    assert len(times) == len(set(times)) == 17
    assert built == times

    # bit for bit the forcing with one reform_rhs call per row
    case = default_case()

    def per_row(t):
        return np.concatenate([
            [case.dvphi_dt(t) - rhs(case.state(t), case.params, 0.0)[0]],
            [case.dphi_dt(t) - rhs(case.state(t), case.params, 0.0)[1]],
            case.du_dt(t) - rhs(case.state(t), case.params, 0.0)[2:]])

    finals = []
    for forcing in (case.reform_forcing(0.0), per_row):
        finals.append(solve_linearized(case.state(0.0), case.params,
                                       case.stage, 0.0, 0.04, sample_dt=0.04,
                                       dt=0.01, forcing=forcing).final)
    for name in ("vphi", "phi", "u"):
        assert np.array_equal(getattr(finals[0], name).values,
                              getattr(finals[1], name).values)


# -- order studies ------------------------------------------------------------


def test_reform_temporal_order_three():
    case = default_case(Grid(dim=1, n=64, box_length=L))
    T = 0.02
    study = reform_temporal_study(case, [T / 4, T / 8, T / 16], T)
    assert all(a > b for a, b in zip(study.errors, study.errors[1:]))
    for p in study.orders:
        assert 2.8 < p < 3.2


def test_oracle_temporal_order_four():
    case = default_case(Grid(dim=1, n=64, box_length=L),
                        soft_viscosity_params())
    T = 0.02
    study = oracle_temporal_study(case, [T / 2, T / 4, T / 8], T)
    assert all(a > b for a, b in zip(study.errors, study.errors[1:]))
    for p in study.orders:
        assert 3.7 < p < 4.3


def test_advection_temporal_order_three():
    # pure transport: a profile carried by a uniform unit velocity, against
    # its exactly shifted self; it rides on 2 to stay positive, since every
    # window clips
    g = Grid(dim=1, n=64, box_length=L)
    x = g.coordinates[0]
    zeros = np.zeros(g.shape)
    coeffs = {"stage": frozen(np.ones((1,) + g.shape), zeros, zeros)}
    dts = [0.05, 0.025, 0.0125]
    errors = []
    for dt in dts:
        f = 2.0 + np.sin(x)
        for i in range(round(0.5 / dt)):
            f, _ = transport(stiff_params(), g, f, coeffs, dt, i * dt)
        errors.append(quadrature_l2(g, f - 2.0 - np.sin(x - 0.5)))
    study = observed_orders(dts, errors, "advection temporal")
    assert all(a > b for a, b in zip(study.errors, study.errors[1:]))
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
    hit_zero = observed_orders([0.1, 0.05], [1e-3, 0.0], "zero")
    assert math.isnan(hit_zero.orders[0])
    with pytest.raises(ValueError, match="at least two"):
        observed_orders([0.1], [1e-3], "short")
    with pytest.raises(ValueError, match="at least two"):
        observed_orders([0.1, 0.05], [1e-3], "ragged")


# -- dispersion and cross comparison ------------------------------------------


def acoustic_dispersion(params):
    """Ring the first density mode about rho = 1 and read its frequency off
    the zero crossings of its Fourier coefficient. Returns the error
    relative to the linearized prediction and the number of crossings.

    The prediction: mode k oscillates at omega = k sqrt(c^2 - (nu k / 2)^2)
    with c^2 = A gamma and nu = 2 alpha + beta at rho = 1, k = 1 here, and
    decays like exp(-nu k^2 t / 2); the crossing spacing is pi / omega
    exactly, damping notwithstanding."""
    g = Grid(dim=1, n=256, box_length=L)
    nu = 2.0 * params.alpha + params.beta
    omega = math.sqrt(params.A * params.gamma - 0.25 * nu * nu)
    x = g.coordinates[0]
    rho0 = ScalarField(g, 1.0 + 1e-4 * np.sin(x))
    t_window = 3 * 2.0 * math.pi / omega  # three periods, 200 samples each
    traj = primitive_solve(rho0, VectorField(g, np.zeros((1, 256))), params,
                           t_window, sample_dt=t_window / 600)
    vals = np.array([g.fft(rho - 1.0)[1].imag for rho in traj.rho])
    t = np.asarray(traj.times)
    i = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    crossings = t[i] + vals[i] / (vals[i] - vals[i + 1]) * (t[i + 1] - t[i])
    omega_measured = math.pi / float(np.diff(crossings).mean())
    return abs(omega_measured - omega) / omega, len(crossings)


def test_acoustic_dispersion_matches_prediction():
    rel_error, crossings = acoustic_dispersion(soft_viscosity_params())
    # measured 3.2e-10 relative
    assert rel_error <= 1e-8
    assert crossings >= 4


def test_cross_compare_agrees_on_smooth_data():
    rho0, u0 = smooth_positive()
    report = cross_compare(rho0, u0, stiff_params(), 0.01,
                           sample_dt=0.01 / 8, max_iter=10)
    assert report.picard_converged
    assert len(report.times) == 9
    # measured 5.7e-9 at this size and window
    assert report.sup_distance <= 1e-7
    assert report.distances[0] <= 1e-12


def test_cross_compare_refuses_vacuum():
    g = Grid(dim=1, n=64, box_length=L)
    rho0 = bump_density(g, 0.5, 0.8)
    u0 = VectorField(g, np.zeros((1,) + g.shape))
    with pytest.raises(ValueError, match="min rho"):
        cross_compare(rho0, u0, stiff_params(), 0.01, sample_dt=0.01 / 32)

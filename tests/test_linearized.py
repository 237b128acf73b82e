"""Frozen-coefficient stepping: transport, momentum, and the window march."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacflow.fields import Grid, ScalarField, VectorField
from vacflow.linearized import (
    ConstantCoefficients,
    FrozenCoefficients,
    SolverAbort,
    Trajectory,
    TrajectoryCoefficients,
    _exp_shift,
    _momentum_rhs,
    adaptive_dt,
    march,
    momentum_step,
    solve_linearized,
    transport_step,
)
from vacflow.operators import ReformState, advect, deformation, stable_power
from vacflow.params import validate_params

from stacking import stacked


def soft_params():
    return validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-0.1,
                           delta1=1.5, delta2=2.5)


def still_coeffs(grid, t_window, vphitilde=None, phitilde=None, **kw):
    provider = ConstantCoefficients(
        v=np.zeros((grid.dim,) + grid.shape),
        phitilde=np.zeros(grid.shape) if phitilde is None else phitilde,
        vphitilde=np.zeros(grid.shape) if vphitilde is None else vphitilde,
    )
    return FrozenCoefficients(provider=provider, eta=kw.pop("eta", 0.0),
                              t_window=t_window, **kw)


def test_frozen_coefficients_validation():
    g = Grid(dim=1, n=16, box_length=1.0)
    with pytest.raises(ValueError, match="eta"):
        still_coeffs(g, 1.0, eta=1.5)
    with pytest.raises(ValueError, match="t_window"):
        still_coeffs(g, 0.0)
    with pytest.raises(ValueError, match="dt"):
        still_coeffs(g, 1.0, dt=-0.1)


def test_transport_still_velocity_leaves_proxy_unchanged():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    f0 = 1.0 + 0.5 * np.sin(g.coordinates[0])
    coeffs = still_coeffs(g, 1.0, vphitilde=np.full(g.shape, 0.7))
    out, diag = transport_step(p, ScalarField(g, f0), coeffs, dt=0.05)
    # the Shu-Osher convex recombination costs a few ulps even with a zero
    # right-hand side
    assert np.max(np.abs(out.values - f0)) < 1e-14
    assert diag.clip_count == 0 and diag.clipped_mass == 0.0


def test_transport_translation_is_third_order():
    p = soft_params()
    g = Grid(dim=1, n=128, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    c, T = 0.7, 0.5
    f0 = 1.0 + 0.5 * np.sin(x)
    provider = ConstantCoefficients(
        v=np.full((1,) + g.shape, c),
        phitilde=np.zeros(g.shape),
        vphitilde=np.zeros(g.shape),
    )
    exact = 1.0 + 0.5 * np.sin(x - c * T)

    def run(steps):
        coeffs = FrozenCoefficients(provider=provider, eta=0.0, t_window=T,
                                    clip=False)
        f = ScalarField(g, f0)
        dt = T / steps
        for k in range(steps):
            f, _ = transport_step(p, f, coeffs, dt, t=k * dt)
        return float(np.max(np.abs(f.values - exact)))

    e1, e2 = run(40), run(80)
    assert e2 > 1e-13
    assert 6.0 < e1 / e2 < 10.0


def test_transport_matches_textbook_recursion():
    # independently assemble one Shu-Osher step with plain numpy ffts; the
    # band-limited data keeps every product inside the dealias mask, so the
    # two code paths must agree to roundoff
    p = soft_params()
    n = 64
    g = Grid(dim=1, n=n, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    v = 0.3 * np.sin(x)
    w0 = 0.8
    f0 = 1.0 + 0.25 * np.cos(x)
    dt = 0.02

    provider = ConstantCoefficients(v=v[None, :], phitilde=np.zeros(n),
                                    vphitilde=np.full(n, w0))
    coeffs = FrozenCoefficients(provider=provider, eta=0.0, t_window=1.0,
                                clip=False)
    got, _ = transport_step(p, ScalarField(g, f0), coeffs, dt)

    ik = 1j * np.fft.fftfreq(n, 1.0 / n)
    dx = lambda arr: np.fft.ifft(ik * np.fft.fft(arr)).real
    source = 0.5 * (p.delta1 - 1.0) * w0 * dx(v)
    L = lambda arr: -v * dx(arr) - source
    u1 = f0 + dt * L(f0)
    u2 = 0.75 * f0 + 0.25 * (u1 + dt * L(u1))
    want = f0 / 3.0 + (2.0 / 3.0) * (u2 + dt * L(u2))
    assert np.max(np.abs(got.values - want)) < 1e-13


def test_transport_clip_reports_count_and_mass():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    provider = ConstantCoefficients(v=np.sin(x)[None, :],
                                    phitilde=np.zeros(g.shape),
                                    vphitilde=np.ones(g.shape))
    f0 = ScalarField(g, np.full(g.shape, 1e-4))

    clipped = FrozenCoefficients(provider=provider, eta=0.0, t_window=1.0)
    out, diag = transport_step(p, f0, clipped, dt=0.01)
    assert diag.clip_count > 0
    assert diag.clipped_mass > 0.0
    assert float(out.values.min()) == 0.0

    raw = FrozenCoefficients(provider=provider, eta=0.0, t_window=1.0,
                             clip=False)
    out, diag = transport_step(p, f0, raw, dt=0.01)
    assert float(out.values.min()) < 0.0
    assert diag.clip_count == 0


def test_zero_state_stays_zero_through_window():
    p = soft_params()
    g = Grid(dim=2, n=16, box_length=2.0 * np.pi)
    init = ReformState(
        vphi=ScalarField(g, np.zeros(g.shape)),
        phi=ScalarField(g, np.zeros(g.shape)),
        u=VectorField(g, np.zeros((2,) + g.shape)),
    )
    coeffs = still_coeffs(g, 0.05, dt=0.01, eta=0.3)
    traj = solve_linearized(init, coeffs, p)
    final = traj.final
    assert final.vphi.linf() == 0.0
    assert final.phi.linf() == 0.0
    assert final.u.linf() == 0.0


def test_full_degeneracy_freezes_the_whole_state():
    # vphi = 0, eta = 0, still coefficients: every right-hand-side term
    # vanishes and the state must come back bit for bit
    p = soft_params()
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    u0 = 0.4 * np.sin(3.0 * x)[None, :]
    phi0 = 0.2 + 0.1 * np.cos(x)
    init = ReformState(
        vphi=ScalarField(g, np.zeros(g.shape)),
        phi=ScalarField(g, phi0),
        u=VectorField(g, u0),
    )
    coeffs = still_coeffs(g, 0.02, dt=0.005)
    traj = solve_linearized(init, coeffs, p)
    assert np.array_equal(traj.final.phi.values, phi0)
    assert np.array_equal(traj.final.u.values, u0)
    assert traj.final.vphi.linf() == 0.0


def test_divergence_free_mode_decays_through_the_exact_shift():
    p = soft_params()
    g = Grid(dim=2, n=32, box_length=2.0 * np.pi)
    _, y = g.coordinates
    w, k, T = 0.5, 2.0, 0.1
    u0 = np.zeros((2,) + g.shape)
    u0[0] = np.broadcast_to(np.sin(k * y), g.shape).copy()
    init = ReformState(
        vphi=ScalarField(g, np.full(g.shape, w)),
        phi=ScalarField(g, np.zeros(g.shape)),
        u=VectorField(g, u0),
    )
    coeffs = still_coeffs(g, T, vphitilde=np.full(g.shape, w), dt=T / 8)
    traj = solve_linearized(init, coeffs, p)
    want = math.exp(-p.alpha * w**2 * k**2 * T) * u0[0]
    assert np.max(np.abs(traj.final.u.values[0] - want)) < 1e-12
    assert np.max(np.abs(traj.final.u.values[1])) < 1e-13


def test_acoustic_pair_is_third_order():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    p0, k, T = 0.5, 2.0, 0.2
    c = math.sqrt(p.A * p.gamma) * p0
    b = 0.5 * (p.gamma - 1.0) * p0
    phi_exact = np.sin(k * x) * math.cos(k * c * T)
    u_exact = -(c / b) * np.cos(k * x) * math.sin(k * c * T)
    vphi0 = ScalarField(g, np.zeros(g.shape))

    def run(steps):
        coeffs = still_coeffs(g, T, phitilde=np.full(g.shape, p0), clip=False)
        phi = ScalarField(g, np.sin(k * x))
        u = VectorField(g, np.zeros((1,) + g.shape))
        dt = T / steps
        for j in range(steps):
            phi, u, _ = momentum_step(p, phi, u, coeffs, vphi0, dt, t=j * dt)
        return max(
            float(np.max(np.abs(phi.values - phi_exact))),
            float(np.max(np.abs(u.values[0] - u_exact))),
        )

    e1, e2 = run(20), run(40)
    assert e2 > 1e-12
    assert 6.0 < e1 / e2 < 10.0


def test_momentum_aborts_outside_the_coefficient_regime():
    p = validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-1.0,
                        delta1=1.5, delta2=2.5)
    g = Grid(dim=1, n=16, box_length=1.0)
    coeffs = still_coeffs(g, 1.0)
    phi = ScalarField(g, np.zeros(16))
    u = VectorField(g, np.zeros((1, 16)))
    hot = ScalarField(g, np.full(16, 0.95))  # compr = 1 - 0.95^4 < 1/2
    with pytest.raises(SolverAbort, match="ellipticity regime exit") as err:
        momentum_step(p, phi, u, coeffs, hot, dt=0.01, t=0.25)
    assert err.value.reason == "ellipticity regime exit"
    assert err.value.time == 0.25


def test_momentum_rejects_wrong_stage_count():
    p = soft_params()
    g = Grid(dim=1, n=16, box_length=1.0)
    coeffs = still_coeffs(g, 1.0)
    phi = ScalarField(g, np.zeros(16))
    u = VectorField(g, np.zeros((1, 16)))
    z = np.zeros(16)
    with pytest.raises(ValueError, match="stage fields"):
        momentum_step(p, phi, u, coeffs, (z, z), dt=0.01)


def test_window_lands_exactly_on_the_sample_cadence():
    p = soft_params()
    g = Grid(dim=1, n=16, box_length=1.0)
    init = ReformState(
        vphi=ScalarField(g, np.zeros(16)),
        phi=ScalarField(g, np.zeros(16)),
        u=VectorField(g, np.zeros((1, 16))),
    )
    T = 0.1
    coeffs = still_coeffs(g, T, dt=0.012, sample_dt=T / 4)
    traj = solve_linearized(init, coeffs, p)
    assert traj.times == [0.0, 1 * (T / 4), 2 * (T / 4), 3 * (T / 4), T]


def test_window_shorter_than_dt_takes_a_single_step():
    p = soft_params()
    g = Grid(dim=1, n=16, box_length=1.0)
    init = ReformState(
        vphi=ScalarField(g, np.zeros(16)),
        phi=ScalarField(g, np.zeros(16)),
        u=VectorField(g, np.zeros((1, 16))),
    )
    coeffs = still_coeffs(g, 0.01, dt=5.0)
    traj = solve_linearized(init, coeffs, p)
    assert traj.times == [0.0, 0.01]
    assert traj.dt_history == [0.01]


def test_fixed_dt_is_honored_with_a_short_landing_step():
    p = soft_params()
    g = Grid(dim=1, n=16, box_length=1.0)
    init = ReformState(
        vphi=ScalarField(g, np.zeros(16)),
        phi=ScalarField(g, np.zeros(16)),
        u=VectorField(g, np.zeros((1, 16))),
    )
    coeffs = still_coeffs(g, 0.1, dt=0.03)
    traj = solve_linearized(init, coeffs, p)
    assert len(traj.dt_history) == 4
    assert traj.dt_history[:3] == [0.03, 0.03, 0.03]
    assert traj.dt_history[-1] == pytest.approx(0.01)


def test_step_size_underflow_aborts():
    p = soft_params()
    g = Grid(dim=1, n=16, box_length=1.0)
    init = ReformState(
        vphi=ScalarField(g, np.zeros(16)),
        phi=ScalarField(g, np.zeros(16)),
        u=VectorField(g, np.zeros((1, 16))),
    )
    coeffs = still_coeffs(g, 1.0, dt=1e-20)
    with pytest.raises(SolverAbort, match="underflow"):
        solve_linearized(init, coeffs, p)


@settings(max_examples=60, deadline=None)
@given(t_window=st.floats(1e-4, 10.0), cadence=st.floats(0.02, 1.5),
       step=st.floats(0.05, 3.0))
def test_march_lands_on_every_sample_and_steps_sum_to_the_window(
        t_window, cadence, step):
    sample_dt = cadence * t_window
    dt = step * sample_dt
    recorded, steps = [], []

    def advance(t, h, t_new, at_sample):
        steps.append(h)
        if at_sample:
            recorded.append(t_new)

    march(t_window, sample_dt, lambda t: dt, advance)
    tol = 1e-12 * max(1.0, t_window)
    assert recorded[:-1] == [k * sample_dt for k in range(1, len(recorded))]
    assert recorded[-1] == t_window
    assert len(recorded) * sample_dt >= t_window - tol
    assert all(b > a for a, b in zip(recorded, recorded[1:]))
    assert abs(sum(steps) - t_window) <= 1e-12 * t_window
    assert max(steps) <= dt + tol


@settings(max_examples=30, deadline=None)
@given(t_window=st.floats(1e-4, 10.0), frac=st.floats(0.0, 0.99))
def test_march_aborts_on_a_step_below_the_floor(t_window, frac):
    dt = frac * 1e-13 * max(t_window, 1.0)
    with pytest.raises(SolverAbort, match="underflow"):
        march(t_window, t_window / 4, lambda t: dt, lambda *args: None)


def test_adaptive_dt_obeys_both_bounds_and_shrinks_with_speed():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    phit = np.full(g.shape, 0.5)
    slow = adaptive_dt(p, g, np.full((1,) + g.shape, 0.1), phit, 0.4)
    fast = adaptive_dt(p, g, np.full((1,) + g.shape, 10.0), phit, 0.4)
    assert 0.0 < fast < slow
    kmax = 2.0 * math.pi * (g.n // 3) / g.box_length
    for dt, speed in ((slow, 0.1), (fast, 10.0)):
        acoustic = math.sqrt(p.A * p.gamma) * 0.5
        assert dt * kmax * (speed + acoustic) <= 0.9 * math.sqrt(3.0) + 1e-12
        assert dt * (speed + 0.5 * (p.gamma - 1.0) * 0.5) <= 0.4 * g.spacing + 1e-12


def test_trajectory_validation_and_lookup():
    g = Grid(dim=1, n=16, box_length=1.0)
    zero = ReformState(
        vphi=ScalarField(g, np.zeros(16)),
        phi=ScalarField(g, np.zeros(16)),
        u=VectorField(g, np.zeros((1, 16))),
    )
    one = ReformState(
        vphi=ScalarField(g, np.ones(16)),
        phi=ScalarField(g, np.full(16, 2.0)),
        u=VectorField(g, np.full((1, 16), 3.0)),
    )
    with pytest.raises(ValueError, match="shape"):
        stacked([zero], [0.0, 1.0])
    with pytest.raises(ValueError, match="shape"):
        Trajectory(g, [0.0, 1.0], np.zeros((2, 16)), np.zeros((2, 16)),
                   np.zeros((3, 1, 16)))
    with pytest.raises(ValueError, match="shape"):
        Trajectory(g, [0.0], np.zeros((1, 8)), np.zeros((1, 16)),
                   np.zeros((1, 1, 16)))
    with pytest.raises(ValueError, match="increase"):
        stacked([zero, zero], [0.0, 0.0])
    signed = ReformState(ScalarField(g, np.full(16, -1e-6)), zero.phi, zero.u,
                         floor=None)
    with pytest.raises(ValueError, match="clip tolerance"):
        stacked([zero, signed], [0.0, 1.0])
    stacked([zero, signed], [0.0, 1.0], floor=None)
    traj = stacked([zero, one, zero], [0.0, 0.5, 1.0])
    got = traj.state(1)
    assert got.time == 0.5
    assert np.array_equal(got.vphi.values, one.vphi.values)
    assert np.array_equal(got.phi.values, one.phi.values)
    assert np.array_equal(got.u.values, one.u.values)
    assert np.array_equal(traj.final.vphi.values, zero.vphi.values)


def test_trajectory_stacks_are_read_only_and_shared_with_the_provider():
    p = soft_params()
    g = Grid(dim=2, n=16, box_length=1.0)
    init = ReformState(
        vphi=ScalarField(g, np.full(g.shape, 0.5)),
        phi=ScalarField(g, np.full(g.shape, 0.5)),
        u=VectorField(g, np.zeros((2,) + g.shape)),
    )
    traj = solve_linearized(init, still_coeffs(g, 0.02, dt=0.01), p)
    assert traj.vphi.shape == (3,) + g.shape
    assert traj.phi.shape == (3,) + g.shape
    assert traj.u.shape == (3, 2) + g.shape
    for stack in (traj.vphi, traj.phi, traj.u):
        with pytest.raises(ValueError):
            stack[0, 0] = 1.0
    with pytest.raises(ValueError):
        traj.state(1).u.values[0] += 1.0
    tc = traj.as_coefficients()
    assert np.shares_memory(tc.vphis, traj.vphi)
    assert np.shares_memory(tc.phis, traj.phi)
    assert np.shares_memory(tc.velocities, traj.u)


def test_trajectory_coefficients_interpolate_and_clamp():
    times = [0.0, 1.0]
    vphis = np.stack([np.zeros(4), np.ones(4)])
    phis = np.stack([np.full(4, 2.0), np.full(4, 4.0)])
    vels = np.stack([np.zeros((1, 4)), np.full((1, 4), 2.0)])
    tc = TrajectoryCoefficients(times, vphis, phis, vels)
    assert np.allclose(tc.vphi_coeff(0.5), 0.5)
    assert np.allclose(tc.phi_coeff(0.25), 2.5)
    assert np.allclose(tc.velocity(2.0), 2.0)
    assert np.allclose(tc.vphi_coeff(-1.0), 0.0)
    with pytest.raises(ValueError, match="at least one"):
        TrajectoryCoefficients([], vphis[:0], phis[:0], vels[:0])


# -- masked stages and the transform budget ------------------------------------


def random_trajectory(grid, times, seed):
    """A TrajectoryCoefficients provider with unresolved random samples:
    vphi in [0.1, 0.9] keeps the soft parameters inside the regime."""
    rng = np.random.default_rng(seed)
    k = len(times)
    return TrajectoryCoefficients(
        times,
        rng.uniform(0.1, 0.9, (k,) + grid.shape),
        rng.uniform(0.0, 0.7, (k,) + grid.shape),
        rng.uniform(-0.3, 0.3, (k, grid.dim) + grid.shape),
    )


def fresh_stage(grid, provider, t):
    """The former per-stage build: interpolate the raw fields, then mask
    every coefficient from scratch."""
    v = provider.velocity(t)
    q1 = deformation(grid, v)
    d = grid.dim
    return {
        "v": np.stack([grid.dealias(v[i]) for i in range(d)]),
        "div_v": grid.dealias(grid.div(v)),
        "q1": np.stack([grid.dealias(q1[i, j]) for i in range(d)
                        for j in range(d)]).reshape((d, d) + grid.shape),
        "phit": grid.dealias(provider.phi_coeff(t)),
        "vphit": grid.dealias(provider.vphi_coeff(t)),
    }


SAMPLE_TIMES = [0.0, 0.3, 0.5, 1.0]
# between samples, one ulp off a sample on either side, past both ends
QUERY_TIMES = SAMPLE_TIMES + [0.15, 0.4, 0.75, float(np.nextafter(0.3, 0.0)),
                              float(np.nextafter(0.5, 1.0)), -0.5, 1.7]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       order=st.permutations(QUERY_TIMES))
def test_masked_stage_equals_a_stage_masked_from_interpolated_fields(
        seed, dim, order):
    g = Grid(dim=dim, n=8 if dim == 3 else 16, box_length=2.0 * np.pi)
    provider = random_trajectory(g, SAMPLE_TIMES, seed)
    for t in order + order[::-1]:
        got = provider.stage(g, t)
        assert len(provider._masked) <= 2
        for name, want in fresh_stage(g, provider, t).items():
            err = np.max(np.abs(getattr(got, name) - want))
            assert err <= 1e-12 * max(np.max(np.abs(want)), 1.0), (name, t)


def seven_exponential_update(p, phi, u, coeffs, stages_vphi, dt, t, nu1, nu2):
    """The IF-RK3 update as first written, one exponential per term."""
    g = phi.grid

    def slope(ts, pa, ua, va):
        return _momentum_rhs(g, p, coeffs.provider.stage(g, ts), va,
                             coeffs.eta, pa, ua, nu1, nu2, None, None)

    def G(tau, vec):
        return _exp_shift(g, nu1, nu2, tau, vec)

    p0, u0 = phi.values, u.values
    k1p, k1u = slope(t, p0, u0, stages_vphi[0])
    p2 = p0 + 0.5 * dt * k1p
    u2 = G(0.5 * dt, u0 + 0.5 * dt * k1u)
    k2p, k2u = slope(t + 0.5 * dt, p2, u2, stages_vphi[1])
    p3 = p0 + dt * (-k1p + 2.0 * k2p)
    u3 = G(dt, u0) + dt * (-G(dt, k1u) + 2.0 * G(0.5 * dt, k2u))
    k3p, k3u = slope(t + dt, p3, u3, stages_vphi[2])
    phi_new = p0 + dt * (k1p + 4.0 * k2p + k3p) / 6.0
    u_new = G(dt, u0) + dt * (G(dt, k1u) + 4.0 * G(0.5 * dt, k2u) + k3u) / 6.0
    return phi_new, u_new


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 2))
def test_four_exponential_update_equals_the_seven_exponential_form(seed, dim):
    p = soft_params()
    g = Grid(dim=dim, n=16, box_length=2.0 * np.pi)
    rng = np.random.default_rng(seed)
    provider = random_trajectory(g, [0.0, 0.01, 0.02], seed + 1)
    coeffs = FrozenCoefficients(provider=provider, eta=0.1, t_window=0.02,
                                clip=False)
    phi = ScalarField(g, rng.uniform(0.0, 0.7, g.shape))
    u = VectorField(g, rng.uniform(-0.3, 0.3, (dim,) + g.shape))
    stages_vphi = tuple(rng.uniform(0.1, 0.9, g.shape) for _ in range(3))
    dt, t = 0.004, 0.003
    phi_new, u_new, diag = momentum_step(p, phi, u, coeffs, stages_vphi, dt, t)
    want_phi, want_u = seven_exponential_update(
        p, phi, u, coeffs, stages_vphi, dt, t, diag.nu1, diag.nu2)
    assert diag.nu1 > 0.0 and diag.nu2 > 0.0
    for got, want in ((phi_new.values, want_phi), (u_new.values, want_u)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def per_product_velocity_slope(g, p, stage, vphi, eta, phi, u, nu1, nu2):
    """The velocity slope with each of its products truncated on its own."""
    press = 2.0 * p.A * p.gamma / (p.gamma - 1.0)
    weight = vphi**2 + eta**2
    c_shear_m = g.dealias(p.alpha * weight)
    c_compr_m = g.dealias(weight * (p.alpha + p.beta * stable_power(vphi, 2.0 * p.m)))
    s1 = p.alpha * p.delta1 / (p.delta1 - 1.0)
    s2 = p.beta * p.delta2 / (p.delta2 - 1.0)
    grad_sq = [g.dealias(c) for c in g.grad(vphi**2)]
    grad_hi = [g.dealias(c) for c in g.grad(stable_power(vphi, 2.0 * p.m + 2.0))]
    grad_phi, grad_div = g.grad(phi), g.grad_div(u)
    out = np.empty_like(u)
    for i in range(g.dim):
        lap = g.laplacian(u[i])
        q1_term = g.dealias(sum(stage.q1[i, j] * grad_sq[j] for j in range(g.dim)))
        out[i] = (-advect(g, stage.v, u[i])
                  - press * g.mult_masked(stage.phit, grad_phi[i])
                  + g.mult_masked(c_shear_m, lap)
                  + g.mult_masked(c_compr_m, grad_div[i])
                  - nu1 * lap - nu2 * grad_div[i]
                  + s1 * q1_term + s2 * g.mult_masked(stage.div_v, grad_hi[i]))
    return out


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_one_truncation_of_the_summed_products_equals_one_per_product(seed, dim):
    p = soft_params()
    g = Grid(dim=dim, n=8 if dim == 3 else 16, box_length=2.0 * np.pi)
    rng = np.random.default_rng(seed)
    stage = random_trajectory(g, [0.0], seed + 1).stage(g, 0.0)
    vphi = rng.uniform(0.1, 0.9, g.shape)
    phi = rng.uniform(0.0, 0.7, g.shape)
    u = rng.uniform(-0.3, 0.3, (dim,) + g.shape)
    _, got = _momentum_rhs(g, p, stage, vphi, 0.1, phi, u, 0.3, 0.2, None, None)
    want = per_product_velocity_slope(g, p, stage, vphi, 0.1, phi, u, 0.3, 0.2)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_transform_budget_of_one_window(dim, monkeypatch):
    # Transforms (one fftn or ifftn call each) of one window with every step
    # landing on a sample, in d dimensions:
    #   advect: one forward, d masked-derivative inverses, one pair to
    #     truncate the summed product                               d + 3
    #   transport right-hand side: advect + one truncated product    d + 5
    #     x 3 stages x 2 half steps                                  6d + 30
    #   momentum slope: d (u hats) + 1 (div u) + 1 (phi hat)
    #     + advect(phi) (d + 3) + 2 (phitilde div u) + 2 + 2d (masked
    #     gradients of vphi^2 and vphi^(2m+2)) + 4 (viscous weights)
    #     + per component d x [3 (Lap u, grad div u, grad phi) + advect
    #     (d + 3) + 2 (the pressure, two viscous, Q1 and div v products
    #     summed, then truncated once)]                              d^2 + 12d + 13
    #     x 3 slopes
    #   shift exponentials: 4 x 2d                                   8d
    #   per step: 3d^2 + 50d + 69 = 122, 181, 246 for d = 1, 2, 3
    #   per sample, masked once: truncated v 2d, Q1 d + d^2, its upper
    #     triangle truncated d(d + 1), phitilde and vphitilde 4
    #                                                      2d^2 + 4d + 4 = 10, 20, 34
    p = soft_params()
    g = Grid(dim=dim, n=16, box_length=2.0 * np.pi)
    steps, dt = 4, 0.001
    times = [k * dt for k in range(steps + 1)]
    provider = random_trajectory(g, times, 7)
    rng = np.random.default_rng(8)
    init = ReformState(
        vphi=ScalarField(g, rng.uniform(0.1, 0.9, g.shape)),
        phi=ScalarField(g, rng.uniform(0.0, 0.7, g.shape)),
        u=VectorField(g, rng.uniform(-0.3, 0.3, (dim,) + g.shape)),
    )
    coeffs = FrozenCoefficients(provider=provider, eta=0.1,
                                t_window=times[-1], dt=dt, sample_dt=dt)
    calls = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "fftn", counted(np.fft.fftn))
    monkeypatch.setattr(np.fft, "ifftn", counted(np.fft.ifftn))
    traj = solve_linearized(init, coeffs, p)
    assert len(traj.dt_history) == steps
    per_step = 3 * dim**2 + 50 * dim + 69
    per_sample = 2 * dim**2 + 4 * dim + 4
    assert calls[0] == steps * per_step + len(times) * per_sample

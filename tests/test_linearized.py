"""Frozen-coefficient stepping: transport, momentum, and the window march."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacflow import linearized, operators
from vacflow.fields import Grid, ScalarField, VectorField
from vacflow.linearized import (
    DEFAULT_CFL_SAFETY,
    CallableForcing,
    FrozenCoefficients,
    SolverAbort,
    Trajectory,
    TrajectoryCoefficients,
    _momentum_rhs,
    _shift,
    _viscous_fields,
    adaptive_dt,
    march,
    momentum_step,
    record_window,
    sample_times,
    solve_linearized,
    transport_step,
)
from vacflow.operators import ReformState, advect, deformation, stable_power
from vacflow.params import validate_params

from stacking import frozen, stacked


def soft_params():
    return validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-0.1,
                           delta1=1.5, delta2=2.5)


def still_coeffs(grid, t_window, vphitilde=None, phitilde=None, **kw):
    provider = frozen(
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
    provider = frozen(
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

    provider = frozen(v=v[None, :], phitilde=np.zeros(n),
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
    provider = frozen(v=np.sin(x)[None, :],
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
    assert np.abs(final.vphi.values).max() == 0.0
    assert np.abs(final.phi.values).max() == 0.0
    assert np.abs(final.u.values).max() == 0.0


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
    assert np.abs(traj.final.vphi.values).max() == 0.0


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
            phi, u, _ = momentum_step(p, phi, u, coeffs, (vphi0,) * 3, dt,
                                      t=j * dt)
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
        momentum_step(p, phi, u, coeffs, (hot,) * 3, dt=0.01, t=0.25)
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
    assert recorded == sample_times(t_window, sample_dt)[1:]
    assert recorded[:-1] == [k * sample_dt for k in range(1, len(recorded))]
    assert recorded[-1] == t_window
    assert len(recorded) * sample_dt >= t_window - tol
    assert all(b > a for a, b in zip(recorded, recorded[1:]))
    assert abs(sum(steps) - t_window) <= 1e-12 * t_window
    assert max(steps) <= dt + tol


def test_record_window_holds_one_window_while_it_writes():
    # a step that only copies its fields has no transient of its own, so the
    # traced peak is what the recorder keeps: the window's stacks, written in
    # place, and not a list of samples beside a stack built from it
    g = Grid(dim=2, n=32, box_length=1.0)
    rng = np.random.default_rng(3)
    init = ReformState(ScalarField(g, rng.random(g.shape)),
                       ScalarField(g, rng.random(g.shape)),
                       VectorField(g, rng.random((2,) + g.shape)))

    def step(t, dt, vphi, phi, u):
        return (ScalarField(g, vphi.values.copy()), ScalarField(g, phi.values.copy()),
                VectorField(g, u.values.copy()), 0, 0.0)

    tracemalloc.start()
    try:
        traj = record_window(init, 1.0, 1.0 / 32, lambda t: 1.0 / 32, step,
                             eta=0.0, clip=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.times == sample_times(1.0, 1.0 / 32)
    assert np.array_equal(traj.u[-1], init.u.values)
    window = traj.vphi.nbytes + traj.phi.nbytes + traj.u.nbytes
    assert peak < 1.2 * window


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


def test_the_adaptive_step_reads_the_masked_stage():
    # unresolved random coefficients, whose masked stage peaks elsewhere
    # than the raw fields; with dt None and no sample cadence adaptive_dt
    # alone sets the first step
    p = soft_params()
    g = Grid(dim=1, n=16, box_length=2.0 * np.pi)
    provider = random_trajectory(g, [0.0, 1.0], seed=3)
    stage = provider.stage(g, 0.0)
    want = adaptive_dt(p, g, stage.v, stage.phit, DEFAULT_CFL_SAFETY)
    raw = adaptive_dt(p, g, provider.velocities[0], provider.phis[0],
                      DEFAULT_CFL_SAFETY)
    assert want != raw
    init = ReformState(ScalarField(g, provider.vphis[0]),
                       ScalarField(g, provider.phis[0]),
                       VectorField(g, provider.velocities[0]))
    coeffs = FrozenCoefficients(provider=provider, eta=0.2,
                                t_window=1.5 * want, clip=False)
    traj = solve_linearized(init, coeffs, p)
    assert traj.dt_history[0] == want


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
    tc = TrajectoryCoefficients(traj.times, traj.vphi, traj.phi, traj.u)
    assert np.shares_memory(tc.vphis, traj.vphi)
    assert np.shares_memory(tc.phis, traj.phi)
    assert np.shares_memory(tc.velocities, traj.u)


def test_trajectory_coefficients_interpolate_and_clamp():
    g = Grid(dim=1, n=8, box_length=2.0 * np.pi)
    times = [0.0, 1.0]
    vphis = np.stack([np.zeros(8), np.ones(8)])
    phis = np.stack([np.full(8, 2.0), np.full(8, 4.0)])
    vels = np.stack([np.zeros((1, 8)), np.full((1, 8), 2.0)])
    tc = TrajectoryCoefficients(times, vphis, phis, vels)
    assert np.allclose(tc.stage(g, 0.25).phit, 2.5)
    assert np.allclose(tc.stage(g, 0.25).vphit, 0.25)
    assert np.allclose(tc.stage(g, 2.0).v, 2.0)
    assert np.allclose(tc.stage(g, -1.0).phit, 2.0)
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


def interpolated(times, stack, t):
    """The field at t from stack[i], the field at times[i]: linear between
    samples, clamped past both ends."""
    weights = [np.interp(t, times, row) for row in np.eye(len(times))]
    return np.tensordot(weights, stack, axes=1)


def fresh_stage(grid, provider, t):
    """The former per-stage build: interpolate the stored stacks, then mask
    every coefficient from scratch."""
    v, phit, vphit = (interpolated(provider.times, stack, t) for stack in
                      (provider.velocities, provider.phis, provider.vphis))
    q1 = deformation(grid, v)
    d = grid.dim
    return {
        "v": np.stack([grid.dealias(v[i]) for i in range(d)]),
        "div_v": grid.dealias(grid.div(v)),
        "q1": np.stack([grid.dealias(q1[i, j]) for i in range(d)
                        for j in range(d)]).reshape((d, d) + grid.shape),
        "phit": grid.dealias(phit),
        "vphit": grid.dealias(vphit),
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
    # each time again at once, then interleaved with the one before it
    queries = [t for a, b in zip(order, order[:1] + order) for t in (a, a, b, a)]
    first = {}
    for t in queries + queries[::-1]:
        got = provider.stage(g, t)
        assert len(provider._masked) <= 2
        assert len({provider._bracket(s)[0] for s in provider._between}) <= 1
        assert len(provider._between) <= TrajectoryCoefficients.BETWEEN_KEPT
        if t in first:
            assert np.array_equal(got.packed, first[t]), t
            continue
        first[t] = got.packed.copy()
        for name, want in fresh_stage(g, provider, t).items():
            err = np.max(np.abs(getattr(got, name) - want))
            assert err <= 1e-12 * max(np.max(np.abs(want)), 1.0), (name, t)


def test_interpolated_stages_stay_few_when_a_sample_interval_holds_many_steps(
        monkeypatch):
    # 40 steps between two samples: the kept stages are bounded by one
    # step's stage times, yet no step interpolates a time more often than
    # with every interpolated stage kept, and the window is bit-identical
    p = soft_params()
    g = Grid(dim=2, n=16, box_length=2.0 * np.pi)
    built = []

    class Counted(operators._StageCoeffs):
        __slots__ = ()

        def __init__(self, grid, packed):
            super().__init__(grid, packed)
            built.append(1)

    # masked samples are built in operators, interpolated stages here
    monkeypatch.setattr(operators, "_StageCoeffs", Counted)
    monkeypatch.setattr(linearized, "_StageCoeffs", Counted)

    def solve():
        provider = random_trajectory(g, [0.0, 1.0], seed=7)
        stage, sizes = provider.stage, []

        def recorded(grid, t):
            got = stage(grid, t)
            sizes.append(len(provider._between))
            return got

        provider.stage = recorded
        init = ReformState(ScalarField(g, provider.vphis[0]),
                           ScalarField(g, provider.phis[0]),
                           VectorField(g, provider.velocities[0]))
        coeffs = FrozenCoefficients(provider=provider, eta=0.2, t_window=1.0,
                                    dt=1.0 / 40, sample_dt=1.0, clip=False)
        built.clear()
        traj = solve_linearized(init, coeffs, p)
        assert len(traj.dt_history) == 40
        return traj, len(built), max(sizes)

    traj, count, most = solve()
    assert most == TrajectoryCoefficients.BETWEEN_KEPT == 5
    monkeypatch.setattr(TrajectoryCoefficients, "BETWEEN_KEPT", 10**6)
    traj_all, count_all, most_all = solve()
    assert most_all > 100
    # every step ends where the next begins, at one stage time: the two
    # masked samples and 4 interpolated stage times per step but the last
    assert count == count_all == 2 + 4 * 40 - 1
    for name in ("vphi", "phi", "u"):
        assert np.array_equal(getattr(traj, name), getattr(traj_all, name))


def seven_exponential_update(p, phi, u, coeffs, stages_vphi, dt, t, nu1, nu2):
    """The IF-RK3 update as first written, one exponential per term, on the
    spectra the step carries."""
    g = phi.grid
    G = _shift(g, nu1, nu2, dt)

    def slope(ts, pa, ua, va):
        coeff_hat = g.fft(_viscous_fields(p, va, coeffs.eta)[0])
        k = _momentum_rhs(g, p, coeffs.provider.stage(g, ts), coeff_hat,
                          np.concatenate(([pa], ua)), nu1, nu2, None)
        return k[0], k[1:]

    p0, u0 = g.fft(phi.values), g.fft(u.values)
    k1p, k1u = slope(t, p0, u0, stages_vphi[0])
    p2 = p0 + 0.5 * dt * k1p
    u2 = G(0.5 * dt, u0 + 0.5 * dt * k1u)
    k2p, k2u = slope(t + 0.5 * dt, p2, u2, stages_vphi[1])
    p3 = p0 + dt * (-k1p + 2.0 * k2p)
    u3 = G(dt, u0) + dt * (-G(dt, k1u) + 2.0 * G(0.5 * dt, k2u))
    k3p, k3u = slope(t + dt, p3, u3, stages_vphi[2])
    phi_new = p0 + dt * (k1p + 4.0 * k2p + k3p) / 6.0
    u_new = G(dt, u0) + dt * (G(dt, k1u) + 4.0 * G(0.5 * dt, k2u) + k3u) / 6.0
    return g.ifft(phi_new), g.ifft(u_new)


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
    phi_new, u_new, diag = momentum_step(
        p, phi, u, coeffs, tuple(ScalarField(g, v) for v in stages_vphi), dt, t)
    want_phi, want_u = seven_exponential_update(
        p, phi, u, coeffs, stages_vphi, dt, t, diag.nu1, diag.nu2)
    assert diag.nu1 > 0.0 and diag.nu2 > 0.0
    for got, want in ((phi_new.values, want_phi), (u_new.values, want_u)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def complex_exp_shift(g, nu1, nu2, tau, u):
    """exp(tau (nu1 Lap + nu2 grad div)) u through full complex transforms,
    keeping the real part."""
    k = [2.0 * np.pi / g.box_length * np.fft.fftfreq(g.n, 1.0 / g.n).reshape(
        [-1 if a == axis else 1 for a in range(g.dim)]) for axis in range(g.dim)]
    k2 = sum(ki**2 for ki in k)
    inv_k2 = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    u_hats = [np.fft.fftn(c) for c in u]
    kdotu = sum(ki * uh for ki, uh in zip(k, u_hats))
    out = np.empty_like(u)
    for i in range(g.dim):
        par = k[i] * kdotu * inv_k2
        out[i] = np.fft.ifftn(np.exp(-nu1 * k2 * tau) * (u_hats[i] - par)
                              + np.exp(-(nu1 + nu2) * k2 * tau) * par).real
    return out


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_exp_shift_equals_the_complex_route_with_nyquist_content(seed, dim):
    # White noise fills the Nyquist planes, where the half spectrum must
    # reproduce what the real part of the complex route keeps.
    g = Grid(dim=dim, n=8, box_length=2.0 * np.pi)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((dim,) + g.shape)
    G = _shift(g, 0.3, 0.2, 0.1)
    for tau in (0.05, 0.1):
        got = g.ifft(G(tau, g.fft(u)))
        want = complex_exp_shift(g, 0.3, 0.2, tau, u)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def per_product_slopes(g, p, stage, vphi, eta, phi, u, nu1, nu2):
    """The phi and velocity slopes with each of their products, advection
    included, truncated on its own."""
    press = 2.0 * p.A * p.gamma / (p.gamma - 1.0)
    weight = vphi**2 + eta**2
    c_shear_m = g.dealias(p.alpha * weight)
    c_compr_m = g.dealias(weight * (p.alpha + p.beta * stable_power(vphi, 2.0 * p.m)))
    s1 = p.alpha * p.delta1 / (p.delta1 - 1.0)
    s2 = p.beta * p.delta2 / (p.delta2 - 1.0)
    grad_sq = [g.dealias(c) for c in g.grad(vphi**2)]
    grad_hi = [g.dealias(c) for c in g.grad(stable_power(vphi, 2.0 * p.m + 2.0))]
    grad_phi, grad_div = g.grad(phi), g.grad_div(u)
    dphi = (-g.dealias(advect(g, stage.v, phi))
            - 0.5 * (p.gamma - 1.0) * g.dealias(stage.phit * g.div(u)))
    out = np.empty_like(u)
    for i in range(g.dim):
        lap = g.laplacian(u[i])
        q1_term = g.dealias(sum(stage.q1[i, j] * grad_sq[j] for j in range(g.dim)))
        out[i] = (-g.dealias(advect(g, stage.v, u[i]))
                  - press * g.dealias(stage.phit * grad_phi[i])
                  + g.dealias(c_shear_m * lap)
                  + g.dealias(c_compr_m * grad_div[i])
                  - nu1 * lap - nu2 * grad_div[i]
                  + s1 * q1_term + s2 * g.dealias(stage.div_v * grad_hi[i]))
    return dphi, out


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
    coeff_hat = g.fft(_viscous_fields(p, vphi, 0.1)[0])
    y_hat = g.fft(np.concatenate(([phi], u)))
    got = g.ifft(_momentum_rhs(g, p, stage, coeff_hat, y_hat, 0.3, 0.2, None))
    want = per_product_slopes(g, p, stage, vphi, 0.1, phi, u, 0.3, 0.2)
    for a, b in zip((got[0], got[1:]), want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


# -- the physical-space route the spectral steps replaced ----------------------


def physical_transport_step(p, g, f, coeffs, dt, t):
    """SSP-RK3 in Shu-Osher form, every stage in physical space and every
    right-hand side through its own transforms."""

    def rhs(ts, arr):
        stage = coeffs.provider.stage(g, ts)
        out = -g.dealias(advect(g, stage.v, arr)
                         + 0.5 * (p.delta1 - 1.0) * stage.vphit * stage.div_v)
        if coeffs.forcing is not None:
            out = out + coeffs.forcing.vphi_term(ts)
        return out

    u1 = f + dt * rhs(t, f)
    u2 = 0.75 * f + 0.25 * (u1 + dt * rhs(t + dt, u1))
    return f / 3.0 + (2.0 / 3.0) * (u2 + dt * rhs(t + 0.5 * dt, u2))


def physical_momentum_rhs(g, p, stage, vphi, eta, phi, u, nu1, nu2):
    """The phi and velocity slopes in physical space, truncated once."""
    d = g.dim
    press = 2.0 * p.A * p.gamma / (p.gamma - 1.0)
    weight = vphi**2 + eta**2
    c_shear = p.alpha * weight
    c_compr = weight * (p.alpha + p.beta * stable_power(vphi, 2.0 * p.m))
    s1 = p.alpha * p.delta1 / (p.delta1 - 1.0)
    s2 = p.beta * p.delta2 / (p.delta2 - 1.0)
    phi_u = np.concatenate((phi[None], u))
    spectra = g.fft(np.concatenate((
        phi_u, np.stack((vphi**2, stable_power(vphi, 2.0 * p.m + 2.0),
                         c_shear, c_compr)))))
    phi_hat, u_hat = spectra[0], spectra[1:d + 1]
    sq_hat, hi_hat = spectra[d + 1], spectra[d + 2]
    div_u_hat = np.sum(g.ik * u_hat, axis=0)
    phys = g.ifft(np.concatenate((
        div_u_hat[None], -g.k_squared * u_hat, g.ik * div_u_hat,
        g.ik * phi_hat, g.ik_masked * sq_hat, g.ik_masked * hi_hat,
        g.dealias_mask * spectra[d + 3:])))
    div_u = phys[0]
    lap, gd, grad_phi, grad_sq_m, grad_hi_m, (c_shear_m, c_compr_m) = np.split(
        phys[1:], [d, 2 * d, 3 * d, 4 * d, 5 * d])
    products = np.concatenate((
        (0.5 * (p.gamma - 1.0) * stage.phit * div_u)[None],
        press * stage.phit * grad_phi - c_shear_m * lap - c_compr_m * gd
        - s1 * np.sum(stage.q1 * grad_sq_m, axis=1) - s2 * stage.div_v * grad_hi_m))
    slopes = -g.dealias(advect(g, stage.v, phi_u) + products)
    dphi, du = slopes[0], slopes[1:]
    du -= nu1 * lap + nu2 * gd
    return dphi, du


def physical_exp_shift(g, nu1, nu2, tau, u):
    """exp(tau (nu1 Lap + nu2 grad div)) u through one transform pair, the
    projection built from the wavenumbers on every call."""
    if tau == 0.0 or (nu1 == 0.0 and nu2 == 0.0):
        return u
    k2 = g.k_squared
    decay_perp = np.exp(-nu1 * k2 * tau)
    decay_par = np.exp(-(nu1 + nu2) * k2 * tau)
    inv_k2 = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    kn = g.ik.imag
    ny = np.abs(np.stack(np.broadcast_arrays(*g.wavenumbers))) - np.abs(kn)
    u_hat = g.fft(u)
    par = (kn * np.sum(kn * u_hat, axis=0) + ny * np.sum(ny * u_hat, axis=0)) * inv_k2
    return g.ifft(decay_perp * (u_hat - par) + decay_par * par)


def physical_momentum_step(p, g, phi, u, coeffs, stages_vphi, dt, t):
    """The IF-RK3 step with every stage in physical space; returns
    (phi, u, nu1, nu2)."""
    eta, forcing = coeffs.eta, coeffs.forcing
    nu1 = max(p.alpha * float((v**2 + eta**2).max()) for v in stages_vphi)
    nu2 = max(0.0, *(float(((v**2 + eta**2) * (p.alpha + p.beta * stable_power(
        v, 2.0 * p.m))).max()) for v in stages_vphi))

    def slope(ts, pa, ua, va):
        dphi, du = physical_momentum_rhs(g, p, coeffs.provider.stage(g, ts),
                                         va, eta, pa, ua, nu1, nu2)
        if forcing is not None:
            fm = forcing.momentum_term(g, ts)
            dphi, du = dphi + fm[0], du + fm[1:]
        return dphi, du

    def G(tau, vec):
        return physical_exp_shift(g, nu1, nu2, tau, vec)

    k1p, k1u = slope(t, phi, u, stages_vphi[0])
    p2 = phi + 0.5 * dt * k1p
    u2 = G(0.5 * dt, u + 0.5 * dt * k1u)
    k2p, k2u = slope(t + 0.5 * dt, p2, u2, stages_vphi[1])
    g_k2u = G(0.5 * dt, k2u)
    p3 = phi + dt * (-k1p + 2.0 * k2p)
    u3 = G(dt, u - dt * k1u) + 2.0 * dt * g_k2u
    k3p, k3u = slope(t + dt, p3, u3, stages_vphi[2])
    phi_new = phi + dt * (k1p + 4.0 * k2p + k3p) / 6.0
    u_new = G(dt, u + (dt / 6.0) * k1u) + dt * (4.0 * g_k2u + k3u) / 6.0
    return phi_new, u_new, nu1, nu2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       forced=st.booleans())
def test_spectral_steps_equal_the_physical_route(seed, dim, forced):
    # White noise fills every mode up to Nyquist in the state, the stage
    # fields, the coefficients and the forcing.
    p = soft_params()
    g = Grid(dim=dim, n=8 if dim == 3 else 16, box_length=2.0 * np.pi)
    rng = np.random.default_rng(seed)
    forcing = None
    if forced:
        a, b = rng.standard_normal((2, dim + 2) + g.shape)
        forcing = CallableForcing(vphi=lambda t: a[0] + t * b[0],
                                  phi=lambda t: a[1] + t * b[1],
                                  velocity=lambda t: a[2:] + t * b[2:])
    provider = random_trajectory(g, [0.0, 0.01, 0.02], seed + 1)
    coeffs = FrozenCoefficients(provider=provider, eta=0.1, t_window=0.02,
                                clip=False, forcing=forcing)
    f, phi = rng.standard_normal((2,) + g.shape)
    u = rng.standard_normal((dim,) + g.shape)
    stages_vphi = tuple(rng.uniform(0.1, 0.9, (3,) + g.shape))
    dt, t = 0.004, 0.003

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    got, _ = transport_step(p, ScalarField(g, f), coeffs, dt, t)
    assert_close(got.values, physical_transport_step(p, g, f, coeffs, dt, t))

    phi_new, u_new, diag = momentum_step(
        p, ScalarField(g, phi), VectorField(g, u), coeffs,
        tuple(ScalarField(g, v) for v in stages_vphi), dt, t)
    want_phi, want_u, nu1, nu2 = physical_momentum_step(
        p, g, phi, u, coeffs, stages_vphi, dt, t)
    assert (diag.nu1, diag.nu2) == (nu1, nu2)
    assert_close(phi_new.values, want_phi)
    assert_close(u_new.values, want_u)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_transform_budget_of_one_window(dim, monkeypatch):
    # Transforms of one window with every step landing on a sample, in d
    # dimensions, as (rfftn + irfftn calls, real fields transformed: the
    # stack size of the physical side of each call):
    #   transport half step: one forward of f; per stage an inverse of the
    #     d masked derivatives of the stage spectrum and a forward of the
    #     summed products, (2, d + 1) x 3 stages; one inverse of the
    #     increment                                        (8, 3d + 5)
    #     x 2 half steps                                   (16, 6d + 10)
    #   momentum step: one forward of (phi, u) and, for each of the three
    #     stage fields, vphi^2, vphi^(2m+2), c_shear and c_compr (d + 13);
    #     per slope one inverse of div u, Lap u, grad div u, grad phi, the
    #     masked gradients of vphi^2 and vphi^(2m+2), the masked viscous
    #     weights and the d(d + 1) masked gradients of (phi, u)
    #     (d^2 + 6d + 3), then one forward of the d + 1 summed products,
    #     (2, d^2 + 7d + 4) x 3 slopes; one inverse of the (phi, u)
    #     increment (d + 1)                       (8, 3d^2 + 23d + 26)
    #   shift exponentials: multiplies on the spectra        (0, 0)
    #   per step: 24 calls, 3d^2 + 29d + 36 = 68, 106, 150 fields
    #   per sample, masked once: a forward of (v, phitilde, vphitilde)
    #     and an inverse of them masked with the upper triangle of Q1
    #                      (2, (d^2 + 5d + 8) / 2 = 7, 11, 16 fields)
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
    calls, fields = [0], [0]

    def counted(fn):
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            calls[0] += 1
            fields[0] += max(a.size, out.size) // g.n**dim
            return out
        return wrapper

    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    traj = solve_linearized(init, coeffs, p)
    assert len(traj.dt_history) == steps
    assert calls[0] == steps * 24 + len(times) * 2
    assert fields[0] == (steps * (3 * dim**2 + 29 * dim + 36)
                         + len(times) * (dim**2 + 5 * dim + 8) // 2)

"""Frozen-coefficient stepping: transport, momentum, and the window march."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vacflow import linearized, operators
from vacflow.fields import Grid, ScalarField, VectorField
from vacflow.linearized import (
    DEFAULT_CFL_SAFETY,
    SolverAbort,
    Trajectory,
    TrajectoryCoefficients,
    _momentum_rhs,
    _shift,
    _viscous_fields,
    adaptive_dt,
    march,
    record_window,
    sample_times,
    solve_linearized,
)
from vacflow.operators import ReformState, advect, deformation, stable_power
from vacflow.params import validate_params

from stacking import frozen, momentum, stacked, transport


def soft_params():
    return validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-0.1,
                           delta1=1.5, delta2=2.5)


def still_coeffs(grid, t_window, vphitilde=None, phitilde=None, **kw):
    """The window solve's keywords for still coefficients, eta 0 and one
    sample interval per window unless a test asks otherwise."""
    stage = frozen(
        v=np.zeros((grid.dim,) + grid.shape),
        phitilde=np.zeros(grid.shape) if phitilde is None else phitilde,
        vphitilde=np.zeros(grid.shape) if vphitilde is None else vphitilde,
    )
    return {"stage": stage, "eta": 0.0, "t_window": t_window,
            "sample_dt": t_window, **kw}


def test_the_window_solve_refuses_controls_out_of_range():
    g = Grid(dim=1, n=16, box_length=1.0)
    zeros = ScalarField(g, np.zeros(g.shape))
    init = ReformState(zeros, zeros, VectorField(g, np.zeros((1,) + g.shape)))
    for bad, match in (({"eta": 1.5}, "eta must lie in"),
                       ({"eta": -0.1}, "eta must lie in"),
                       ({"t_window": 0.0}, "t_window must be positive"),
                       ({"t_window": -1.0}, "t_window must be positive"),
                       ({"dt": 0.0}, "dt must be positive when fixed"),
                       ({"dt": -0.1}, "dt must be positive when fixed")):
        coeffs = {**still_coeffs(g, 1.0), **bad}
        with pytest.raises(ValueError, match=match):
            solve_linearized(init, soft_params(), **coeffs)


def test_transport_still_velocity_leaves_proxy_unchanged():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    f0 = 1.0 + 0.5 * np.sin(g.coordinates[0])
    coeffs = still_coeffs(g, 1.0, vphitilde=np.full(g.shape, 0.7))
    out, diag = transport(p, g, f0, coeffs, dt=0.05)
    # the Shu-Osher convex recombination costs a few ulps even with a zero
    # right-hand side
    assert np.max(np.abs(out - f0)) < 1e-14
    assert diag.clip_count == 0 and diag.clipped_mass == 0.0


def test_transport_translation_is_third_order():
    p = soft_params()
    g = Grid(dim=1, n=128, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    c, T = 0.7, 0.5
    f0 = 1.0 + 0.5 * np.sin(x)
    coeffs = {"stage": frozen(v=np.full((1,) + g.shape, c),
                              phitilde=np.zeros(g.shape),
                              vphitilde=np.zeros(g.shape))}
    exact = 1.0 + 0.5 * np.sin(x - c * T)

    def run(steps):
        f = f0
        dt = T / steps
        for k in range(steps):
            f, _ = transport(p, g, f, coeffs, dt, t=k * dt)
        return float(np.max(np.abs(f - exact)))

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

    coeffs = {"stage": frozen(v=v[None, :], phitilde=np.zeros(n),
                              vphitilde=np.full(n, w0))}
    got, _ = transport(p, g, f0, coeffs, dt)

    ik = 1j * np.fft.fftfreq(n, 1.0 / n)
    dx = lambda arr: np.fft.ifft(ik * np.fft.fft(arr)).real
    source = 0.5 * (p.delta1 - 1.0) * w0 * dx(v)
    L = lambda arr: -v * dx(arr) - source
    u1 = f0 + dt * L(f0)
    u2 = 0.75 * f0 + 0.25 * (u1 + dt * L(u1))
    want = f0 / 3.0 + (2.0 / 3.0) * (u2 + dt * L(u2))
    assert np.max(np.abs(got - want)) < 1e-13


def test_transport_clip_reports_count_and_mass():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    clipped = {"stage": frozen(v=np.sin(x)[None, :], phitilde=np.zeros(g.shape),
                               vphitilde=np.ones(g.shape))}
    f0 = np.full(g.shape, 1e-4)

    out, diag = transport(p, g, f0, clipped, dt=0.01)
    assert diag.clip_count > 0
    assert diag.clipped_mass > 0.0
    assert float(out.min()) == 0.0


def test_zero_state_stays_zero_through_window():
    p = soft_params()
    g = Grid(dim=2, n=16, box_length=2.0 * np.pi)
    init = ReformState(
        vphi=ScalarField(g, np.zeros(g.shape)),
        phi=ScalarField(g, np.zeros(g.shape)),
        u=VectorField(g, np.zeros((2,) + g.shape)),
    )
    coeffs = still_coeffs(g, 0.05, dt=0.01, eta=0.3)
    traj = solve_linearized(init, p, **coeffs)
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
    traj = solve_linearized(init, p, **coeffs)
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
    traj = solve_linearized(init, p, **coeffs)
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
    # every window clips, so phi rides on a constant that keeps it positive
    phi_exact = 2.0 + np.sin(k * x) * math.cos(k * c * T)
    u_exact = -(c / b) * np.cos(k * x) * math.sin(k * c * T)
    vphi0 = np.zeros(g.shape)

    def run(steps):
        coeffs = still_coeffs(g, T, phitilde=np.full(g.shape, p0))
        phi, u = 2.0 + np.sin(k * x), np.zeros((1,) + g.shape)
        dt = T / steps
        for j in range(steps):
            phi, u, _ = momentum(p, g, np.concatenate(([phi], u)), coeffs,
                                 (vphi0,) * 3, dt, t=j * dt)
        return max(
            float(np.max(np.abs(phi - phi_exact))),
            float(np.max(np.abs(u[0] - u_exact))),
        )

    e1, e2 = run(20), run(40)
    assert e2 > 1e-12
    assert 6.0 < e1 / e2 < 10.0


def test_momentum_aborts_outside_the_coefficient_regime():
    p = validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-1.0,
                        delta1=1.5, delta2=2.5)
    g = Grid(dim=1, n=16, box_length=1.0)
    coeffs = still_coeffs(g, 1.0)
    y = np.zeros((2, 16))
    hot = np.full(16, 0.95)  # compr = 1 - 0.95^4 < 1/2
    with pytest.raises(SolverAbort, match="ellipticity regime exit") as err:
        momentum(p, g, y, coeffs, (hot,) * 3, dt=0.01, t=0.25)
    assert err.value.reason == "ellipticity regime exit"
    assert err.value.time == 0.25


def test_momentum_rejects_wrong_stage_count():
    p = soft_params()
    g = Grid(dim=1, n=16, box_length=1.0)
    coeffs = still_coeffs(g, 1.0)
    y = np.zeros((2, 16))
    z = np.zeros(16)
    with pytest.raises(ValueError, match="stage fields"):
        momentum(p, g, y, coeffs, (z, z), dt=0.01)


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
    traj = solve_linearized(init, p, **coeffs)
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
    traj = solve_linearized(init, p, **coeffs)
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
    traj = solve_linearized(init, p, **coeffs)
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
        solve_linearized(init, p, **coeffs)


@settings(max_examples=60, deadline=None)
@given(t_window=st.floats(1e-4, 10.0), cadence=st.floats(0.02, 1.5),
       step=st.floats(0.05, 3.0))
def test_march_lands_on_every_sample_and_steps_sum_to_the_window(
        t_window, cadence, step):
    sample_dt = cadence * t_window
    dt = step * sample_dt
    recorded, steps, ends, written = [], [], [], []

    def advance(t, h, t_new):
        steps.append(h)
        ends.append(t_new)

    def write(n):
        written.append((n, len(steps)))
        if n:
            recorded.append(ends[-1])

    march(t_window, sample_dt, lambda t: dt, advance, write)
    tol = 1e-12 * max(1.0, t_window)
    # write(n) once per sample, in order: sample 0 before any step, each
    # later one right after the step that lands on it
    assert [n for n, _ in written] == list(range(len(sample_times(t_window,
                                                                  sample_dt))))
    assert written[0] == (0, 0)
    assert recorded == sample_times(t_window, sample_dt)[1:]
    assert recorded[:-1] == [k * sample_dt for k in range(1, len(recorded))]
    assert recorded[-1] == t_window
    assert len(recorded) * sample_dt >= t_window - tol
    assert all(b > a for a, b in zip(recorded, recorded[1:]))
    assert abs(sum(steps) - t_window) <= 1e-12 * t_window
    assert max(steps) <= dt + tol


def test_record_window_holds_one_window_while_it_writes():
    # a step that only copies its state has no transient of its own, so the
    # traced peak is what the recorder keeps: the window, written in place,
    # and not a list of samples beside an array built from it
    g = Grid(dim=2, n=32, box_length=1.0)
    rng = np.random.default_rng(3)
    init = ReformState(ScalarField(g, rng.random(g.shape)),
                       ScalarField(g, rng.random(g.shape)),
                       VectorField(g, rng.random((2,) + g.shape)))

    def step(t, dt, t_new, state):
        return state.copy(), 0, 0.0

    tracemalloc.start()
    try:
        traj = record_window(init, 1.0, 1.0 / 32, lambda t: 1.0 / 32, step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.times == sample_times(1.0, 1.0 / 32)
    assert np.array_equal(traj.u[-1], init.u.values)
    assert peak < 1.2 * traj.samples.nbytes


@pytest.mark.parametrize("sample_dt", [0.0, -0.25, math.nan])
def test_a_sample_interval_that_is_not_positive_is_refused(sample_dt):
    with pytest.raises(ValueError, match="sample_dt must be positive"):
        sample_times(1.0, sample_dt)
    with pytest.raises(ValueError, match="sample_dt must be positive"):
        march(1.0, sample_dt, lambda t: 0.1, lambda *args: None,
              lambda n: None)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(5, 8), m=st.integers(1, 4), q=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_the_cadence_decides_only_what_is_recorded(k, m, q, seed):
    # a dyadic step makes every time sum exact, and the sample interval m dt
    # divides the window q m dt: sampled every m steps or only at the end,
    # the window takes the same steps and ends in the same bits
    p = soft_params()
    g = Grid(dim=1, n=16, box_length=2.0 * np.pi)
    dt = 2.0 ** -k
    t_window = q * m * dt
    rng = np.random.default_rng(seed)
    a, b = 0.1 * rng.standard_normal((2, 3) + g.shape)
    init = ReformState(ScalarField(g, rng.uniform(0.1, 0.9, g.shape)),
                       ScalarField(g, 1.0 + rng.uniform(0.0, 0.7, g.shape)),
                       VectorField(g, rng.uniform(-0.3, 0.3, (1,) + g.shape)))

    def solve(sample_dt):
        provider = random_trajectory(g, [0.0, 0.3 * t_window, t_window], seed)
        return solve_linearized(init, p, provider.stage, 0.2, t_window,
                                sample_dt=sample_dt, dt=dt,
                                forcing=lambda t: a + t * b)

    sampled, whole = solve(m * dt), solve(t_window)
    assert sampled.times == sample_times(t_window, m * dt)
    assert len(sampled.times) == q + 1
    assert whole.times == [0.0, t_window]
    assert sampled.dt_history == whole.dt_history == [dt] * (q * m)
    for name in ("vphi", "phi", "u"):
        assert np.array_equal(getattr(sampled, name)[-1],
                              getattr(whole, name)[-1])


@settings(max_examples=30, deadline=None)
@given(t_window=st.floats(1e-4, 10.0), frac=st.floats(0.0, 0.99))
def test_march_aborts_on_a_step_below_the_floor(t_window, frac):
    dt = frac * 1e-13 * max(t_window, 1.0)
    with pytest.raises(SolverAbort, match="underflow"):
        march(t_window, t_window / 4, lambda t: dt, lambda *args: None,
              lambda n: None)


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
    # than the raw fields; with dt None and one sample interval spanning the
    # window adaptive_dt alone sets the first step
    p = soft_params()
    g = Grid(dim=1, n=16, box_length=2.0 * np.pi)
    provider = random_trajectory(g, [0.0, 1.0], seed=3)
    stage = provider.stage(g, 0.0)
    want = adaptive_dt(p, g, stage.v, stage.phit, DEFAULT_CFL_SAFETY)
    raw = adaptive_dt(p, g, provider.samples[0, 2:], provider.samples[0, 1],
                      DEFAULT_CFL_SAFETY)
    assert want != raw
    init = ReformState(ScalarField(g, provider.samples[0, 0]),
                       ScalarField(g, provider.samples[0, 1]),
                       VectorField(g, provider.samples[0, 2:]))
    traj = solve_linearized(init, p, provider.stage, 0.2, 1.5 * want,
                            sample_dt=1.5 * want)
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
        Trajectory(g, [0.0, 1.0], np.zeros((3, 3, 16)))
    with pytest.raises(ValueError, match="shape"):
        Trajectory(g, [0.0], np.zeros((1, 3, 8)))
    with pytest.raises(ValueError, match="shape"):
        Trajectory(g, [0.0], np.zeros((1, 2, 16)))
    traj = stacked([zero, one, zero], [0.0, 0.5, 1.0])
    got = traj.state(1)
    assert np.array_equal(got.vphi.values, one.vphi.values)
    assert np.array_equal(got.phi.values, one.phi.values)
    assert np.array_equal(got.u.values, one.u.values)
    assert np.array_equal(traj.final.vphi.values, zero.vphi.values)


def still_trajectory():
    """A solved 2-D window of three samples, (vphi, phi, u) rows each."""
    g = Grid(dim=2, n=16, box_length=1.0)
    init = ReformState(
        vphi=ScalarField(g, np.full(g.shape, 0.5)),
        phi=ScalarField(g, np.full(g.shape, 0.5)),
        u=VectorField(g, np.zeros((2,) + g.shape)),
    )
    return solve_linearized(init, soft_params(),
                            **still_coeffs(g, 0.02, dt=0.01, sample_dt=0.01))


def test_trajectory_stacks_are_read_only_and_shared_with_the_provider():
    traj = still_trajectory()
    g = traj.grid
    assert traj.samples.shape == (3, 4) + g.shape
    assert traj.vphi.shape == (3,) + g.shape
    assert traj.phi.shape == (3,) + g.shape
    assert traj.u.shape == (3, 2) + g.shape
    for rows in (traj.samples, traj.vphi, traj.phi, traj.u):
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
    with pytest.raises(ValueError):
        traj.state(1).u.values[0] += 1.0
    tc = TrajectoryCoefficients(traj.times, traj.samples)
    assert np.shares_memory(tc.samples, traj.samples)


def test_trajectory_fields_are_read_only_views_of_its_samples():
    traj = still_trajectory()
    for rows, index in ((traj.vphi, np.s_[:, 0]), (traj.phi, np.s_[:, 1]),
                        (traj.u, np.s_[:, 2:])):
        assert rows.base is traj.samples
        assert np.shares_memory(rows, traj.samples)
        assert np.array_equal(rows, traj.samples[index])
        assert not rows.flags.writeable
    # the provider reads that same array, no copy of it
    assert TrajectoryCoefficients(traj.times, traj.samples).samples is traj.samples


def test_trajectory_coefficients_interpolate_and_clamp():
    g = Grid(dim=1, n=8, box_length=2.0 * np.pi)
    times = [0.0, 1.0]
    samples = np.stack([np.stack([np.zeros(8), np.full(8, 2.0), np.zeros(8)]),
                        np.stack([np.ones(8), np.full(8, 4.0), np.full(8, 2.0)])])
    tc = TrajectoryCoefficients(times, samples)
    assert np.allclose(tc.stage(g, 0.25).phit, 2.5)
    assert np.allclose(tc.stage(g, 0.25).vphit, 0.25)
    assert np.allclose(tc.stage(g, 2.0).v, 2.0)
    assert np.allclose(tc.stage(g, -1.0).phit, 2.0)
    with pytest.raises(ValueError, match="at least one"):
        TrajectoryCoefficients([], samples[:0])


# -- masked stages and the transform budget ------------------------------------


def random_trajectory(grid, times, seed):
    """A TrajectoryCoefficients provider with unresolved random samples:
    vphi in [0.1, 0.9] keeps the soft parameters inside the regime."""
    rng = np.random.default_rng(seed)
    k = len(times)
    return TrajectoryCoefficients(times, np.concatenate((
        rng.uniform(0.1, 0.9, (k, 1) + grid.shape),
        rng.uniform(0.0, 0.7, (k, 1) + grid.shape),
        rng.uniform(-0.3, 0.3, (k, grid.dim) + grid.shape)), axis=1))


def interpolated(times, stack, t):
    """The field at t from stack[i], the field at times[i]: linear between
    samples, clamped past both ends."""
    weights = [np.interp(t, times, row) for row in np.eye(len(times))]
    return np.tensordot(weights, stack, axes=1)


def fresh_stage(grid, provider, t):
    """The former per-stage build: interpolate the stored samples, then mask
    every coefficient from scratch."""
    v, phit, vphit = (interpolated(provider.times, rows, t) for rows in
                      (provider.samples[:, 2:], provider.samples[:, 1],
                       provider.samples[:, 0]))
    q1 = deformation(grid, v)
    d = grid.dim
    return {
        "v": np.stack([grid.dealias(v[i]) for i in range(d)]),
        "div_v": grid.dealias(grid.div(v)),
        "q1_upper": np.stack([grid.dealias(q1[i, j]) for i in range(d)
                              for j in range(i, d)]),
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
        if t in first:
            assert np.array_equal(got.packed, first[t]), t
            continue
        first[t] = got.packed.copy()
        for name, want in fresh_stage(g, provider, t).items():
            err = np.max(np.abs(getattr(got, name) - want))
            assert err <= 1e-12 * max(np.max(np.abs(want)), 1.0), (name, t)


def test_interpolated_stages_stay_few_when_a_sample_interval_holds_many_steps(
        monkeypatch):
    # 40 steps between two samples: the window solve asks for each stage
    # time once, and the provider masks each sample once and keeps no more
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

    provider = random_trajectory(g, [0.0, 1.0], seed=7)
    stage, asked = provider.stage, []

    def recorded(grid, t):
        asked.append(t)
        got = stage(grid, t)
        assert len(provider._masked) <= 2
        return got

    init = ReformState(ScalarField(g, provider.samples[0, 0]),
                       ScalarField(g, provider.samples[0, 1]),
                       VectorField(g, provider.samples[0, 2:]))
    traj = solve_linearized(init, p, recorded, 0.2, 1.0, dt=1.0 / 40,
                            sample_dt=1.0)
    assert len(traj.dt_history) == 40
    # every step ends where the next begins, at one stage time
    assert len(asked) == len(set(asked)) == 1 + 4 * 40
    # the two masked samples and 4 interpolated stage times per step but the
    # last, whose end is sample 1
    assert len(built) == 2 + 4 * 40 - 1


def test_a_step_after_a_snapped_landing_reads_its_stage_at_the_sample(
        monkeypatch):
    # dt1 + (0.3 - dt1) misses the sample 0.3 by roundoff: the landing step
    # ends at march's t_new = 0.3 exactly, and the next step starts from the
    # pair built there, so the off-by-roundoff time is never asked for
    dt1 = 0.002529380658245123
    assert dt1 + (0.3 - dt1) != 0.3
    sizes = iter([dt1, 0.3, 0.3])
    monkeypatch.setattr(linearized, "adaptive_dt", lambda *args: next(sizes))
    g = Grid(dim=1, n=16, box_length=2.0 * np.pi)
    zeros, asked, forced = np.zeros(g.shape), [], []
    stage = frozen(zeros[None], zeros, zeros)

    def forcing(t):
        forced.append(t)
        return np.zeros((3,) + g.shape)

    init = ReformState(ScalarField(g, zeros), ScalarField(g, zeros),
                       VectorField(g, zeros[None]))
    traj = solve_linearized(init, soft_params(),
                            lambda grid, t: asked.append(t) or stage(grid, t),
                            0.0, 0.6, sample_dt=0.3, forcing=forcing)
    assert traj.times == [0.0, 0.3, 0.6]
    # each stage time once: the start and four per step
    for times in (asked, forced):
        assert 0.3 in times and dt1 + (0.3 - dt1) not in times
        assert len(times) == len(set(times)) == 1 + 4 * 3


@st.composite
def cadence_and_sizes(draw):
    """A sample interval and the step sizes adaptive_dt is scripted to
    return in turn, each in [1e-3, 1] sample intervals."""
    sample_dt = draw(st.floats(0.05, 1.0))
    sizes = draw(st.lists(st.floats(1e-3 * sample_dt, sample_dt),
                          min_size=1, max_size=6))
    return sample_dt, sizes


@settings(max_examples=100, deadline=None)
@given(case=cadence_and_sizes(), samples=st.integers(1, 3))
@example(case=(0.3, [0.002529380658245123, 0.3]), samples=2)
def test_every_stage_time_is_a_sample_time_or_clear_of_all_of_them(case,
                                                                   samples):
    # a stage time never misses a sample by roundoff: the end of a landing
    # step is the sample time itself. Only the times the window solve asks
    # for matter here, so the steps carry their fields through unchanged.
    sample_dt, sizes = case
    t_window = samples * sample_dt
    g = Grid(dim=1, n=8, box_length=2.0 * np.pi)
    zeros, asked, forced = np.zeros(g.shape), [], []

    class Recorded:
        v = phit = None   # read only by the scripted adaptive_dt

    def stage(grid, t):
        asked.append(t)
        return Recorded

    def forcing(t):
        forced.append(t)

    init = ReformState(ScalarField(g, zeros), ScalarField(g, zeros),
                       VectorField(g, zeros[None]))
    scripted = itertools.cycle(sizes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linearized, "adaptive_dt", lambda *args: next(scripted))
        mp.setattr(linearized, "transport_step", lambda p, grid, f, *args:
                   (f, linearized.TransportDiag(0, 0.0)))
        mp.setattr(linearized, "momentum_step", lambda p, grid, y, *args:
                   (y[0], y[1:], linearized.MomentumDiag(0.0, 0.0, 0, 0.0)))
        traj = solve_linearized(init, soft_params(), stage, 0.0, t_window,
                                sample_dt=sample_dt, forcing=forcing)
    grid_times = np.array(traj.times)
    for times in (asked, forced):
        assert len(times) == len(set(times))
        for t in times:
            gap = np.abs(grid_times - t).min()
            assert gap == 0.0 or gap >= 1e-9 * t_window, t


def seven_exponential_update(p, g, phi, u, coeffs, stages_vphi, dt, t, nu1, nu2):
    """The IF-RK3 update as first written, one exponential per term, on the
    spectra the step carries."""
    G = _shift(g, nu1, nu2, dt)

    def slope(ts, pa, ua, va):
        coeff_hat = g.fft(_viscous_fields(p, va, coeffs["eta"])[0])
        k = _momentum_rhs(g, p, coeffs["stage"](g, ts), coeff_hat,
                          np.concatenate(([pa], ua)), nu1, nu2, None)
        return k[0], k[1:]

    p0, u0 = g.fft(phi), g.fft(u)
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
    coeffs = {"stage": random_trajectory(g, [0.0, 0.01, 0.02], seed + 1).stage,
              "eta": 0.1}
    # the step clips negative phi, so phi rides on a constant that keeps it
    # positive
    phi = 1.0 + rng.uniform(0.0, 0.7, g.shape)
    u = rng.uniform(-0.3, 0.3, (dim,) + g.shape)
    stages_vphi = tuple(rng.uniform(0.1, 0.9, g.shape) for _ in range(3))
    dt, t = 0.004, 0.003
    phi_new, u_new, diag = momentum(
        p, g, np.concatenate(([phi], u)), coeffs, stages_vphi, dt, t)
    want_phi, want_u = seven_exponential_update(
        p, g, phi, u, coeffs, stages_vphi, dt, t, diag.nu1, diag.nu2)
    assert diag.nu1 > 0.0 and diag.nu2 > 0.0
    for got, want in ((phi_new, want_phi), (u_new, want_u)):
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


def full_q1(grid, stage):
    """Q1(v) of a stage as its (d, d) stack: the stored upper triangle,
    row-major with j >= i, and each entry below the diagonal its mirror."""
    d = grid.dim
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    assert len(stage.q1_upper) == len(pairs)
    q1 = np.empty((d, d) + grid.shape)
    for (i, j), row in zip(pairs, stage.q1_upper):
        q1[i, j] = q1[j, i] = row
    return q1


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
    q1 = full_q1(g, stage)
    dphi = (-g.dealias(advect(g, stage.v, phi))
            - 0.5 * (p.gamma - 1.0) * g.dealias(stage.phit * g.div(u)))
    out = np.empty_like(u)
    for i in range(g.dim):
        lap = g.laplacian(u[i])
        q1_term = g.dealias(sum(q1[i, j] * grad_sq[j] for j in range(g.dim)))
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


def batched_momentum_rhs(grid, params, stage, coeff_hat, y_hat, nu1, nu2, forcing):
    """The momentum slope with every factor from one batched inverse: the
    kernel _momentum_rhs replaced by a group at a time, kept as the
    reference its bits are checked against."""
    d = grid.dim
    press = 2.0 * params.A * params.gamma / (params.gamma - 1.0)
    s1 = params.alpha * params.delta1 / (params.delta1 - 1.0)
    s2 = params.beta * params.delta2 / (params.delta2 - 1.0)
    rows = np.cumsum((1, d, d, d, d, d, 2, (d + 1) * d))
    batch = np.empty((rows[-1],) + grid.spectral_shape, dtype=complex)
    div_u_hat, lap_hat, gd_hat, grad_phi_hat, grad_sq_hat, grad_hi_hat, c_hat, grads_hat = \
        np.split(batch, rows[:-1])
    u_hat = y_hat[1:]
    np.sum(grid.ik * u_hat, axis=0, out=div_u_hat[0])
    np.multiply(-grid.k_squared, u_hat, out=lap_hat)
    np.multiply(grid.ik, div_u_hat[0], out=gd_hat)
    np.multiply(grid.ik, y_hat[0], out=grad_phi_hat)
    np.multiply(grid.ik_masked, coeff_hat[0], out=grad_sq_hat)
    np.multiply(grid.ik_masked, coeff_hat[1], out=grad_hi_hat)
    np.multiply(grid.dealias_mask, coeff_hat[2:], out=c_hat)
    np.multiply(grid.ik_masked[None], y_hat[:, None],
                out=grads_hat.reshape((d + 1, d) + grid.spectral_shape))
    phys = grid.ifft(batch)
    div_u, lap, gd, grad_phi, grad_sq_m, grad_hi_m, (c_shear_m, c_compr_m), grads = \
        np.split(phys, rows[:-1])
    products = np.sum(stage.v * grads.reshape((d + 1, d) + grid.shape), axis=1)
    products[0] += 0.5 * (params.gamma - 1.0) * stage.phit * div_u[0]
    products[1:] += (press * stage.phit * grad_phi - c_shear_m * lap - c_compr_m * gd
                     - s1 * np.sum(full_q1(grid, stage) * grad_sq_m, axis=1)
                     - s2 * stage.div_v * grad_hi_m)
    slopes = operators._slope_spectrum(grid, products, forcing)
    slopes[1:] -= nu1 * lap_hat + nu2 * gd_hat
    return slopes


def momentum_kernel_inputs(g, p, seed, masked):
    """A stage, coeff_hat and y_hat for one slope, y_hat raw as the solver
    passes it or masked as reform_slopes does."""
    rng = np.random.default_rng(seed)
    stage = random_trajectory(g, [0.0], seed + 1).stage(g, 0.0)
    vphi = rng.uniform(0.1, 0.9, g.shape)
    coeff_hat = g.fft(_viscous_fields(p, vphi, 0.1)[0])
    y_hat = g.fft(np.concatenate((rng.uniform(0.0, 0.7, (1,) + g.shape),
                                  rng.uniform(-0.3, 0.3, (g.dim,) + g.shape))))
    if masked:
        y_hat = g.dealias_mask * y_hat
    return stage, coeff_hat, y_hat, rng


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       masked=st.booleans(), shifted=st.booleans(), forced=st.booleans())
def test_the_grouped_momentum_slope_equals_the_batched_one_bit_for_bit(
        seed, dim, masked, shifted, forced):
    p = soft_params()
    g = Grid(dim=dim, n=8 if dim == 3 else 16, box_length=2.0 * np.pi)
    stage, coeff_hat, y_hat, rng = momentum_kernel_inputs(g, p, seed, masked)
    nu1, nu2 = (0.3, 0.2) if shifted else (0.0, 0.0)
    forcing = rng.standard_normal((dim + 1,) + g.shape) if forced else None
    args = (g, p, stage, coeff_hat, y_hat, nu1, nu2, forcing)
    assert np.array_equal(_momentum_rhs(*args), batched_momentum_rhs(*args))


def test_the_grouped_momentum_slope_holds_about_half_the_batched_transient():
    # the batched inverse holds all d^2 + 6d + 3 factor spectra, the
    # transform's intermediates and the physical factors at once; a group
    # at a time holds the shared factors, the product buffer and the
    # largest group (d + 4 rows)
    p = soft_params()
    g = Grid(dim=3, n=16, box_length=2.0 * np.pi)
    stage, coeff_hat, y_hat, _ = momentum_kernel_inputs(g, p, 5, False)
    args = (g, p, stage, coeff_hat, y_hat, 0.3, 0.2, None)
    peaks = []
    for kernel in (_momentum_rhs, batched_momentum_rhs):
        kernel(*args)  # builds the grid's cached multipliers
        tracemalloc.start()
        try:
            kernel(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    grouped, batched = peaks
    assert grouped <= 0.6 * batched, (grouped, batched)


def batched_momentum_inputs(params, grid, y, eta, vphi_new, t):
    """The momentum step's inputs with the three stage proxies stacked, their
    _viscous_fields built at once and one forward of all of them with the
    (phi, u) rows y: the _momentum_inputs replaced by one stage at a time,
    kept as the reference its bits are checked against."""
    d = grid.dim
    fields, compr = _viscous_fields(params, np.stack(vphi_new), eta)
    coeff_min = float(compr.min())
    nu1, nu2 = float(fields[2].max()), max(float(fields[3].max()), 0.0)
    if coeff_min < 0.5 * params.alpha:
        raise SolverAbort("ellipticity regime exit", t, "grid-min alpha + beta "
                          f"vphi^(2m) = {coeff_min:.6g} < alpha/2")
    spectra = grid.fft(np.concatenate((y, fields.reshape((12,) + grid.shape))))
    coeff_hat = spectra[d + 1:].reshape((4, 3) + grid.spectral_shape)
    return spectra[:d + 1], np.swapaxes(coeff_hat, 0, 1), nu1, nu2


def momentum_input_args(g, seed, low=0.1):
    """(grid, the (phi, u) rows, eta, three stage proxies, t) for
    _momentum_inputs."""
    rng = np.random.default_rng(seed)
    y = np.concatenate((rng.uniform(0.0, 0.7, (1,) + g.shape),
                        rng.uniform(-0.3, 0.3, (g.dim,) + g.shape)))
    return g, y, 0.1, tuple(rng.uniform(low, 0.9, (3,) + g.shape)), 0.25


def test_momentum_inputs_abort_with_the_batched_message():
    p = validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-1.0,
                        delta1=1.5, delta2=2.5)
    g = Grid(dim=2, n=16, box_length=1.0)
    args = momentum_input_args(g, 3, low=0.5)    # compr = 1 - vphi^4 dips below 1/2
    messages = []
    for inputs in (linearized._momentum_inputs, batched_momentum_inputs):
        with pytest.raises(SolverAbort, match="ellipticity regime exit") as err:
            inputs(p, *args)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def all_slopes_momentum_step(params, grid, y, stages, eta, vphi_new, dt, t):
    """The IF-RK3 step that keeps every slope until the update, on the
    inputs batched_momentum_inputs builds before the first slope (the (phi,
    u) spectra and all twelve viscous spectra in one buffer): the step
    momentum_step replaced, kept as the reference its bits and its working
    set are checked against."""
    y0, coeff_hat, nu1, nu2 = batched_momentum_inputs(params, grid, y, eta,
                                                      vphi_new, t)

    def slope(i, y_hat):
        stage, rows = stages[i]
        return _momentum_rhs(grid, params, stage, coeff_hat[i], y_hat, nu1, nu2,
                             None if rows is None else rows[1:])

    G = _shift(grid, nu1, nu2, dt)
    half = 0.5 * dt
    k1 = slope(0, y0)
    y2 = y0 + half * k1
    y2[1:] = G(half, y2[1:])
    k2 = slope(1, y2)
    g_k2u = G(half, k2[1:])
    y3 = y0 + dt * (-k1 + 2.0 * k2)
    y3[1:] = G(dt, y0[1:] - dt * k1[1:]) + 2.0 * dt * g_k2u
    k3 = slope(2, y3)
    increment = dt * (k1 + 4.0 * k2 + k3) / 6.0
    increment[1:] = (G(dt, y0[1:] + (dt / 6.0) * k1[1:]) - y0[1:]
                     + dt * (4.0 * g_k2u + k3[1:]) / 6.0)
    y_new = y + grid.ifft(increment)
    phi, count, mass = linearized._finish(y_new[0], grid.cell_volume, t + dt,
                                          y_new[1:])
    return phi, y_new[1:], linearized.MomentumDiag(nu1, nu2, count, mass)


def momentum_step_args(g, seed, forced=False, shifted=True):
    """(grid, the (phi, u) rows, the stage pairs at t, t + dt/2 and t + dt,
    eta, three stage proxies, dt, t) for momentum_step. Unshifted, the
    proxies and eta are 0, so nu1 = nu2 = 0 and the shift is the identity."""
    g, y, eta, vphi_new, t = momentum_input_args(g, seed)
    if not shifted:
        eta, vphi_new = 0.0, tuple(np.zeros_like(v) for v in vphi_new)
    dt = 0.004
    provider = random_trajectory(g, [t, t + dt], seed + 1)
    rng = np.random.default_rng(seed + 2)
    stages = tuple((provider.stage(g, ts), rng.standard_normal((g.dim + 2,) + g.shape)
                    if forced else None) for ts in (t, t + 0.5 * dt, t + dt))
    return g, y, stages, eta, vphi_new, dt, t


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       forced=st.booleans(), shifted=st.booleans())
def test_the_momentum_step_equals_the_all_slopes_step_bit_for_bit(
        seed, dim, forced, shifted):
    p = soft_params()
    g = Grid(dim=dim, n=8 if dim == 3 else 16, box_length=2.0 * np.pi)
    args = momentum_step_args(g, seed, forced, shifted)
    phi, u, diag = linearized.momentum_step(p, *args)
    want_phi, want_u, want_diag = all_slopes_momentum_step(p, *args)
    assert np.array_equal(phi, want_phi) and np.array_equal(u, want_u)
    assert diag == want_diag
    assert (diag.nu1 > 0.0 and diag.nu2 > 0.0) == shifted


def test_a_momentum_step_evaluates_one_power_per_stage(monkeypatch):
    calls = []

    def counted(values, p):
        calls.append(p)
        return stable_power(values, p)

    for module in (linearized, operators):
        monkeypatch.setattr(module, "stable_power", counted)
    p = soft_params()
    g = Grid(dim=2, n=16, box_length=2.0 * np.pi)
    linearized.momentum_step(p, *momentum_step_args(g, 4))
    assert calls == [2.0 * p.m] * 3


def test_the_momentum_step_holds_less_than_the_all_slopes_step():
    # Through the third slope, the all-slopes step keeps y0 and the twelve
    # viscous spectra in one buffer, k1, k2, y2, y3 and G(dt/2) k2u; the
    # momentum step keeps y3, the update's terms in y0, k1 and k2, G(dt/2)
    # k2u and the three power rows, and transforms one stage's four
    # viscous fields in the slope that reads them. At 3-D n=16 the two
    # peaks measured 2,073 and 2,662 KiB (0.78), the momentum step's
    # peak now in its second slope.
    p = soft_params()
    g = Grid(dim=3, n=16, box_length=2.0 * np.pi)
    args = momentum_step_args(g, 5)
    peaks = []
    for step in (linearized.momentum_step, all_slopes_momentum_step):
        step(p, *args)  # builds the grid's cached multipliers
        tracemalloc.start()
        try:
            step(p, *args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    held, all_slopes = peaks
    assert held <= 0.85 * all_slopes, (held, all_slopes)


# -- the physical-space route the spectral steps replaced ----------------------


def physical_transport_step(p, g, f, coeffs, dt, t):
    """SSP-RK3 in Shu-Osher form, every stage in physical space and every
    right-hand side through its own transforms."""

    def rhs(ts, arr):
        stage = coeffs["stage"](g, ts)
        out = -g.dealias(advect(g, stage.v, arr)
                         + 0.5 * (p.delta1 - 1.0) * stage.vphit * stage.div_v)
        if coeffs.get("forcing") is not None:
            out = out + coeffs["forcing"](ts)[0]
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
        - s1 * np.sum(full_q1(g, stage) * grad_sq_m, axis=1)
        - s2 * stage.div_v * grad_hi_m))
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
    eta, forcing = coeffs["eta"], coeffs.get("forcing")
    nu1 = max(p.alpha * float((v**2 + eta**2).max()) for v in stages_vphi)
    nu2 = max(0.0, *(float(((v**2 + eta**2) * (p.alpha + p.beta * stable_power(
        v, 2.0 * p.m))).max()) for v in stages_vphi))

    def slope(ts, pa, ua, va):
        dphi, du = physical_momentum_rhs(g, p, coeffs["stage"](g, ts),
                                         va, eta, pa, ua, nu1, nu2)
        if forcing is not None:
            rows = forcing(ts)
            dphi, du = dphi + rows[1], du + rows[2:]
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
    a, b = rng.standard_normal((2, dim + 2) + g.shape)
    coeffs = {"stage": random_trajectory(g, [0.0, 0.01, 0.02], seed + 1).stage,
              "eta": 0.1, "forcing": (lambda t: a + t * b) if forced else None}
    # every window clips, so f and phi ride on a constant that keeps them
    # positive
    f, phi = 10.0 + rng.standard_normal((2,) + g.shape)
    u = rng.standard_normal((dim,) + g.shape)
    stages_vphi = tuple(rng.uniform(0.1, 0.9, (3,) + g.shape))
    dt, t = 0.004, 0.003

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    got, _ = transport(p, g, f, coeffs, dt, t)
    assert_close(got, physical_transport_step(p, g, f, coeffs, dt, t))

    phi_new, u_new, diag = momentum(
        p, g, np.concatenate(([phi], u)), coeffs, stages_vphi, dt, t)
    want_phi, want_u, nu1, nu2 = physical_momentum_step(
        p, g, phi, u, coeffs, stages_vphi, dt, t)
    assert (diag.nu1, diag.nu2) == (nu1, nu2)
    assert_close(phi_new, want_phi)
    assert_close(u_new, want_u)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_transform_budget_of_one_window(dim, monkeypatch):
    # Transforms of one window with every step landing on a sample, in d
    # dimensions, as (Grid.fft + Grid.ifft calls, real fields transformed:
    # the stack size of the physical side of each call):
    #   transport half step: one forward of f; per stage an inverse of the
    #     d masked derivatives of the stage spectrum and a forward of the
    #     summed products, (2, d + 1) x 3 stages; one inverse of the
    #     increment                                        (8, 3d + 5)
    #     x 2 half steps                                   (16, 6d + 10)
    #   momentum step: one forward of (phi, u) and, for each of the three
    #     stage fields, one of vphi^2, vphi^(2m+2), c_shear and c_compr
    #     (4, d + 13); per slope an inverse of the shared div u, masked c_shear and
    #     c_compr and masked gradient of vphi^2 (d + 3), one of the masked
    #     gradient of phi (d), and per component i one of the masked
    #     gradient of u_i, Lap u_i, d_i div u, d_i phi and the masked
    #     d_i vphi^(2m+2) (d + 4), then one forward of the d + 1 summed
    #     products, (d + 3, d^2 + 7d + 4) x 3 slopes; one inverse of the
    #     (phi, u) increment (d + 1)        (3d + 14, 3d^2 + 23d + 26)
    #   shift exponentials: multiplies on the spectra        (0, 0)
    #   per step: 3d + 30 = 33, 36, 39 calls,
    #             3d^2 + 29d + 36 = 68, 106, 150 fields
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
    coeffs = {"stage": provider.stage, "eta": 0.1, "t_window": times[-1],
              "dt": dt, "sample_dt": dt}
    calls, fields = [0], [0]

    def counted(fn):
        def wrapper(grid, a):
            out = fn(grid, a)
            calls[0] += 1
            fields[0] += max(a.size, out.size) // g.n**dim
            return out
        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(Grid, name, counted(getattr(Grid, name)))
    traj = solve_linearized(init, p, **coeffs)
    assert len(traj.dt_history) == steps
    assert calls[0] == steps * (3 * dim + 30) + len(times) * 2
    assert fields[0] == (steps * (3 * dim**2 + 29 * dim + 36)
                         + len(times) * (dim**2 + 5 * dim + 8) // 2)

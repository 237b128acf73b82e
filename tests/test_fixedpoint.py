"""Picard iteration, the regularization ladder, and their bookkeeping."""

import math
import mmap
import os
import pickle
import select
import signal
import time
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vacflow.fixedpoint
import vacflow.oracle
from vacflow.fields import FieldError, Grid, ScalarField, VectorField
from vacflow.fixedpoint import (
    DEFAULT_MAX_ITER,
    DEFAULT_PICARD_TOL,
    DIVERGING_GROWTHS,
    ContinuationError,
    EtaSchedule,
    LostChild,
    PicardIteration,
    PicardTrace,
    eta_continuation,
    picard_solve,
    run_forked,
    _sample_gap,
    _start_guess,
    trajectory_distance,
)
from vacflow.initial_data import bump_density, reform_state_from_density, velocity_modes
from vacflow.linearized import (DEFAULT_CFL_SAFETY, DEFAULT_SAMPLES_PER_WINDOW,
                                SolverAbort, TrajectoryCoefficients,
                                solve_linearized)
from vacflow.operators import ReformState
from vacflow.params import ParameterError, validate_params
from vacflow.runconfig import ConfigError

from stacking import stacked


def soft_params():
    return validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-0.1,
                           delta1=1.5, delta2=2.5)


def positive_state(n=64):
    g = Grid(dim=1, n=n, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    rho = ScalarField(g, 0.5 + 0.2 * np.cos(x))
    u = VectorField(g, 0.1 * np.sin(x)[None, :])
    return reform_state_from_density(rho, u, soft_params())


def zero_state(n=16):
    g = Grid(dim=1, n=n, box_length=2.0 * np.pi)
    return ReformState(
        vphi=ScalarField(g, np.zeros(n)),
        phi=ScalarField(g, np.zeros(n)),
        u=VectorField(g, np.zeros((1, n))),
    )


def trajectory_gap(a, b):
    """The terms of the contraction metric between two trajectories: the
    sup-in-time squared L2 gaps of the (phi, u) block and of vphi, and the
    sup-in-time pointwise gap."""
    gaps = [_sample_gap(a.grid, a.samples, b.samples, i)
            for i in range(len(a.times))]
    return tuple(max(terms) for terms in zip(*gaps))


def test_picard_validates_window_and_iteration_budget():
    p = soft_params()
    with pytest.raises(ValueError, match="t_window"):
        picard_solve(zero_state(), p, 0.5, 0.0,
                     sample_dt=0.0 / DEFAULT_SAMPLES_PER_WINDOW)
    with pytest.raises(ValueError, match="max_iter"):
        picard_solve(zero_state(), p, 0.5, 0.1, max_iter=0,
                     sample_dt=0.1 / DEFAULT_SAMPLES_PER_WINDOW)


@pytest.mark.parametrize("residual", [math.nan, math.inf, 1e-9])
def test_an_identity_residual_not_within_the_guard_is_refused(monkeypatch,
                                                              residual):
    # the guard fails closed: a residual that compares false is refused too
    monkeypatch.setattr(vacflow.fixedpoint, "exponent_identity_residual",
                        lambda params: residual)
    with pytest.raises(ParameterError) as err:
        picard_solve(zero_state(), soft_params(), 0.5, 0.01,
                     sample_dt=0.01 / DEFAULT_SAMPLES_PER_WINDOW)
    assert err.value.constraint == "exponent identities"
    assert_no_children()


def test_zero_data_converges_in_one_iteration_with_zero_metric():
    traj, trace = picard_solve(zero_state(), soft_params(), 0.5, 0.01,
                               sample_dt=0.01 / DEFAULT_SAMPLES_PER_WINDOW)
    assert trace.converged
    assert trace.final_k == 1
    assert trace.final_S == 0.0
    assert np.abs(traj.final.phi.values).max() == 0.0
    assert np.abs(traj.final.u.values).max() == 0.0


def test_picard_contracts_geometrically_on_smooth_data():
    init = positive_state()
    traj, trace = picard_solve(init, soft_params(), 0.25, 0.005,
                               picard_tol=1e-16, max_iter=8,
                               sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    positives = [it.S_k for it in trace.iterations if it.S_k > 0.0]
    assert len(positives) >= 3
    ratio = trace.geometric_ratio()
    assert 0.0 < ratio < 0.5
    for a, b in zip(positives, positives[1:]):
        assert b < a


def test_fixed_point_residual_small_after_convergence():
    init = positive_state()
    tol = 1e-12
    traj, trace = picard_solve(init, soft_params(), 0.25, 0.005,
                               picard_tol=tol,
                               sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    assert trace.converged
    # one more linearized solve from the converged trajectory barely moves
    # it, in the metric the iteration uses
    stage = TrajectoryCoefficients(traj.times, traj.samples).stage
    nxt = solve_linearized(init, soft_params(), stage, 0.25, 0.005,
                           sample_dt=traj.times[1])
    w_sq, v_sq, _ = trajectory_gap(nxt, traj)
    assert w_sq + v_sq <= 10.0 * tol


def test_trace_validation_and_fitted_ratio():
    rows = tuple(
        PicardIteration(k=k, S_k=4.0**-k, linf_delta=0.0, wall_time=0.0)
        for k in range(1, 5)
    )
    trace = PicardTrace(iterations=rows, stop_reason="converged", final_k=4)
    assert trace.geometric_ratio() == pytest.approx(0.25, rel=1e-12)
    assert trace.final_S == 4.0**-4
    short = PicardTrace(
        iterations=(PicardIteration(k=1, S_k=0.5, linf_delta=0.0,
                                    wall_time=0.0),),
        stop_reason="converged", final_k=1,
    )
    assert math.isnan(short.geometric_ratio())


@settings(max_examples=12, deadline=None)
@given(dim=st.integers(1, 2), amplitude=st.floats(0.05, 0.6),
       width=st.floats(0.4, 1.5), speed=st.floats(-0.5, 0.5),
       eta=st.floats(0.0, 0.5))
def test_every_written_sample_is_finite_and_clipped_on_data_touching_vacuum(
        dim, amplitude, width, speed, eta):
    # a Trajectory checks only its shape: the window solve and the start
    # guess must write finite samples with both proxies clipped at zero,
    # sample 0 the initial state itself
    params = soft_params()
    g = Grid(dim=dim, n=16, box_length=2.0 * np.pi)
    rho = bump_density(g, amplitude, width)
    assert rho.values.min() == 0.0
    init = reform_state_from_density(rho, velocity_modes(g, speed), params)
    t_window = 0.02
    sample_dt = t_window / 8
    guess = _start_guess(init, params, t_window, DEFAULT_CFL_SAFETY, sample_dt,
                         None)
    stage = TrajectoryCoefficients(guess.times, guess.samples).stage
    solved = solve_linearized(init, params, stage, eta, t_window,
                              sample_dt=sample_dt)
    for traj in (guess, solved):
        assert np.all(np.isfinite(traj.samples))
        assert traj.samples[:, :2].min() >= 0.0
        assert np.array_equal(traj.samples[0], init.rows)


def test_trajectory_gap_separates_the_two_blocks():
    g = Grid(dim=1, n=16, box_length=1.0)
    mk = lambda c: ReformState(
        vphi=ScalarField(g, np.full(16, c)),
        phi=ScalarField(g, np.zeros(16)),
        u=VectorField(g, np.zeros((1, 16))),
    )
    a = stacked([mk(0.0), mk(0.0)], [0.0, 1.0])
    b = stacked([mk(0.0), mk(0.5)], [0.0, 1.0])
    w_sq, v_sq, linf = trajectory_gap(a, b)
    assert w_sq == 0.0
    assert v_sq == pytest.approx(0.25, rel=1e-12)  # |0.5|^2 * volume 1
    assert linf == 0.5
    assert trajectory_distance(a, b) == pytest.approx(0.5, rel=1e-12)


def test_trajectory_gap_rejects_mismatched_time_grids():
    g = Grid(dim=1, n=16, box_length=1.0)
    z = ReformState(
        vphi=ScalarField(g, np.zeros(16)),
        phi=ScalarField(g, np.zeros(16)),
        u=VectorField(g, np.zeros((1, 16))),
    )
    a = stacked([z, z], [0.0, 1.0])
    b = stacked([z, z], [0.0, 2.0])
    with pytest.raises(ValueError, match="time grids"):
        trajectory_distance(a, b)


def test_trajectory_distance_refuses_grids_one_ulp_apart():
    # windows of one sample_times call carry the same times exactly
    g = Grid(dim=1, n=16, box_length=1.0)
    z = ReformState(
        vphi=ScalarField(g, np.zeros(16)),
        phi=ScalarField(g, np.zeros(16)),
        u=VectorField(g, np.zeros((1, 16))),
    )
    a = stacked([z, z, z], [0.0, 0.5, 1.0])
    b = stacked([z, z, z], [0.0, float(np.nextafter(0.5, 1.0)), 1.0])
    assert trajectory_distance(a, a) == 0.0
    with pytest.raises(ValueError, match="time grids"):
        trajectory_distance(a, b)


def test_eta_schedule_validation_and_levels():
    s = EtaSchedule(eta0=0.5, factor=0.5, max_levels=4, cauchy_tol=1e-6)
    assert s.levels() == [0.5, 0.25, 0.125, 0.0625]
    with pytest.raises(ValueError, match="eta0"):
        EtaSchedule(eta0=0.0, factor=0.5, max_levels=4, cauchy_tol=1e-6)
    with pytest.raises(ValueError, match="factor"):
        EtaSchedule(eta0=0.5, factor=1.0, max_levels=4, cauchy_tol=1e-6)
    with pytest.raises(ValueError, match="max_levels"):
        EtaSchedule(eta0=0.5, factor=0.5, max_levels=0, cauchy_tol=1e-6)
    with pytest.raises(ValueError, match="cauchy_tol"):
        EtaSchedule(eta0=0.5, factor=0.5, max_levels=4, cauchy_tol=0.0)


def test_single_level_continuation_equals_direct_picard():
    init = positive_state(n=32)
    p = soft_params()
    sched = EtaSchedule(eta0=0.25, factor=0.5, max_levels=1, cauchy_tol=1e-9)
    traj_c, report = eta_continuation(init, p, sched, 0.004,
                                      sample_dt=0.004 / DEFAULT_SAMPLES_PER_WINDOW)
    traj_d, _ = picard_solve(init, p, 0.25, 0.004,
                             sample_dt=0.004 / DEFAULT_SAMPLES_PER_WINDOW)
    assert len(report.levels) == 1
    assert math.isnan(report.levels[0].distance)
    assert report.distances == []
    assert not report.reached_tol
    assert np.array_equal(traj_c.final.phi.values, traj_d.final.phi.values)
    assert np.array_equal(traj_c.final.u.values, traj_d.final.u.values)
    assert np.array_equal(traj_c.final.vphi.values, traj_d.final.vphi.values)


def test_continuation_limit_matches_the_unregularized_solve():
    init = positive_state()
    p = soft_params()
    cauchy_tol = 1e-4
    sched = EtaSchedule(eta0=0.5, factor=0.5, max_levels=20,
                        cauchy_tol=cauchy_tol)
    traj, report = eta_continuation(init, p, sched, 0.005, picard_tol=1e-12,
                                    sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    assert report.reached_tol
    assert report.distances == sorted(report.distances, reverse=True)
    # the levels past the stop were still running when it came
    assert_no_children()
    direct, _ = picard_solve(init, p, 0.0, 0.005, picard_tol=1e-12,
                             sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    assert trajectory_distance(traj, direct) <= 2.0 * cauchy_tol


def test_failed_level_raises_with_its_index():
    init = positive_state(n=32)
    sched = EtaSchedule(eta0=0.5, factor=0.5, max_levels=3, cauchy_tol=1e-9)
    with pytest.raises(ContinuationError, match="no convergence") as err:
        eta_continuation(init, soft_params(), sched, 0.004,
                         picard_tol=0.0, max_iter=1,
                         sample_dt=0.004 / DEFAULT_SAMPLES_PER_WINDOW)
    assert err.value.level == 0
    # raised in this process while the later levels still ran
    assert_no_children()


# -- levels in forked children ---------------------------------------------------


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_continuation_levels_equal_in_process_solves_bit_for_bit():
    init = positive_state(n=32)
    p = soft_params()
    sched = EtaSchedule(eta0=0.5, factor=0.5, max_levels=3, cauchy_tol=1e-14)
    traj, report = eta_continuation(init, p, sched, 0.004,
                                    sample_dt=0.004 / DEFAULT_SAMPLES_PER_WINDOW)
    assert_no_children()
    solves = [picard_solve(init, p, eta, 0.004,
                           sample_dt=0.004 / DEFAULT_SAMPLES_PER_WINDOW)
              for eta in sched.levels()]
    assert [lv.picard_S for lv in report.levels] == \
        [trace.final_S for _, trace in solves]
    assert [lv.picard_iters for lv in report.levels] == \
        [trace.final_k for _, trace in solves]
    assert report.distances == [
        trajectory_distance(b, a) for (a, _), (b, _) in zip(solves, solves[1:])]
    assert [(it.k, it.S_k, it.linf_delta) for it in report.final_trace.iterations] \
        == [(it.k, it.S_k, it.linf_delta) for it in solves[-1][1].iterations]
    direct = solves[-1][0]
    assert traj.times == direct.times
    assert traj.dt_history == direct.dt_history
    assert traj.clip_counts == direct.clip_counts
    for name in ("vphi", "phi", "u"):
        got = getattr(traj, name)
        assert np.array_equal(got, getattr(direct, name))
        assert not got.flags.writeable


def calls_in_the_tree(monkeypatch, run):
    """(name, pid) of every call of _start_guess and picard_solve that
    run() makes in any process of its tree, each written into one pipe."""
    log_r, log_w = os.pipe()

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            os.write(log_w, b"%s %d\n" % (name, os.getpid()))
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        for name in ("_start_guess", "picard_solve"):
            patch.setattr(vacflow.fixedpoint, name,
                          logged(name.encode(), getattr(vacflow.fixedpoint, name)))
        try:
            result = run()
        finally:
            os.close(log_w)
    with open(log_r, "rb") as fh:
        calls = [line.split() for line in fh.read().splitlines()]
    return result, [(name.decode(), int(pid)) for name, pid in calls]


@pytest.mark.parametrize("eventfd", [True, False],
                         ids=["eventfd", "without-eventfd"])
def test_each_level_computes_its_own_start_guess_in_its_own_process(
        monkeypatch, eventfd):
    # the guess is iterate 0 of each level's solve, written in the level's
    # process before any iterate forks, and never here
    init, p = positive_state(n=32), soft_params()
    sched = EtaSchedule(eta0=0.5, factor=0.5, max_levels=3, cauchy_tol=1e-14)
    if not eventfd:
        monkeypatch.delattr(os, "eventfd")
    (traj, report), calls = calls_in_the_tree(monkeypatch, lambda: (
        eta_continuation(init, p, sched, 0.004,
                         sample_dt=0.004 / DEFAULT_SAMPLES_PER_WINDOW)))
    assert_no_children()
    levels = [pid for name, pid in calls if name == "picard_solve"]
    guesses = [pid for name, pid in calls if name == "_start_guess"]
    assert len(set(levels)) == len(levels) == 3
    assert sorted(guesses) == sorted(levels)
    assert os.getpid() not in guesses
    solves = [sequential_picard(init, p, eta, 0.004, DEFAULT_PICARD_TOL,
                                DEFAULT_MAX_ITER) for eta in sched.levels()]
    assert [(lv.picard_iters, lv.picard_S) for lv in report.levels] == \
        [(len(rows), rows[-1][1]) for _, rows in solves]
    assert report.distances == [
        trajectory_distance(b, a) for (a, _), (b, _) in zip(solves, solves[1:])]
    ref = solves[-1][0]
    assert traj.dt_history == ref.dt_history
    assert traj.clip_counts == ref.clip_counts
    assert np.array_equal(traj.samples, ref.samples)


def test_abort_in_one_level_child_surfaces_with_its_index(monkeypatch):
    init = positive_state(n=32)
    sched = EtaSchedule(eta0=0.5, factor=0.5, max_levels=3, cauchy_tol=1e-14)
    parent = os.getpid()
    solve = vacflow.fixedpoint.picard_solve

    def abort_level_one(init, params, eta, *args, **kwargs):
        if eta == sched.levels()[1] and os.getpid() != parent:
            raise SolverAbort("injected failure", 0.00125, "level one only")
        return solve(init, params, eta, *args, **kwargs)

    monkeypatch.setattr(vacflow.fixedpoint, "picard_solve", abort_level_one)
    with pytest.raises(ContinuationError, match="injected failure") as err:
        eta_continuation(init, soft_params(), sched, 0.004,
                         sample_dt=0.004 / DEFAULT_SAMPLES_PER_WINDOW)
    assert err.value.level == 1
    cause = err.value.__cause__
    assert isinstance(cause, SolverAbort)
    assert (cause.reason, cause.time, cause.detail) == \
        ("injected failure", 0.00125, "level one only")
    assert_no_children()


@pytest.mark.parametrize("exc", [
    SolverAbort("solution lost finiteness", 0.0025, "min rho = -1e-3"),
    SolverAbort("step size underflow", 1e-14),
    ContinuationError(2, "solver abort: step size underflow at t = 0.001"),
    ParameterError("exponent identities", "derived-constant residual 1e-3"),
    ParameterError("m >= 3/2"),
    FieldError("field values must be finite"),
    ConfigError("unknown key"),
    LostChild("iterate 2 ended without a result (killed by SIGKILL)"),
], ids=lambda exc: type(exc).__name__)
def test_exceptions_survive_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def labelled(jobs):
    """(label, job) pairs that name each job by its index."""
    return [(f"job {i}", job) for i, job in enumerate(jobs)]


def test_run_forked_yields_in_job_order_from_children():
    def job(i):
        time.sleep(0.05 * (3 - i))   # later jobs finish first
        return i, os.getpid()

    results = list(run_forked(labelled(lambda i=i: job(i) for i in range(4))))
    assert [i for i, _ in results] == [0, 1, 2, 3]
    pids = {pid for _, pid in results}
    assert len(pids) == 4 and os.getpid() not in pids
    assert_no_children()


def test_run_forked_draws_a_generators_jobs_lazily(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    drawn = []

    def jobs():
        for i in range(6):
            drawn.append(i)
            yield f"job {i}", lambda i=i: i * i

    solved = run_forked(jobs())
    assert next(solved) == 0
    assert drawn == [0, 1, 2]       # CPUs + 1 before the first result
    assert list(solved) == [1, 4, 9, 16, 25]
    assert drawn == list(range(6))
    assert_no_children()
    assert list(run_forked([])) == []
    assert list(run_forked(labelled([os.getpid]))) != [os.getpid()]


def test_run_forked_keeps_at_most_one_child_per_cpu_plus_one(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    alive, peak = 0, 0
    start, collect = vacflow.fixedpoint._start_job, vacflow.fixedpoint._collect

    def counted_start(job):
        nonlocal alive, peak
        alive += 1
        peak = max(peak, alive)
        return start(job)

    def counted_collect(pid, fh):
        nonlocal alive
        alive -= 1
        return collect(pid, fh)

    monkeypatch.setattr(vacflow.fixedpoint, "_start_job", counted_start)
    monkeypatch.setattr(vacflow.fixedpoint, "_collect", counted_collect)
    assert list(run_forked(labelled(lambda i=i: i * i for i in range(5)))) == \
        [0, 1, 4, 9, 16]
    assert peak == 2


def test_run_forked_raises_a_job_error_and_a_lost_child():
    def fail():
        raise SolverAbort("injected failure", 0.5)

    with pytest.raises(SolverAbort, match="injected failure") as err:
        list(run_forked(labelled([lambda: 1, fail, lambda: time.sleep(60)])))
    assert err.value.time == 0.5
    assert_no_children()
    with pytest.raises(LostChild, match="exits ended without a result"):
        list(run_forked([("returns", lambda: 1), ("exits", lambda: os._exit(3))]))
    assert_no_children()


@pytest.mark.parametrize("end, ending", [
    (lambda: os._exit(3), "exit code 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by SIGKILL"),
    # a real-time signal has no name in signal.Signals
    (lambda: os.kill(os.getpid(), signal.SIGRTMIN + 1),
     f"killed by signal {signal.SIGRTMIN + 1}"),
], ids=["exit", "signal", "unnamed-signal"])
def test_a_lost_child_says_how_it_ended(end, ending):
    with pytest.raises(LostChild) as err:
        list(run_forked([("returns", lambda: 1), ("ends", end)]))
    assert str(err.value) == f"ends ended without a result ({ending})"
    assert_no_children()


def test_run_forked_kills_its_children_when_the_caller_stops():
    tic = time.monotonic()
    solved = run_forked(labelled([lambda: 1] + [lambda: time.sleep(60)] * 2))
    assert next(solved) == 1
    solved.close()
    assert_no_children()

    with pytest.raises(KeyError):
        for _ in run_forked(labelled([lambda: 1] + [lambda: time.sleep(60)] * 2)):
            raise KeyError("raised by the caller")
    assert_no_children()
    assert time.monotonic() - tic < 30.0


# -- Picard iterates in a pipeline -----------------------------------------------


def diverging_state():
    """Nearly inviscid data on a long window: S_k grows on three iterations
    in a row (k = 8, 9, 10) long before the default budget runs out."""
    params = validate_params(A=1.0, gamma=2.0, alpha=0.02, beta=0.01,
                             delta1=1.5, delta2=2.5)
    g = Grid(dim=1, n=16, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    rho = ScalarField(g, 0.5 + 0.3 * np.cos(x))
    u = VectorField(g, 2.0 * np.sin(x)[None, :])
    return reform_state_from_density(rho, u, params), params


def sequential_picard(init, params, eta, t_window, picard_tol, max_iter):
    """The Picard loop one iterate after another in this process, with the
    same stop rules: the reference the pipeline must reproduce."""
    sample_dt = t_window / DEFAULT_SAMPLES_PER_WINDOW
    prev = _start_guess(init, params, t_window, DEFAULT_CFL_SAFETY, sample_dt,
                        None)
    rows = []
    for k in range(1, max_iter + 1):
        stage = TrajectoryCoefficients(prev.times, prev.samples).stage
        cur = solve_linearized(init, params, stage, eta, t_window,
                               sample_dt=sample_dt)
        w_sq, v_sq, linf = trajectory_gap(cur, prev)
        rows.append((k, w_sq + v_sq, linf))
        if w_sq + v_sq <= picard_tol:
            break
        if k > DIVERGING_GROWTHS and all(
                rows[j][1] > rows[j - 1][1]
                for j in range(k - DIVERGING_GROWTHS, k)):
            break
        prev = cur
    return cur, rows


def assert_same_solve(got, want):
    (traj, trace), (ref, rows) = got, want
    assert [(it.k, it.S_k, it.linf_delta) for it in trace.iterations] == rows
    assert traj.times == ref.times
    assert traj.dt_history == ref.dt_history
    assert traj.clip_counts == ref.clip_counts
    assert traj.clipped_mass == ref.clipped_mass
    assert np.array_equal(traj.samples, ref.samples)


SOLVES = {
    "smooth": lambda: ((positive_state(), soft_params()), 0.25, 0.005, 1e-16, 8),
    "zero": lambda: ((zero_state(), soft_params()), 0.5, 0.01, 1e-10, 50),
    "diverging": lambda: (diverging_state(), 0.25, 3.0, 1e-10, 50),
}


@pytest.mark.parametrize("case", sorted(SOLVES))
def test_pipelined_picard_equals_the_sequential_loop_bit_for_bit(case):
    (init, params), eta, t_window, tol, max_iter = SOLVES[case]()
    got = picard_solve(init, params, eta, t_window, tol, max_iter,
                       sample_dt=t_window / DEFAULT_SAMPLES_PER_WINDOW)
    assert_no_children()
    assert_same_solve(got, sequential_picard(init, params, eta, t_window,
                                             tol, max_iter))


@pytest.mark.parametrize("missing", ["fork", "eventfd"])
def test_without_fork_or_eventfd_the_iterates_run_in_this_process(
        monkeypatch, missing):
    init, p = positive_state(), soft_params()
    forked = picard_solve(init, p, 0.25, 0.005, 1e-16, 8,
                          sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    monkeypatch.delattr(os, missing)
    ran_in = set()
    solve = vacflow.fixedpoint.solve_linearized

    def recorded(*args, **kwargs):
        ran_in.add(os.getpid())
        return solve(*args, **kwargs)

    monkeypatch.setattr(vacflow.fixedpoint, "solve_linearized", recorded)
    inline = picard_solve(init, p, 0.25, 0.005, 1e-16, 8,
                          sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    assert ran_in == {os.getpid()}
    traj, trace = forked
    assert_same_solve(inline, (traj, [(it.k, it.S_k, it.linf_delta)
                                      for it in trace.iterations]))


def shared(shape, fill=0.0):
    """A float array in shared memory: forked children write it, the test
    reads it."""
    arr = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)
    arr[...] = fill
    return arr


def tagged_iterates(monkeypatch):
    """Rebind _start_job so that each child knows the iterate it runs as
    tag["k"], the job's args[0] set just before the fork, and tag["peak"]
    counts the most children in flight at once."""
    tag = {"k": 0, "alive": 0, "peak": 0}
    start = vacflow.fixedpoint._start_job
    collect, kill = vacflow.fixedpoint._collect, vacflow.fixedpoint._kill

    def started(job):
        tag["k"] = job.args[0]
        tag["alive"] += 1
        tag["peak"] = max(tag["peak"], tag["alive"])
        return start(job)

    def ended(end):
        def wrapper(pid, fh):
            tag["alive"] -= 1
            return end(pid, fh)
        return wrapper

    monkeypatch.setattr(vacflow.fixedpoint, "_start_job", started)
    monkeypatch.setattr(vacflow.fixedpoint, "_collect", ended(collect))
    monkeypatch.setattr(vacflow.fixedpoint, "_kill", ended(kill))
    return tag


def logged_iterates(monkeypatch):
    """Log from every iterate child the gap terms of each sample it writes
    (terms, written) and, at its sample 0, its predecessor's running metric
    over the samples the predecessor had logged by then, with that count
    (first). A child logs a sample before it can count it, and pauses
    before its sample 1, so a successor let go at sample 0 logs a metric of
    0 here."""
    n = DEFAULT_SAMPLES_PER_WINDOW + 1
    iterates = DEFAULT_MAX_ITER + 1
    terms = shared((iterates, n, 2))
    written = shared((iterates,))
    first = shared((iterates, 2), math.nan)
    tag = tagged_iterates(monkeypatch)
    gap = vacflow.fixedpoint._sample_gap

    def logged(grid, a, b, i):
        k = tag["k"]
        if i == 0:
            count = int(written[k - 1])
            first[k] = (terms[k - 1, :count].max(axis=0, initial=0.0).sum(),
                        count)
        elif i == 1:
            time.sleep(0.05)
        out = gap(grid, a, b, i)
        terms[k, i] = out[:2]
        written[k] = i + 1
        return out

    monkeypatch.setattr(vacflow.fixedpoint, "_sample_gap", logged)
    return written, first, tag


def test_zero_data_steps_exactly_one_iterate_past_sample_zero(monkeypatch):
    written, _, tag = logged_iterates(monkeypatch)
    _, trace = picard_solve(zero_state(), soft_params(), 0.5, 0.01,
                            sample_dt=0.01 / DEFAULT_SAMPLES_PER_WINDOW)
    assert trace.final_k == 1 and trace.final_S == 0.0
    assert tag["k"] > 1     # its successors were forked, then killed
    assert np.flatnonzero(written).tolist() == [1]


def test_an_iterate_starts_only_once_its_predecessor_passed_the_tolerance(
        monkeypatch):
    written, first, _ = logged_iterates(monkeypatch)
    tol = 1e-10
    _, trace = picard_solve(positive_state(), soft_params(), 0.25, 0.005, tol,
                            sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    assert trace.converged
    assert np.flatnonzero(written).tolist() == list(range(1, trace.final_k + 1))
    for metric, _ in first[2:trace.final_k + 1]:
        assert metric > tol
    # iterate 2 starts while iterate 1 is still writing its window
    assert first[2, 1] < DEFAULT_SAMPLES_PER_WINDOW + 1


def test_iterates_in_flight_stay_within_one_per_cpu_plus_one(monkeypatch):
    init, p = positive_state(), soft_params()
    want = picard_solve(init, p, 0.25, 0.005, 1e-16, 8,
                        sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    tag = tagged_iterates(monkeypatch)
    got = picard_solve(init, p, 0.25, 0.005, 1e-16, 8,
                       sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    assert tag["peak"] == 2
    traj, trace = want
    assert_same_solve(got, (traj, [(it.k, it.S_k, it.linf_delta)
                                   for it in trace.iterations]))


def windows_and_counts_held():
    """This process's shared anonymous mappings (a window is one) and its
    open eventfds (an iterate's count is one)."""
    with open("/proc/self/maps") as fh:
        mapped = sum(line.rstrip().endswith("/dev/zero (deleted)") for line in fh)
    fds = os.listdir("/proc/self/fd")
    counts = 0
    for fd in fds:
        try:
            counts += os.readlink(f"/proc/self/fd/{fd}") == "anon_inode:[eventfd]"
        except OSError:     # the directory fd listdir had open, closed since
            pass
    return mapped, counts


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc/self/maps")
def test_an_iterate_holds_only_its_predecessors_window_and_its_own(monkeypatch):
    # every iterate in flight was forked while older windows existed; once
    # it computes, it maps windows k - 1 and k and holds their two counts
    held = shared((DEFAULT_MAX_ITER + 1, 2), math.nan)
    tag = tagged_iterates(monkeypatch)
    solve = vacflow.fixedpoint.solve_linearized

    def logged(*args, **kwargs):
        held[tag["k"]] = windows_and_counts_held()
        return solve(*args, **kwargs)

    monkeypatch.setattr(vacflow.fixedpoint, "solve_linearized", logged)
    mapped, counts = windows_and_counts_held()
    _, trace = picard_solve(positive_state(), soft_params(), 0.25, 0.005, 1e-16, 8,
                            sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    assert trace.final_k >= 3
    want = [[mapped + 2, counts + 2]] * trace.final_k
    assert held[1:trace.final_k + 1].tolist() == want


def window_inodes():
    """Start address -> inode of this process's shared anonymous mappings
    (a window is one). Each mapping has an inode of its own, so an inode
    names one window even once a later window reuses a freed address."""
    with open("/proc/self/maps") as fh:
        return {int(line.split("-", 1)[0], 16): int(line.split()[4])
                for line in fh if line.rstrip().endswith("/dev/zero (deleted)")}


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc/self/maps")
def test_only_iterate_one_maps_the_start_guess(monkeypatch):
    # the guess's process names window 0 by its inode; every iterate that
    # computes looks for that inode among its own mappings
    inode = shared((1,))
    log_r, log_w = os.pipe()
    tag = tagged_iterates(monkeypatch)
    guess = vacflow.fixedpoint._start_guess
    solve = vacflow.fixedpoint.solve_linearized

    def located(*args, **kwargs):
        inode[0] = window_inodes()[args[5].__array_interface__["data"][0]]
        return guess(*args, **kwargs)

    def logged(*args, **kwargs):
        mapped = inode[0] in window_inodes().values()
        os.write(log_w, b"%d %d\n" % (tag["k"], mapped))
        return solve(*args, **kwargs)

    monkeypatch.setattr(vacflow.fixedpoint, "_start_guess", located)
    monkeypatch.setattr(vacflow.fixedpoint, "solve_linearized", logged)
    try:
        _, trace = picard_solve(positive_state(), soft_params(), 0.25, 0.005,
                                1e-16, 8,
                                sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    finally:
        os.close(log_w)
    with open(log_r, "rb") as fh:
        held = sorted(tuple(map(int, line.split()))
                      for line in fh.read().splitlines())
    assert trace.final_k >= 3 and inode[0] > 0
    assert held[0] == (1, 1)
    assert len(held) > 1 and all(mapped == 0 for _, mapped in held[1:]), held


def window_rss_kib():
    """The resident KiB of this process's shared anonymous mappings (a
    window is one), summed from /proc/self/smaps."""
    total, inside = 0, False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head = line.split(maxsplit=1)[0]
            if "-" in head and ":" not in head:     # a mapping's first line
                inside = line.rstrip().endswith("/dev/zero (deleted)")
            elif inside and head == "Rss:":
                total += int(line.split()[1])
    return total


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                    reason="needs /proc/self/smaps")
def test_a_forked_iterate_keeps_only_the_samples_in_flight_resident(
        monkeypatch):
    # 1-D n = 4096: 96 KiB a sample over its three rows, 3.1 MiB a window.
    # Read after each sample and after the window's Trajectory is checked;
    # an iterate that kept what it touched would hold both windows whole.
    # A read fault may map the neighbouring pages too (the kernel's fault
    # around), so the bound is a few samples, not one.
    sample_kib = 3 * 4096 * 8 // 1024
    resident = shared((DEFAULT_MAX_ITER + 1,))
    tag = tagged_iterates(monkeypatch)
    solve = vacflow.fixedpoint.solve_linearized

    def watched(*args, window, on_sample, **kwargs):
        def hook(i):
            on_sample(i)
            resident[tag["k"]] = max(resident[tag["k"]], window_rss_kib())
        traj = solve(*args, window=window, on_sample=hook, **kwargs)
        resident[tag["k"]] = max(resident[tag["k"]], window_rss_kib())
        return traj

    monkeypatch.setattr(vacflow.fixedpoint, "solve_linearized", watched)
    _, trace = picard_solve(positive_state(n=4096), soft_params(), 0.25, 0.005,
                            1e-16, 8, sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    assert trace.final_k >= 3
    held = resident[1:trace.final_k + 1]
    # a page of resident itself, and a few samples' worth of the windows
    assert 0 < held.max() <= 4 + 4 * sample_kib, held.tolist()


def pickled_sizes(monkeypatch, module):
    """Rebind module.run_forked so that it logs the pickled size of each
    result it hands back, as its child wrote it into the pipe."""
    sizes = []
    forked = module.run_forked

    def logged(jobs):
        with closing(forked(jobs)) as results:
            for value in results:
                sizes.append(len(pickle.dumps(value,
                                              protocol=pickle.HIGHEST_PROTOCOL)))
                yield value

    monkeypatch.setattr(module, "run_forked", logged)
    return sizes


def test_forked_solves_hand_their_windows_back_in_shared_memory(monkeypatch):
    # 1-D n = 256: a pickled window of 33 samples would take 198 KiB
    init, p = positive_state(n=256), soft_params()
    sample_dt = 0.004 / DEFAULT_SAMPLES_PER_WINDOW
    sizes = pickled_sizes(monkeypatch, vacflow.fixedpoint)
    sched = EtaSchedule(eta0=0.5, factor=0.5, max_levels=2, cauchy_tol=1e-14)
    traj, _ = eta_continuation(init, p, sched, 0.004, sample_dt=sample_dt)
    # the two levels' results
    assert len(sizes) == 2 and max(sizes) < 64 * 1024, sizes
    direct, _ = picard_solve(init, p, 0.25, 0.004, sample_dt=sample_dt)
    assert trajectory_distance(traj, direct) == 0.0

    sizes = pickled_sizes(monkeypatch, vacflow.oracle)
    g = init.grid
    x = g.coordinates[0]
    report = vacflow.oracle.cross_compare(
        ScalarField(g, 0.5 + 0.2 * np.cos(x)),
        VectorField(g, 0.1 * np.sin(x)[None, :]), p, 0.004,
        sample_dt=sample_dt)
    assert report.picard_converged
    assert len(sizes) == 2 and max(sizes) < 64 * 1024, sizes


def fail_iterate_two(monkeypatch, failure):
    """Make iterate 2 call failure() once it has written sample 20."""
    tag = tagged_iterates(monkeypatch)
    solve = vacflow.fixedpoint.solve_linearized

    def failing(*args, window, on_sample, **kwargs):
        def hook(i):
            on_sample(i)
            if tag["k"] == 2 and i == 20:
                failure()
        return solve(*args, window=window, on_sample=hook, **kwargs)

    monkeypatch.setattr(vacflow.fixedpoint, "solve_linearized", failing)
    return tag


def test_abort_in_iterate_two_surfaces_unchanged_and_kills_the_rest(
        monkeypatch):
    def abort():
        raise SolverAbort("injected failure", 0.003, "iterate two only")

    tag = fail_iterate_two(monkeypatch, abort)
    with pytest.raises(SolverAbort) as err:
        picard_solve(positive_state(), soft_params(), 0.25, 0.005, 1e-16, 8,
                     sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    assert (err.value.reason, err.value.time, err.value.detail) == \
        ("injected failure", 0.003, "iterate two only")
    assert tag["k"] >= 3    # a later iterate was in flight, and was killed
    assert_no_children()


def test_an_iterate_that_dies_without_a_result_is_an_error(monkeypatch):
    fail_iterate_two(monkeypatch, lambda: os._exit(3))
    with pytest.raises(LostChild, match="iterate 2 ended without a result"):
        picard_solve(positive_state(), soft_params(), 0.25, 0.005, 1e-16, 8,
                     sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    assert_no_children()


def test_a_lost_iterate_is_named_by_its_label(monkeypatch):
    fail_iterate_two(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(LostChild) as err:
        picard_solve(positive_state(), soft_params(), 0.25, 0.005, 1e-16, 8,
                     sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
    assert str(err.value) == \
        "iterate 2 ended without a result (killed by SIGKILL)"
    assert_no_children()


def test_iterates_leave_once_their_solve_is_killed(monkeypatch):
    """SIGKILL a solve's process while its iterates are in flight: every
    iterate it started exits within a few seconds, although each would
    take over ten seconds to write its window."""
    held_r, held_w = os.pipe()      # every process of the solve holds held_w
    start = vacflow.fixedpoint._start_job
    solve = vacflow.fixedpoint.solve_linearized

    def announced(job):
        pid, fh = start(job)
        os.write(held_w, b"%d " % pid)
        return pid, fh

    def slow(*args, window, on_sample, **kwargs):
        def hook(i):
            time.sleep(0.4)
            on_sample(i)
        return solve(*args, window=window, on_sample=hook, **kwargs)

    monkeypatch.setattr(vacflow.fixedpoint, "_start_job", announced)
    monkeypatch.setattr(vacflow.fixedpoint, "solve_linearized", slow)
    solver = os.fork()
    if solver == 0:
        try:
            os.close(held_r)
            picard_solve(positive_state(), soft_params(), 0.25, 0.005, 1e-16, 8,
                         sample_dt=0.005 / DEFAULT_SAMPLES_PER_WINDOW)
        finally:
            os._exit(0)
    os.close(held_w)
    announced_pids = b""

    def read_until(done, seconds):
        nonlocal announced_pids
        deadline = time.monotonic() + seconds
        while not done():
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([held_r], [], [], left)[0]:
                return False
            chunk = os.read(held_r, 64)
            if not chunk:
                return True
            announced_pids += chunk
        return True

    try:
        in_flight = read_until(lambda: announced_pids.count(b" ") >= 2, 60.0)
    finally:
        os.kill(solver, signal.SIGKILL)
        os.waitpid(solver, 0)
    gone = False
    try:
        # held_r reaches EOF once every iterate has exited
        gone = in_flight and read_until(lambda: False, 5.0)
    finally:
        if not gone:
            for pid in map(int, announced_pids.split()):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        os.close(held_r)
    assert in_flight, "the solve never had two iterates in flight"
    assert gone, "an iterate outlived its solve by 5 s"


def test_a_diverging_solve_stops_before_its_budget():
    init, p = diverging_state()
    _, trace = picard_solve(init, p, 0.25, 3.0, max_iter=50,
                            sample_dt=3.0 / DEFAULT_SAMPLES_PER_WINDOW)
    assert trace.stop_reason == "diverging" and not trace.converged
    assert trace.final_k < 50
    last = [it.S_k for it in trace.iterations[-DIVERGING_GROWTHS - 1:]]
    assert last == sorted(last) and len(set(last)) == len(last)
    assert_no_children()
    sched = EtaSchedule(eta0=0.25, factor=0.5, max_levels=1, cauchy_tol=1e-9)
    with pytest.raises(ContinuationError, match="stopped as diverging"):
        eta_continuation(init, p, sched, 3.0,
                         sample_dt=3.0 / DEFAULT_SAMPLES_PER_WINDOW)

"""Picard iteration, the regularization ladder, and their bookkeeping."""

import csv
import math
import os
import pickle
import time

import numpy as np
import pytest

import vacflow.fixedpoint
from vacflow.fields import FieldError, Grid, ScalarField, VectorField
from vacflow.fixedpoint import (
    ContinuationError,
    EtaSchedule,
    PicardIteration,
    PicardTrace,
    eta_continuation,
    picard_solve,
    run_forked,
    trajectory_distance,
    trajectory_gap,
    write_trace_csv,
)
from vacflow.initial_data import reform_state_from_density
from vacflow.linearized import (FrozenCoefficients, SolverAbort,
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


def test_picard_validates_window_and_iteration_budget():
    p = soft_params()
    with pytest.raises(ValueError, match="t_window"):
        picard_solve(zero_state(), p, 0.5, 0.0)
    with pytest.raises(ValueError, match="max_iter"):
        picard_solve(zero_state(), p, 0.5, 0.1, max_iter=0)


def test_zero_data_converges_in_one_iteration_with_zero_metric():
    traj, trace = picard_solve(zero_state(), soft_params(), 0.5, 0.01)
    assert trace.converged
    assert trace.final_k == 1
    assert trace.final_S == 0.0
    assert np.abs(traj.final.phi.values).max() == 0.0
    assert np.abs(traj.final.u.values).max() == 0.0


def test_picard_contracts_geometrically_on_smooth_data():
    init = positive_state()
    traj, trace = picard_solve(init, soft_params(), 0.25, 0.005,
                               picard_tol=1e-16, max_iter=8)
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
                               picard_tol=tol)
    assert trace.converged
    # one more linearized solve from the converged trajectory barely moves
    # it, in the metric the iteration uses
    coeffs = FrozenCoefficients(provider=traj.as_coefficients(), eta=0.25,
                                t_window=0.005, sample_dt=traj.times[1])
    nxt = solve_linearized(init, coeffs, soft_params())
    w_sq, v_sq, _ = trajectory_gap(nxt, traj)
    assert w_sq + v_sq <= 10.0 * tol


def test_trace_validation_and_fitted_ratio():
    rows = tuple(
        PicardIteration(k=k, S_k=4.0**-k, linf_delta=0.0, wall_time=0.0)
        for k in range(1, 5)
    )
    trace = PicardTrace(iterations=rows, converged=True, final_k=4)
    assert trace.geometric_ratio() == pytest.approx(0.25, rel=1e-12)
    assert trace.final_S == 4.0**-4
    with pytest.raises(ValueError, match="negative"):
        PicardTrace(
            iterations=(PicardIteration(k=1, S_k=-1.0, linf_delta=0.0,
                                        wall_time=0.0),),
            converged=False, final_k=1,
        )
    short = PicardTrace(
        iterations=(PicardIteration(k=1, S_k=0.5, linf_delta=0.0,
                                    wall_time=0.0),),
        converged=True, final_k=1,
    )
    assert math.isnan(short.geometric_ratio())


def test_trace_csv_columns(tmp_path):
    rows = tuple(
        PicardIteration(k=k, S_k=10.0**-k, linf_delta=2.0 * 10.0**-k,
                        wall_time=0.125)
        for k in (1, 2)
    )
    trace = PicardTrace(iterations=rows, converged=True, final_k=2)

    plain = tmp_path / "trace.csv"
    write_trace_csv(trace, plain)
    with open(plain, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["k", "S_k", "linf_delta"]
    assert len(got) == 3
    assert float(got[1][1]) == 0.1
    assert float(got[2][2]) == 0.02


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
        trajectory_gap(a, b)


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
    traj_c, report = eta_continuation(init, p, sched, 0.004)
    traj_d, _ = picard_solve(init, p, 0.25, 0.004)
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
    traj, report = eta_continuation(init, p, sched, 0.005, picard_tol=1e-12)
    assert report.reached_tol
    assert report.distances == sorted(report.distances, reverse=True)
    # the levels past the stop were still running when it came
    assert_no_children()
    direct, _ = picard_solve(init, p, 0.0, 0.005, picard_tol=1e-12)
    assert trajectory_distance(traj, direct) <= 2.0 * cauchy_tol


def test_failed_level_raises_with_its_index():
    init = positive_state(n=32)
    sched = EtaSchedule(eta0=0.5, factor=0.5, max_levels=3, cauchy_tol=1e-9)
    with pytest.raises(ContinuationError, match="no convergence") as err:
        eta_continuation(init, soft_params(), sched, 0.004,
                         picard_tol=0.0, max_iter=1)
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
    traj, report = eta_continuation(init, p, sched, 0.004)
    assert_no_children()
    solves = [picard_solve(init, p, eta, 0.004) for eta in sched.levels()]
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
        eta_continuation(init, soft_params(), sched, 0.004)
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
], ids=lambda exc: type(exc).__name__)
def test_exceptions_survive_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_run_forked_yields_in_job_order_from_children():
    def job(i):
        time.sleep(0.05 * (3 - i))   # later jobs finish first
        return i, os.getpid()

    results = list(run_forked([lambda i=i: job(i) for i in range(4)]))
    assert [i for i, _ in results] == [0, 1, 2, 3]
    pids = {pid for _, pid in results}
    assert len(pids) == 4 and os.getpid() not in pids
    assert_no_children()


def test_run_forked_runs_a_single_job_in_process():
    assert list(run_forked([os.getpid])) == [os.getpid()]
    assert list(run_forked([])) == []


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
    assert list(run_forked([lambda i=i: i * i for i in range(5)])) == \
        [0, 1, 4, 9, 16]
    assert peak == 2


def test_run_forked_raises_a_job_error_and_a_lost_child():
    def fail():
        raise SolverAbort("injected failure", 0.5)

    with pytest.raises(SolverAbort, match="injected failure") as err:
        list(run_forked([lambda: 1, fail, lambda: time.sleep(60)]))
    assert err.value.time == 0.5
    assert_no_children()
    with pytest.raises(RuntimeError, match="job 1 ended without a result"):
        list(run_forked([lambda: 1, lambda: os._exit(3)]))
    assert_no_children()


def test_run_forked_kills_its_children_when_the_caller_stops():
    tic = time.monotonic()
    solved = run_forked([lambda: 1] + [lambda: time.sleep(60)] * 2)
    assert next(solved) == 1
    solved.close()
    assert_no_children()

    with pytest.raises(KeyError):
        for _ in run_forked([lambda: 1] + [lambda: time.sleep(60)] * 2):
            raise KeyError("raised by the caller")
    assert_no_children()
    assert time.monotonic() - tic < 30.0

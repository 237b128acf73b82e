"""Nonlinear solve by repeated linearized windows, plus the vanishing
regularization sweep.

Two nested loops live here. The inner one, ``picard_solve``, freezes the
coefficients of the quasilinear system at the previous iterate, solves the
resulting linear window, and repeats until successive iterates stop moving
in L2. The outer one, ``eta_continuation``, shrinks the elliptic
regularization toward zero and watches consecutive solutions settle into a
Cauchy sequence. The levels share nothing but their initial data, so
``run_forked`` solves them in concurrent child processes.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import signal
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fields import quadrature_l2
from .linearized import (
    DEFAULT_CFL_SAFETY,
    DEFAULT_SAMPLES_PER_WINDOW,
    ConstantCoefficients,
    FrozenCoefficients,
    SolverAbort,
    Trajectory,
    adaptive_dt,
    record_window,
    solve_linearized,
    transport_step,
)
from .operators import ReformState, exponent_identity_residual
from .params import FluidParams, ParameterError

DEFAULT_PICARD_TOL = 1e-10
DEFAULT_MAX_ITER = 50
IDENTITY_GUARD = 1e-10


class ContinuationError(RuntimeError):
    """A regularization level failed to converge; carries the level index."""

    def __init__(self, level: int, message: str):
        super().__init__(f"continuation level {level}: {message}")
        self.level = level
        self.message = message

    def __reduce__(self):
        return type(self), (self.level, self.message)


def _start_job(job):
    """Fork a child that runs job and pickles ("ok", value) or ("err",
    exception) into a pipe; returns its pid and the pipe's read end. The
    child always leaves through os._exit, so it never returns into the
    caller's stack nor flushes the stdio buffers it inherited."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                outcome = ("ok", job())
            except BaseException as exc:
                outcome = ("err", exc)
            with open(write_fd, "wb") as fh:
                pickle.dump(outcome, fh, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _collect(pid: int, fh):
    """The outcome the child wrote, or None when it ended without one. The
    child is reaped either way; it is killed first if reading is cut short."""
    try:
        with fh:
            return pickle.load(fh)
    except (EOFError, pickle.UnpicklingError):
        return None
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)


def run_forked(jobs):
    """Run each zero-argument job in its own forked child and yield the
    results in job order; a job's exception is raised when its turn comes.

    A child inherits the caller's memory, so jobs may be closures over
    arrays without copying them. At most one child per CPU plus one runs
    at a time. A single job, or a platform without os.fork, runs in this
    process. Closing the generator, or an exception in it, kills and reaps
    every child still running."""
    jobs = list(jobs)
    if len(jobs) < 2 or not hasattr(os, "fork"):
        for job in jobs:
            yield job()
        return
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    width = cpus + 1
    running = deque()
    try:
        for i in range(len(jobs)):
            while len(running) < width and i + len(running) < len(jobs):
                running.append(_start_job(jobs[i + len(running)]))
            outcome = _collect(*running.popleft())
            if outcome is None:
                raise RuntimeError(f"job {i} ended without a result")
            kind, value = outcome
            if kind == "err":
                raise value
            yield value
    finally:
        for pid, fh in running:
            os.kill(pid, signal.SIGKILL)
            fh.close()
            os.waitpid(pid, 0)


@dataclass(frozen=True)
class PicardIteration:
    """One row of the iteration history."""

    k: int
    S_k: float
    linf_delta: float
    wall_time: float


@dataclass(frozen=True)
class PicardTrace:
    iterations: tuple
    converged: bool
    final_k: int

    def __post_init__(self):
        for it in self.iterations:
            if not it.S_k >= 0.0:
                raise ValueError(f"contraction metric negative at k={it.k}")

    @property
    def final_S(self) -> float:
        return self.iterations[-1].S_k if self.iterations else math.inf

    def geometric_ratio(self) -> float:
        """Fitted per-iteration ratio of S_k from a log-linear least-squares
        fit over the strictly positive entries. Returns nan when fewer than
        two entries are positive (nothing to fit)."""
        ks = [it.k for it in self.iterations if it.S_k > 0.0]
        vals = [math.log(it.S_k) for it in self.iterations if it.S_k > 0.0]
        if len(ks) < 2:
            return math.nan
        slope = np.polyfit(ks, vals, 1)[0]
        return float(math.exp(slope))


def write_trace_csv(trace: PicardTrace, path) -> None:
    """Dump the iteration history. Wall times are left out so reruns of the
    same configuration produce byte-identical files."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "S_k", "linf_delta"])
        for it in trace.iterations:
            writer.writerow([it.k, f"{it.S_k:.17e}", f"{it.linf_delta:.17e}"])


def _sample_gaps(a: Trajectory, b: Trajectory):
    """Per shared sample time: the squared L2 gaps of phi, u and vphi, and
    the largest pointwise gap of the three."""
    ta = np.asarray(a.times, dtype=float)
    tb = np.asarray(b.times, dtype=float)
    if ta.shape != tb.shape or not np.allclose(ta, tb, rtol=0.0,
                                               atol=1e-10 * max(1.0, float(ta[-1]))):
        raise ValueError("trajectories are sampled on different time grids")
    grid = a.grid
    for i in range(len(ta)):
        diffs = (a.phi[i] - b.phi[i], a.u[i] - b.u[i], a.vphi[i] - b.vphi[i])
        yield (*(quadrature_l2(grid, d) ** 2 for d in diffs),
               max(float(np.abs(d).max()) for d in diffs))


def trajectory_gap(a: Trajectory, b: Trajectory) -> tuple[float, float, float]:
    """Sup-in-time squared L2 gaps between two trajectories, measured
    separately for the (phi, u) block and for the viscosity proxy, plus the
    sup-in-time pointwise gap. The two blocks are kept apart because the
    contraction metric adds their separate suprema."""
    w_sq = 0.0
    v_sq = 0.0
    linf = 0.0
    for phi_sq, u_sq, vphi_sq, gap in _sample_gaps(a, b):
        w_sq = max(w_sq, phi_sq + u_sq)
        v_sq = max(v_sq, vphi_sq)
        linf = max(linf, gap)
    return w_sq, v_sq, linf


def trajectory_distance(a: Trajectory, b: Trajectory) -> float:
    """Sup over shared sample times of the combined L2 distance between
    states (all three fields in one norm)."""
    return max(math.sqrt(phi_sq + u_sq + vphi_sq)
               for phi_sq, u_sq, vphi_sq, _ in _sample_gaps(a, b))


def _start_guess(init: ReformState, params: FluidParams, eta: float,
                 t_window: float, cfl_safety: float,
                 sample_dt: float | None) -> Trajectory:
    """Iterate zero: both proxies advected by the initial velocity (stretch
    terms dropped), the velocity itself held constant. Both proxies share
    the coefficients and the step, so they advance as one stacked transport
    step. Any guess inside the contraction ball works; this one needs no
    extra solver machinery."""
    grid = init.grid
    zeros = np.zeros(grid.shape)
    provider = ConstantCoefficients(init.u.values, zeros, zeros)
    coeffs = FrozenCoefficients(provider=provider, eta=eta, t_window=t_window)
    h = adaptive_dt(params, grid, init.u.values, zeros, cfl_safety)

    def step(t: float, dt: float, vphi, phi, u):
        (vphi, phi), _ = transport_step(params, (vphi, phi), coeffs, dt, t)
        return vphi, phi, u, 0, 0.0

    return record_window(init, t_window, sample_dt, lambda t: h, step,
                         eta=eta, clip=True)


def picard_solve(init: ReformState, params: FluidParams, eta: float,
                 t_window: float, picard_tol: float = DEFAULT_PICARD_TOL,
                 max_iter: int = DEFAULT_MAX_ITER, *,
                 cfl_safety: float = DEFAULT_CFL_SAFETY,
                 sample_dt: float | None = None) -> tuple[Trajectory, PicardTrace]:
    """Iterate linearized window solves until the sup-in-time squared L2
    change between consecutive iterates drops to picard_tol.

    Each pass freezes the advecting velocity and both stretch coefficients
    at the previous iterate, transports the viscosity proxy first, and then
    solves the (phi, u) block with the fresh proxy in the viscous and source
    coefficients. Returns the last trajectory with the iteration history;
    a history that runs out of iterations comes back with converged=False
    rather than raising.
    """
    if not t_window > 0.0:
        raise ValueError(f"t_window must be positive, got {t_window}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    ident = exponent_identity_residual(params)
    if ident > IDENTITY_GUARD:
        raise ParameterError("exponent identities",
                             f"derived-constant residual {ident:.3e}")
    if sample_dt is None:
        sample_dt = t_window / DEFAULT_SAMPLES_PER_WINDOW

    prev = _start_guess(init, params, eta, t_window, cfl_safety, sample_dt)
    iterations = []
    converged = False
    cur = prev
    k = 0
    for k in range(1, max_iter + 1):
        tic = time.perf_counter()
        coeffs = FrozenCoefficients(provider=prev.as_coefficients(), eta=eta,
                                    t_window=t_window, cfl_safety=cfl_safety,
                                    sample_dt=sample_dt)
        cur = solve_linearized(init, coeffs, params)
        w_sq, v_sq, linf = trajectory_gap(cur, prev)
        S = w_sq + v_sq
        iterations.append(PicardIteration(k=k, S_k=S, linf_delta=linf,
                                          wall_time=time.perf_counter() - tic))
        if S <= picard_tol:
            converged = True
            break
        prev = cur
    trace = PicardTrace(iterations=tuple(iterations), converged=converged,
                        final_k=k)
    return cur, trace


def fixed_point_residual(traj: Trajectory, init: ReformState,
                         params: FluidParams, eta: float, *,
                         cfl_safety: float = DEFAULT_CFL_SAFETY,
                         sample_dt: float | None = None) -> float:
    """Run one more linearized solve from a converged trajectory and report
    how far it moves, in the same metric the iteration uses. Should land
    within a small multiple of picard_tol when the input really converged.
    The sample cadence is read off the trajectory unless given."""
    t_window = float(traj.times[-1])
    if sample_dt is None:
        if len(traj.times) < 2:
            raise ValueError("trajectory has no cadence to infer")
        sample_dt = float(traj.times[1] - traj.times[0])
    coeffs = FrozenCoefficients(provider=traj.as_coefficients(), eta=eta,
                                t_window=t_window, cfl_safety=cfl_safety,
                                sample_dt=sample_dt)
    nxt = solve_linearized(init, coeffs, params)
    w_sq, v_sq, _ = trajectory_gap(nxt, traj)
    return w_sq + v_sq


@dataclass(frozen=True)
class EtaSchedule:
    """Geometric ladder of regularization strengths."""

    eta0: float
    factor: float
    max_levels: int
    cauchy_tol: float

    def __post_init__(self):
        if not 0.0 < self.eta0 <= 1.0:
            raise ValueError(f"eta0 must lie in (0, 1], got {self.eta0}")
        if not 0.0 < self.factor < 1.0:
            raise ValueError(f"factor must lie in (0, 1), got {self.factor}")
        if self.max_levels < 1:
            raise ValueError(f"max_levels must be at least 1, got {self.max_levels}")
        if not self.cauchy_tol > 0.0:
            raise ValueError(f"cauchy_tol must be positive, got {self.cauchy_tol}")

    def levels(self) -> list[float]:
        return [self.eta0 * self.factor**j for j in range(self.max_levels)]


@dataclass(frozen=True)
class ContinuationLevel:
    index: int
    eta: float
    picard_iters: int
    picard_S: float
    distance: float


@dataclass(frozen=True)
class ContinuationReport:
    levels: tuple
    reached_tol: bool
    final_trace: PicardTrace | None = None

    @property
    def distances(self) -> list[float]:
        """The consecutive-level gaps d_j, skipping the first level (which
        has nothing to compare against)."""
        return [lv.distance for lv in self.levels[1:]]


def write_continuation_csv(report: ContinuationReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "eta", "picard_iters", "picard_S", "distance"])
        for lv in report.levels:
            writer.writerow([lv.index, f"{lv.eta:.17e}", lv.picard_iters,
                             f"{lv.picard_S:.17e}",
                             "" if math.isnan(lv.distance) else f"{lv.distance:.17e}"])


def eta_continuation(init: ReformState, params: FluidParams,
                     schedule: EtaSchedule, t_window: float,
                     picard_tol: float = DEFAULT_PICARD_TOL,
                     max_iter: int = DEFAULT_MAX_ITER, *,
                     cfl_safety: float = DEFAULT_CFL_SAFETY,
                     sample_dt: float | None = None
                     ) -> tuple[Trajectory, ContinuationReport]:
    """Solve every regularization level and measure how far consecutive
    solutions sit from each other. The levels are independent solves, so
    they run concurrently (run_forked) and are read in order. Stops early
    once the gap drops to schedule.cauchy_tol; a level that fails to
    converge aborts the sweep with its index."""
    etas = schedule.levels()
    jobs = [partial(picard_solve, init, params, eta_j, t_window, picard_tol,
                    max_iter, cfl_safety=cfl_safety, sample_dt=sample_dt)
            for eta_j in etas]
    levels: list[ContinuationLevel] = []
    prev_traj: Trajectory | None = None
    last_trace: PicardTrace | None = None
    reached = False
    with closing(run_forked(jobs)) as solved:
        for j, eta_j in enumerate(etas):
            try:
                traj, trace = next(solved)
            except SolverAbort as exc:
                raise ContinuationError(j, f"solver abort: {exc}") from exc
            if not trace.converged:
                raise ContinuationError(
                    j, f"no convergence in {trace.final_k} iterations "
                       f"(S = {trace.final_S:.3e})")
            d = math.nan if prev_traj is None else trajectory_distance(traj, prev_traj)
            levels.append(ContinuationLevel(index=j, eta=eta_j,
                                            picard_iters=trace.final_k,
                                            picard_S=trace.final_S, distance=d))
            prev_traj = traj
            last_trace = trace
            if not math.isnan(d) and d <= schedule.cauchy_tol:
                reached = True
                break
    report = ContinuationReport(levels=tuple(levels), reached_tol=reached,
                                final_trace=last_trace)
    return prev_traj, report


@dataclass(frozen=True)
class WindowScanRow:
    t_window: float
    converged: bool
    final_S: float
    iterations: int


def window_scan(init: ReformState, params: FluidParams, eta: float,
                t_window0: float, doublings: int,
                picard_tol: float = DEFAULT_PICARD_TOL,
                max_iter: int = DEFAULT_MAX_ITER) -> list[WindowScanRow]:
    """Double the window until the iteration stops converging. The first
    failing length, when one exists, quantifies the small-time restriction
    empirically; rows after the first failure are not attempted."""
    rows: list[WindowScanRow] = []
    t_win = t_window0
    for _ in range(doublings + 1):
        try:
            _, trace = picard_solve(init, params, eta, t_win, picard_tol,
                                    max_iter)
            rows.append(WindowScanRow(t_window=t_win, converged=trace.converged,
                                      final_S=trace.final_S,
                                      iterations=trace.final_k))
            if not trace.converged:
                break
        except SolverAbort:
            rows.append(WindowScanRow(t_window=t_win, converged=False,
                                      final_S=math.inf, iterations=0))
            break
        t_win *= 2.0
    return rows

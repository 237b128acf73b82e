"""Nonlinear solve by repeated linearized windows, plus the vanishing
regularization sweep.

Two nested loops live here. The inner one, ``picard_solve``, freezes the
coefficients of the quasilinear system at the previous iterate, solves the
resulting linear window, and repeats until successive iterates stop moving
in L2. The outer one, ``eta_continuation``, shrinks the elliptic
regularization toward zero and watches consecutive solutions settle into a
Cauchy sequence. The levels share nothing but their initial data, so
``run_forked`` solves them in concurrent child processes.

Windows cross process boundaries in shared memory (fields._window), never as
a pickle: each level's solve copies its last iterate into a window its
caller allocated before the fork, and its result carries only the trace,
the step sizes, the clip counts and the clipped mass. Every process keeps
resident only the samples it is working on and releases the rest
(fields.release); the data stays in the mapping for the other processes.

Iterate k + 1 steps across [t_j, t_j+1] reading only samples j and j + 1 of
iterate k, so the Picard iterates are run_forked jobs too: each is forked as
soon as a slot is free and reads its predecessor's window in shared memory
as the predecessor counts its samples. An iterate counts none until its
running metric has passed picard_tol, so its successor computes exactly when
the sequential loop would run it, bit for bit as it does, and the successors
of a converged iterate are killed before they compute anything. Iterate 0,
the start guess, is computed whole in the solve's own process before the
first fork, so iterate 1 finds all of its samples counted.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import NamedTuple

import numpy as np

from .fields import _window, quadrature_l2, release
from .linearized import (
    DEFAULT_CFL_SAFETY,
    SolverAbort,
    Trajectory,
    TrajectoryCoefficients,
    adaptive_dt,
    record_window,
    sample_times,
    solve_linearized,
    transport_step,
)
from .operators import ReformState, _mask_coefficients, exponent_identity_residual
from .params import FluidParams, ParameterError

DEFAULT_PICARD_TOL = 1e-10
DEFAULT_MAX_ITER = 50
IDENTITY_GUARD = 1e-10
# Picard stops as diverging once S_k has grown on this many iterations in a row.
DIVERGING_GROWTHS = 3


class ContinuationError(RuntimeError):
    """A regularization level failed to converge; carries the level index
    and the ContinuationLevel rows of the levels read before it."""

    def __init__(self, level: int, message: str, levels: tuple = ()):
        super().__init__(f"continuation level {level}: {message}")
        self.level = level
        self.message = message
        self.levels = levels

    def __reduce__(self):
        return type(self), (self.level, self.message, self.levels)


class LostChild(RuntimeError):
    """A run_forked child gave no result: it could not be forked (os.fork
    failed, under a process limit, say), or it ended without writing its
    result, because it exited early or something killed it (the OOM killer,
    for one). It is raised in the job's own turn, after the jobs before it
    are yielded. The message names the job by its label and gives the
    fork's error, the child's exit code or the signal that killed it."""


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


def _ending(status: int) -> str:
    """How a child ended, from its os.waitpid status."""
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        return f"exit code {code}"
    try:
        return f"killed by {signal.Signals(-code).name}"
    except ValueError:
        return f"killed by signal {-code}"


def _collect(pid: int, fh):
    """The outcome the child wrote, or ("lost", how it ended) when it ended
    without one. The child is reaped either way; it is killed first if
    reading is cut short."""
    try:
        with fh:
            outcome = pickle.load(fh)
    except (EOFError, pickle.UnpicklingError):
        outcome = None
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    status = os.waitpid(pid, 0)[1]
    return outcome or ("lost", _ending(status))


def _kill(pid: int, fh) -> None:
    """Kill and reap a child _start_job started."""
    os.kill(pid, signal.SIGKILL)
    fh.close()
    os.waitpid(pid, 0)


def run_forked(jobs):
    """Run the zero-argument job of each (label, job) pair in its own
    forked child and yield the results in job order; a job's exception is
    raised when its turn comes, a lost child as a LostChild naming its label.

    A child inherits the caller's memory, so jobs may be closures over
    arrays without copying them. At most one child per CPU plus one runs
    at a time, and a job is drawn from the iterable only when its child can
    start, so a generator may set each job up just before its fork. A job
    whose fork fails fails in its own turn: no later job is drawn, the jobs
    started before it are yielded, and then its LostChild is raised. Without
    os.fork every job runs in this process. Closing the generator, or an
    exception in it, kills and reaps every child still running."""
    if not hasattr(os, "fork"):
        for _, job in jobs:
            yield job()
        return
    jobs = iter(jobs)
    width = 1 + (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
    running = deque()
    unstarted = None    # (label, OSError) of the job whose fork failed
    try:
        while True:
            for label, job in islice(jobs, 0 if unstarted else width - len(running)):
                try:
                    running.append((label, _start_job(job)))
                except OSError as exc:
                    unstarted = label, exc
                    break
            if not running:
                if unstarted:
                    label, exc = unstarted
                    raise LostChild(f"{label} could not start ({exc})") from exc
                return
            label, child = running.popleft()
            kind, value = _collect(*child)
            if kind == "lost":
                raise LostChild(f"{label} ended without a result ({value})")
            if kind == "err":
                raise value
            yield value
    finally:
        for _, child in running:
            _kill(*child)


class PicardIteration(NamedTuple):
    """One row of the iteration history."""

    k: int
    S_k: float
    linf_delta: float
    wall_time: float


class PicardTrace(NamedTuple):
    """The iteration history and why it ended: "converged", "max_iter" or
    "diverging"."""

    iterations: tuple
    stop_reason: str
    final_k: int

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

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


def _sample_gap(grid, a, b, i: int) -> tuple[float, float, float]:
    """The gap between sample i of two windows: the squared L2 gap of the
    (phi, u) block, that of vphi, and the largest pointwise gap of the
    three."""
    diff = a[i] - b[i]
    phi_sq, u_sq, vphi_sq = (quadrature_l2(grid, d) ** 2
                             for d in (diff[1], diff[2:], diff[0]))
    return phi_sq + u_sq, vphi_sq, float(np.abs(diff).max())


def trajectory_distance(a: Trajectory, b: Trajectory) -> float:
    """Sup over shared sample times of the combined L2 distance between
    states (all three fields in one norm). Both windows must carry the same
    sample times exactly, as two windows of one sample_times call do."""
    if a.times != b.times:
        raise ValueError("trajectories are sampled on different time grids")

    def distance(i: int) -> float:
        w_sq, v_sq, _ = _sample_gap(a.grid, a.samples, b.samples, i)
        for samples in (a.samples, b.samples):
            release(samples, 0, i + 1)
        return math.sqrt(w_sq + v_sq)

    return max(distance(i) for i in range(len(a.times)))


def _start_guess(init: ReformState, params: FluidParams, t_window: float,
                 cfl_safety: float, sample_dt: float, window) -> Trajectory:
    """Iterate zero, written into window: both proxies advected by the
    initial velocity (stretch terms dropped), the velocity itself held
    constant. Both proxies share the coefficients and the step, so their
    two rows advance as one transport step, every stage of it reading the
    one unforced pair of coefficients, masked once. Each sample is released
    once written (fields.release). Any guess inside the contraction ball
    works; this one needs no extra solver machinery."""
    grid = init.grid
    zeros = np.zeros(grid.shape)
    frozen = (_mask_coefficients(grid, init.u.values, zeros, zeros), None)
    h = adaptive_dt(params, grid, init.u.values, zeros, cfl_safety)

    def step(t: float, dt: float, t_new: float, state: np.ndarray):
        proxies, _ = transport_step(params, grid, state[:2], (frozen,) * 3, dt, t)
        return np.concatenate((proxies, state[2:])), 0, 0.0

    return record_window(init, t_window, sample_dt, lambda t: h, step,
                         window=window,
                         on_sample=None if window is None
                         else lambda i: release(window, 0, i + 1))


def _raise_mmap_threshold() -> None:
    """Allocate and free one 16 MiB block. glibc raises its mmap threshold
    to the size of a freed mapped block, so processes forked after this keep
    their step temporaries on the heap instead of mapping and unmapping them
    until their own frees raise it: a freshly forked iterate otherwise pays
    that warm-up in page faults (run-2d: 72k against 10k per level). Under
    another allocator this is an unused allocation."""
    np.empty(1 << 21)


def picard_solve(init: ReformState, params: FluidParams, eta: float,
                 t_window: float, picard_tol: float = DEFAULT_PICARD_TOL,
                 max_iter: int = DEFAULT_MAX_ITER, *, sample_dt: float,
                 cfl_safety: float = DEFAULT_CFL_SAFETY, window=None
                 ) -> tuple[Trajectory, PicardTrace]:
    """Iterate linearized window solves until the sup-in-time squared L2
    change between consecutive iterates drops to picard_tol. Every iterate
    is sampled at sample_times(t_window, sample_dt), and the metric reads
    those samples.

    Each pass freezes the advecting velocity and both stretch coefficients
    at the previous iterate, transports the viscosity proxy first, and then
    solves the (phi, u) block with the fresh proxy in the viscous and source
    coefficients. Returns the last trajectory with the iteration history;
    a history that runs out of iterations, or whose metric grows on
    DIVERGING_GROWTHS iterations in a row, comes back unconverged, with
    its stop reason, rather than raising.

    Iterate 0, the start guess, is written here before any fork. Iterate
    k >= 1 is the run_forked job partial(iterate, k) where os.fork and
    os.eventfd exist, and runs in this process otherwise; either way it
    steps across [t_j, t_j+1] once iterate k - 1 has written samples j and
    j + 1 and has moved more than picard_tol. The results do not depend on
    the process count.

    The last iterate is returned in its own window, or, when the caller
    passes a window sized by sample_times (a _window that it reads after
    this process ends, say), copied into that a sample at a time, each
    sample released on both sides once copied.
    """
    times = sample_times(t_window, sample_dt)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    ident = exponent_identity_residual(params)
    if not ident <= IDENTITY_GUARD:     # a nan residual fails too
        raise ParameterError("exponent identities",
                             f"derived-constant residual {ident:.3e}")
    grid = init.grid
    n = len(times)
    forked = hasattr(os, "fork") and hasattr(os, "eventfd")
    windows = {0: _window(grid, n, grid.dim + 2)}  # k -> iterate k's window
    counts: dict = {}       # k -> eventfd counting the samples of iterate k
    lifeline = ()           # a pipe whose write end only this process holds

    def iterate(k: int):
        """Iterate k, written into windows[k] from windows[k - 1]: its
        step sizes, clip counts and clipped mass, the sups of the three gap
        terms, and the wall time.

        Forked, it first drops its copies of every other window and closes
        every other count, so it maps two windows, and a window's shared
        memory is freed once the solve and the two iterates that read it
        have let go. It reads sample j of its predecessor once counts[k - 1]
        has counted it, and it holds back its own count until its running
        metric, the sup so far of w_sq plus that of v_sq, exceeds
        picard_tol. That metric never decreases and ends at S_k, so iterate
        k + 1 computes exactly when the sequential loop would run it, only
        earlier. Once it has taken the gap at sample i, it releases samples
        up to i of both windows (fields.release), so it keeps resident only
        the samples in flight. It leaves once the lifeline is cut, checked
        while it waits and after each sample."""
        pred, own = windows[k - 1], windows[k]
        sups = [0.0, 0.0, 0.0]
        ready, held = (0 if forked else n), 0

        def watch(*fds, timeout=None) -> None:
            """Return once one of fds is readable, or at the timeout; raise
            once the lifeline is cut."""
            if lifeline[0] in select.select([*fds, lifeline[0]], [], [], timeout)[0]:
                raise RuntimeError("the Picard driver is gone")

        def wait(j: int) -> None:
            nonlocal ready
            while j >= ready:
                watch(counts[k - 1])
                ready += os.eventfd_read(counts[k - 1])

        def on_sample(i: int) -> None:
            nonlocal held
            wait(i)
            sups[:] = map(max, sups, _sample_gap(grid, own, pred, i))
            for taken in (own, pred):
                release(taken, 0, i + 1)
            if forked:
                held += 1
                if sups[0] + sups[1] > picard_tol:
                    os.eventfd_write(counts[k], held)
                    held = 0
                watch(timeout=0)

        if forked:
            # this process's copies: let go of every other window's shared
            # memory and every other iterate's count
            for j in [j for j in windows if j not in (k - 1, k)]:
                del windows[j]
            for j in [j for j in counts if j not in (k - 1, k)]:
                os.close(counts.pop(j))
            os.close(lifeline[1])
        wait(0)
        tic = time.perf_counter()
        stage = TrajectoryCoefficients(times, pred, wait=wait).stage
        traj = solve_linearized(init, params, stage, eta, t_window,
                                sample_dt=sample_dt, cfl_safety=cfl_safety,
                                window=own, on_sample=on_sample)
        fields = traj.dt_history, traj.clip_counts, traj.clipped_mass
        return fields, tuple(sups), time.perf_counter() - tic

    def jobs():
        for k in range(1, max_iter + 1):
            windows[k] = _window(grid, n, grid.dim + 2)
            if forked:
                counts[k] = os.eventfd(0)
            yield f"iterate {k}", partial(iterate, k)

    iterations = []
    reason = "max_iter"
    growths = 0
    _start_guess(init, params, t_window, cfl_safety, sample_dt, windows[0])
    _raise_mmap_threshold()
    try:
        if forked:
            counts[0] = os.eventfd(n)   # the start guess, written whole
            lifeline = os.pipe()
        solved = run_forked(jobs()) if forked else (job() for _, job in jobs())
        with closing(solved):
            for k, (fields, (w_sq, v_sq, linf), wall) in enumerate(solved, 1):
                S = w_sq + v_sq
                growths = growths + 1 if iterations and S > iterations[-1].S_k else 0
                iterations.append(PicardIteration(k=k, S_k=S, linf_delta=linf,
                                                  wall_time=wall))
                del windows[k - 1]
                if forked:
                    os.close(counts.pop(k - 1))
                if S <= picard_tol:
                    reason = "converged"
                    break
                if growths >= DIVERGING_GROWTHS:
                    reason = "diverging"
                    break
    finally:
        for fd in (*counts.values(), *lifeline):
            os.close(fd)
    dt_history, clip_counts, clipped_mass = fields
    last = windows.pop(k)
    if window is not None:
        for i in range(n):
            window[i] = last[i]
            for copied in (window, last):
                release(copied, 0, i + 1)
        last = window
    cur = Trajectory(grid, times, last, dt_history=dt_history,
                     clip_counts=clip_counts, clipped_mass=clipped_mass)
    trace = PicardTrace(iterations=tuple(iterations), stop_reason=reason,
                        final_k=k)
    return cur, trace


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


class ContinuationLevel(NamedTuple):
    index: int
    eta: float
    picard_iters: int
    picard_S: float
    distance: float


class ContinuationReport(NamedTuple):
    levels: tuple
    reached_tol: bool
    final_trace: PicardTrace

    @property
    def distances(self) -> list[float]:
        """The consecutive-level gaps d_j, skipping the first level (which
        has nothing to compare against)."""
        return [lv.distance for lv in self.levels[1:]]


def eta_continuation(init: ReformState, params: FluidParams,
                     schedule: EtaSchedule, t_window: float,
                     picard_tol: float = DEFAULT_PICARD_TOL,
                     max_iter: int = DEFAULT_MAX_ITER, *, sample_dt: float,
                     cfl_safety: float = DEFAULT_CFL_SAFETY
                     ) -> tuple[Trajectory, ContinuationReport]:
    """Solve every regularization level and measure how far consecutive
    solutions sit from each other. The levels are independent solves, so
    they run concurrently (run_forked) and are read in order. Stops early
    once the gap drops to schedule.cauchy_tol; a level that fails to
    converge, or whose process is lost, aborts the sweep with its index and
    the rows of the levels read before it.

    Each level's solution comes back in a _window allocated here just
    before its fork, which the level's solve copies its last iterate into;
    the child's result holds the rest of the trajectory and the trace."""
    grid = init.grid
    etas = schedule.levels()
    times = sample_times(t_window, sample_dt)
    solutions: dict = {}    # j -> the window level j's solution is written to

    def level(j: int):
        traj, trace = picard_solve(init, params, etas[j], t_window, picard_tol,
                                   max_iter, cfl_safety=cfl_safety,
                                   sample_dt=sample_dt, window=solutions[j])
        return (traj.dt_history, traj.clip_counts, traj.clipped_mass), trace

    def jobs():
        for j in range(len(etas)):
            solutions[j] = _window(grid, len(times), grid.dim + 2)
            yield f"level {j}", partial(level, j)

    levels: list[ContinuationLevel] = []
    prev_traj: Trajectory | None = None
    reached = False
    with closing(run_forked(jobs())) as solved:
        for j, eta_j in enumerate(etas):
            try:
                (dt_history, clip_counts, clipped_mass), trace = next(solved)
            except SolverAbort as exc:
                raise ContinuationError(j, f"solver abort: {exc}",
                                        tuple(levels)) from exc
            except LostChild as exc:
                raise ContinuationError(j, str(exc), tuple(levels)) from exc
            if not trace.converged:
                raise ContinuationError(
                    j, f"no convergence in {trace.final_k} iterations, "
                       f"stopped as {trace.stop_reason} (S = {trace.final_S:.3e})",
                    tuple(levels))
            traj = Trajectory(grid, times, solutions.pop(j),
                              dt_history=dt_history, clip_counts=clip_counts,
                              clipped_mass=clipped_mass)
            d = math.nan if prev_traj is None else trajectory_distance(traj, prev_traj)
            levels.append(ContinuationLevel(index=j, eta=eta_j,
                                            picard_iters=trace.final_k,
                                            picard_S=trace.final_S, distance=d))
            prev_traj = traj
            if not math.isnan(d) and d <= schedule.cauchy_tol:
                reached = True
                break
    report = ContinuationReport(levels=tuple(levels), reached_tol=reached,
                                final_trace=trace)
    return prev_traj, report

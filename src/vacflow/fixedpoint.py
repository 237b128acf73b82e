"""Nonlinear solve by repeated linearized windows, plus the vanishing
regularization sweep.

Two nested loops live here. The inner one, ``picard_solve``, freezes the
coefficients of the quasilinear system at the previous iterate, solves the
resulting linear window, and repeats until successive iterates stop moving
in L2. The outer one, ``eta_continuation``, shrinks the elliptic
regularization toward zero and watches consecutive solutions settle into a
Cauchy sequence. The levels share nothing but their initial data, so
``run_forked`` solves them in concurrent child processes.

Iterate k + 1 steps across [t_j, t_j+1] reading only samples j and j + 1 of
iterate k, so the Picard iterates are run_forked jobs too: each is forked as
soon as a slot is free and reads its predecessor's window in shared memory
as the predecessor counts its samples. An iterate counts none until its
running metric has passed picard_tol, so its successor computes exactly when
the sequential loop would run it, bit for bit as it does, and the successors
of a converged iterate are killed before they compute anything.
"""

from __future__ import annotations

import csv
import math
import mmap
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

import numpy as np

from .fields import quadrature_l2
from .linearized import (
    DEFAULT_CFL_SAFETY,
    DEFAULT_SAMPLES_PER_WINDOW,
    FrozenCoefficients,
    SolverAbort,
    Trajectory,
    TrajectoryCoefficients,
    adaptive_dt,
    record_window,
    sample_times,
    solve_linearized,
    transport_step,
)
from .operators import ReformState, exponent_identity_residual
from .params import FluidParams, ParameterError

DEFAULT_PICARD_TOL = 1e-10
DEFAULT_MAX_ITER = 50
IDENTITY_GUARD = 1e-10
# Picard stops as diverging once S_k has grown on this many iterations in a row.
DIVERGING_GROWTHS = 3


class ContinuationError(RuntimeError):
    """A regularization level failed to converge; carries the level index."""

    def __init__(self, level: int, message: str):
        super().__init__(f"continuation level {level}: {message}")
        self.level = level
        self.message = message

    def __reduce__(self):
        return type(self), (self.level, self.message)


class LostChild(RuntimeError):
    """A run_forked child ended without writing its result: it exited early,
    or something killed it (the OOM killer, for one). The message names the
    job by its label and gives its exit code or the signal that killed it."""


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
    start, so a generator may set each job up just before its fork. Without
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
    try:
        while True:
            for label, job in islice(jobs, width - len(running)):
                running.append((label, _start_job(job)))
            if not running:
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


@dataclass(frozen=True)
class PicardIteration:
    """One row of the iteration history."""

    k: int
    S_k: float
    linf_delta: float
    wall_time: float


@dataclass(frozen=True)
class PicardTrace:
    """The iteration history and why it ended: "converged", "max_iter" or
    "diverging"."""

    iterations: tuple
    stop_reason: str
    final_k: int

    def __post_init__(self):
        for it in self.iterations:
            if not it.S_k >= 0.0:
                raise ValueError(f"contraction metric negative at k={it.k}")

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


def write_trace_csv(trace: PicardTrace, path) -> None:
    """Dump the iteration history. Wall times are left out so reruns of the
    same configuration produce byte-identical files."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "S_k", "linf_delta"])
        for it in trace.iterations:
            writer.writerow([it.k, f"{it.S_k:.17e}", f"{it.linf_delta:.17e}"])


def _sample_gap(grid, a, b, i: int) -> tuple[float, float, float]:
    """The gap between sample i of two windows, each given as its (vphi,
    phi, u) stacks: the squared L2 gap of the (phi, u) block, that of vphi,
    and the largest pointwise gap of the three."""
    diffs = (a[1][i] - b[1][i], a[2][i] - b[2][i], a[0][i] - b[0][i])
    phi_sq, u_sq, vphi_sq = (quadrature_l2(grid, d) ** 2 for d in diffs)
    return phi_sq + u_sq, vphi_sq, max(float(np.abs(d).max()) for d in diffs)


def trajectory_distance(a: Trajectory, b: Trajectory) -> float:
    """Sup over shared sample times of the combined L2 distance between
    states (all three fields in one norm)."""
    ta = np.asarray(a.times, dtype=float)
    tb = np.asarray(b.times, dtype=float)
    if ta.shape != tb.shape or not np.allclose(ta, tb, rtol=0.0,
                                               atol=1e-10 * max(1.0, float(ta[-1]))):
        raise ValueError("trajectories are sampled on different time grids")
    stacks_a, stacks_b = (a.vphi, a.phi, a.u), (b.vphi, b.phi, b.u)
    gaps = (_sample_gap(a.grid, stacks_a, stacks_b, i) for i in range(len(ta)))
    return max(math.sqrt(w_sq + v_sq) for w_sq, v_sq, _ in gaps)


def _start_guess(init: ReformState, params: FluidParams, eta: float,
                 t_window: float, cfl_safety: float, sample_dt: float,
                 stacks) -> Trajectory:
    """Iterate zero, written into stacks: both proxies advected by the
    initial velocity (stretch terms dropped), the velocity itself held
    constant. Both proxies share the coefficients and the step, so they
    advance as one stacked transport step. Any guess inside the contraction
    ball works; this one needs no extra solver machinery."""
    grid = init.grid
    zeros = np.zeros(grid.shape)
    provider = TrajectoryCoefficients([0.0], [zeros], [zeros], [init.u.values])
    coeffs = FrozenCoefficients(provider=provider, eta=eta, t_window=t_window)
    h = adaptive_dt(params, grid, init.u.values, zeros, cfl_safety)

    def step(t: float, dt: float, vphi, phi, u):
        (vphi, phi), _ = transport_step(params, (vphi, phi), coeffs, dt, t)
        return vphi, phi, u, 0, 0.0

    return record_window(init, t_window, sample_dt, lambda t: h, step,
                         eta=eta, clip=True, stacks=stacks)


def _raise_mmap_threshold() -> None:
    """Allocate and free one 16 MiB block. glibc raises its mmap threshold
    to the size of a freed mapped block, so processes forked after this keep
    their step temporaries on the heap instead of mapping and unmapping them
    until their own frees raise it: a freshly forked iterate otherwise pays
    that warm-up in page faults (run-2d: 72k against 10k per level). Under
    another allocator this is an unused allocation."""
    np.empty(1 << 21)


def _window(grid, n: int) -> tuple:
    """Empty (vphi, phi, u) stacks for n samples in one anonymous shared
    mapping, which forked children write and read in place; a process holds
    in memory only the pages of it that it touches."""
    shapes = [(n,) + grid.shape] * 2 + [(n, grid.dim) + grid.shape]
    sizes = [math.prod(shape) for shape in shapes]
    buf = mmap.mmap(-1, 8 * sum(sizes))
    offsets = np.cumsum([0] + sizes[:-1])
    return tuple(np.frombuffer(buf, count=size, offset=8 * int(off)).reshape(shape)
                 for shape, size, off in zip(shapes, sizes, offsets))


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
    a history that runs out of iterations, or whose metric grows on
    DIVERGING_GROWTHS iterations in a row, comes back unconverged, with
    its stop reason, rather than raising.

    The start guess is computed here. Iterate k is the run_forked job
    partial(iterate, k) where os.fork and os.eventfd exist, and runs in this
    process otherwise; either way it steps across [t_j, t_j+1] once iterate
    k - 1 has written samples j and j + 1 and has moved more than
    picard_tol. The results do not depend on the process count.
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
    grid = init.grid
    times = sample_times(t_window, sample_dt)
    n = len(times)
    forked = hasattr(os, "fork") and hasattr(os, "eventfd")
    windows = {0: _window(grid, n)}
    _start_guess(init, params, eta, t_window, cfl_safety, sample_dt, windows[0])
    _raise_mmap_threshold()
    counts: dict = {}       # k -> eventfd counting the samples of iterate k
    lifeline = ()           # a pipe whose write end only this process holds

    def iterate(k: int):
        """Iterate k, written into windows[k] from windows[k - 1]: its
        times, step sizes, clip counts and clipped mass, the sups of the
        three gap terms, and the wall time.

        Forked, it reads sample j of its predecessor once counts[k - 1] has
        counted it, and it holds back its own count until its running
        metric, the sup so far of w_sq plus that of v_sq, exceeds
        picard_tol. That metric never decreases and ends at S_k, so
        iterate k + 1 computes exactly when the sequential loop would run
        it, only earlier. It leaves once the lifeline is cut, checked while
        it waits and after each sample."""
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
            if forked:
                held += 1
                if sups[0] + sups[1] > picard_tol:
                    os.eventfd_write(counts[k], held)
                    held = 0
                watch(timeout=0)

        if forked:
            os.close(lifeline[1])
        wait(0)
        tic = time.perf_counter()
        coeffs = FrozenCoefficients(
            provider=TrajectoryCoefficients(times, *pred, wait=wait), eta=eta,
            t_window=t_window, cfl_safety=cfl_safety, sample_dt=sample_dt)
        traj = solve_linearized(init, coeffs, params, stacks=own,
                                on_sample=on_sample)
        fields = traj.times, traj.dt_history, traj.clip_counts, traj.clipped_mass
        return fields, tuple(sups), time.perf_counter() - tic

    def jobs():
        for k in range(1, max_iter + 1):
            windows[k] = _window(grid, n)
            if forked:
                counts[k] = os.eventfd(0)
            yield f"iterate {k}", partial(iterate, k)

    iterations = []
    reason = "max_iter"
    growths = 0
    try:
        if forked:
            counts[0] = os.eventfd(n)   # window 0 is written
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
    out_times, dt_history, clip_counts, clipped_mass = fields
    cur = Trajectory(grid, out_times, *windows[k], dt_history=dt_history,
                     clip_counts=clip_counts, clipped_mass=clipped_mass, eta=eta)
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
    converge, or whose process is lost, aborts the sweep with its index."""
    etas = schedule.levels()
    jobs = [(f"level {j}", partial(picard_solve, init, params, eta_j, t_window,
                                   picard_tol, max_iter, cfl_safety=cfl_safety,
                                   sample_dt=sample_dt))
            for j, eta_j in enumerate(etas)]
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
            except LostChild as exc:
                raise ContinuationError(j, str(exc)) from exc
            if not trace.converged:
                raise ContinuationError(
                    j, f"no convergence in {trace.final_k} iterations, "
                       f"stopped as {trace.stop_reason} (S = {trace.final_S:.3e})")
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

"""Linearized solver: frozen-coefficient transport and momentum stepping.

One outer step of size dt advances the viscosity proxy vphi by two SSP-RK3
transport half steps (pure advection plus the dilation source, coefficients
frozen), then advances (phi, u) with a third-order integrating-factor
Runge-Kutta scheme on Kutta nodes c = (0, 1/2, 1). The stiff
constant-coefficient shift

    M = nubar1 Lap + nubar2 grad div,
    nubar1 = alpha * max(vphi^2 + eta^2),
    nubar2 = max((vphi^2 + eta^2)(alpha + beta vphi^(2m)))_+,

is applied through its exact Fourier exponential, and the explicit slope
carries the full right-hand side minus M u. Monotone nodes keep every
exponential a decay multiplier, so the scheme is stable at transport-limited
step sizes regardless of how stiff the shift is. Every window clips:
negative proxy values are set to zero after each step; cells below the
tolerance -1e-12 are counted and the removed mass is tracked.

As in Kassam and Trefethen (2005), the stages are truncated half spectra
(Grid.fft output): a step transforms its state once, and each stage goes to
physical space only for its products (inverses of the derivatives it needs,
one forward of the summed products, truncated once because truncation is
linear). A transport stage makes one inverse; a momentum slope makes one per
group of factors: those every row reads, the phi row's, and each velocity
component's. The exponential of M is a diagonal multiply. A step adds the
inverse transform of its increment to the physical state, where the
finiteness check and the clip act. The right-hand sides themselves, the
stage assembly and the slope kernels, live in operators; this module holds
the time stepping. The steps pass the kernels raw spectra of their unknowns,
so the factors div u, Lap u, grad div u and grad phi are not truncated.

The window solve reads its coefficients from a stage function, stage(grid,
t): the masked coefficients at t, that is v, div v, the upper triangle of
the symmetric Q1(v), phitilde and vphitilde after the 2/3 rule
(d(d + 1)/2 + d + 3 rows). TrajectoryCoefficients masks each stored sample
once and interpolates the masked samples in time, which equals masking the
interpolated fields because truncation and interpolation are both linear.
The window solve asks for each stage time of an outer step once, t,
t + dt/4, t + dt/2, t + 3dt/4 and its end, pairs each stage with the
forcing rows at its time, and hands the steps their pairs; the end is
march's new time, a sample time exactly when the step lands, and the next
step starts from the pair built there. The steps read nothing else, and
neither does the adaptive step size, which reads v and phitilde of the
stage the step starts from.

A state, a window sample and a forcing all have one layout: the d + 2 rows
(vphi, phi, u) of one array. A window is one array of such samples, shaped
(nt, d + 2) + grid.shape, and each sample is one contiguous block of it.

Memory: windows live in shared memory (fields._window), cross a process
boundary there and never as a pickle, and a process keeps resident only the
samples it is working on: it releases the rest (fields.release), and the
data stays in the mapping for the processes that read it next. A Picard
iterate's process maps two windows, the predecessor whose coefficients are
frozen and the window being written, drops the windows it inherited at its
fork, and releases samples of both once it has taken their gap; the start
guess releases each sample once written, and the continuation's level
distances release each sample once read. A Trajectory reads none of its
samples: _finish checked and clipped each state as it was stepped.
record_window writes each sample straight into a window allocated once, so
a window never exists twice in one process, and the diagnostics difference
samples in time one at a time rather than building a whole-window
derivative array. Beside the windows, a step holds at most four
stage pairs at once (a quarter-point pair lives only through its half step,
so the momentum step sees three), its stage spectra and, of one momentum
slope, the factors every row reads, the buffer of the d + 1 products and one
group of d + 4 factors; momentum_step says which of its spectra live
through each slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fields import Grid, ScalarField, VectorField, checked_values
# advect is not called here; perfbench rebinds it as vacflow.linearized.advect
from .operators import (STATE_FLOOR, ReformState, _mask_coefficients,  # noqa: F401
                        _momentum_rhs, _StageCoeffs, _transport_rhs,
                        _viscosities, _viscous_fields, advect,
                        coefficient_floor, stable_power)
from .params import FluidParams

DEFAULT_CFL_SAFETY = 0.4
DEFAULT_SAMPLES_PER_WINDOW = 32
STABILITY_COURANT = 0.9 * math.sqrt(3.0)


class SolverAbort(RuntimeError):
    """Raised when a run leaves its validity envelope (coefficient regime,
    NaN contamination, or step-size underflow)."""

    def __init__(self, reason: str, time: float, detail: str = ""):
        self.reason = reason
        self.time = time
        self.detail = detail
        message = f"{reason} at t = {time:.6g}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.reason, self.time, self.detail)


# -- stored coefficients -----------------------------------------------------


class TrajectoryCoefficients:
    """Piecewise-linear interpolation in time through a stored trajectory,
    clamped at the endpoints.

    Masked stages interpolate masked samples, which equals masking the
    interpolated fields because truncation is linear. Each sample is masked
    when first needed, and at most two are kept: a query that needs a sample
    not kept keeps only the samples around it. march lands on every sample,
    so no step needs a sample behind the one it starts from. An interpolated
    stage is built on every call; the window solve asks once per stage time.

    samples is a window, its samples stacked like (vphi, phi, u). It may be
    one that is still being written: then times is its full sample grid
    (sample_times), so the weights are those of the finished window, and
    wait(j) returns once sample j exists. Every read of a sample waits for
    it first."""

    def __init__(self, times, samples, wait=None):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 1:
            raise ValueError("need at least one sample")
        self.samples = np.asarray(samples, dtype=float)
        self._wait = wait
        self._masked: dict = {}

    def stage(self, grid: Grid, t: float) -> _StageCoeffs:
        """The masked coefficients at t, which sits at weight w between
        samples j and j + 1 (sample_weight). A step lands on a sample at
        exactly its time, so a sample is read alone there."""
        j, w = sample_weight(self.times, t)
        around = (j, j + 1) if w else (j,)
        if self._wait is not None:
            self._wait(around[-1])
        if not all(i in self._masked for i in around):
            self._masked = {i: self._masked[i] if i in self._masked else
                            _mask_coefficients(grid, self.samples[i, 2:],
                                               self.samples[i, 1], self.samples[i, 0])
                            for i in around}
        if w == 0.0:
            return self._masked[j]
        return _StageCoeffs(grid, (1.0 - w) * self._masked[j].packed
                            + w * self._masked[j + 1].packed)


def _shift(grid: Grid, nu1: float, nu2: float, dt: float):
    """G(tau) = exp(tau (nu1 Lap + nu2 grad div)) on velocity half spectra
    for tau in (dt/2, dt), split into the directions parallel and
    perpendicular to k: a diagonal multiply, its decay factors built once.

    The projection onto k uses the part of k_i k_j that is even under
    k -> -k, which is what a real field keeps: kn_i kn_j + ny_i ny_j
    (Grid.k_projection), whose cross term vanishes where exactly one of axes
    i, j sits at the Nyquist mode and is (pi n / L)^2 where both do."""
    if nu1 == 0.0 and nu2 == 0.0:
        return lambda tau, u_hat: u_hat
    k2 = grid.k_squared
    decay = {tau: (np.exp(-nu1 * k2 * tau), np.exp(-(nu1 + nu2) * k2 * tau))
             for tau in (0.5 * dt, dt)}
    kn, ny, inv_k2 = grid.k_projection

    def G(tau: float, u_hat: np.ndarray) -> np.ndarray:
        decay_perp, decay_par = decay[tau]
        par = (kn * np.sum(kn * u_hat, axis=0) + ny * np.sum(ny * u_hat, axis=0)) * inv_k2
        return decay_perp * (u_hat - par) + decay_par * par

    return G


def _finish(values: np.ndarray, cell_volume: float, t: float, *others):
    """Abort unless values and others are all finite, then zero every
    negative entry of values. Returns the values, the count below the clip
    tolerance and the removed mass."""
    if not all(np.all(np.isfinite(a)) for a in (values, *others)):
        raise SolverAbort("solution lost finiteness", t)
    negative = values < 0.0
    count = int(np.count_nonzero(values < STATE_FLOOR))
    mass = -float(values[negative].sum()) * cell_volume if negative.any() else 0.0
    if negative.any():
        values = np.where(negative, 0.0, values)
    return values, count, mass


# -- public steps ------------------------------------------------------------


class TransportDiag(NamedTuple):
    clip_count: int
    clipped_mass: float


def transport_step(params: FluidParams, grid: Grid, f: np.ndarray, stages,
                   dt: float, t: float = 0.0):
    """One SSP-RK3 step of vphi_t + v.grad vphi + ((delta1-1)/2) vphitilde
    div v = 0 with frozen coefficients, clipping negatives afterwards.
    stages holds the (masked coefficients, forcing rows) pairs at t, t + dt
    and t + dt/2, in the order the Shu-Osher stages read them; forcing rows
    are stacked like (vphi, phi, u), or None. f is the proxy's values on
    grid, or several proxies along a leading axis, which share the
    coefficients and advance as one. Returns (new values, diagnostics summed
    over them)."""

    def rhs(i: int, f_hat: np.ndarray) -> np.ndarray:
        stage, rows = stages[i]
        return _transport_rhs(grid, params, stage, f_hat,
                              None if rows is None else rows[0])

    # The Shu-Osher stages f + dt r1 and f + dt (r1 + r2) / 4 on spectra;
    # the update f/3 + 2/3 (u2 + dt r3) as an increment of f.
    f_hat = grid.fft(f)
    r1 = rhs(0, f_hat)
    r2 = rhs(1, f_hat + dt * r1)
    r3 = rhs(2, f_hat + 0.25 * dt * (r1 + r2))
    out, count, mass = _finish(f + grid.ifft(dt * (r1 + r2 + 4.0 * r3) / 6.0),
                               grid.cell_volume, t + dt)
    return out, TransportDiag(clip_count=count, clipped_mass=mass)


class MomentumDiag(NamedTuple):
    nu1: float
    nu2: float
    clip_count: int
    clipped_mass: float


def _momentum_inputs(params: FluidParams, grid: Grid, y: np.ndarray,
                     eta: float, vphi_new, t: float):
    """What a momentum step reads before its first slope: y0, the spectra
    of the (phi, u) rows y, vphi^(2m) of the three stage proxies as three
    rows, and the shift's nu1 and nu2, the maxima of the stages' c_shear
    and c_compr, built a stage at a time and dropped. Aborts when the grid
    minimum of alpha + beta vphi^(2m) drops below alpha/2."""
    if len(vphi_new) != 3:
        raise ValueError(f"expected 3 stage fields, got {len(vphi_new)}")
    powers = np.empty((3,) + grid.shape)
    # per stage: the minimum of alpha + beta vphi^(2m), the maxima of c_shear
    # and c_compr, reduced over the stages as numpy reduces the whole stack
    # (a NaN propagates)
    extremes = np.empty((3, 3))
    for i, stage in enumerate(vphi_new):
        powers[i] = stable_power(stage, 2.0 * params.m)
        c_shear, c_compr, compr = _viscosities(params, stage**2, powers[i], eta)
        extremes[i] = compr.min(), c_shear.max(), c_compr.max()
    coeff_min = float(extremes[:, 0].min())
    nu1, nu2 = float(extremes[:, 1].max()), max(float(extremes[:, 2].max()), 0.0)
    if coeff_min < coefficient_floor(params):
        raise SolverAbort("ellipticity regime exit", t, "grid-min alpha + beta "
                          f"vphi^(2m) = {coeff_min:.6g} < alpha/2")
    return grid.fft(y), powers, nu1, nu2


def momentum_step(params: FluidParams, grid: Grid, y: np.ndarray, stages,
                  eta: float, vphi_new, dt: float, t: float = 0.0):
    """One integrating-factor RK3 step of the coupled (phi, u) pair, given
    as the d + 1 rows y, a state's rows after vphi. Returns (phi, u,
    diagnostics).

    stages holds the (masked coefficients, forcing rows) pairs at the Kutta
    nodes t, t + dt/2 and t + dt, forcing rows stacked like (vphi, phi, u)
    or None; vphi_new is the new-iterate viscosity proxy as three stage
    arrays at the same nodes. Aborts when the compressive coefficient
    alpha + beta vphi^(2m) drops below alpha/2 anywhere on the grid.

    Each slope transforms its own stage's four viscous fields, from the
    stage's vphi^(2m) row, and k1 and k2 are summed into the update before
    the third slope, so three (phi, u) spectra live through a slope: y0, k1
    and the second stage in the second, where the step peaks, and the third
    stage, the partial update and G(dt/2) k2u in the third."""
    y0, powers, nu1, nu2 = _momentum_inputs(params, grid, y, eta, vphi_new, t)

    def slope(i: int, y_hat):
        stage, rows = stages[i]
        coeff_hat = grid.fft(_viscous_fields(params, vphi_new[i], eta, powers[i]))
        return _momentum_rhs(grid, params, stage, coeff_hat, y_hat, nu1, nu2,
                             None if rows is None else rows[1:])

    G = _shift(grid, nu1, nu2, dt)
    half = 0.5 * dt

    # Stages on the stacked (phi, u) spectra, G acting on the u rows. G is
    # linear, so G(dt) u0 + c G(dt) k1u is applied as G(dt)(u0 + c k1u) and
    # G(dt/2) k2u is applied once for both of its uses.
    k1 = slope(0, y0)
    y2 = y0 + half * k1
    y2[1:] = G(half, y2[1:])
    k2 = slope(1, y2)
    g_k2u = G(half, k2[1:])
    y3 = y0 + dt * (-k1 + 2.0 * k2)
    y3[1:] = G(dt, y0[1:] - dt * k1[1:]) + 2.0 * dt * g_k2u
    # The update's terms in y0, k1 and k2 are summed before the third slope,
    # which then runs beside y3, that sum and G(dt/2) k2u alone.
    increment = k1 + 4.0 * k2
    increment[1:] = G(dt, y0[1:] + (dt / 6.0) * k1[1:]) - y0[1:]
    del y0, k1, k2, y2
    k3 = slope(2, y3)

    # The update as an increment of the physical state, one inverse for both.
    increment[0] = dt * (increment[0] + k3[0]) / 6.0
    increment[1:] += dt * (4.0 * g_k2u + k3[1:]) / 6.0
    y_new = y + grid.ifft(increment)
    phi, count, mass = _finish(y_new[0], grid.cell_volume, t + dt, y_new[1:])
    diag = MomentumDiag(nu1=nu1, nu2=nu2, clip_count=count, clipped_mass=mass)
    return phi, y_new[1:], diag


# -- window solve ------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one linearized window: the sample times, the
    samples as one read-only array shaped (nt, d + 2) + shape, sample i the
    rows (vphi, phi, u) of the state at times[i], plus per-step diagnostics.
    Only the shape is checked: every window solve writes finite samples
    with both proxies clipped at zero (_finish)."""

    grid: Grid
    times: list
    samples: np.ndarray
    dt_history: list = field(default_factory=list)
    clip_counts: list = field(default_factory=list)
    clipped_mass: list = field(default_factory=list)

    def __post_init__(self):
        g = self.grid
        object.__setattr__(self, "samples", checked_values(
            self.samples, (len(self.times), g.dim + 2) + g.shape, finite=False))

    # each field's rows of every sample, read-only views of samples
    vphi = property(lambda self: self.samples[:, 0])
    phi = property(lambda self: self.samples[:, 1])
    u = property(lambda self: self.samples[:, 2:])

    def state(self, i: int) -> ReformState:
        """Sample i as a ReformState whose fields are views into samples."""
        g, sample = self.grid, self.samples[i]
        return ReformState(ScalarField(g, sample[0]), ScalarField(g, sample[1]),
                           VectorField(g, sample[2:]), floor=None)

    @property
    def final(self) -> ReformState:
        return self.state(-1)


def sample_times(t_window: float, sample_dt: float) -> list:
    """The sample times of a window: 0, the multiples of sample_dt below
    t_window, and t_window itself."""
    if not t_window > 0.0:
        raise ValueError(f"t_window must be positive, got {t_window}")
    if not sample_dt > 0:
        raise ValueError(f"sample_dt must be positive, got {sample_dt}")
    tol = 1e-12 * max(1.0, t_window)
    times = [0.0]
    k = 1
    while k * sample_dt < t_window - tol:
        times.append(k * sample_dt)
        k += 1
    times.append(t_window)
    return times


def sample_weight(times, t: float) -> tuple[int, float]:
    """The sample j at or before t and the weight w of sample j + 1, so that
    a quantity linear between samples reads (1 - w) f_j + w f_(j+1) at t.
    w is 0 at a sample time, and past either end, where j is that end."""
    if t <= times[0]:
        return 0, 0.0
    if t >= times[-1]:
        return len(times) - 1, 0.0
    j = int(np.searchsorted(times, t, side="right")) - 1
    return j, (t - times[j]) / (times[j + 1] - times[j])


def march(t_window: float, sample_dt: float, next_dt, advance, write) -> None:
    """Step time across [0, t_window], landing exactly on each sample time
    of sample_times(t_window, sample_dt) after 0 in turn, and call write(n)
    for sample n: for sample 0 at once, for each later one right after the
    step that lands on it.

    Each step asks next_dt(t) for a size. A step that would reach the next
    sample, or miss it by at most 1e-12 max(1, sample), lands: it is cut to
    end there, and its new time is that sample time exactly. Then march
    calls advance(t, dt, t_new). A step at or below 1e-13 max(t_window, 1)
    aborts with a step-size underflow."""
    dt_floor = 1e-13 * max(t_window, 1.0)
    t = 0.0
    for n, t_target in enumerate(sample_times(t_window, sample_dt)):
        target_tol = 1e-12 * max(1.0, t_target)
        while t < t_target:
            dt = next_dt(t)
            landing = t + dt >= t_target - target_tol
            if landing:
                dt = t_target - t
            if dt <= dt_floor:
                raise SolverAbort("step size underflow", t, f"dt = {dt:.3e}")
            t_new = t_target if landing else t + dt
            advance(t, dt, t_new)
            t = t_new
        write(n)


def record_window(init: ReformState, t_window: float, sample_dt: float,
                  next_dt, step, *, window=None, on_sample=None) -> Trajectory:
    """March init across [0, t_window] and record the window at
    sample_times(t_window, sample_dt). step(t, dt, t_new, state) returns the
    state at t_new, march's end of the step, as one array stacked like a
    sample, then its clip count and clipped mass.

    Each sample is written into a window allocated once, sized by
    sample_times, and the trajectory takes the window as it is: a window
    never exists twice, so a caller holds only the windows it keeps plus the
    one being written. A caller may pass the window, shaped (len(times),
    d + 2) + grid.shape, for instance in memory another process reads while
    it fills; on_sample(i) is called once sample i is written, sample 0
    included."""
    state = init.rows
    times = sample_times(t_window, sample_dt)
    if window is None:
        window = np.empty((len(times),) + state.shape)
    dt_history, clip_counts, clipped_mass = [], [], []

    def write(n: int) -> None:
        window[n] = state
        if on_sample is not None:
            on_sample(n)

    def advance(t: float, dt: float, t_new: float) -> None:
        nonlocal state
        state, count, mass = step(t, dt, t_new, state)
        dt_history.append(dt)
        clip_counts.append(count)
        clipped_mass.append(mass)

    march(t_window, sample_dt, next_dt, advance, write)
    return Trajectory(init.grid, times, window, dt_history=dt_history,
                      clip_counts=clip_counts, clipped_mass=clipped_mass)


def adaptive_dt(params: FluidParams, grid: Grid, v: np.ndarray,
                phitilde: np.ndarray, cfl_safety: float) -> float:
    """Transport-limited step: the configured CFL formula combined with the
    imaginary-axis stability bound of the RK3 stability polynomial at the
    highest retained wavenumber."""
    speed = float(np.sqrt(np.sum(v**2, axis=0)).max())
    coeff = float(np.abs(phitilde).max())
    formula = cfl_safety * grid.spacing / (
        speed + 0.5 * (params.gamma - 1.0) * coeff + 1e-30
    )
    kmax = 2.0 * math.pi * (grid.n // 3) / grid.box_length
    acoustic = math.sqrt(params.A * params.gamma) * coeff
    stability = STABILITY_COURANT / (kmax * (speed + acoustic + 1e-30))
    return min(formula, stability)


def solve_linearized(init: ReformState, params: FluidParams, stage, eta: float,
                     t_window: float, *, sample_dt: float,
                     dt: float | None = None,
                     cfl_safety: float = DEFAULT_CFL_SAFETY, forcing=None,
                     window=None, on_sample=None) -> Trajectory:
    """March the linearized system across [0, t_window], landing exactly on
    sample_times(t_window, sample_dt), and return the sampled trajectory.
    stage(grid, t) gives the frozen masked coefficients at t, eta in [0, 1]
    is the degeneracy shift, and forcing maps t to rows stacked like (vphi,
    phi, u), or is None; dt = None selects the adaptive step at cfl_safety.
    The viscosity proxy advances in lockstep by two transport half steps
    per outer step, feeding stage fields to the momentum update. window and
    on_sample go to record_window.

    A step of size dt = 2h builds the (masked coefficients, forcing rows)
    pair at each of its stage times once, t, t + h/2, t + h, (t + h) + h/2
    and t_new, march's end of the step, a quarter-point pair only for its
    half step. The pair at t_new is the next step's start."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if dt is not None and dt <= 0:
        raise ValueError("dt must be positive when fixed")
    grid = init.grid

    def pair(t: float) -> tuple:
        return stage(grid, t), None if forcing is None else forcing(t)

    start = pair(0.0)

    def next_dt(t: float) -> float:
        if dt is not None:
            return dt
        return adaptive_dt(params, grid, start[0].v, start[0].phit, cfl_safety)

    def step(t: float, dt: float, t_new: float, state: np.ndarray):
        nonlocal start
        h = 0.5 * dt
        first, half = start, pair(t + h)
        vphi_half, d1 = transport_step(params, grid, state[0],
                                       (first, half, pair(t + 0.5 * h)), h, t)
        end = pair(t_new)
        vphi_full, d2 = transport_step(params, grid, vphi_half,
                                       (half, end, pair((t + h) + 0.5 * h)),
                                       h, t + h)
        phi, u, mdiag = momentum_step(params, grid, state[1:], (first, half, end),
                                      eta, (state[0], vphi_half, vphi_full),
                                      dt, t)
        start = end
        return (np.concatenate(([vphi_full, phi], u)),
                d1.clip_count + d2.clip_count + mdiag.clip_count,
                d1.clipped_mass + d2.clipped_mass + mdiag.clipped_mass)

    return record_window(init, t_window, sample_dt, next_dt, step,
                         window=window, on_sample=on_sample)

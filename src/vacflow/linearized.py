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
step sizes regardless of how stiff the shift is. Negative proxy values are
clipped to zero after each step; cells below the tolerance -1e-12 are
counted and the removed mass is tracked.

As in Kassam and Trefethen (2005), the stages are truncated half spectra
(Grid.fft output): a step transforms its state once, and each stage goes to
physical space only for its products (one inverse of the derivatives it
needs, one forward of the summed products, truncated once because truncation
is linear). The exponential of M is a diagonal multiply. A step adds the
inverse transform of its increment to the physical state, where the
finiteness check and the clip act. The right-hand sides themselves, the
stage assembly and the slope kernels, live in operators; this module holds
the time stepping. The steps pass the kernels raw spectra of their unknowns,
so the factors div u, Lap u, grad div u and grad phi are not truncated.

A coefficient provider has one method, stage(grid, t): the masked
coefficients at t, that is v, div v, Q1(v), phitilde and vphitilde after
the 2/3 rule. The steps read nothing else, and neither does the adaptive
step size, which reads v and phitilde of the stage the step starts from. A
stored trajectory masks each sample once and interpolates the masked
samples in time, which equals masking the interpolated fields because
truncation and interpolation are both linear; one sample is a provider
frozen in time.

Memory: a Picard iterate's process holds two windows, the predecessor
whose coefficients are frozen and the window being written; the parent of a
continuation holds two levels' solutions. record_window writes each sample
straight into stacks allocated once for the whole window, so a window never
exists twice, and the diagnostics difference samples in time one at a time
rather than building a whole-window derivative stack. Beside the windows, a
step keeps only its stage spectra and one stage's factors.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .fields import Grid, ScalarField, VectorField, checked_values
# advect is not called here; perfbench rebinds it as vacflow.linearized.advect
from .operators import (STATE_FLOOR, ReformState, _mask_coefficients,  # noqa: F401
                        _momentum_rhs, _StageCoeffs, _transport_rhs,
                        _viscous_fields, advect)
from .params import FluidParams

DEFAULT_CFL_SAFETY = 0.4
DEFAULT_SAMPLES_PER_WINDOW = 32
SAMPLE_SNAP = 1e-12
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


# -- coefficient providers ---------------------------------------------------


class AnalyticCoefficients:
    """Coefficients given by closed-form time callables (used by manufactured
    cases, where the coefficient trajectory is known exactly)."""

    def __init__(self, velocity, phi_coeff, vphi_coeff):
        self._callables = (velocity, phi_coeff, vphi_coeff)

    def stage(self, grid: Grid, t: float) -> _StageCoeffs:
        """The masked coefficients at t, built afresh on every call."""
        return _mask_coefficients(grid, *(f(t) for f in self._callables))


class TrajectoryCoefficients:
    """Piecewise-linear interpolation in time through a stored trajectory,
    clamped at the endpoints.

    Masked stages interpolate masked samples, which equals masking the
    interpolated fields because truncation is linear. Each sample is masked
    when first needed, and only the (at most two) samples bracketing the
    latest query are kept: march lands on every sample, so no step needs a
    sample behind the one it starts from. Stages interpolated between them
    are kept by time until the bracket moves, which masks a new sample, and
    only the BETWEEN_KEPT most recently queried: the stage times of one
    outer step, t, t + dt/4, t + dt/2, t + 3dt/4 and t + dt, when a sample
    interval holds many steps.

    The stacks may belong to a window that is still being written: then
    times is its full sample grid (sample_times), so the weights are those
    of the finished window, and wait(j) returns once sample j exists. Every
    read of a sample waits for it first."""

    BETWEEN_KEPT = 5

    def __init__(self, times, vphis, phis, velocities, wait=None):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 1:
            raise ValueError("need at least one sample")
        self.vphis = np.asarray(vphis, dtype=float)
        self.phis = np.asarray(phis, dtype=float)
        self.velocities = np.asarray(velocities, dtype=float)
        self._wait = wait
        self._masked: dict = {}
        self._between: dict = {}

    def _bracket(self, t: float) -> tuple:
        """(j, w): t sits at weight w between samples j and j + 1; w = 0
        at a sample time and past either clamped end. A stage time that
        misses a sample by roundoff (t + dt against the snapped t_new)
        counts as the sample, so it needs no second one."""
        times = self.times
        if t <= times[0]:
            j, w = 0, 0.0
        elif t >= times[-1]:
            j, w = len(times) - 1, 0.0
        else:
            j = int(np.searchsorted(times, t, side="right")) - 1
            j = min(j, len(times) - 2)
            w = (t - times[j]) / (times[j + 1] - times[j])
            if w <= SAMPLE_SNAP:
                w = 0.0
            elif w >= 1.0 - SAMPLE_SNAP:
                j, w = j + 1, 0.0
        if self._wait is not None:
            self._wait(j + 1 if w else j)
        return j, w

    def _masked_sample(self, grid: Grid, j: int, keep) -> _StageCoeffs:
        """Sample j masked; on a miss every other cached sample but keep is
        dropped, and so is every interpolated stage."""
        if j not in self._masked:
            self._masked = {i: s for i, s in self._masked.items() if i == keep}
            self._between = {}
            self._masked[j] = _mask_coefficients(
                grid, self.velocities[j], self.phis[j], self.vphis[j])
        return self._masked[j]

    def stage(self, grid: Grid, t: float) -> _StageCoeffs:
        """The masked coefficients at t."""
        j, w = self._bracket(t)
        if w == 0.0:
            return self._masked_sample(grid, j, None)
        stage = self._between.pop(t, None)
        if stage is None:
            a = self._masked_sample(grid, j, j + 1)
            b = self._masked_sample(grid, j + 1, j)
            stage = _StageCoeffs(grid, (1.0 - w) * a.packed + w * b.packed)
            if len(self._between) == self.BETWEEN_KEPT:
                del self._between[next(iter(self._between))]
        # reinserted last, so the dict runs from least to most recently queried
        self._between[t] = stage
        return stage


class CallableForcing:
    """Optional right-hand-side forcing, one callable per equation, each
    mapping t to an array (or None for an unforced slot)."""

    def __init__(self, vphi=None, phi=None, velocity=None):
        self._vphi, self._phi, self._velocity = vphi, phi, velocity

    def vphi_term(self, t: float):
        return None if self._vphi is None else self._vphi(t)

    def momentum_term(self, grid: Grid, t: float):
        """The (phi, u) forcing at t stacked like the state, an unforced
        slot zero; None when neither is forced."""
        if self._phi is None and self._velocity is None:
            return None
        out = np.zeros((grid.dim + 1,) + grid.shape)
        if self._phi is not None:
            out[0] = self._phi(t)
        if self._velocity is not None:
            out[1:] = self._velocity(t)
        return out


@dataclass
class FrozenCoefficients:
    """Everything a linearized solve needs besides the initial state: the
    coefficient provider, the degeneracy shift eta, the window length, and
    stepping controls. dt = None selects the adaptive step."""

    provider: object
    eta: float
    t_window: float
    dt: float | None = None
    cfl_safety: float = DEFAULT_CFL_SAFETY
    sample_dt: float | None = None
    clip: bool = True
    forcing: CallableForcing | None = None

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not self.t_window > 0:
            raise ValueError("t_window must be positive")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive when fixed")


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


def _finish(values: np.ndarray, clip: bool, cell_volume: float, t: float,
            *others):
    """Abort unless values and others are all finite; with clip set, zero
    every negative entry of values. Returns the values, the count below the
    clip tolerance and the removed mass."""
    if not all(np.all(np.isfinite(a)) for a in (values, *others)):
        raise SolverAbort("solution lost finiteness", t)
    if not clip:
        return values, 0, 0.0
    negative = values < 0.0
    count = int(np.count_nonzero(values < STATE_FLOOR))
    mass = -float(values[negative].sum()) * cell_volume if negative.any() else 0.0
    if negative.any():
        values = np.where(negative, 0.0, values)
    return values, count, mass


# -- public steps ------------------------------------------------------------


@dataclass(frozen=True)
class TransportDiag:
    clip_count: int
    clipped_mass: float


def transport_step(params: FluidParams, vphi, coeffs: FrozenCoefficients,
                   dt: float, t: float = 0.0, t_end: float | None = None):
    """One SSP-RK3 step of vphi_t + v.grad vphi + ((delta1-1)/2) vphitilde
    div v = 0 with frozen coefficients, clipping negatives afterwards when
    coeffs.clip is set. vphi is one ScalarField or a tuple of them, which
    share the coefficients and advance as one stack. t_end is the time the
    step ends at, t + dt up to roundoff: the stage there reads the
    coefficients at exactly t_end, so that a step ending at the same time
    shares them. Returns (new field or tuple of fields, diagnostics summed
    over the tuple)."""
    single = isinstance(vphi, ScalarField)
    grid = vphi.grid if single else vphi[0].grid
    forcing = coeffs.forcing
    f = vphi.values if single else np.stack([g.values for g in vphi])
    if t_end is None:
        t_end = t + dt

    def rhs(ts: float, f_hat: np.ndarray) -> np.ndarray:
        stage = coeffs.provider.stage(grid, ts)
        fv = forcing.vphi_term(ts) if forcing is not None else None
        return _transport_rhs(grid, params, stage, f_hat, fv)

    # The Shu-Osher stages f + dt r1 and f + dt (r1 + r2) / 4 on spectra;
    # the update f/3 + 2/3 (u2 + dt r3) as an increment of f.
    f_hat = grid.fft(f)
    r1 = rhs(t, f_hat)
    r2 = rhs(t_end, f_hat + dt * r1)
    r3 = rhs(t + 0.5 * dt, f_hat + 0.25 * dt * (r1 + r2))
    out, count, mass = _finish(f + grid.ifft(dt * (r1 + r2 + 4.0 * r3) / 6.0),
                               coeffs.clip, grid.cell_volume, t_end)
    diag = TransportDiag(clip_count=count, clipped_mass=mass)
    if single:
        return ScalarField(grid, out), diag
    return tuple(ScalarField(grid, o) for o in out), diag


@dataclass(frozen=True)
class MomentumDiag:
    nu1: float
    nu2: float
    coeff_min: float
    clip_count: int
    clipped_mass: float


def _momentum_inputs(params: FluidParams, phi: ScalarField, u: VectorField,
                     coeffs: FrozenCoefficients, vphi_new, t: float):
    """The spectra a momentum step reads: y0 of (phi, u) and coeff_hat of the
    (4, 3) _viscous_fields of the three stage proxies, with the shift's nu1
    and nu2 and the grid minimum of alpha + beta vphi^(2m). The physical
    fields they come from are dropped on return. Aborts when that minimum
    drops below alpha/2."""
    grid = phi.grid
    d = grid.dim
    if len(vphi_new) != 3:
        raise ValueError(f"expected 3 stage fields, got {len(vphi_new)}")
    fields, compr = _viscous_fields(params, np.stack([s.values for s in vphi_new]),
                                    coeffs.eta)
    coeff_min = float(compr.min())
    nu1, nu2 = float(fields[2].max()), max(float(fields[3].max()), 0.0)
    if coeff_min < 0.5 * params.alpha:
        raise SolverAbort("ellipticity regime exit", t, "grid-min alpha + beta "
                          f"vphi^(2m) = {coeff_min:.6g} < alpha/2")
    spectra = grid.fft(np.concatenate(([phi.values], u.values,
                                       fields.reshape((12,) + grid.shape))))
    y0, coeff_hat = spectra[:d + 1], spectra[d + 1:].reshape((4, 3) + grid.spectral_shape)
    return y0, coeff_hat, nu1, nu2, coeff_min


def momentum_step(params: FluidParams, phi: ScalarField, u: VectorField,
                  coeffs: FrozenCoefficients, vphi_new, dt: float, t: float = 0.0):
    """One integrating-factor RK3 step of the coupled (phi, u) pair.

    vphi_new is the new-iterate viscosity proxy as three stage fields at
    offsets (0, 1/2, 1)*dt. Aborts when the compressive coefficient
    alpha + beta vphi^(2m) drops below alpha/2 anywhere on the grid."""
    grid = phi.grid
    y0, coeff_hat, nu1, nu2, coeff_min = _momentum_inputs(params, phi, u, coeffs,
                                                          vphi_new, t)

    def slope(ts: float, y_hat, i: int):
        stage = coeffs.provider.stage(grid, ts)
        fm = coeffs.forcing.momentum_term(grid, ts) if coeffs.forcing is not None else None
        return _momentum_rhs(grid, params, stage, coeff_hat[:, i], y_hat, nu1, nu2, fm)

    G = _shift(grid, nu1, nu2, dt)
    half = 0.5 * dt

    # Stages on the stacked (phi, u) spectra, G acting on the u rows. G is
    # linear, so G(dt) u0 + c G(dt) k1u is applied as G(dt)(u0 + c k1u) and
    # G(dt/2) k2u is applied once for both of its uses.
    k1 = slope(t, y0, 0)
    y2 = y0 + half * k1
    y2[1:] = G(half, y2[1:])
    k2 = slope(t + half, y2, 1)
    g_k2u = G(half, k2[1:])
    y3 = y0 + dt * (-k1 + 2.0 * k2)
    y3[1:] = G(dt, y0[1:] - dt * k1[1:]) + 2.0 * dt * g_k2u
    k3 = slope(t + dt, y3, 2)

    # The update as an increment of the physical state, one inverse for both.
    increment = dt * (k1 + 4.0 * k2 + k3) / 6.0
    increment[1:] = (G(dt, y0[1:] + (dt / 6.0) * k1[1:]) - y0[1:]
                     + dt * (4.0 * g_k2u + k3[1:]) / 6.0)
    delta = grid.ifft(increment)
    u_new = u.values + delta[1:]
    phi_new, count, mass = _finish(phi.values + delta[0], coeffs.clip,
                                   grid.cell_volume, t + dt, u_new)
    diag = MomentumDiag(nu1=nu1, nu2=nu2, coeff_min=coeff_min,
                        clip_count=count, clipped_mass=mass)
    return ScalarField(grid, phi_new), VectorField(grid, u_new), diag


# -- window solve ------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one linearized window: the sample times, one
    read-only stacked array per field (vphi and phi shaped (nt,) + shape, u
    shaped (nt, dim) + shape), plus per-step diagnostics. The proxies must be
    nonnegative up to the clip tolerance at every sample; pass floor=None for
    signed data produced with clipping disabled."""

    grid: Grid
    times: list
    vphi: np.ndarray
    phi: np.ndarray
    u: np.ndarray
    dt_history: list = field(default_factory=list)
    clip_counts: list = field(default_factory=list)
    clipped_mass: list = field(default_factory=list)
    eta: float = 0.0
    floor: InitVar[float | None] = STATE_FLOOR

    def __post_init__(self, floor):
        g, nt = self.grid, len(self.times)
        for name, shape in (("vphi", g.shape), ("phi", g.shape),
                            ("u", (g.dim,) + g.shape)):
            stack = checked_values(getattr(self, name), (nt,) + shape)
            if floor is not None and name != "u" and float(stack.min()) < floor:
                raise ValueError(f"{name} has negative values below the clip "
                                 f"tolerance: min = {float(stack.min()):.3e}")
            object.__setattr__(self, name, stack)
        if not all(b > a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("sample times must increase strictly")

    def state(self, i: int) -> ReformState:
        """Sample i as a ReformState whose fields are views into the stacks."""
        g = self.grid
        return ReformState(ScalarField(g, self.vphi[i]), ScalarField(g, self.phi[i]),
                           VectorField(g, self.u[i]), time=self.times[i], floor=None)

    @property
    def final(self) -> ReformState:
        return self.state(-1)


def sample_times(t_window: float, sample_dt: float) -> list:
    """The sample times of a window: 0, the multiples of sample_dt below
    t_window, and t_window itself."""
    tol = 1e-12 * max(1.0, t_window)
    times = [0.0]
    k = 1
    while k * sample_dt < t_window - tol:
        times.append(k * sample_dt)
        k += 1
    times.append(t_window)
    return times


def march(t_window: float, sample_dt: float | None, next_dt, advance) -> None:
    """Step time across [0, t_window], landing exactly on the sample times.

    The sample times are sample_times(t_window, sample_dt) after 0;
    sample_dt = None makes every step a sample. Each step asks next_dt(t) for
    a size, cuts it to land on the next sample when it would reach or pass
    it, snaps the new time onto that sample, and calls advance(t, dt, t_new,
    at_sample). A step at or below 1e-13 max(t_window, 1) aborts with a
    step-size underflow."""
    tol = 1e-12 * max(1.0, t_window)
    samples = None if sample_dt is None else sample_times(t_window, sample_dt)[1:]

    t = 0.0
    sample_idx = 0
    dt_floor = 1e-13 * max(t_window, 1.0)
    while t < t_window - tol:
        dt = next_dt(t)
        t_target = samples[sample_idx] if samples is not None else t_window
        target_tol = 1e-12 * max(1.0, t_target)
        if t + dt >= t_target - target_tol:
            dt = t_target - t
        if dt <= dt_floor:
            raise SolverAbort("step size underflow", t, f"dt = {dt:.3e}")
        t_new = t_target if abs(t + dt - t_target) <= target_tol else t + dt
        at_sample = samples is None or t_new == t_target
        advance(t, dt, t_new, at_sample)
        if samples is not None and at_sample:
            sample_idx += 1
        t = t_new


def record_window(init: ReformState, t_window: float, sample_dt: float | None,
                  next_dt, step, *, eta: float, clip: bool, stacks=None,
                  on_sample=None) -> Trajectory:
    """March init across [0, t_window] and record the window. step(t, dt,
    vphi, phi, u) returns the fields after one step followed by its clip
    count and clipped mass.

    Each sample is written into stacks allocated once per window, sized by
    sample_times, and the trajectory takes the stacks as they are: a window
    never exists twice, so a caller holds only the windows it keeps plus the
    one being written. With sample_dt None, every step is a sample and the
    stacks double whenever they fill. A caller may pass the (vphi, phi, u)
    stacks, sized by sample_times, for instance in memory another process
    reads while they fill; on_sample(i) is called once sample i is written,
    sample 0 included."""
    fields = (init.vphi, init.phi, init.u)
    times = [0.0]
    if stacks is None:
        size = 2 if sample_dt is None else len(sample_times(t_window, sample_dt))
        stacks = [np.empty((size,) + f.values.shape) for f in fields]
    dt_history, clip_counts, clipped_mass = [], [], []

    def write(n: int) -> None:
        for stack, f in zip(stacks, fields):
            stack[n] = f.values
        if on_sample is not None:
            on_sample(n)

    def advance(t: float, dt: float, t_new: float, at_sample: bool) -> None:
        nonlocal fields, stacks
        *fields, count, mass = step(t, dt, *fields)
        dt_history.append(dt)
        clip_counts.append(count)
        clipped_mass.append(mass)
        if at_sample:
            n = len(times)
            if n == len(stacks[0]):
                stacks = [np.concatenate((s, np.empty_like(s))) for s in stacks]
            write(n)
            times.append(t_new)

    write(0)
    march(t_window, sample_dt, next_dt, advance)
    n = len(times)
    return Trajectory(init.grid, times, *(s[:n] for s in stacks),
                      dt_history=dt_history, clip_counts=clip_counts,
                      clipped_mass=clipped_mass, eta=eta,
                      floor=STATE_FLOOR if clip else None)


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


def solve_linearized(init: ReformState, coeffs: FrozenCoefficients,
                     params: FluidParams, *, stacks=None,
                     on_sample=None) -> Trajectory:
    """March the linearized system across [0, t_window], landing exactly on
    the sample cadence, and return the sampled trajectory. The viscosity
    proxy advances in lockstep by two transport half steps per outer step,
    feeding stage fields to the momentum update. stacks and on_sample go to
    record_window."""
    grid = init.grid

    def next_dt(t: float) -> float:
        if coeffs.dt is not None:
            return coeffs.dt
        stage = coeffs.provider.stage(grid, t)
        return adaptive_dt(params, grid, stage.v, stage.phit, coeffs.cfl_safety)

    def step(t: float, dt: float, vphi, phi, u):
        vphi_half, d1 = transport_step(params, vphi, coeffs, 0.5 * dt, t)
        vphi_full, d2 = transport_step(params, vphi_half, coeffs, 0.5 * dt,
                                       t + 0.5 * dt, t_end=t + dt)
        phi, u, mdiag = momentum_step(
            params, phi, u, coeffs, (vphi, vphi_half, vphi_full), dt, t
        )
        return (vphi_full, phi, u,
                d1.clip_count + d2.clip_count + mdiag.clip_count,
                d1.clipped_mass + d2.clipped_mass + mdiag.clipped_mass)

    return record_window(init, coeffs.t_window, coeffs.sample_dt, next_dt, step,
                         eta=coeffs.eta, clip=coeffs.clip, stacks=stacks,
                         on_sample=on_sample)

"""Linearized solver: frozen-coefficient transport and momentum stepping.

One outer step of size dt advances the viscosity proxy vphi by two SSP-RK3
transport half steps (pure advection plus the dilation source, coefficients
frozen), then advances (phi, u) with a third-order integrating-factor
Runge-Kutta scheme on Kutta nodes c = (0, 1/2, 1). The stiff
constant-coefficient shift

    M = nubar1 Lap + nubar2 grad div,
    nubar1 = alpha * max(vphi^2 + eta^2),
    nubar2 = max((vphi^2 + eta^2)(alpha + beta vphi^(2m)))_+,

is applied through its exact Fourier exponential (split into directions
parallel and perpendicular to k), and the explicit slope carries the full
right-hand side minus M u. Monotone nodes keep every exponential a decay
multiplier, so the scheme is stable at transport-limited step sizes
regardless of how stiff the shift is. Negative proxy values are clipped to
zero after each step; cells below the tolerance -1e-12 are counted and the
removed mass is tracked.

The steps read their coefficients as masked stages from the provider: v,
div v, Q1(v), phitilde and vphitilde after the 2/3 rule. A stored
trajectory masks each sample once and interpolates the masked samples in
time, which equals masking the interpolated fields because truncation and
interpolation are both linear; only the two samples around the current step
are kept. The truncation of a derivative factor is folded into the cached
multipliers Grid.ik_masked, and each right-hand side is truncated once: the
products of a slope are summed with its advection and the sums of all
slopes go through one batched transform pair.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .fields import Grid, ScalarField, VectorField, checked_values
from .operators import STATE_FLOOR, ReformState, advect, stable_power
from .params import FluidParams

CLIP_TOLERANCE = -1e-12
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
        message = f"{reason} at t = {time:.6g}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


# -- coefficient providers ---------------------------------------------------


class ConstantCoefficients:
    """Coefficients frozen at a single state: velocity v, pressure-proxy
    phitilde, and viscosity-proxy vphitilde, all time independent."""

    def __init__(self, v: np.ndarray, phitilde: np.ndarray, vphitilde: np.ndarray):
        self.v = np.asarray(v, dtype=float)
        self.phitilde = np.asarray(phitilde, dtype=float)
        self.vphitilde = np.asarray(vphitilde, dtype=float)
        self._masked = None

    def stage(self, grid: Grid, t: float) -> "_StageCoeffs":
        """The masked coefficients, built on the first call."""
        if self._masked is None:
            self._masked = _mask_coefficients(grid, self.v, self.phitilde,
                                              self.vphitilde)
        return self._masked

    def velocity(self, t: float) -> np.ndarray:
        return self.v

    def phi_coeff(self, t: float) -> np.ndarray:
        return self.phitilde

    def vphi_coeff(self, t: float) -> np.ndarray:
        return self.vphitilde


class AnalyticCoefficients:
    """Coefficients given by closed-form time callables (used by manufactured
    cases, where the coefficient trajectory is known exactly)."""

    def __init__(self, velocity, phi_coeff, vphi_coeff):
        self._velocity = velocity
        self._phi = phi_coeff
        self._vphi = vphi_coeff

    def velocity(self, t: float) -> np.ndarray:
        return self._velocity(t)

    def phi_coeff(self, t: float) -> np.ndarray:
        return self._phi(t)

    def vphi_coeff(self, t: float) -> np.ndarray:
        return self._vphi(t)

    def stage(self, grid: Grid, t: float) -> "_StageCoeffs":
        """The masked coefficients at t, built afresh on every call."""
        return _mask_coefficients(grid, self._velocity(t), self._phi(t),
                                  self._vphi(t))


class TrajectoryCoefficients:
    """Piecewise-linear interpolation in time through a stored trajectory,
    clamped at the endpoints.

    Masked stages interpolate masked samples, which equals masking the
    interpolated fields because truncation is linear. Each sample is masked
    when first needed, and only the (at most two) samples bracketing the
    latest query are kept: march lands on every sample, so no step needs a
    sample behind the one it starts from."""

    def __init__(self, times, vphis, phis, velocities):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 1:
            raise ValueError("need at least one sample")
        self.vphis = np.asarray(vphis, dtype=float)
        self.phis = np.asarray(phis, dtype=float)
        self.velocities = np.asarray(velocities, dtype=float)
        self._masked: dict = {}

    def _bracket(self, t: float) -> tuple:
        """(j, w): t sits at weight w between samples j and j + 1; w = 0
        at a sample time and past either clamped end. A stage time that
        misses a sample by roundoff (t + dt against the snapped t_new)
        counts as the sample, so it needs no second one."""
        times = self.times
        if t <= times[0]:
            return 0, 0.0
        if t >= times[-1]:
            return len(times) - 1, 0.0
        j = int(np.searchsorted(times, t, side="right")) - 1
        j = min(j, len(times) - 2)
        w = (t - times[j]) / (times[j + 1] - times[j])
        if w <= SAMPLE_SNAP:
            return j, 0.0
        if w >= 1.0 - SAMPLE_SNAP:
            return j + 1, 0.0
        return j, w

    def _interp(self, stack: np.ndarray, t: float) -> np.ndarray:
        j, w = self._bracket(t)
        if w == 0.0:
            return stack[j]
        return (1.0 - w) * stack[j] + w * stack[j + 1]

    def _masked_sample(self, grid: Grid, j: int, keep) -> "_StageCoeffs":
        """Sample j masked; on a miss every other cached sample but keep is
        dropped."""
        if j not in self._masked:
            self._masked = {i: s for i, s in self._masked.items() if i == keep}
            self._masked[j] = _mask_coefficients(
                grid, self.velocities[j], self.phis[j], self.vphis[j])
        return self._masked[j]

    def stage(self, grid: Grid, t: float) -> "_StageCoeffs":
        """The masked coefficients at t."""
        j, w = self._bracket(t)
        if w == 0.0:
            return self._masked_sample(grid, j, None)
        a = self._masked_sample(grid, j, j + 1)
        b = self._masked_sample(grid, j + 1, j)
        return _StageCoeffs(grid, (1.0 - w) * a.packed + w * b.packed)

    def velocity(self, t: float) -> np.ndarray:
        return self._interp(self.velocities, t)

    def phi_coeff(self, t: float) -> np.ndarray:
        return self._interp(self.phis, t)

    def vphi_coeff(self, t: float) -> np.ndarray:
        return self._interp(self.vphis, t)


class CallableForcing:
    """Optional right-hand-side forcing, one callable per equation, each
    mapping t to an array (or None for an unforced slot)."""

    def __init__(self, vphi=None, phi=None, velocity=None):
        self._vphi = vphi
        self._phi = phi
        self._velocity = velocity

    def vphi_term(self, t: float):
        return None if self._vphi is None else self._vphi(t)

    def phi_term(self, t: float):
        return None if self._phi is None else self._phi(t)

    def velocity_term(self, t: float):
        return None if self._velocity is None else self._velocity(t)


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

    @classmethod
    def from_state(cls, V: ReformState, vphi_tilde: ScalarField, eta: float,
                   t_window: float, **kwargs) -> "FrozenCoefficients":
        provider = ConstantCoefficients(
            V.u.values, V.phi.values, vphi_tilde.values
        )
        return cls(provider=provider, eta=eta, t_window=t_window, **kwargs)


# -- stage assembly ----------------------------------------------------------


class _StageCoeffs:
    """Masked coefficient fields at one stage time: v, div v, Q1(v),
    phitilde and vphitilde, views into one packed array so that a time
    interpolation is a single operation."""

    __slots__ = ("packed", "v", "div_v", "q1", "phit", "vphit")

    def __init__(self, grid: Grid, packed: np.ndarray):
        d = grid.dim
        self.packed = packed
        self.v = packed[:d]
        self.div_v = packed[d]
        self.q1 = packed[d + 1:d + 1 + d * d].reshape((d, d) + grid.shape)
        self.phit = packed[-2]
        self.vphit = packed[-1]


def _mask_coefficients(grid: Grid, v, phit, vphit) -> _StageCoeffs:
    """Truncate one set of raw coefficients into a stage: one forward
    transform of (v, phitilde, vphitilde), one inverse of their masked
    spectra and the upper triangle of the masked Q1(v)."""
    d = grid.dim
    spectra = grid.fft(np.concatenate((v, [phit, vphit])))
    upper = [(i, j) for i in range(d) for j in range(i, d)]
    q1_hat = [grid.ik_masked[i] * spectra[j] + grid.ik_masked[j] * spectra[i]
              for i, j in upper]
    masked = grid.ifft(np.concatenate((grid.dealias_mask * spectra, q1_hat)))
    stage = _StageCoeffs(grid, np.empty((d * d + d + 3,) + grid.shape))
    stage.v[...] = masked[:d]
    stage.phit[...] = masked[d]
    stage.vphit[...] = masked[d + 1]
    for (i, j), q in zip(upper, masked[d + 2:]):
        stage.q1[i, j] = stage.q1[j, i] = q
    # div v = tr Q1(v) / 2
    stage.div_v[...] = 0.5 * sum(stage.q1[i, i] for i in range(d))
    return stage


def _transport_rhs(grid, params, stage: _StageCoeffs, f: np.ndarray, forcing_val):
    rhs = -grid.dealias(advect(grid, stage.v, f)
                        + 0.5 * (params.delta1 - 1.0) * stage.vphit * stage.div_v)
    if forcing_val is not None:
        rhs = rhs + forcing_val
    return rhs


def _momentum_rhs(grid, params, stage: _StageCoeffs, vphi_arr, eta,
                  phi, u, nu1, nu2, forcing_phi, forcing_u):
    """Explicit slope of the (phi, u) pair: the right-hand side minus the
    shift (nu1 Lap + nu2 grad div) u.

    The coefficient factors (the stage fields, the viscous weights and the
    gradients of vphi^2 and vphi^(2m+2)) are truncated, but div u, grad phi,
    Lap u and grad div u enter their products untruncated. The products of
    each slope, advection included, are summed and the phi slope and the d
    velocity slopes are truncated in one batched pair, which equals
    truncating each product because truncation is linear. So even at
    nu1 = nu2 = 0 this is not momentum_rhs_componentwise, which truncates
    both factors."""
    d = grid.dim
    press = 2.0 * params.A * params.gamma / (params.gamma - 1.0)
    weight = vphi_arr**2 + eta**2
    c_shear = params.alpha * weight
    c_compr = weight * (params.alpha + params.beta * stable_power(vphi_arr, 2.0 * params.m))
    s1 = params.alpha * params.delta1 / (params.delta1 - 1.0)
    s2 = params.beta * params.delta2 / (params.delta2 - 1.0)

    phi_u = np.concatenate((phi[None], u))
    spectra = grid.fft(np.concatenate((
        phi_u, np.stack((vphi_arr**2, stable_power(vphi_arr, 2.0 * params.m + 2.0),
                         c_shear, c_compr)))))
    phi_hat, u_hat = spectra[0], spectra[1:d + 1]
    sq_hat, hi_hat = spectra[d + 1], spectra[d + 2]
    div_u_hat = np.sum(grid.ik * u_hat, axis=0)
    # untruncated: div u, Lap u, grad div u, grad phi; truncated: the
    # gradients of vphi^2 and vphi^(2m+2) and the two viscous weights
    phys = grid.ifft(np.concatenate((
        div_u_hat[None], -grid.k_squared * u_hat, grid.ik * div_u_hat,
        grid.ik * phi_hat, grid.ik_masked * sq_hat, grid.ik_masked * hi_hat,
        grid.dealias_mask * spectra[d + 3:])))
    div_u = phys[0]
    lap, gd, grad_phi, grad_sq_m, grad_hi_m, (c_shear_m, c_compr_m) = np.split(
        phys[1:], [d, 2 * d, 3 * d, 4 * d, 5 * d])

    products = np.concatenate((
        (0.5 * (params.gamma - 1.0) * stage.phit * div_u)[None],
        press * stage.phit * grad_phi - c_shear_m * lap - c_compr_m * gd
        - s1 * np.sum(stage.q1 * grad_sq_m, axis=1) - s2 * stage.div_v * grad_hi_m))
    slopes = -grid.dealias(advect(grid, stage.v, phi_u) + products)
    dphi, du = slopes[0], slopes[1:]
    du -= nu1 * lap + nu2 * gd
    if forcing_phi is not None:
        dphi = dphi + forcing_phi
    if forcing_u is not None:
        du = du + forcing_u
    return dphi, du


def _exp_shift(grid: Grid, nu1: float, nu2: float, tau: float, u: np.ndarray) -> np.ndarray:
    """Apply exp(tau (nu1 Lap + nu2 grad div)) exactly in Fourier space.

    The projection onto k uses the part of k_i k_j that is even under
    k -> -k, which is what a real field keeps: the cross term vanishes
    where exactly one of axes i, j sits at the Nyquist mode and is
    (pi n / L)^2 where both do. That is k_i k_j = kn_i kn_j + ny_i ny_j,
    with kn the wavenumbers with the Nyquist modes zeroed and ny the
    Nyquist wavenumber |k| on the Nyquist modes only."""
    if tau == 0.0 or (nu1 == 0.0 and nu2 == 0.0):
        return u
    k2 = grid.k_squared
    decay_perp = np.exp(-nu1 * k2 * tau)
    decay_par = np.exp(-(nu1 + nu2) * k2 * tau)
    inv_k2 = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    kn = grid.ik.imag
    ny = np.abs(np.stack(np.broadcast_arrays(*grid.wavenumbers))) - np.abs(kn)
    u_hat = grid.fft(u)
    par = (kn * np.sum(kn * u_hat, axis=0) + ny * np.sum(ny * u_hat, axis=0)) * inv_k2
    return grid.ifft(decay_perp * (u_hat - par) + decay_par * par)


def _clip(values: np.ndarray, cell_volume: float):
    """Zero every negative entry; report the count below the tolerance and
    the removed mass."""
    negative = values < 0.0
    count = int(np.count_nonzero(values < CLIP_TOLERANCE))
    mass = -float(values[negative].sum()) * cell_volume if negative.any() else 0.0
    if negative.any():
        values = np.where(negative, 0.0, values)
    return values, count, mass


# -- public steps ------------------------------------------------------------


@dataclass(frozen=True)
class TransportDiag:
    clip_count: int
    clipped_mass: float


def transport_step(params: FluidParams, vphi: ScalarField,
                   coeffs: FrozenCoefficients, dt: float, t: float = 0.0):
    """One SSP-RK3 step of vphi_t + v.grad vphi + ((delta1-1)/2) vphitilde
    div v = 0 with frozen coefficients, clipping negatives afterwards when
    coeffs.clip is set. Returns (new field, diagnostics)."""
    grid = vphi.grid
    forcing = coeffs.forcing
    f = vphi.values

    def rhs(ts: float, arr: np.ndarray) -> np.ndarray:
        stage = coeffs.provider.stage(grid, ts)
        fv = forcing.vphi_term(ts) if forcing is not None else None
        return _transport_rhs(grid, params, stage, arr, fv)

    u1 = f + dt * rhs(t, f)
    u2 = 0.75 * f + 0.25 * (u1 + dt * rhs(t + dt, u1))
    out = f / 3.0 + (2.0 / 3.0) * (u2 + dt * rhs(t + 0.5 * dt, u2))
    if not np.all(np.isfinite(out)):
        raise SolverAbort("solution lost finiteness", t + dt)

    count, mass = 0, 0.0
    if coeffs.clip:
        out, count, mass = _clip(out, grid.cell_volume)
    return ScalarField(grid, out), TransportDiag(clip_count=count, clipped_mass=mass)


@dataclass(frozen=True)
class MomentumDiag:
    nu1: float
    nu2: float
    coeff_min: float
    clip_count: int
    clipped_mass: float


def _stage_fields(vphi_new, dt_needed=3):
    """Normalize the new-iterate viscosity proxy into per-stage arrays at
    node offsets (0, 1/2, 1). A single field is reused at all stages (the
    frozen mode); a 3-tuple supplies the lockstep-transported fields."""
    if isinstance(vphi_new, ScalarField):
        arr = vphi_new.values
        return (arr, arr, arr)
    stages = tuple(
        s.values if isinstance(s, ScalarField) else np.asarray(s, dtype=float)
        for s in vphi_new
    )
    if len(stages) != dt_needed:
        raise ValueError(f"expected {dt_needed} stage fields, got {len(stages)}")
    return stages


def momentum_step(params: FluidParams, phi: ScalarField, u: VectorField,
                  coeffs: FrozenCoefficients, vphi_new, dt: float, t: float = 0.0):
    """One integrating-factor RK3 step of the coupled (phi, u) pair.

    vphi_new is the new-iterate viscosity proxy: either one field (frozen
    across the step) or three stage fields at offsets (0, 1/2, 1)*dt. Aborts
    when the compressive coefficient alpha + beta vphi^(2m) drops below
    alpha/2 anywhere on the grid."""
    grid = phi.grid
    eta = coeffs.eta
    stages_vphi = _stage_fields(vphi_new)

    coeff_min = math.inf
    nu1 = 0.0
    nu2 = 0.0
    for arr in stages_vphi:
        weight = arr**2 + eta**2
        compr = params.alpha + params.beta * stable_power(arr, 2.0 * params.m)
        coeff_min = min(coeff_min, float(compr.min()))
        nu1 = max(nu1, params.alpha * float(weight.max()))
        nu2 = max(nu2, float((weight * compr).max()))
    nu2 = max(nu2, 0.0)
    if coeff_min < 0.5 * params.alpha:
        raise SolverAbort(
            "ellipticity regime exit",
            t,
            f"grid-min alpha + beta vphi^(2m) = {coeff_min:.6g} < alpha/2",
        )

    forcing = coeffs.forcing
    provider = coeffs.provider

    def slope(ts: float, phi_arr, u_arr, vphi_arr):
        stage = provider.stage(grid, ts)
        fp = forcing.phi_term(ts) if forcing is not None else None
        fu = forcing.velocity_term(ts) if forcing is not None else None
        return _momentum_rhs(grid, params, stage, vphi_arr, eta,
                             phi_arr, u_arr, nu1, nu2, fp, fu)

    G = lambda tau, vec: _exp_shift(grid, nu1, nu2, tau, vec)
    p0, u0 = phi.values, u.values

    # G is linear, so G(dt) u0 + c G(dt) k1u is applied as G(dt)(u0 + c k1u)
    # and G(dt/2) k2u is applied once for both of its uses.
    k1p, k1u = slope(t, p0, u0, stages_vphi[0])
    p2 = p0 + 0.5 * dt * k1p
    u2 = G(0.5 * dt, u0 + 0.5 * dt * k1u)
    k2p, k2u = slope(t + 0.5 * dt, p2, u2, stages_vphi[1])
    g_k2u = G(0.5 * dt, k2u)
    p3 = p0 + dt * (-k1p + 2.0 * k2p)
    u3 = G(dt, u0 - dt * k1u) + 2.0 * dt * g_k2u
    k3p, k3u = slope(t + dt, p3, u3, stages_vphi[2])

    phi_new = p0 + dt * (k1p + 4.0 * k2p + k3p) / 6.0
    u_new = G(dt, u0 + (dt / 6.0) * k1u) + dt * (4.0 * g_k2u + k3u) / 6.0

    if not (np.all(np.isfinite(phi_new)) and np.all(np.isfinite(u_new))):
        raise SolverAbort("solution lost finiteness", t + dt)

    count, mass = 0, 0.0
    if coeffs.clip:
        phi_new, count, mass = _clip(phi_new, grid.cell_volume)
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

    def as_coefficients(self) -> TrajectoryCoefficients:
        """The stacks as a coefficient provider, shared, not copied."""
        return TrajectoryCoefficients(self.times, self.vphi, self.phi, self.u)

    @property
    def final(self) -> ReformState:
        return self.state(-1)


def march(t_window: float, sample_dt: float | None, next_dt, advance) -> None:
    """Step time across [0, t_window], landing exactly on the sample times.

    The sample times are the multiples of sample_dt below t_window followed
    by t_window itself; sample_dt = None makes every step a sample. Each
    step asks next_dt(t) for a size, cuts it to land on the next sample when
    it would reach or pass it, snaps the new time onto that sample, and
    calls advance(t, dt, t_new, at_sample). A step at or below
    1e-13 max(t_window, 1) aborts with a step-size underflow."""
    tol = 1e-12 * max(1.0, t_window)
    samples = None
    if sample_dt is not None:
        samples = []
        k = 1
        while k * sample_dt < t_window - tol:
            samples.append(k * sample_dt)
            k += 1
        samples.append(t_window)

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
                  next_dt, step, *, eta: float, clip: bool) -> Trajectory:
    """March init across [0, t_window] and record the window. step(t, dt,
    vphi, phi, u) returns the fields after one step followed by its clip
    count and clipped mass; the fields at every sample time are stacked into
    the trajectory when the window is done."""
    fields = (init.vphi, init.phi, init.u)
    samples = tuple([f.values] for f in fields)
    times = [0.0]
    dt_history, clip_counts, clipped_mass = [], [], []

    def advance(t: float, dt: float, t_new: float, at_sample: bool) -> None:
        nonlocal fields
        *fields, count, mass = step(t, dt, *fields)
        dt_history.append(dt)
        clip_counts.append(count)
        clipped_mass.append(mass)
        if at_sample:
            for stack, f in zip(samples, fields):
                stack.append(f.values)
            times.append(t_new)

    march(t_window, sample_dt, next_dt, advance)
    return Trajectory(init.grid, times, *(np.stack(s) for s in samples),
                      dt_history=dt_history, clip_counts=clip_counts,
                      clipped_mass=clipped_mass, eta=eta,
                      floor=CLIP_TOLERANCE if clip else None)


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
                     params: FluidParams) -> Trajectory:
    """March the linearized system across [0, t_window], landing exactly on
    the sample cadence, and return the sampled trajectory. The viscosity
    proxy advances in lockstep by two transport half steps per outer step,
    feeding stage fields to the momentum update."""
    grid = init.grid

    def next_dt(t: float) -> float:
        if coeffs.dt is not None:
            return coeffs.dt
        v_now = np.asarray(coeffs.provider.velocity(t), dtype=float)
        phit_now = np.asarray(coeffs.provider.phi_coeff(t), dtype=float)
        return adaptive_dt(params, grid, v_now, phit_now, coeffs.cfl_safety)

    def step(t: float, dt: float, vphi, phi, u):
        vphi_half, d1 = transport_step(params, vphi, coeffs, 0.5 * dt, t)
        vphi_full, d2 = transport_step(params, vphi_half, coeffs, 0.5 * dt, t + 0.5 * dt)
        phi, u, mdiag = momentum_step(
            params, phi, u, coeffs, (vphi, vphi_half, vphi_full), dt, t
        )
        return (vphi_full, phi, u,
                d1.clip_count + d2.clip_count + mdiag.clip_count,
                d1.clipped_mass + d2.clipped_mass + mdiag.clipped_mass)

    return record_window(init, coeffs.t_window, coeffs.sample_dt, next_dt, step,
                         eta=coeffs.eta, clip=coeffs.clip)

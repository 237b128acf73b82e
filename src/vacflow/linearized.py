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
finiteness check and the clip act.

The steps read their coefficients as masked stages from the provider: v,
div v, Q1(v), phitilde and vphitilde after the 2/3 rule. A stored
trajectory masks each sample once and interpolates the masked samples in
time, which equals masking the interpolated fields because truncation and
interpolation are both linear.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .fields import Grid, ScalarField, VectorField, checked_values
# advect is not called here; perfbench rebinds it as vacflow.linearized.advect
from .operators import STATE_FLOOR, ReformState, advect, stable_power  # noqa: F401
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
    sample behind the one it starts from. Stages interpolated between them
    are kept by time until the bracket moves, which masks a new sample, and
    only the BETWEEN_KEPT most recently queried: the stage times of one
    outer step, t, t + dt/4, t + dt/2, t + 3dt/4 and t + dt, when a sample
    interval holds many steps."""

    BETWEEN_KEPT = 5

    def __init__(self, times, vphis, phis, velocities):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 1:
            raise ValueError("need at least one sample")
        self.vphis = np.asarray(vphis, dtype=float)
        self.phis = np.asarray(phis, dtype=float)
        self.velocities = np.asarray(velocities, dtype=float)
        self._masked: dict = {}
        self._between: dict = {}

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
        dropped, and so is every interpolated stage."""
        if j not in self._masked:
            self._masked = {i: s for i, s in self._masked.items() if i == keep}
            self._between = {}
            self._masked[j] = _mask_coefficients(
                grid, self.velocities[j], self.phis[j], self.vphis[j])
        return self._masked[j]

    def stage(self, grid: Grid, t: float) -> "_StageCoeffs":
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


def _slope_spectrum(grid: Grid, products: np.ndarray, forcing) -> np.ndarray:
    """Minus the truncated spectrum of the summed products plus the
    untruncated one of the forcing, both from one forward transform."""
    if forcing is None:
        return -(grid.dealias_mask * grid.fft(products))
    spectra = grid.fft(np.stack((products, forcing)))
    return spectra[1] - grid.dealias_mask * spectra[0]


def _transport_rhs(grid, params, stage: _StageCoeffs, f_hat: np.ndarray, forcing_val):
    """Slope spectrum of -(v.grad f + ((delta1-1)/2) vphitilde div v) plus
    the forcing, from the truncated gradient of f."""
    grad = grid.ifft(grid.ik_masked * f_hat)
    products = (np.sum(stage.v * grad, axis=0)
                + 0.5 * (params.delta1 - 1.0) * stage.vphit * stage.div_v)
    return _slope_spectrum(grid, products, forcing_val)


def _viscous_fields(params, vphi: np.ndarray, eta: float):
    """The momentum coefficients (vphi^2, vphi^(2m+2), c_shear, c_compr)
    stacked along a new leading axis, and alpha + beta vphi^(2m), from one
    power evaluation."""
    sq = vphi**2
    weight = sq + eta**2
    power = stable_power(vphi, 2.0 * params.m)
    compr = params.alpha + params.beta * power
    return np.stack((sq, power * sq, params.alpha * weight, weight * compr)), compr


def _momentum_rhs(grid, params, stage: _StageCoeffs, coeff_hat: np.ndarray,
                  y_hat: np.ndarray, nu1, nu2, forcing):
    """Slope spectra of the stacked (phi, u) spectra y_hat: the right-hand
    side minus the shift (nu1 Lap + nu2 grad div) u, coeff_hat the spectra
    of one stage's _viscous_fields. One inverse makes every factor, one
    forward truncates the summed products of all d + 1 slopes. div u, Lap u,
    grad div u and grad phi stay untruncated, so even at nu1 = nu2 = 0 this
    is not momentum_rhs_componentwise, which truncates both factors."""
    d = grid.dim
    press = 2.0 * params.A * params.gamma / (params.gamma - 1.0)
    s1 = params.alpha * params.delta1 / (params.delta1 - 1.0)
    s2 = params.beta * params.delta2 / (params.delta2 - 1.0)

    u_hat = y_hat[1:]
    div_u_hat = np.sum(grid.ik * u_hat, axis=0)
    lap_hat = -grid.k_squared * u_hat
    gd_hat = grid.ik * div_u_hat
    grads_hat = grid.ik_masked[None] * y_hat[:, None]
    phys = grid.ifft(np.concatenate((
        div_u_hat[None], lap_hat, gd_hat, grid.ik * y_hat[0],
        grid.ik_masked * coeff_hat[0], grid.ik_masked * coeff_hat[1],
        grid.dealias_mask * coeff_hat[2:],
        grads_hat.reshape((-1,) + grid.spectral_shape))))
    div_u = phys[0]
    lap, gd, grad_phi, grad_sq_m, grad_hi_m, (c_shear_m, c_compr_m), grads = np.split(
        phys[1:], [d, 2 * d, 3 * d, 4 * d, 5 * d, 5 * d + 2])

    products = np.concatenate((
        (0.5 * (params.gamma - 1.0) * stage.phit * div_u)[None],
        press * stage.phit * grad_phi - c_shear_m * lap - c_compr_m * gd
        - s1 * np.sum(stage.q1 * grad_sq_m, axis=1) - s2 * stage.div_v * grad_hi_m))
    advection = np.sum(stage.v * grads.reshape((d + 1, d) + grid.shape), axis=1)
    slopes = _slope_spectrum(grid, advection + products, forcing)
    slopes[1:] -= nu1 * lap_hat + nu2 * gd_hat
    return slopes


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

    def rhs(ts: float, f_hat: np.ndarray) -> np.ndarray:
        stage = coeffs.provider.stage(grid, ts)
        fv = forcing.vphi_term(ts) if forcing is not None else None
        return _transport_rhs(grid, params, stage, f_hat, fv)

    # The Shu-Osher stages f + dt r1 and f + dt (r1 + r2) / 4 on spectra;
    # the update f/3 + 2/3 (u2 + dt r3) as an increment of f.
    f_hat = grid.fft(f)
    r1 = rhs(t, f_hat)
    r2 = rhs(t + dt, f_hat + dt * r1)
    r3 = rhs(t + 0.5 * dt, f_hat + 0.25 * dt * (r1 + r2))
    out, count, mass = _finish(f + grid.ifft(dt * (r1 + r2 + 4.0 * r3) / 6.0),
                               coeffs.clip, grid.cell_volume, t + dt)
    return ScalarField(grid, out), TransportDiag(clip_count=count, clipped_mass=mass)


@dataclass(frozen=True)
class MomentumDiag:
    nu1: float
    nu2: float
    coeff_min: float
    clip_count: int
    clipped_mass: float


def _stage_fields(vphi_new):
    """Normalize the new-iterate viscosity proxy into per-stage arrays at
    node offsets (0, 1/2, 1). A single field is reused at all stages (the
    frozen mode); a 3-tuple supplies the lockstep-transported fields."""
    if isinstance(vphi_new, ScalarField):
        return (vphi_new.values,) * 3
    stages = tuple(np.asarray(getattr(s, "values", s), dtype=float) for s in vphi_new)
    if len(stages) != 3:
        raise ValueError(f"expected 3 stage fields, got {len(stages)}")
    return stages


def momentum_step(params: FluidParams, phi: ScalarField, u: VectorField,
                  coeffs: FrozenCoefficients, vphi_new, dt: float, t: float = 0.0):
    """One integrating-factor RK3 step of the coupled (phi, u) pair.

    vphi_new is the new-iterate viscosity proxy: either one field (frozen
    across the step) or three stage fields at offsets (0, 1/2, 1)*dt. Aborts
    when the compressive coefficient alpha + beta vphi^(2m) drops below
    alpha/2 anywhere on the grid."""
    grid = phi.grid
    d = grid.dim
    # the coefficients of the three stage fields, (4, 3) + shape
    fields, compr = _viscous_fields(params, np.stack(_stage_fields(vphi_new)), coeffs.eta)
    coeff_min = float(compr.min())
    nu1, nu2 = float(fields[2].max()), max(float(fields[3].max()), 0.0)
    if coeff_min < 0.5 * params.alpha:
        raise SolverAbort("ellipticity regime exit", t, "grid-min alpha + beta "
                          f"vphi^(2m) = {coeff_min:.6g} < alpha/2")

    spectra = grid.fft(np.concatenate(([phi.values], u.values,
                                       fields.reshape((12,) + grid.shape))))
    y0, coeff_hat = spectra[:d + 1], spectra[d + 1:].reshape((4, 3) + grid.spectral_shape)

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

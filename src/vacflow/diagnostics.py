"""Post-processing for solved trajectories: the norm ledger with its
thresholds and guaranteed horizons, validity bookkeeping, vacuum behavior,
conservation totals, reconstruction back to primitive variables, particle
tracing along characteristics, and residuals of the full nonlinear system.

Everything here treats trajectories as immutable inputs and recomputes what
it needs from the stored samples, so the checks stay independent of the
solver's internal arithmetic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    VectorField,
    quadrature_l2,
    sobolev_norm,
    support_margin,
    weighted_seminorm,
)
from .linearized import Trajectory
from .operators import (ReformState, advect, momentum_rhs_componentwise,
                        stable_power)
from .params import FluidParams

VAC_EPS = 1e-10
SEAM_FRACTION = 0.125
SUPPORT_DUST_REL = 1e-5


def density_of(vphi: np.ndarray, params: FluidParams) -> np.ndarray:
    """Density recovered from viscosity-proxy values (the reference route),
    one sample or a whole stack."""
    return stable_power(vphi, 2.0 / (params.delta1 - 1.0))


def _nonuniform_derivative(stack: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Second-order time derivative of sampled fields: three-point central
    stencils inside, three-point one-sided at both ends. Handles a
    non-uniform cadence (the last interval may be shorter)."""
    nt = stack.shape[0]
    if nt < 3:
        raise ValueError("need at least three samples to differentiate")
    out = np.empty_like(stack)
    for i in range(1, nt - 1):
        hl = times[i] - times[i - 1]
        hr = times[i + 1] - times[i]
        out[i] = (
            -hr / (hl * (hl + hr)) * stack[i - 1]
            + (hr - hl) / (hl * hr) * stack[i]
            + hl / (hr * (hl + hr)) * stack[i + 1]
        )
    h0 = times[1] - times[0]
    h1 = times[2] - times[1]
    out[0] = (
        -(2.0 * h0 + h1) / (h0 * (h0 + h1)) * stack[0]
        + (h0 + h1) / (h0 * h1) * stack[1]
        - h0 / (h1 * (h0 + h1)) * stack[2]
    )
    hm = times[-1] - times[-2]
    hmm = times[-2] - times[-3]
    out[-1] = (
        hm / (hmm * (hm + hmm)) * stack[-3]
        - (hm + hmm) / (hmm * hm) * stack[-2]
        + (2.0 * hm + hmm) / (hm * (hm + hmm)) * stack[-1]
    )
    return out


# -- a priori ledger ----------------------------------------------------------


@dataclass(frozen=True)
class AprioriLedger:
    """Per-sample Sobolev levels of all three fields, running weighted
    integrals, time-derivative norms, and the derived constants with their
    horizon predictions."""

    times: tuple
    vphi_norms: np.ndarray
    phi_norms: np.ndarray
    u_norms: np.ndarray
    weighted_integrals: np.ndarray
    dvphi_h2: np.ndarray
    dphi_h2: np.ndarray
    du_h1: np.ndarray
    c0: float
    calib_C: float
    c_levels: tuple
    m_exponent: float
    horizons: tuple
    level_ok: np.ndarray
    first_crossing: float | None

    def __post_init__(self):
        if not self.c0 >= 1.0:
            raise ValueError(f"c0 must be at least 1, got {self.c0}")
        c1, c2, c3 = self.c_levels
        if not (c1 <= c2 <= c3):
            raise ValueError("c levels must be nondecreasing")
        t_end = self.times[-1]
        want = min(t_end, (1.0 + c3) ** (-4.0 * self.m_exponent - 4.0))
        if self.horizons[3] != want:
            raise ValueError("stored horizon disagrees with its formula")

    @property
    def t_star_star(self) -> float:
        return self.horizons[3]


def horizon_times(t_end: float, c3: float, m: float) -> tuple:
    """The nested horizon ladder (T1, T2, T3, T**): each level shrinks the
    previous one by the next power of 1 + c3."""
    base = 1.0 + c3
    t1 = min(t_end, base**-2.0)
    t2 = min(t1, base ** (-4.0 * m - 2.0))
    t3 = min(t2, base ** (-4.0 * m - 4.0))
    tss = min(t_end, base ** (-4.0 * m - 4.0))
    return (t1, t2, t3, tss)


def ledger(traj: Trajectory, params: FluidParams,
           calib_C: float = 1.0) -> AprioriLedger:
    """Evaluate the norm ledger over a sampled trajectory.

    Row s of the threshold check (s = 1, 2, 3) asks that the running sup of
    the squared level-s norms of all three fields, plus the trapezoid
    integral of the weighted seminorm of order s+1, stays at or below the
    squared level constant c_s. The level constants all sit at
    sqrt(calib_C) times the initial constant c0; calib_C is honest tuning,
    reported rather than hidden.
    """
    if not calib_C >= 1.0:
        raise ValueError(f"calib_C must be at least 1, got {calib_C}")
    times = np.asarray(traj.times, dtype=float)
    grid = traj.grid
    nt = len(times)

    vphi_n = np.empty((nt, 3))
    phi_n = np.empty((nt, 3))
    u_n = np.empty((nt, 3))
    w_sq = np.empty((nt, 3))
    for i in range(nt):
        state = traj.state(i)
        for j, s in enumerate((1, 2, 3)):
            vphi_n[i, j] = sobolev_norm(state.vphi, s)
            phi_n[i, j] = sobolev_norm(state.phi, s)
            u_n[i, j] = sobolev_norm(state.u, s)
            w_sq[i, j] = weighted_seminorm(state.vphi, state.u, s + 1) ** 2

    integrals = np.zeros((nt, 3))
    for i in range(1, nt):
        dt = times[i] - times[i - 1]
        integrals[i] = integrals[i - 1] + 0.5 * dt * (w_sq[i] + w_sq[i - 1])

    if nt >= 3:
        dv = _nonuniform_derivative(traj.vphi, times)
        dp = _nonuniform_derivative(traj.phi, times)
        du = _nonuniform_derivative(traj.u, times)
        dvphi_h2 = np.array([sobolev_norm(ScalarField(grid, dv[i]), 2) for i in range(nt)])
        dphi_h2 = np.array([sobolev_norm(ScalarField(grid, dp[i]), 2) for i in range(nt)])
        du_h1 = np.array([sobolev_norm(VectorField(grid, du[i]), 1) for i in range(nt)])
    else:
        dvphi_h2 = np.full(nt, math.nan)
        dphi_h2 = np.full(nt, math.nan)
        du_h1 = np.full(nt, math.nan)

    s0 = traj.state(0)
    c0 = 1.0 + sobolev_norm(s0.vphi, 3) + sobolev_norm(s0.phi, 3) + sobolev_norm(s0.u, 3)
    c_val = math.sqrt(calib_C) * c0
    c_levels = (c_val, c_val, c_val)
    horizons = horizon_times(float(times[-1]), c_levels[2], params.m)

    sums = vphi_n**2 + phi_n**2 + u_n**2
    running = np.maximum.accumulate(sums, axis=0)
    thresholds = np.array([c**2 for c in c_levels])
    level_ok = running + integrals <= thresholds[None, :]
    ok_all = level_ok.all(axis=1)
    first_crossing = None
    if not ok_all.all():
        first_crossing = float(times[int(np.argmin(ok_all))])

    return AprioriLedger(
        times=tuple(float(t) for t in times),
        vphi_norms=vphi_n, phi_norms=phi_n, u_norms=u_n,
        weighted_integrals=integrals,
        dvphi_h2=dvphi_h2, dphi_h2=dphi_h2, du_h1=du_h1,
        c0=c0, calib_C=calib_C, c_levels=c_levels, m_exponent=params.m,
        horizons=horizons, level_ok=level_ok, first_crossing=first_crossing,
    )


def write_ledger_csv(led: AprioriLedger, path) -> None:
    header = ["time"]
    header += [f"vphi_h{s}" for s in (1, 2, 3)]
    header += [f"phi_h{s}" for s in (1, 2, 3)]
    header += [f"u_h{s}" for s in (1, 2, 3)]
    header += [f"int_weighted_d{s + 1}" for s in (1, 2, 3)]
    header += ["dvphi_h2", "dphi_h2", "du_h1", "ok1", "ok2", "ok3"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, t in enumerate(led.times):
            row = [f"{t:.17e}"]
            row += [f"{v:.17e}" for v in led.vphi_norms[i]]
            row += [f"{v:.17e}" for v in led.phi_norms[i]]
            row += [f"{v:.17e}" for v in led.u_norms[i]]
            row += [f"{v:.17e}" for v in led.weighted_integrals[i]]
            row += [f"{led.dvphi_h2[i]:.17e}", f"{led.dphi_h2[i]:.17e}",
                    f"{led.du_h1[i]:.17e}"]
            row += [int(b) for b in led.level_ok[i]]
            writer.writerow(row)


# -- validity verdict ---------------------------------------------------------


@dataclass(frozen=True)
class ValidityVerdict:
    """How far along the trajectory every certificate held: the viscosity
    coefficient floor, the ledger thresholds, and (for compactly supported
    data) the distance of the support from the box seam."""

    t_valid: float
    reasons: tuple
    times: tuple
    coeff_min: tuple
    margins: tuple | None
    ledger_ok: tuple

    def __post_init__(self):
        if self.t_valid > self.times[-1]:
            raise ValueError("t_valid cannot exceed the trajectory end")


def validity(traj: Trajectory, led: AprioriLedger, params: FluidParams,
             vac_eps: float = VAC_EPS) -> ValidityVerdict:
    grid = traj.grid
    rho0 = density_of(traj.vphi[0], params)
    margin0 = support_margin(ScalarField(grid, rho0), vac_eps)
    watch_support = math.isfinite(margin0) and margin0 > 0.0
    seam_floor = SEAM_FRACTION * grid.box_length
    # Fourier transport scatters harmless positive dust (size the spectral
    # tail of the data, well below any physical density) across the whole
    # box within one step, so the evolving support is read at a threshold
    # relative to the instantaneous peak rather than at vac_eps.
    dust_rel = SUPPORT_DUST_REL

    times = list(led.times)
    coeffs = []
    margins = [] if watch_support else None
    ok_rows = []
    t_valid = 0.0
    reasons = []
    ended = False
    for i, vphi in enumerate(traj.vphi):
        visc = params.alpha + params.beta * stable_power(vphi, 2.0 * params.m)
        cmin = float(visc.min())
        coeffs.append(cmin)
        row_ok = bool(led.level_ok[i].all())
        ok_rows.append(row_ok)
        conditions = [("coefficient", cmin >= 0.5 * params.alpha),
                      ("ledger", row_ok)]
        if watch_support:
            rho = density_of(vphi, params)
            dust = max(vac_eps, dust_rel * float(rho.max()))
            m = support_margin(ScalarField(grid, rho), dust)
            margins.append(m)
            conditions.append(("support", m >= seam_floor))
        bad = [name for name, ok in conditions if not ok]
        if bad and not ended:
            reasons = bad
            ended = True
        if not ended:
            t_valid = float(times[i])
    if not ended:
        reasons = ["none"]
    return ValidityVerdict(
        t_valid=t_valid, reasons=tuple(reasons), times=tuple(times),
        coeff_min=tuple(coeffs),
        margins=None if margins is None else tuple(margins),
        ledger_ok=tuple(ok_rows),
    )


# -- vacuum clause ------------------------------------------------------------


@dataclass(frozen=True)
class VacuumReport:
    residual: float
    no_vacuum: bool
    cell_count: int
    vac_eps: float


def vacuum_residual(traj: Trajectory, params: FluidParams,
                    vac_eps: float = VAC_EPS) -> VacuumReport:
    """Pointwise size of u_t + (u . grad)u over cells the density has
    abandoned. Zero with a flag when no cell is below the cutoff; the time
    derivative comes from differencing the stored samples."""
    times = np.asarray(traj.times, dtype=float)
    grid = traj.grid
    if len(times) < 3:
        raise ValueError("need at least three samples for the vacuum check")
    dudt = _nonuniform_derivative(traj.u, times)
    worst = 0.0
    cells = 0
    for i, vphi in enumerate(traj.vphi):
        rho = density_of(vphi, params)
        mask = rho < vac_eps
        count = int(mask.sum())
        cells += count
        if count == 0:
            continue
        u = traj.u[i]
        resid = dudt[i] + np.sum(u * grid.grad(u), axis=1)
        mag = np.sqrt(np.sum(resid**2, axis=0))
        worst = max(worst, float(mag[mask].max()))
    return VacuumReport(residual=worst, no_vacuum=cells == 0,
                        cell_count=cells, vac_eps=vac_eps)


# -- conservation -------------------------------------------------------------


@dataclass(frozen=True)
class ConservationReport:
    times: tuple
    mass: tuple
    momentum: tuple
    mass_drift: float
    momentum_drift: float


def conservation(traj: Trajectory, params: FluidParams) -> ConservationReport:
    """Quadrature totals of density and momentum per sample, with the worst
    relative drift against the initial totals."""
    grid = traj.grid
    vol = grid.cell_volume
    masses = []
    momenta = []
    for vphi, u in zip(traj.vphi, traj.u):
        rho = density_of(vphi, params)
        masses.append(float(rho.sum()) * vol)
        momenta.append(tuple(float((rho * u[j]).sum()) * vol
                             for j in range(grid.dim)))
    m0 = masses[0]
    mass_scale = max(abs(m0), 1e-300)
    mass_drift = max(abs(m - m0) for m in masses) / mass_scale
    p0 = np.asarray(momenta[0])
    mom_scale = max(float(np.max(np.abs(p0))), mass_scale)
    momentum_drift = max(
        float(np.max(np.abs(np.asarray(p) - p0))) for p in momenta
    ) / mom_scale
    return ConservationReport(
        times=tuple(traj.times), mass=tuple(masses), momentum=tuple(momenta),
        mass_drift=mass_drift, momentum_drift=momentum_drift,
    )


# -- primitive reconstruction -------------------------------------------------


@dataclass(frozen=True)
class PrimitiveState:
    rho: ScalarField
    u: VectorField
    time: float


def reconstruct_primitive(state: ReformState,
                          params: FluidParams) -> tuple[PrimitiveState, float]:
    """Back out (rho, u) from the proxies. The viscosity proxy is the
    reference route; the pressure proxy provides the cross-check, and the
    returned gap is the pointwise disagreement between the two routes."""
    grid = state.grid
    rho_ref = stable_power(state.vphi.values, 2.0 / (params.delta1 - 1.0))
    rho_alt = stable_power(state.phi.values, 2.0 / (params.gamma - 1.0))
    gap = float(np.abs(rho_ref - rho_alt).max())
    prim = PrimitiveState(rho=ScalarField(grid, rho_ref), u=state.u,
                          time=state.time)
    return prim, gap


# -- characteristics ----------------------------------------------------------


def _periodic_interp(grid: Grid, values: np.ndarray,
                     positions: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of one gridded field at arbitrary points,
    wrapping around the box. positions has shape (dim, npts)."""
    h = grid.spacing
    n = grid.n
    frac = positions / h
    base = np.floor(frac).astype(int)
    w = frac - base
    out = np.zeros(positions.shape[1])
    for corner in range(2**grid.dim):
        weight = np.ones(positions.shape[1])
        idx = []
        for axis in range(grid.dim):
            bit = (corner >> axis) & 1
            idx.append((base[axis] + bit) % n)
            weight = weight * (w[axis] if bit else 1.0 - w[axis])
        out += weight * values[tuple(idx)]
    return out


@dataclass(frozen=True)
class ParticleRow:
    start: tuple
    dropped: bool
    rel_error: float


@dataclass(frozen=True)
class CharacteristicsReport:
    max_rel_error: float
    traced: int
    dropped: int
    particles: tuple
    seam_buffer: float


def characteristics_check(traj: Trajectory, params: FluidParams,
                          n_particles: int = 64, seed: int = 20250819,
                          vac_eps: float = VAC_EPS,
                          seam_buffer: float | None = None) -> CharacteristicsReport:
    """Trace particles through the stored velocity and compare the density
    they see against the initial density damped by the exponential of the
    integrated divergence along the path.

    One Runge-Kutta step of the augmented (position, integral) system spans
    each sample interval, with the velocity linear in time between samples
    and multilinear in space. Particles that wander closer to the box seam
    than seam_buffer are dropped and counted; by default the buffer is an
    eighth of the box for compactly supported data and zero otherwise.
    """
    grid = traj.grid
    times = np.asarray(traj.times, dtype=float)
    if len(times) < 2:
        raise ValueError("need at least two samples to trace")
    rho0 = density_of(traj.vphi[0], params)
    rho_end = density_of(traj.vphi[-1], params)

    if seam_buffer is None:
        margin0 = support_margin(ScalarField(grid, rho0), vac_eps)
        seam_buffer = (SEAM_FRACTION * grid.box_length
                       if math.isfinite(margin0) and margin0 > 0.0 else 0.0)

    cells = np.argwhere(rho0 > vac_eps)
    if cells.shape[0] == 0:
        return CharacteristicsReport(max_rel_error=0.0, traced=0, dropped=0,
                                     particles=(), seam_buffer=seam_buffer)
    rng = np.random.default_rng(seed)
    take = min(n_particles, cells.shape[0])
    chosen = cells[rng.choice(cells.shape[0], size=take, replace=False)]
    pos = chosen.T.astype(float) * grid.spacing

    div_st = np.stack([grid.div(u) for u in traj.u])

    def at(stack: np.ndarray, t: float, x: np.ndarray) -> np.ndarray:
        """A sampled field, linear in time and multilinear in space."""
        j = int(np.searchsorted(times, t, side="right")) - 1
        j = min(max(j, 0), len(times) - 2)
        w = (t - times[j]) / (times[j + 1] - times[j])
        a = _periodic_interp(grid, stack[j], x % grid.box_length)
        b = _periodic_interp(grid, stack[j + 1], x % grid.box_length)
        return (1.0 - w) * a + w * b

    def vel_at(t: float, x: np.ndarray) -> np.ndarray:
        return np.stack([at(traj.u[:, comp], t, x) for comp in range(grid.dim)])

    def div_at(t: float, x: np.ndarray) -> np.ndarray:
        return at(div_st, t, x)

    integ = np.zeros(take)
    alive = np.ones(take, dtype=bool)

    def seam_ok(x: np.ndarray) -> np.ndarray:
        if seam_buffer <= 0.0:
            return np.ones(x.shape[1], dtype=bool)
        xm = x % grid.box_length
        dist = np.minimum(xm, grid.box_length - xm).min(axis=0)
        return dist >= seam_buffer

    for j in range(len(times) - 1):
        dt = times[j + 1] - times[j]
        t0 = times[j]
        k1x = vel_at(t0, pos)
        k1i = div_at(t0, pos)
        k2x = vel_at(t0 + 0.5 * dt, pos + 0.5 * dt * k1x)
        k2i = div_at(t0 + 0.5 * dt, pos + 0.5 * dt * k1x)
        k3x = vel_at(t0 + 0.5 * dt, pos + 0.5 * dt * k2x)
        k3i = div_at(t0 + 0.5 * dt, pos + 0.5 * dt * k2x)
        k4x = vel_at(t0 + dt, pos + dt * k3x)
        k4i = div_at(t0 + dt, pos + dt * k3x)
        pos = pos + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        integ = integ + dt / 6.0 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        alive &= seam_ok(pos)

    start_rho = _periodic_interp(grid, rho0, chosen.T.astype(float) * grid.spacing)
    predicted = start_rho * np.exp(-integ)
    seen = _periodic_interp(grid, rho_end, pos % grid.box_length)
    rel = np.abs(seen - predicted) / np.maximum(np.abs(predicted), vac_eps)

    rows = []
    worst = 0.0
    dropped = 0
    for i in range(take):
        if alive[i]:
            worst = max(worst, float(rel[i]))
        else:
            dropped += 1
        rows.append(ParticleRow(
            start=tuple(float(c) * grid.spacing for c in chosen[i]),
            dropped=not alive[i],
            rel_error=float(rel[i]) if alive[i] else math.nan,
        ))
    return CharacteristicsReport(max_rel_error=worst, traced=int(alive.sum()),
                                 dropped=dropped, particles=tuple(rows),
                                 seam_buffer=seam_buffer)


def write_characteristics_csv(report: CharacteristicsReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start", "dropped", "rel_error"])
        for row in report.particles:
            start = ";".join(f"{c:.17e}" for c in row.start)
            err = "" if math.isnan(row.rel_error) else f"{row.rel_error:.17e}"
            writer.writerow([start, int(row.dropped), err])


# -- nonlinear residuals ------------------------------------------------------


def reform_rhs(state: ReformState, params: FluidParams,
               eta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivatives of all three fields under the reformulated system
    with every coefficient read from the state itself. Shared between the
    residual evaluation and manufactured-forcing construction so both sides
    use the same discrete operators."""
    grid = state.grid
    vphi, phi, u = state.vphi.values, state.phi.values, state.u.values
    factors = grid.dealias(np.concatenate((u, np.stack((vphi, phi, grid.div(u))))))
    um, (vphi_m, phi_m, div_m) = factors[:grid.dim], factors[grid.dim:]
    sources = np.stack((0.5 * (params.delta1 - 1.0) * vphi_m,
                        0.5 * (params.gamma - 1.0) * phi_m)) * div_m
    d_vphi, d_phi = -grid.dealias(advect(grid, um, np.stack((vphi, phi))) + sources)
    d_u = momentum_rhs_componentwise(params, state, state.vphi, eta, state)
    return d_vphi, d_phi, np.asarray(d_u, dtype=float)


def primitive_rates(grid: Grid, params: FluidParams, rho: np.ndarray,
                    mom: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unforced time derivatives of (rho, rho u) in conservative form, all
    products dealiased. The velocity u is passed alongside the momentum so
    that vacuum cells need no division by rho.

    The factors rho, mu, lambda, u and rho u, with Q1(u) and div u built
    from the spectrum of u, are truncated in one batched transform pair.
    The mass and momentum fluxes formed from them are transformed in one
    call, differentiated with the truncating multipliers (the pressure with
    the plain ones), and brought back in one inverse call."""
    d = grid.dim
    mu = params.alpha * stable_power(rho, params.delta1)
    lam = params.beta * stable_power(rho, params.delta2)
    spectra = grid.fft(np.concatenate((np.stack((rho, mu, lam)), u, mom)))
    # jac_hat[a, b] is the truncated d_b u_a
    jac_hat = spectra[3:3 + d, None] * grid.ik_masked
    masked = grid.ifft(np.concatenate((
        grid.dealias_mask * spectra,
        jac_hat.reshape((d * d,) + grid.spectral_shape))))
    (rho_m, mu_m, lam_m), u_m, mom_m, jac = np.split(masked, [3, 3 + d, 3 + 2 * d])
    jac = jac.reshape((d, d) + grid.shape)

    stress = mu_m * (jac + np.swapaxes(jac, 0, 1)) - mom_m[:, None] * u_m
    stress[range(d), range(d)] += lam_m * np.trace(jac)
    pressure = params.A * stable_power(rho, params.gamma)
    fluxes = grid.fft(np.concatenate((rho_m * u_m, stress.reshape((d * d,) + grid.shape),
                                      pressure[None])))
    mass_hat, stress_hat = fluxes[:d], fluxes[d:-1].reshape((d, d) + grid.spectral_shape)
    rates = grid.ifft(np.concatenate((
        -np.sum(grid.ik_masked * mass_hat, axis=0)[None],
        np.sum(grid.ik_masked * stress_hat, axis=1) - grid.ik * fluxes[-1])))
    return rates[0], rates[1:]


@dataclass(frozen=True)
class ResidualReport:
    times: tuple
    reform_vphi_l2: float
    reform_phi_l2: float
    reform_u_l2: float
    reform_linf: float
    primitive_mass_l2: float
    primitive_momentum_l2: float
    primitive_linf: float


def nonlinear_residual(traj: Trajectory, params: FluidParams,
                       eta: float = 0.0, forcing=None) -> ResidualReport:
    """Residuals of the trajectory substituted into the full nonlinear
    system, time derivatives by central differences at interior samples.

    Both forms are evaluated: the reformulated system in the proxy
    variables, and the primitive mass/momentum equations with the stress
    assembled from the degenerate viscosities. A manufactured-solution
    forcing, when given, is subtracted from the reformulated side only; the
    primitive side is reported for the unforced system.
    """
    times = np.asarray(traj.times, dtype=float)
    grid = traj.grid
    if len(times) < 3:
        raise ValueError("need at least three samples for residuals")
    dvphi = _nonuniform_derivative(traj.vphi, times)
    dphi = _nonuniform_derivative(traj.phi, times)
    du = _nonuniform_derivative(traj.u, times)

    rho_st = density_of(traj.vphi, params)
    mom_st = rho_st[:, None] * traj.u
    drho = _nonuniform_derivative(rho_st, times)
    dmom = _nonuniform_derivative(mom_st, times)

    rv = rp = ru = rlinf = 0.0
    pm = pmom = plinf = 0.0
    interior = range(1, len(times) - 1)
    for i in interior:
        t = times[i]
        f_vphi, f_phi, f_u = reform_rhs(traj.state(i), params, eta)
        r1 = dvphi[i] - f_vphi
        r2 = dphi[i] - f_phi
        r3 = du[i] - f_u
        if forcing is not None:
            fv = forcing.vphi_term(t)
            if fv is not None:
                r1 = r1 - fv
            fm = forcing.momentum_term(grid, t)
            if fm is not None:
                r2 = r2 - fm[0]
                r3 = r3 - fm[1:]
        rv = max(rv, quadrature_l2(grid, r1))
        rp = max(rp, quadrature_l2(grid, r2))
        ru = max(ru, quadrature_l2(grid, r3))
        rlinf = max(rlinf, float(np.abs(r1).max()), float(np.abs(r2).max()),
                    float(np.abs(r3).max()))

        rates_rho, rates_mom = primitive_rates(grid, params, rho_st[i],
                                               mom_st[i], traj.u[i])
        r_mass = drho[i] - rates_rho
        r_mom = dmom[i] - rates_mom
        pm = max(pm, quadrature_l2(grid, r_mass))
        pmom = max(pmom, quadrature_l2(grid, r_mom))
        plinf = max(plinf, float(np.abs(r_mass).max()),
                    float(np.abs(r_mom).max()))

    return ResidualReport(
        times=tuple(float(times[i]) for i in interior),
        reform_vphi_l2=rv, reform_phi_l2=rp, reform_u_l2=ru,
        reform_linf=rlinf, primitive_mass_l2=pm, primitive_momentum_l2=pmom,
        primitive_linf=plinf,
    )

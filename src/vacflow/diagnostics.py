"""Post-processing for solved trajectories: the norm ledger with its
thresholds and guaranteed horizons, validity bookkeeping, vacuum behavior,
conservation totals, the density recovered from the viscosity proxy, particle
tracing along characteristics, and residuals of the full nonlinear system.

Everything here treats trajectories as immutable inputs and recomputes what
it needs from the stored samples. The reformulated residual runs the
solver's own slope kernels (on masked spectra), so it measures how well the
trajectory solves the discrete system, not whether that system is assembled
right. The independent checks of the assembly are the primitive residual,
whose mass and momentum rates share no code with the solver, and the
symmetric momentum route of acceptance criterion 03.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    VectorField,
    quadrature_l2,
    release,
    sobolev_norm,
    support_margin,
    weighted_seminorm,
)
from .linearized import Trajectory, sample_weight
from .operators import ReformState, coefficient_floor, reform_slopes, stable_power
from .params import FluidParams

VAC_EPS = 1e-10
SEAM_FRACTION = 0.125
SUPPORT_DUST_REL = 1e-5


def density_of(vphi: np.ndarray, params: FluidParams) -> np.ndarray:
    """Density recovered from viscosity-proxy values, one sample or a whole
    stack: the one route from the proxies back to rho."""
    return stable_power(vphi, 2.0 / (params.delta1 - 1.0))


def _seam_buffer(grid: Grid, rho0: np.ndarray) -> float:
    """How near the box seam the support of a density that starts as rho0
    may come: an eighth of the box for compactly supported data, 0
    otherwise."""
    margin0 = support_margin(ScalarField(grid, rho0), VAC_EPS)
    return (SEAM_FRACTION * grid.box_length
            if math.isfinite(margin0) and margin0 > 0.0 else 0.0)


def relative_drift(totals) -> float:
    """The largest departure of a sequence of totals from its first entry,
    relative to that entry."""
    scale = max(abs(totals[0]), 1e-300)
    return max(abs(m - totals[0]) for m in totals) / scale


def _sample_derivative(sample, times: np.ndarray, i: int) -> np.ndarray:
    """Second-order time derivative at sample i of sampled fields, sample(j)
    the fields at times[j] (a window's __getitem__, say): the three-point
    central stencil inside, three-point one-sided at both ends. Handles a
    non-uniform cadence (the last interval may be shorter). Reads only the
    three samples of the stencil, so no derivative stack is ever built."""
    nt = len(times)
    if nt < 3:
        raise ValueError("need at least three samples to differentiate")
    if i == 0:
        h0 = times[1] - times[0]
        h1 = times[2] - times[1]
        return (-(2.0 * h0 + h1) / (h0 * (h0 + h1)) * sample(0)
                + (h0 + h1) / (h0 * h1) * sample(1)
                - h0 / (h1 * (h0 + h1)) * sample(2))
    if i == nt - 1:
        hm = times[-1] - times[-2]
        hmm = times[-2] - times[-3]
        return (hm / (hmm * (hm + hmm)) * sample(nt - 3)
                - (hm + hmm) / (hmm * hm) * sample(nt - 2)
                + (2.0 * hm + hmm) / (hm * (hm + hmm)) * sample(nt - 1))
    hl = times[i] - times[i - 1]
    hr = times[i + 1] - times[i]
    return (-hr / (hl * (hl + hr)) * sample(i - 1)
            + (hr - hl) / (hl * hr) * sample(i)
            + hl / (hr * (hl + hr)) * sample(i + 1))


# -- a priori ledger ----------------------------------------------------------


class AprioriLedger(NamedTuple):
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
    c_levels: tuple
    horizons: tuple
    level_ok: np.ndarray
    first_crossing: float | None


def horizon_times(t_end: float, c3: float, m: float) -> tuple:
    """The nested horizon ladder (T1, T2, T3, T**): each level shrinks the
    previous one by the next power of 1 + c3."""
    base = 1.0 + c3
    t1 = min(t_end, base**-2.0)
    t2 = min(t1, base ** (-4.0 * m - 2.0))
    t3 = min(t2, base ** (-4.0 * m - 4.0))
    tss = min(t_end, base ** (-4.0 * m - 4.0))
    return (t1, t2, t3, tss)


def initial_constant(state: ReformState) -> float:
    """The ledger's initial constant c0 = 1 + |vphi|_3 + |phi|_3 + |u|_3."""
    return (1.0 + sobolev_norm(state.vphi, 3) + sobolev_norm(state.phi, 3)
            + sobolev_norm(state.u, 3))


def ledger(traj: Trajectory, params: FluidParams,
           calib_C: float = 1.0) -> AprioriLedger:
    """Evaluate the norm ledger over a sampled trajectory.

    Row s of the threshold check (s = 1, 2, 3) asks that the running sup of
    the squared level-s norms of all three fields, plus the trapezoid
    integral of the weighted seminorm of order s+1, stays at or below the
    squared level constant c_s. The level constants all sit at
    sqrt(calib_C) times the initial constant c0; calib_C is honest tuning,
    reported rather than hidden. Each sample is released (fields.release)
    once the derivative stencils have moved past it.
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
    dvphi_h2 = np.full(nt, math.nan)
    dphi_h2 = np.full(nt, math.nan)
    du_h1 = np.full(nt, math.nan)
    for i in range(nt):
        state = traj.state(i)
        for j, s in enumerate((1, 2, 3)):
            vphi_n[i, j] = sobolev_norm(state.vphi, s)
            phi_n[i, j] = sobolev_norm(state.phi, s)
            u_n[i, j] = sobolev_norm(state.u, s)
            w_sq[i, j] = weighted_seminorm(state.vphi, state.u, s + 1) ** 2
        if nt >= 3:
            ds = _sample_derivative(traj.samples.__getitem__, times, i)
            dvphi_h2[i] = sobolev_norm(ScalarField(grid, ds[0]), 2)
            dphi_h2[i] = sobolev_norm(ScalarField(grid, ds[1]), 2)
            du_h1[i] = sobolev_norm(VectorField(grid, ds[2:]), 1)
        release(traj.samples, 0, i)

    integrals = np.zeros((nt, 3))
    for i in range(1, nt):
        dt = times[i] - times[i - 1]
        integrals[i] = integrals[i - 1] + 0.5 * dt * (w_sq[i] + w_sq[i - 1])

    # initial_constant(traj.state(0)), summed from the norms already taken
    c0 = float(1.0 + vphi_n[0, 2] + phi_n[0, 2] + u_n[0, 2])
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
        c0=c0, c_levels=c_levels,
        horizons=horizons, level_ok=level_ok, first_crossing=first_crossing,
    )


# -- validity verdict ---------------------------------------------------------


class ValidityVerdict(NamedTuple):
    """How far along the trajectory every certificate held: the viscosity
    coefficient floor, the ledger thresholds, and (for compactly supported
    data) the distance of the support from the box seam."""

    t_valid: float
    reasons: tuple
    coeff_min: tuple


def validity(traj: Trajectory, led: AprioriLedger,
             params: FluidParams) -> ValidityVerdict:
    """How far along traj every certificate held. Each sample is released
    (fields.release) once read."""
    grid = traj.grid
    seam_floor = _seam_buffer(grid, density_of(traj.vphi[0], params))
    watch_support = seam_floor > 0.0
    # Fourier transport scatters harmless positive dust (size the spectral
    # tail of the data, well below any physical density) across the whole
    # box within one step, so the evolving support is read at a threshold
    # relative to the instantaneous peak rather than at VAC_EPS.
    dust_rel = SUPPORT_DUST_REL

    coeffs = []
    t_valid = 0.0
    reasons = []
    for i, vphi in enumerate(traj.vphi):
        cmin = float(params.compressive(stable_power(vphi, 2.0 * params.m)).min())
        coeffs.append(cmin)
        conditions = [("coefficient", cmin >= coefficient_floor(params)),
                      ("ledger", bool(led.level_ok[i].all()))]
        if watch_support:
            rho = density_of(vphi, params)
            dust = max(VAC_EPS, dust_rel * float(rho.max()))
            m = support_margin(ScalarField(grid, rho), dust)
            conditions.append(("support", m >= seam_floor))
        if not reasons:
            reasons = [name for name, ok in conditions if not ok]
        if not reasons:
            t_valid = float(traj.times[i])
        release(traj.samples, 0, i + 1)
    return ValidityVerdict(t_valid=t_valid, reasons=tuple(reasons or ["none"]),
                           coeff_min=tuple(coeffs))


# -- vacuum clause ------------------------------------------------------------


class VacuumReport(NamedTuple):
    residual: float
    no_vacuum: bool
    cell_count: int


def vacuum_residual(traj: Trajectory, params: FluidParams) -> VacuumReport:
    """Pointwise size of u_t + (u . grad)u over cells the density has
    abandoned. Zero with a flag when no cell is below the cutoff; the time
    derivative comes from differencing the stored samples. Each sample is
    released (fields.release) once the stencils have moved past it."""
    times = np.asarray(traj.times, dtype=float)
    grid = traj.grid
    if len(times) < 3:
        raise ValueError("need at least three samples for the vacuum check")
    worst = 0.0
    cells = 0
    for i, vphi in enumerate(traj.vphi):
        rho = density_of(vphi, params)
        mask = rho < VAC_EPS
        count = int(mask.sum())
        cells += count
        if count:
            u = traj.u[i]
            resid = (_sample_derivative(traj.u.__getitem__, times, i)
                     + np.sum(u * grid.grad(u), axis=1))
            mag = np.sqrt(np.sum(resid**2, axis=0))
            worst = max(worst, float(mag[mask].max()))
        release(traj.samples, 0, i)
    return VacuumReport(residual=worst, no_vacuum=cells == 0,
                        cell_count=cells)


# -- conservation -------------------------------------------------------------


class ConservationReport(NamedTuple):
    mass_drift: float
    momentum_drift: float


def conservation(traj: Trajectory, params: FluidParams) -> ConservationReport:
    """The worst relative drift of the quadrature totals of density and
    momentum over the samples, against the initial totals. Each sample is
    released (fields.release) once read."""
    grid = traj.grid
    vol = grid.cell_volume
    masses = []
    momenta = []
    for i, (vphi, u) in enumerate(zip(traj.vphi, traj.u)):
        rho = density_of(vphi, params)
        masses.append(float(rho.sum()) * vol)
        momenta.append(tuple(float((rho * u[j]).sum()) * vol
                             for j in range(grid.dim)))
        release(traj.samples, 0, i + 1)
    p0 = np.asarray(momenta[0])
    mom_scale = max(float(np.max(np.abs(p0))), abs(masses[0]), 1e-300)
    momentum_drift = max(
        float(np.max(np.abs(np.asarray(p) - p0))) for p in momenta
    ) / mom_scale
    return ConservationReport(mass_drift=relative_drift(masses),
                              momentum_drift=momentum_drift)


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


def rk4_step(rate, t: float, y: np.ndarray, dt: float) -> np.ndarray:
    """One classic RK4 step of dy/dt = rate(t, y) from t to t + dt. Each
    slope is added into the sum ((k1 + 2 k2) + 2 k3) + k4 as it arrives, so
    a rate call runs beside y, that sum and the slope before it alone."""
    k = rate(t, y)
    total = k
    k = rate(t + 0.5 * dt, y + 0.5 * dt * k)
    total = total + 2.0 * k
    k = rate(t + 0.5 * dt, y + 0.5 * dt * k)
    total += 2.0 * k
    k = rate(t + dt, y + dt * k)
    return y + dt / 6.0 * (total + k)


class ParticleRow(NamedTuple):
    start: tuple
    dropped: bool
    rel_error: float


class CharacteristicsReport(NamedTuple):
    max_rel_error: float
    traced: int
    dropped: int
    particles: tuple


def characteristics_check(traj: Trajectory, params: FluidParams,
                          n_particles: int = 64, seed: int = 20250819,
                          seam_buffer: float | None = None) -> CharacteristicsReport:
    """Trace particles through the stored velocity and compare the density
    they see against the initial density damped by the exponential of the
    integrated divergence along the path.

    One Runge-Kutta step of the augmented (position, integral) system spans
    each sample interval, with the velocity linear in time between samples
    and multilinear in space. Particles that wander closer to the box seam
    than seam_buffer are dropped and counted; by default the buffer is an
    eighth of the box for compactly supported data and zero otherwise.

    The velocity and its divergence are kept for the two samples the
    current interval reads, each built once; the older is dropped when a
    third is needed, and each sample is released (fields.release) once
    read.

    The starts are min(n_particles, support size) distinct support cells,
    drawn by random.Random(seed), which unlike numpy.random loads no OpenSSL.
    """
    grid, samples = traj.grid, traj.samples
    times = np.asarray(traj.times, dtype=float)
    if len(times) < 2:
        raise ValueError("need at least two samples to trace")
    rho0 = density_of(samples[0, 0], params)

    if seam_buffer is None:
        seam_buffer = _seam_buffer(grid, rho0)

    cells = np.argwhere(rho0 > VAC_EPS)
    if cells.shape[0] == 0:
        return CharacteristicsReport(max_rel_error=0.0, traced=0, dropped=0,
                                     particles=())
    take = min(n_particles, cells.shape[0])
    chosen = cells[random.Random(seed).sample(range(cells.shape[0]), take)]
    start = chosen.T.astype(float) * grid.spacing

    @lru_cache(maxsize=2)
    def velocity(i: int) -> np.ndarray:
        """u and div u of sample i, d + 1 rows."""
        u = samples[i, 2:]
        rows = np.concatenate((u, [grid.div(u)]))
        release(samples, 0, i + 1)
        return rows

    def rate(t: float, y: np.ndarray) -> np.ndarray:
        """dy/dt at t for y = (x, integral of div u): the velocity components
        and div u at the points x, linear in time and multilinear in space."""
        j, w = sample_weight(times, t)
        x = y[:-1] % grid.box_length

        def at(i: int) -> np.ndarray:
            return np.stack([_periodic_interp(grid, f, x) for f in velocity(i)])

        return at(j) if w == 0.0 else (1.0 - w) * at(j) + w * at(j + 1)

    def seam_ok(x: np.ndarray) -> np.ndarray:
        if seam_buffer <= 0.0:
            return np.ones(x.shape[1], dtype=bool)
        xm = x % grid.box_length
        dist = np.minimum(xm, grid.box_length - xm).min(axis=0)
        return dist >= seam_buffer

    y = np.concatenate([start, np.zeros((1, take))])
    alive = np.ones(take, dtype=bool)
    for j in range(len(times) - 1):
        y = rk4_step(rate, times[j], y, times[j + 1] - times[j])
        alive &= seam_ok(y[:-1])
    pos, integ = y[:-1], y[-1]

    rho_end = density_of(samples[-1, 0], params)
    start_rho = _periodic_interp(grid, rho0, start)
    predicted = start_rho * np.exp(-integ)
    seen = _periodic_interp(grid, rho_end, pos % grid.box_length)
    rel = np.abs(seen - predicted) / np.maximum(np.abs(predicted), VAC_EPS)

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
                                 dropped=dropped, particles=tuple(rows))


# -- nonlinear residuals ------------------------------------------------------


def reform_rhs(state: ReformState, params: FluidParams, eta: float) -> np.ndarray:
    """Time derivatives of all three fields under the reformulated system
    with every coefficient read from the state itself, as rows stacked like
    the state: the solver's slope kernels on the state's masked spectra
    (operators.reform_slopes), brought back in one inverse. Shared between
    the residual evaluation and manufactured-forcing construction so both
    sides use the same discrete operators."""
    return state.grid.ifft(reform_slopes(params, state, state.vphi, eta, state))


def primitive_rates(grid: Grid, params: FluidParams, rho: np.ndarray,
                    mom: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unforced time derivatives of (rho, rho u) in conservative form, all
    products dealiased. The velocity u is passed alongside the momentum so
    that vacuum cells need no division by rho.

    The factors rho, mu, lambda, u and rho u are transformed in one call
    and brought back truncated in one inverse, and the Jacobian of u in a
    second, so no inverse holds all 3 + 2d + d^2 rows. The mass and
    momentum fluxes formed from them are transformed in one call,
    differentiated with the truncating multipliers (the pressure with the
    plain ones), and brought back in one inverse call."""
    d = grid.dim
    mu = params.alpha * stable_power(rho, params.delta1)
    lam = params.beta * stable_power(rho, params.delta2)
    spectra = grid.fft(np.concatenate((np.stack((rho, mu, lam)), u, mom)))
    (rho_m, mu_m, lam_m), u_m, mom_m = np.split(
        grid.ifft(grid.dealias_mask * spectra), [3, 3 + d])
    # jac[a, b] is the truncated d_b u_a
    jac = grid.ifft(spectra[3:3 + d, None] * grid.ik_masked)
    del spectra

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


class ResidualReport(NamedTuple):
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
    forcing, when given, maps t to rows stacked like (vphi, phi, u), which
    are subtracted from the reformulated side only; the primitive side is
    reported for the unforced system. Each sample is released
    (fields.release) once the stencils have moved past it.
    """
    times = np.asarray(traj.times, dtype=float)
    grid, samples = traj.grid, traj.samples
    if len(times) < 3:
        raise ValueError("need at least three samples for residuals")

    # The stencils of consecutive interior samples overlap, so the density
    # and momentum of the three latest samples are kept, each built once.
    @lru_cache(maxsize=3)
    def primitive(j: int) -> tuple[np.ndarray, np.ndarray]:
        rho = density_of(samples[j, 0], params)
        return rho, rho[None] * samples[j, 2:]

    rp = ru = rlinf = 0.0
    pm = pmom = plinf = 0.0
    for i in range(1, len(times) - 1):
        r = (_sample_derivative(samples.__getitem__, times, i)
             - reform_rhs(traj.state(i), params, eta))
        if forcing is not None:
            r = r - forcing(times[i])
        rp = max(rp, quadrature_l2(grid, r[1]))
        ru = max(ru, quadrature_l2(grid, r[2:]))
        rlinf = max(rlinf, float(np.abs(r).max()))

        drho = _sample_derivative(lambda j: primitive(j)[0], times, i)
        dmom = _sample_derivative(lambda j: primitive(j)[1], times, i)
        rates_rho, rates_mom = primitive_rates(grid, params, *primitive(i),
                                               samples[i, 2:])
        r_mass = drho - rates_rho
        r_mom = dmom - rates_mom
        pm = max(pm, quadrature_l2(grid, r_mass))
        pmom = max(pmom, quadrature_l2(grid, r_mom))
        plinf = max(plinf, float(np.abs(r_mass).max()),
                    float(np.abs(r_mom).max()))
        release(samples, 0, i)

    return ResidualReport(
        reform_phi_l2=rp, reform_u_l2=ru, reform_linf=rlinf,
        primitive_mass_l2=pm, primitive_momentum_l2=pmom, primitive_linf=plinf,
    )

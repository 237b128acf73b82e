"""Independent verification machinery: a brute-force primitive-variable
solver and a manufactured-solutions harness.

The primitive solver works directly in (rho, momentum) with classic RK4 and
a conservative continuity update, accepting the explicit viscous step-size
penalty because oracle runs are deliberately small. It exists to check the
main pipeline from outside: same physics, different variables, different
time integrator. The only solver code it shares is the step-cadence
driver ``march`` and its sample grid, so both solvers sample the same
times. It refuses data that touches vacuum; there the primitive form
divides by rho and no oracle is possible.

Manufactured cases carry closed-form fields with analytic time derivatives;
their forcing terms come from applying the same discrete spatial operators
each solver uses, so a solver fed its own forcing sees pure time error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .fields import Grid, ScalarField, VectorField, _window, quadrature_l2, release
from .linearized import (
    DEFAULT_CFL_SAFETY,
    SolverAbort,
    march,
    sample_times,
    solve_linearized,
)
from .diagnostics import (density_of, primitive_rates, reform_rhs, relative_drift,
                          rk4_step)
from .fixedpoint import (DEFAULT_MAX_ITER, DEFAULT_PICARD_TOL,
                         _raise_mmap_threshold, picard_solve, run_forked)
from .initial_data import reform_state_from_density
from .operators import ReformState, _mask_coefficients, stable_power
from .params import FluidParams, validate_params

ORACLE_SAFETY = 0.3
ORACLE_MIN_RHO = 1e-8


# -- primitive solver ---------------------------------------------------------


@dataclass(frozen=True)
class PrimitiveTrajectory:
    """Sampled oracle solution, in the form of a Trajectory: the sample
    times, the samples shaped (nt, d + 1) + shape, sample i the rows
    (rho, u) at times[i], and the step sizes."""

    grid: Grid
    times: list
    samples: np.ndarray
    dt_history: list

    rho = property(lambda self: self.samples[:, 0])
    u = property(lambda self: self.samples[:, 1:])


def primitive_rhs(grid: Grid, params: FluidParams, rho: np.ndarray,
                  mom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unforced time derivatives of (rho, rho u) in conservative form, all
    products dealiased. Divides by rho, so callers must keep it positive."""
    return primitive_rates(grid, params, rho, mom, mom / rho)


def refuse_vacuum(rho: np.ndarray) -> None:
    """Refuse a density at or below ORACLE_MIN_RHO anywhere: the primitive
    form divides by rho, so the oracle is defined only away from vacuum."""
    if float(rho.min()) <= ORACLE_MIN_RHO:
        raise ValueError(f"oracle requires min rho > {ORACLE_MIN_RHO:g}; "
                         f"got {float(rho.min()):.3e}")


def oracle_dt(grid: Grid, params: FluidParams, rho: np.ndarray,
              u: np.ndarray) -> float:
    """Acoustic and viscous step bounds for the fully explicit update."""
    speed = float(np.sqrt(np.sum(u**2, axis=0)).max())
    sound = float(np.sqrt(params.A * params.gamma
                          * stable_power(rho, params.gamma - 1.0)).max())
    mu = params.alpha * stable_power(rho, params.delta1)
    lam = params.beta * stable_power(rho, params.delta2)
    nu_max = float(((2.0 * mu + np.abs(lam)) / rho).max())
    h = grid.spacing
    advective = h / (speed + sound + 1e-30)
    viscous = h * h / (2.0 * grid.dim * nu_max + 1e-30)
    return ORACLE_SAFETY * min(advective, viscous)


def primitive_solve(rho0: ScalarField, u0: VectorField, params: FluidParams,
                    t_window: float, *, sample_dt: float,
                    dt: float | None = None, forcing=None,
                    window=None) -> PrimitiveTrajectory:
    """Explicit RK4 march of the primitive system on [0, t_window].

    forcing, when given, is a callable t -> (mass_term, momentum_term)
    added to the right sides. Sampling mirrors the main solver: states are
    recorded at sample_times(t_window, sample_dt), the multiples of
    sample_dt plus the window end, into a window of (rho, u) samples
    allocated here or passed by the caller (a _window, say), each sample
    released once written.
    """
    grid = rho0.grid
    if u0.grid != grid:
        raise ValueError("density and velocity grids disagree")
    refuse_vacuum(rho0.values)

    y = np.concatenate(([rho0.values], rho0.values * u0.values))   # (rho, rho u)
    times = sample_times(t_window, sample_dt)
    if window is None:
        window = np.empty((len(times), grid.dim + 1) + grid.shape)
    traj = PrimitiveTrajectory(grid, times, window, [])

    def rhs(t: float, state: np.ndarray) -> np.ndarray:
        dr, dm = primitive_rhs(grid, params, state[0], state[1:])
        rates = np.concatenate(([dr], dm))
        if forcing is not None:
            g, f = forcing(t)
            rates += np.concatenate(([g], f))
        return rates

    def write(n: int) -> None:
        window[n, 0] = y[0]
        window[n, 1:] = y[1:] / y[0]
        release(window, 0, n + 1)

    def next_dt(t: float) -> float:
        return dt if dt is not None else oracle_dt(grid, params, y[0], y[1:] / y[0])

    def advance(t: float, step: float, t_new: float) -> None:
        nonlocal y
        y = rk4_step(rhs, t, y, step)
        if not np.all(np.isfinite(y)):
            raise SolverAbort("solution lost finiteness", t + step)
        if float(y[0].min()) <= ORACLE_MIN_RHO:
            raise SolverAbort("density left the oracle regime", t + step,
                              f"min rho = {float(y[0].min()):.3e}")
        traj.dt_history.append(step)

    march(t_window, sample_dt, next_dt, advance, write)
    return traj


def oracle_mass_drift(traj: PrimitiveTrajectory) -> float:
    vol = traj.grid.cell_volume
    return relative_drift([float(rho.sum()) * vol for rho in traj.rho])


# -- manufactured solutions ---------------------------------------------------


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form (rho, u) pair, low-mode trig in space with a positive
    density floor, plus analytic time derivatives. Forcing for either
    solver is assembled on demand from the discrete operators."""

    params: FluidParams
    grid: Grid
    base: float = 1.0
    amp_rho: float = 0.2
    amp_u: float = 0.1
    freq_rho: float = 0.7
    freq_u: float = 1.3

    def __post_init__(self):
        if not self.amp_rho < self.base:
            raise ValueError("density amplitude must stay below the base "
                             "(the manufactured fields avoid vacuum)")

    def _axes(self):
        k0 = 2.0 * math.pi / self.grid.box_length
        return [k0 * c for c in self.grid.coordinates]

    def rho(self, t: float) -> np.ndarray:
        axes = self._axes()
        prof = np.sin(axes[0] - self.freq_rho * t)
        for a in axes[1:]:
            prof = prof * np.cos(a)
        return np.broadcast_to(self.base + self.amp_rho * prof,
                               self.grid.shape).copy()

    def drho_dt(self, t: float) -> np.ndarray:
        axes = self._axes()
        prof = -self.freq_rho * np.cos(axes[0] - self.freq_rho * t)
        for a in axes[1:]:
            prof = prof * np.cos(a)
        return np.broadcast_to(self.amp_rho * prof, self.grid.shape).copy()

    def u(self, t: float) -> np.ndarray:
        axes = self._axes()
        out = np.empty((self.grid.dim,) + self.grid.shape)
        for i in range(self.grid.dim):
            phase = self.freq_u * t + i * math.pi / 3.0
            out[i] = self.amp_u * math.cos(phase) * np.broadcast_to(
                np.sin(axes[i]), self.grid.shape)
        return out

    def du_dt(self, t: float) -> np.ndarray:
        axes = self._axes()
        out = np.empty((self.grid.dim,) + self.grid.shape)
        for i in range(self.grid.dim):
            phase = self.freq_u * t + i * math.pi / 3.0
            out[i] = -self.amp_u * self.freq_u * math.sin(phase) * np.broadcast_to(
                np.sin(axes[i]), self.grid.shape)
        return out

    def vphi(self, t: float) -> np.ndarray:
        return stable_power(self.rho(t), 0.5 * (self.params.delta1 - 1.0))

    def dvphi_dt(self, t: float) -> np.ndarray:
        p = 0.5 * (self.params.delta1 - 1.0)
        return p * stable_power(self.rho(t), p - 1.0) * self.drho_dt(t)

    def phi(self, t: float) -> np.ndarray:
        return stable_power(self.rho(t), 0.5 * (self.params.gamma - 1.0))

    def dphi_dt(self, t: float) -> np.ndarray:
        p = 0.5 * (self.params.gamma - 1.0)
        return p * stable_power(self.rho(t), p - 1.0) * self.drho_dt(t)

    def state(self, t: float) -> ReformState:
        return reform_state_from_density(*self.primitive_state(t), self.params)

    def primitive_state(self, t: float) -> tuple[ScalarField, VectorField]:
        return ScalarField(self.grid, self.rho(t)), VectorField(self.grid, self.u(t))

    def reform_forcing(self, eta: float):
        """Forcing that makes the exact fields solve the reformulated
        system as discretized: analytic time derivative minus the discrete
        right side evaluated on the exact state. A map from t to the rows
        stacked like (vphi, phi, u), all three from one reform_rhs call."""

        def rows(t: float) -> np.ndarray:
            return (np.concatenate(([self.dvphi_dt(t), self.dphi_dt(t)], self.du_dt(t)))
                    - reform_rhs(self.state(t), self.params, eta))

        return rows

    def primitive_forcing(self):
        """Forcing for the primitive solver, same construction: analytic
        d/dt of (rho, rho u) minus the discrete conservative right side."""

        def terms(t: float):
            rho = self.rho(t)
            u = self.u(t)
            mom = rho * u
            dmom = self.drho_dt(t) * u + rho * self.du_dt(t)
            dr, dm = primitive_rhs(self.grid, self.params, rho, mom)
            return self.drho_dt(t) - dr, dmom - dm

        return terms

    def stage(self, grid: Grid, t: float):
        """The exact coefficients at t, masked: the window solve's stage."""
        return _mask_coefficients(grid, self.u(t), self.phi(t), self.vphi(t))


def default_case(grid: Grid | None = None, params: FluidParams | None = None,
                 **kwargs) -> ManufacturedCase:
    if grid is None:
        grid = Grid(dim=1, n=128, box_length=2.0 * math.pi)
    if params is None:
        params = validate_params(A=1.0, gamma=3.0, alpha=1.0, beta=0.5,
                                 delta1=3.0, delta2=6.0)
    return ManufacturedCase(params=params, grid=grid, **kwargs)


def soft_viscosity_params() -> FluidParams:
    """Same exponents as the default case but weak viscosity, so the
    explicit oracle can take steps large enough for its time error to rise
    above roundoff in order studies."""
    return validate_params(A=1.0, gamma=3.0, alpha=0.01, beta=0.005,
                           delta1=3.0, delta2=6.0)


# -- error measurement and order studies --------------------------------------


def _state_error(a: ReformState, b: ReformState) -> float:
    diff = a.rows - b.rows
    return max(quadrature_l2(a.grid, d) for d in (diff[0], diff[1], diff[2:]))


def reform_mms_error(case: ManufacturedCase, dt: float, t_window: float) -> float:
    """Final-time L2 error of the main time integrator at eta = 0, fed
    exact coefficients and its own discrete forcing."""
    traj = solve_linearized(case.state(0.0), case.params, case.stage, 0.0,
                            t_window, sample_dt=t_window, dt=dt,
                            forcing=case.reform_forcing(0.0))
    return _state_error(traj.final, case.state(t_window))


def oracle_mms_error(case: ManufacturedCase, dt: float,
                     t_window: float) -> float:
    rho0, u0 = case.primitive_state(0.0)
    traj = primitive_solve(rho0, u0, case.params, t_window, sample_dt=t_window,
                           dt=dt, forcing=case.primitive_forcing())
    grid = case.grid
    return max(
        quadrature_l2(grid, traj.rho[-1] - case.rho(t_window)),
        quadrature_l2(grid, traj.u[-1] - case.u(t_window)),
    )


@dataclass(frozen=True)
class MMSStudy:
    label: str
    levels: tuple
    errors: tuple
    orders: tuple


def observed_orders(levels, errors, label: str) -> MMSStudy:
    """Pairwise observed orders log(e_i/e_{i+1}) / log(level_i/level_{i+1});
    levels are step sizes (or spacings), finest last."""
    if len(levels) != len(errors) or len(levels) < 2:
        raise ValueError("need matching levels and errors, at least two")
    orders = []
    for i in range(len(levels) - 1):
        ratio = levels[i] / levels[i + 1]
        if errors[i + 1] <= 0.0 or errors[i] <= 0.0:
            orders.append(math.nan)
            continue
        orders.append(math.log(errors[i] / errors[i + 1]) / math.log(ratio))
    return MMSStudy(label=label, levels=tuple(levels), errors=tuple(errors),
                    orders=tuple(orders))


def reform_temporal_study(case: ManufacturedCase, dts, t_window: float) -> MMSStudy:
    errors = [reform_mms_error(case, dt, t_window) for dt in dts]
    return observed_orders(list(dts), errors, "reform temporal")


def oracle_temporal_study(case: ManufacturedCase, dts,
                          t_window: float) -> MMSStudy:
    errors = [oracle_mms_error(case, dt, t_window) for dt in dts]
    return observed_orders(list(dts), errors, "oracle temporal")


def reform_spatial_errors(ns, dt: float, t_window: float) -> list[float]:
    """Error across 1-D grid sizes at one small fixed step. Band-limited exact
    fields make these sit at the time-integration floor, independent of n."""
    cases = (default_case(Grid(dim=1, n=n, box_length=2.0 * math.pi)) for n in ns)
    return [reform_mms_error(case, dt, t_window) for case in cases]


# -- cross-solver comparison --------------------------------------------------


@dataclass(frozen=True)
class CrossCompareReport:
    times: tuple
    distances: tuple
    sup_distance: float
    picard_converged: bool


def cross_compare(rho0: ScalarField, u0: VectorField, params: FluidParams,
                  t_window: float, *, sample_dt: float,
                  picard_tol: float = DEFAULT_PICARD_TOL,
                  max_iter: int = DEFAULT_MAX_ITER,
                  cfl_safety: float = DEFAULT_CFL_SAFETY) -> CrossCompareReport:
    """Run the main pipeline and the primitive oracle from the same smooth
    positive data and report the L2 distance of the reconstructed (rho, u)
    at every shared sample time. The main pipeline runs at eta = 0.

    Each solve writes its trajectory into a _window allocated here before
    the forks, and the distances read the two windows a sample at a time,
    releasing each sample once read."""
    refuse_vacuum(rho0.values)
    grid = rho0.grid
    times = sample_times(t_window, sample_dt)
    reform_out = _window(grid, len(times), grid.dim + 2)
    oracle_out = _window(grid, len(times), grid.dim + 1)

    init = reform_state_from_density(rho0, u0, params)
    caller = os.getpid()

    def primitive():
        """The oracle's solve. In a child of its own it yields the CPUs to
        the Picard chain, the critical path (this solve has no dependents
        and only has to end by the end), and keeps its step temporaries on
        the heap as an iterate does."""
        if os.getpid() != caller:
            os.nice(10)
            _raise_mmap_threshold()
        primitive_solve(rho0, u0, params, t_window, sample_dt=sample_dt,
                        window=oracle_out)

    def reform():
        return picard_solve(init, params, 0.0, t_window, picard_tol, max_iter,
                            sample_dt=sample_dt, cfl_safety=cfl_safety,
                            window=reform_out)[1]

    # neither solve reads the other, so they run concurrently; both record
    # at sample_times(t_window, sample_dt)
    trace, _ = run_forked([("reform solve", reform),
                           ("primitive solve", primitive)])

    distances = []
    for i, (solved, oracle) in enumerate(zip(reform_out, oracle_out)):
        rho = density_of(solved[0], params)
        d = math.sqrt(
            quadrature_l2(grid, rho - oracle[0]) ** 2
            + quadrature_l2(grid, solved[2:] - oracle[1:]) ** 2)
        distances.append(d)
        for window in (reform_out, oracle_out):
            release(window, 0, i + 1)
    return CrossCompareReport(
        times=tuple(times),
        distances=tuple(distances),
        sup_distance=max(distances),
        picard_converged=trace.converged,
    )

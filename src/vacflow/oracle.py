"""Independent verification machinery: a brute-force primitive-variable
solver and a manufactured-solutions harness.

The primitive solver works directly in (rho, momentum) with classic RK4 and
a conservative continuity update, accepting the explicit viscous step-size
penalty because oracle runs are deliberately small. It exists to check the
main pipeline from outside: same physics, different variables, different
time integrator. The only solver code it shares is the step-cadence
driver ``march``, so both solvers sample the same times. It refuses data
that touches vacuum; there the primitive form divides by rho and no oracle
is possible.

Manufactured cases carry closed-form fields with analytic time derivatives;
their forcing terms come from applying the same discrete spatial operators
each solver uses, so a solver fed its own forcing sees pure time error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .fields import Grid, ScalarField, VectorField, quadrature_l2
from .linearized import (
    DEFAULT_CFL_SAFETY,
    DEFAULT_SAMPLES_PER_WINDOW,
    AnalyticCoefficients,
    CallableForcing,
    FrozenCoefficients,
    SolverAbort,
    march,
    solve_linearized,
)
from .diagnostics import (
    PrimitiveState,
    primitive_rates,
    reconstruct_primitive,
    reform_rhs,
)
from .fixedpoint import (DEFAULT_MAX_ITER, DEFAULT_PICARD_TOL, picard_solve,
                         run_forked)
from .initial_data import reform_state_from_density
from .operators import ReformState, stable_power
from .params import FluidParams, validate_params

ORACLE_SAFETY = 0.3
ORACLE_MIN_RHO = 1e-8


# -- primitive solver ---------------------------------------------------------


@dataclass
class PrimitiveTrajectory:
    states: list
    times: list
    dt_history: list = field(default_factory=list)

    @property
    def final(self) -> PrimitiveState:
        return self.states[-1]


def primitive_rhs(grid: Grid, params: FluidParams, rho: np.ndarray,
                  mom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unforced time derivatives of (rho, rho u) in conservative form, all
    products dealiased. Divides by rho, so callers must keep it positive."""
    return primitive_rates(grid, params, rho, mom, mom / rho)


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
                    t_window: float, *, dt: float | None = None, forcing=None,
                    sample_dt: float | None = None) -> PrimitiveTrajectory:
    """Explicit RK4 march of the primitive system on [0, t_window].

    forcing, when given, is a callable t -> (mass_term, momentum_term)
    added to the right sides. Sampling mirrors the main solver: states are
    recorded at multiples of sample_dt plus the window end, or at every
    step when sample_dt is None.
    """
    grid = rho0.grid
    if u0.grid != grid:
        raise ValueError("density and velocity grids disagree")
    if float(rho0.values.min()) <= ORACLE_MIN_RHO:
        raise ValueError(
            f"oracle requires min rho > {ORACLE_MIN_RHO:g}; "
            f"got {float(rho0.values.min()):.3e}")

    rho = rho0.values.copy()
    mom = rho * u0.values

    def rhs(t: float, r: np.ndarray, m: np.ndarray):
        dr, dm = primitive_rhs(grid, params, r, m)
        if forcing is not None:
            g, f = forcing(t)
            dr = dr + g
            dm = dm + f
        return dr, dm

    def snap(t: float) -> PrimitiveState:
        return PrimitiveState(rho=ScalarField(grid, rho.copy()),
                              u=VectorField(grid, mom / rho), time=t)

    def next_dt(t: float) -> float:
        return dt if dt is not None else oracle_dt(grid, params, rho,
                                                   mom / rho)

    def advance(t: float, step: float, t_new: float, at_sample: bool) -> None:
        nonlocal rho, mom
        k1r, k1m = rhs(t, rho, mom)
        k2r, k2m = rhs(t + 0.5 * step, rho + 0.5 * step * k1r, mom + 0.5 * step * k1m)
        k3r, k3m = rhs(t + 0.5 * step, rho + 0.5 * step * k2r, mom + 0.5 * step * k2m)
        k4r, k4m = rhs(t + step, rho + step * k3r, mom + step * k3m)
        rho = rho + step / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        mom = mom + step / 6.0 * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(mom))):
            raise SolverAbort("solution lost finiteness", t + step)
        if float(rho.min()) <= ORACLE_MIN_RHO:
            raise SolverAbort("density left the oracle regime", t + step,
                              f"min rho = {float(rho.min()):.3e}")
        traj.dt_history.append(step)
        if at_sample:
            traj.states.append(snap(t_new))
            traj.times.append(t_new)

    traj = PrimitiveTrajectory(states=[snap(0.0)], times=[0.0])
    march(t_window, sample_dt, next_dt, advance)
    return traj


def oracle_mass_drift(traj: PrimitiveTrajectory) -> float:
    grid = traj.states[0].rho.grid
    vol = grid.cell_volume
    masses = [float(s.rho.values.sum()) * vol for s in traj.states]
    scale = max(abs(masses[0]), 1e-300)
    return max(abs(m - masses[0]) for m in masses) / scale


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
        g = self.grid
        return ReformState(ScalarField(g, self.vphi(t)),
                           ScalarField(g, self.phi(t)),
                           VectorField(g, self.u(t)), time=t)

    def primitive_state(self, t: float) -> tuple[ScalarField, VectorField]:
        return ScalarField(self.grid, self.rho(t)), VectorField(self.grid, self.u(t))

    def reform_forcing(self, eta: float) -> CallableForcing:
        """Forcing that makes the exact fields solve the reformulated
        system as discretized: analytic time derivative minus the discrete
        right side evaluated on the exact state. One reform_rhs call gives
        all three rows at a time; the last five times are kept, the stage
        times of one outer step."""

        @lru_cache(maxsize=5)
        def rows(t: float):
            return reform_rhs(self.state(t), self.params, eta)

        return CallableForcing(
            vphi=lambda t: self.dvphi_dt(t) - rows(t)[0],
            phi=lambda t: self.dphi_dt(t) - rows(t)[1],
            velocity=lambda t: self.du_dt(t) - rows(t)[2])

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

    def coefficients(self) -> AnalyticCoefficients:
        return AnalyticCoefficients(self.u, self.phi, self.vphi)


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
    grid = a.grid
    return max(
        quadrature_l2(grid, a.vphi.values - b.vphi.values),
        quadrature_l2(grid, a.phi.values - b.phi.values),
        quadrature_l2(grid, a.u.values - b.u.values),
    )


def reform_mms_error(case: ManufacturedCase, dt: float, t_window: float) -> float:
    """Final-time L2 error of the main time integrator at eta = 0, fed
    exact coefficients and its own discrete forcing."""
    coeffs = FrozenCoefficients(provider=case.coefficients(), eta=0.0,
                                t_window=t_window, dt=dt,
                                forcing=case.reform_forcing(0.0))
    traj = solve_linearized(case.state(0.0), coeffs, case.params)
    return _state_error(traj.final, case.state(traj.times[-1]))


def oracle_mms_error(case: ManufacturedCase, dt: float,
                     t_window: float) -> float:
    rho0, u0 = case.primitive_state(0.0)
    traj = primitive_solve(rho0, u0, case.params, t_window, dt=dt,
                           forcing=case.primitive_forcing())
    grid = case.grid
    t_end = traj.times[-1]
    return max(
        quadrature_l2(grid, traj.final.rho.values - case.rho(t_end)),
        quadrature_l2(grid, traj.final.u.values - case.u(t_end)),
    )


@dataclass(frozen=True)
class MMSStudy:
    label: str
    levels: tuple
    errors: tuple
    orders: tuple
    monotone: bool


def observed_orders(levels, errors, label: str) -> MMSStudy:
    """Pairwise observed orders log(e_i/e_{i+1}) / log(level_i/level_{i+1});
    levels are step sizes (or spacings), finest last. Constant or growing
    error pairs drop the monotone flag."""
    if len(levels) != len(errors) or len(levels) < 2:
        raise ValueError("need matching levels and errors, at least two")
    orders = []
    monotone = True
    for i in range(len(levels) - 1):
        ratio = levels[i] / levels[i + 1]
        if errors[i + 1] <= 0.0 or errors[i] <= 0.0:
            orders.append(math.nan)
            continue
        if errors[i + 1] >= errors[i]:
            monotone = False
        orders.append(math.log(errors[i] / errors[i + 1]) / math.log(ratio))
    return MMSStudy(label=label, levels=tuple(levels), errors=tuple(errors),
                    orders=tuple(orders), monotone=monotone)


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
    picard_iterations: int


def cross_compare(rho0: ScalarField, u0: VectorField, params: FluidParams,
                  t_window: float, *, sample_dt: float | None = None,
                  picard_tol: float = DEFAULT_PICARD_TOL,
                  max_iter: int = DEFAULT_MAX_ITER,
                  cfl_safety: float = DEFAULT_CFL_SAFETY) -> CrossCompareReport:
    """Run the main pipeline and the primitive oracle from the same smooth
    positive data and report the L2 distance of the reconstructed (rho, u)
    at every shared sample time. The main pipeline runs at eta = 0."""
    if float(rho0.values.min()) <= ORACLE_MIN_RHO:
        raise ValueError("oracle requires min rho > 0; this comparison is "
                         "only defined away from vacuum")
    grid = rho0.grid
    if sample_dt is None:
        sample_dt = t_window / DEFAULT_SAMPLES_PER_WINDOW

    init = reform_state_from_density(rho0, u0, params)
    # neither solve reads the other, so they run concurrently
    (reform_traj, trace), oracle_traj = run_forked([
        ("reform solve", partial(picard_solve, init, params, 0.0, t_window,
                                 picard_tol, max_iter, sample_dt=sample_dt,
                                 cfl_safety=cfl_safety)),
        ("primitive solve", partial(primitive_solve, rho0, u0, params,
                                    t_window, sample_dt=sample_dt))])

    tr = np.asarray(reform_traj.times)
    to = np.asarray(oracle_traj.times)
    if tr.shape != to.shape or not np.allclose(tr, to, rtol=0.0, atol=1e-10):
        raise RuntimeError("solvers disagree on the sample grid")

    distances = []
    for i in range(len(tr)):
        prim, _ = reconstruct_primitive(reform_traj.state(i), params)
        orac = oracle_traj.states[i]
        d = math.sqrt(
            quadrature_l2(grid, prim.rho.values - orac.rho.values) ** 2
            + quadrature_l2(grid, prim.u.values - orac.u.values) ** 2)
        distances.append(d)
    return CrossCompareReport(
        times=tuple(float(t) for t in tr),
        distances=tuple(distances),
        sup_distance=max(distances),
        picard_converged=trace.converged,
        picard_iterations=trace.final_k,
    )

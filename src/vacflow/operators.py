"""Spatial operators of the reformulated degenerate-viscosity flow system.

The primitive unknowns (density rho, velocity u) are replaced by proxies
phi = rho^((gamma-1)/2) (pressure side) and vphi = rho^((delta1-1)/2)
(viscosity side). With frozen transport velocity v and frozen coefficients
phitilde, vphitilde, the linearized system is

    phi_t  + v.grad phi + ((gamma-1)/2) phitilde div u = 0,

    a1 (u_t + v.grad u) + ((gamma-1)/2) phitilde grad phi
      = a1 (vphi^2 + eta^2) [alpha Lap u + (alpha + beta vphi^(2m)) grad div u]
        + a1 (alpha delta1/(delta1-1)) Q1(v) . grad(vphi^2)
        + a1 (beta delta2/(delta2-1)) (div v) grad(vphi^(2m+2)),

    vphi_t + v.grad vphi + ((delta1-1)/2) vphitilde div v = 0,

where Q1(v) = grad v + (grad v)^T and a1 = (gamma-1)^2/(4 A gamma). Dividing
the momentum row by a1 turns the pressure coupling into 2 A gamma/(gamma-1)
phitilde grad phi and removes a1 everywhere else; both routes are implemented
and checked against each other. All products are dealiased (2/3 rule).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .fields import Grid, ScalarField, VectorField
from .params import FluidParams

STATE_FLOOR = -1e-12
POWER_UNDERFLOW = 1e-300


def stable_power(values: np.ndarray, p: float) -> np.ndarray:
    """values**p computed as exp(p log values), exactly 0 at or below the
    underflow guard 1e-300. Keeps fractional powers of clipped fields from
    producing NaN or denormal noise."""
    values = np.asarray(values, dtype=float)
    safe = values > POWER_UNDERFLOW
    out = np.zeros_like(values)
    out[safe] = np.exp(p * np.log(values[safe]))
    return out


@dataclass(frozen=True)
class ReformState:
    """One time slice (vphi, phi, u). The proxies must be nonnegative up to
    the clip tolerance; pass floor=None for signed data produced with
    clipping disabled."""

    vphi: ScalarField
    phi: ScalarField
    u: VectorField
    time: float = 0.0
    floor: InitVar[float | None] = STATE_FLOOR

    def __post_init__(self, floor):
        grid = self.vphi.grid
        if self.phi.grid != grid or self.u.grid != grid:
            raise ValueError("state components live on different grids")
        if floor is not None:
            for name, field in (("vphi", self.vphi), ("phi", self.phi)):
                low = float(field.values.min())
                if low < floor:
                    raise ValueError(
                        f"{name} has negative values below the clip "
                        f"tolerance: min = {low:.3e}"
                    )

    @property
    def grid(self) -> Grid:
        return self.vphi.grid


def advect(grid: Grid, v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """v . grad f for an already-truncated velocity v, with the truncated
    gradient of f from one inverse transform of ik_masked * fhat. f may
    carry a leading batch axis (several fields advected at once). The sum
    is left untruncated: each caller truncates it once together with its
    other products."""
    spectrum = np.expand_dims(grid.fft(f), -grid.dim - 1)
    return np.sum(v * grid.ifft(grid.ik_masked * spectrum), axis=-grid.dim - 1)


def deformation(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Q1(v)_ij = d_i v_j + d_j v_i, shape (dim, dim) + grid.shape."""
    jac = grid.grad(v)
    return jac + np.swapaxes(jac, 0, 1)


def convection_apply(params: FluidParams, V: ReformState, W: ReformState):
    """Convection slots of the symmetric form, evaluated at coefficients V
    and unknowns W: scalar slot v.grad phi + ((gamma-1)/2) phitilde div u,
    vector slot a1 v.grad u + ((gamma-1)/2) phitilde grad phi."""
    grid = W.grid
    v = V.u.values
    phitilde = V.phi.values
    half_gm1 = 0.5 * (params.gamma - 1.0)

    adv = grid.dealias(advect(grid, grid.dealias(v),
                              np.concatenate((W.phi.values[None], W.u.values))))
    div_u = grid.div(W.u.values)
    scalar = adv[0] + half_gm1 * grid.mult(phitilde, div_u)

    grad_phi = grid.grad(W.phi.values)
    vector = np.empty_like(W.u.values)
    for i in range(grid.dim):
        vector[i] = params.a1 * adv[1 + i] + half_gm1 * grid.mult(
            phitilde, grad_phi[i]
        )
    return ScalarField(grid, scalar), VectorField(grid, vector)


def viscous_apply(params: FluidParams, vphi: ScalarField, u: VectorField, eta: float):
    """The symmetric-form viscous operator with its left-side sign:
    -a1 (vphi^2 + eta^2) [alpha Lap u + (alpha + beta vphi^(2m)) grad div u]."""
    grid = u.grid
    weight = vphi.values**2 + eta**2
    c_shear = params.alpha * weight
    c_compr = weight * (params.alpha + params.beta * stable_power(vphi.values, 2.0 * params.m))
    gd = grid.grad_div(u.values)
    out = np.empty_like(u.values)
    for i in range(grid.dim):
        lap = grid.laplacian(u.values[i])
        out[i] = -params.a1 * (grid.mult(c_shear, lap) + grid.mult(c_compr, gd[i]))
    return VectorField(grid, out)


def source_apply(params: FluidParams, V: ReformState, vphi: ScalarField):
    """Degenerate source terms of the symmetric form:
    a1 (alpha delta1/(delta1-1)) Q1(v).grad(vphi^2)
    + a1 (beta delta2/(delta2-1)) (div v) grad(vphi^(2m+2))."""
    grid = vphi.grid
    v = V.u.values
    c1 = params.a1 * params.alpha * params.delta1 / (params.delta1 - 1.0)
    c2 = params.a1 * params.beta * params.delta2 / (params.delta2 - 1.0)
    q1 = deformation(grid, v)
    div_v = grid.div(v)
    grad_sq = grid.grad(vphi.values**2)
    grad_hi = grid.grad(stable_power(vphi.values, 2.0 * params.m + 2.0))
    out = np.zeros_like(v)
    for i in range(grid.dim):
        acc = np.zeros(grid.shape)
        for j in range(grid.dim):
            acc += grid.mult(q1[i, j], grad_sq[j])
        out[i] = c1 * acc + c2 * grid.mult(div_v, grad_hi[i])
    return VectorField(grid, out)


def momentum_rhs_symmetric(params, V: ReformState, vphi: ScalarField, eta: float, W: ReformState):
    """u_t assembled through the symmetric route: divide the a1-weighted
    momentum balance by a1 after summing its slots."""
    _, conv = convection_apply(params, V, W)
    visc = viscous_apply(params, vphi, W.u, eta)
    src = source_apply(params, V, vphi)
    return (-conv.values - visc.values + src.values) / params.a1


def momentum_rhs_componentwise(params, V: ReformState, vphi: ScalarField, eta: float, W: ReformState):
    """u_t assembled directly in evolution form, no a1 anywhere:
    -v.grad u - (2 A gamma/(gamma-1)) phitilde grad phi
    + (vphi^2+eta^2)[alpha Lap u + (alpha+beta vphi^(2m)) grad div u]
    + (alpha delta1/(delta1-1)) Q1(v).grad(vphi^2)
    + (beta delta2/(delta2-1)) (div v) grad(vphi^(2m+2))."""
    grid = W.grid
    v = V.u.values
    phitilde = V.phi.values
    press = 2.0 * params.A * params.gamma / (params.gamma - 1.0)
    weight = vphi.values**2 + eta**2
    c_shear = params.alpha * weight
    c_compr = weight * (params.alpha + params.beta * stable_power(vphi.values, 2.0 * params.m))
    s1 = params.alpha * params.delta1 / (params.delta1 - 1.0)
    s2 = params.beta * params.delta2 / (params.delta2 - 1.0)

    grad_phi = grid.grad(W.phi.values)
    gd = grid.grad_div(W.u.values)
    q1 = deformation(grid, v)
    div_v = grid.div(v)
    grad_sq = grid.grad(vphi.values**2)
    grad_hi = grid.grad(stable_power(vphi.values, 2.0 * params.m + 2.0))

    adv = grid.dealias(advect(grid, grid.dealias(v), W.u.values))
    out = np.empty_like(W.u.values)
    for i in range(grid.dim):
        lap = grid.laplacian(W.u.values[i])
        term = -adv[i] - press * grid.mult(phitilde, grad_phi[i])
        term += grid.mult(c_shear, lap) + grid.mult(c_compr, gd[i])
        acc = np.zeros(grid.shape)
        for j in range(grid.dim):
            acc += grid.mult(q1[i, j], grad_sq[j])
        term += s1 * acc + s2 * grid.mult(div_v, grad_hi[i])
        out[i] = term
    return out


def reformulation_gap(params, V: ReformState, vphi: ScalarField, eta: float, W: ReformState) -> float:
    """Max relative difference between the two momentum assembly routes."""
    a = momentum_rhs_symmetric(params, V, vphi, eta, W)
    b = momentum_rhs_componentwise(params, V, vphi, eta, W)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-30)
    return float(np.max(np.abs(a - b))) / scale


# -- ellipticity -------------------------------------------------------------

def _ellipticity_tables():
    """The quadratic-form coefficient table A^{pq}_{ij} in three dimensions,
    split as a1*alpha*T_alpha + a1*beta*vphi^(2m)*T_beta. Entries are
    enumerated literally; a test cross-checks them against the closed form
    a1 alpha |xi|^2 |zeta|^2 + a1 (alpha + beta vphi^(2m)) (xi.zeta)^2."""
    t_alpha = np.zeros((3, 3, 3, 3))
    t_beta = np.zeros((3, 3, 3, 3))
    for p in range(3):
        t_alpha[p, p, p, p] = 2.0
        t_beta[p, p, p, p] = 1.0
    for p in range(3):
        for i in range(3):
            if i != p:
                t_alpha[p, p, i, i] = 1.0
    for p in range(3):
        for q in range(3):
            if q != p:
                t_alpha[p, q, p, q] = 1.0
                t_beta[p, q, p, q] = 1.0
    return t_alpha, t_beta


_T_ALPHA, _T_BETA = _ellipticity_tables()


@dataclass(frozen=True)
class EllipticityReport:
    samples: int
    min_ratio: float
    coeff_min: float
    passed: bool
    seed: int


def ellipticity_check(
    params: FluidParams,
    vphi: ScalarField,
    samples: int = 10000,
    seed: int = 20250819,
) -> EllipticityReport:
    """Sample random directions xi, zeta and random grid cells, evaluate the
    table-based quadratic form, and compare against the isotropic floor
    a1*alpha. Passes when the worst ratio stays above 1 - 1e-9 and the
    compressive coefficient alpha + beta vphi^(2m) is positive on the grid."""
    if samples < 1:
        raise ValueError("samples must be positive")
    grid = vphi.grid
    d = grid.dim
    rng = np.random.default_rng(seed)
    flat = vphi.values.ravel()
    cells = rng.integers(0, flat.size, samples)
    pw = stable_power(flat[cells], 2.0 * params.m)

    def unit(nvec):
        raw = rng.standard_normal((samples, nvec))
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)

    xi = unit(d)
    zeta = unit(d)
    ta = _T_ALPHA[:d, :d, :d, :d]
    tb = _T_BETA[:d, :d, :d, :d]
    base = np.einsum("pqij,sp,sq,si,sj->s", ta, xi, xi, zeta, zeta)
    degen = np.einsum("pqij,sp,sq,si,sj->s", tb, xi, xi, zeta, zeta)
    form = params.a1 * params.alpha * base + params.a1 * params.beta * pw * degen
    ratio = form / (params.a1 * params.alpha)
    coeff = params.alpha + params.beta * stable_power(flat, 2.0 * params.m)
    min_ratio = float(ratio.min())
    coeff_min = float(coeff.min())
    return EllipticityReport(
        samples=samples,
        min_ratio=min_ratio,
        coeff_min=coeff_min,
        passed=bool(min_ratio >= 1.0 - 1e-9 and coeff_min > 0.0),
        seed=seed,
    )


def exponent_identity_residual(params: FluidParams, seed: int = 11) -> float:
    """Max relative residual of the exponent bookkeeping the operators rely
    on: (delta2-1)/(delta1-1) = m+1, (gamma-1)/(2 a1) = 2 A gamma/(gamma-1),
    and vphi^(2m+2) = vphi^(2m) * vphi^2 on a random positive field."""
    res = []
    lhs = (params.delta2 - 1.0) / (params.delta1 - 1.0)
    res.append(abs(lhs - (params.m + 1.0)) / abs(params.m + 1.0))
    lhs = (params.gamma - 1.0) / (2.0 * params.a1)
    rhs = 2.0 * params.A * params.gamma / (params.gamma - 1.0)
    res.append(abs(lhs - rhs) / abs(rhs))
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.0, 2.0, 256)
    a = stable_power(f, 2.0 * params.m + 2.0)
    b = stable_power(f, 2.0 * params.m) * f**2
    scale = max(float(np.max(np.abs(a))), 1e-30)
    res.append(float(np.max(np.abs(a - b))) / scale)
    return max(res)

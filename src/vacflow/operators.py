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
phitilde grad phi and removes a1 everywhere else. Both routes are here and
checked against each other: the symmetric one slot by slot, one truncated
product at a time, and the componentwise one through the batched kernels the
solver steps with (the stage assembly, _transport_rhs and _momentum_rhs), fed
masked spectra. All products are dealiased (2/3 rule).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cache
from typing import NamedTuple

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
    the clip tolerance; floor=None skips that check, for views of samples
    that the window solve clipped as it wrote them."""

    vphi: ScalarField
    phi: ScalarField
    u: VectorField
    floor: InitVar[float | None] = STATE_FLOOR

    def __post_init__(self, floor):
        grid = self.vphi.grid
        if self.phi.grid != grid or self.u.grid != grid:
            raise ValueError("state components live on different grids")
        if floor is None:
            return
        for name, proxy in (("vphi", self.vphi), ("phi", self.phi)):
            low = float(proxy.values.min())
            if low < floor:
                raise ValueError(f"{name} has negative values below the clip "
                                 f"tolerance: min = {low:.3e}")

    @property
    def grid(self) -> Grid:
        return self.vphi.grid

    @property
    def rows(self) -> np.ndarray:
        """The state as one new array of d + 2 rows, (vphi, phi, u): the
        layout of a window sample."""
        return np.concatenate(([self.vphi.values, self.phi.values], self.u.values))


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


# -- stage assembly and slope kernels ----------------------------------------


def _upper_pairs(d: int) -> list:
    """The (i, j), i <= j, of a symmetric d x d field in row-major order."""
    return [(i, j) for i in range(d) for j in range(i, d)]


@cache
def _q1_rows(d: int) -> tuple:
    """For each i, the indices into _upper_pairs(d) of (i, 0), ..., (i, d-1),
    a pair below the diagonal read as its mirror."""
    pairs = _upper_pairs(d)
    return tuple(tuple(pairs.index((min(i, j), max(i, j))) for j in range(d))
                 for i in range(d))


class _StageCoeffs:
    """Masked coefficient fields at one stage time: v, div v, the upper
    triangle of the symmetric Q1(v) (q1_upper, its d(d + 1)/2 entries in
    _upper_pairs order), phitilde and vphitilde, views into one packed array
    so that a time interpolation is a single operation."""

    __slots__ = ("packed", "v", "div_v", "q1_upper", "phit", "vphit")

    def __init__(self, grid: Grid, packed: np.ndarray):
        d = grid.dim
        self.packed = packed
        self.v = packed[:d]
        self.div_v = packed[d]
        self.q1_upper = packed[d + 1:-2]
        self.phit = packed[-2]
        self.vphit = packed[-1]


def _mask_coefficients(grid: Grid, v, phit, vphit) -> _StageCoeffs:
    """Truncate one set of raw coefficients into a stage: one forward
    transform of (v, phitilde, vphitilde), one inverse of their masked
    spectra and the upper triangle of the masked Q1(v), which is all of
    Q1 the stage keeps."""
    d = grid.dim
    spectra = grid.fft(np.concatenate((v, [phit, vphit])))
    q1_hat = [grid.ik_masked[i] * spectra[j] + grid.ik_masked[j] * spectra[i]
              for i, j in _upper_pairs(d)]
    masked = grid.ifft(np.concatenate((grid.dealias_mask * spectra, q1_hat)))
    stage = _StageCoeffs(grid, np.empty((d * (d + 1) // 2 + d + 3,) + grid.shape))
    stage.v[...] = masked[:d]
    stage.phit[...] = masked[d]
    stage.vphit[...] = masked[d + 1]
    stage.q1_upper[...] = masked[d + 2:]
    # div v = tr Q1(v) / 2
    stage.div_v[...] = 0.5 * sum(stage.q1_upper[_q1_rows(d)[i][i]] for i in range(d))
    return stage


def _slope_spectrum(grid: Grid, products: np.ndarray, forcing) -> np.ndarray:
    """Minus the truncated spectrum of the summed products plus the
    untruncated one of the forcing, both from one forward transform."""
    if forcing is None:
        return -(grid.dealias_mask * grid.fft(products))
    spectra = grid.fft(np.stack((products, np.broadcast_to(forcing, products.shape))))
    return spectra[1] - grid.dealias_mask * spectra[0]


def _transport_rhs(grid, params, stage: _StageCoeffs, f_hat: np.ndarray, forcing_val):
    """Slope spectrum of -(v.grad f + ((delta1-1)/2) vphitilde div v) plus
    the forcing, from the truncated gradient of f; f_hat is one spectrum or
    a stack of them."""
    axis = -grid.dim - 1
    grad = grid.ifft(grid.ik_masked * np.expand_dims(f_hat, axis))
    products = (np.sum(stage.v * grad, axis=axis)
                + 0.5 * (params.delta1 - 1.0) * stage.vphit * stage.div_v)
    return _slope_spectrum(grid, products, forcing_val)


def coefficient_floor(params: FluidParams) -> float:
    """alpha/2, the least the compressive coefficient alpha + beta vphi^(2m)
    may reach: a momentum step aborts below it, and validity certifies a
    sample only at or above it."""
    return 0.5 * params.alpha


def _viscosities(params, sq: np.ndarray, power: np.ndarray, eta: float):
    """c_shear and c_compr, then the compressive coefficient
    params.compressive(power), from vphi^2 and power = vphi^(2m)."""
    weight = sq + eta**2
    compr = params.compressive(power)
    return params.alpha * weight, weight * compr, compr


def _viscous_fields(params, vphi: np.ndarray, eta: float, power: np.ndarray):
    """The momentum coefficients (vphi^2, vphi^(2m+2), c_shear, c_compr)
    stacked along a new leading axis, from vphi and power = vphi^(2m)."""
    sq = vphi**2
    c_shear, c_compr, _ = _viscosities(params, sq, power, eta)
    return np.stack((sq, power * sq, c_shear, c_compr))


def _momentum_rhs(grid, params, stage: _StageCoeffs, coeff_hat: np.ndarray,
                  y_hat: np.ndarray, nu1, nu2, forcing):
    """Slope spectra of the stacked (phi, u) spectra y_hat: the right-hand
    side minus the shift (nu1 Lap + nu2 grad div) u, coeff_hat the spectra
    of one stage's _viscous_fields. The factors go to physical space a
    group at a time: one inverse of those every row reads (div u, masked
    c_shear and c_compr, the masked gradient of vphi^2), one of the masked
    gradient of phi for the phi row, and per velocity component i one of
    the factors its row alone reads (the masked gradient of u_i, Lap u_i,
    d_i div u, d_i phi, the masked d_i vphi^(2m+2)). Each row's product is
    written into one buffer, and one forward truncates all d + 1 of them.
    div u, Lap u, grad div u and grad phi are truncated exactly when y_hat
    is: the solver passes raw spectra, so those factors alias into the kept
    band, and reform_slopes passes masked ones, which truncates every
    factor."""
    d = grid.dim
    press = 2.0 * params.A * params.gamma / (params.gamma - 1.0)
    s1 = params.alpha * params.delta1 / (params.delta1 - 1.0)
    s2 = params.beta * params.delta2 / (params.delta2 - 1.0)

    u_hat = y_hat[1:]
    div_u_hat = np.sum(grid.ik * u_hat, axis=0)
    shared = grid.ifft(np.concatenate((
        [div_u_hat], grid.dealias_mask * coeff_hat[2:],
        grid.ik_masked * coeff_hat[0])))
    (div_u, c_shear_m, c_compr_m), grad_sq_m = shared[:3], shared[3:]
    press_phit, s2_div_v = press * stage.phit, s2 * stage.div_v

    products = np.empty((d + 1,) + grid.shape)
    np.sum(stage.v * grid.ifft(grid.ik_masked * y_hat[0]), axis=0, out=products[0])
    products[0] += 0.5 * (params.gamma - 1.0) * stage.phit * div_u
    for i in range(d):
        own = grid.ifft(np.concatenate((
            grid.ik_masked * u_hat[i],
            [-grid.k_squared * u_hat[i], grid.ik[i] * div_u_hat,
             grid.ik[i] * y_hat[0], grid.ik_masked[i] * coeff_hat[1]])))
        lap, gd, grad_phi, grad_hi_m = own[d:]
        # Q1_i . grad vphi^2, summed over j = 0, 1, ... through the triangle
        row = _q1_rows(d)[i]
        q1_grad = stage.q1_upper[row[0]] * grad_sq_m[0]
        for r, grad in zip(row[1:], grad_sq_m[1:]):
            q1_grad += stage.q1_upper[r] * grad
        np.sum(stage.v * own[:d], axis=0, out=products[1 + i])
        products[1 + i] += (press_phit * grad_phi - c_shear_m * lap - c_compr_m * gd
                            - s1 * q1_grad - s2_div_v * grad_hi_m)
    slopes = _slope_spectrum(grid, products, forcing)
    slopes[1:] -= nu1 * (-grid.k_squared * u_hat) + nu2 * (grid.ik * div_u_hat)
    return slopes


# -- the two momentum routes -------------------------------------------------


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


def reform_slopes(params, V: ReformState, vphi: ScalarField, eta: float,
                  W: ReformState) -> np.ndarray:
    """Slope spectra of (W.vphi, W.phi, W.u) under the reformulated system,
    coefficients from V and the viscosity proxy vphi: the solver's kernels
    _transport_rhs and _momentum_rhs on the stage of (V.u, V.phi, vphi) and
    the masked spectra of W, with no shift (nu1 = nu2 = 0). Masking the
    unknowns truncates both factors of every product, as Grid.mult does,
    because truncation is linear."""
    grid = W.grid
    d = grid.dim
    stage = _mask_coefficients(grid, V.u.values, V.phi.values, vphi.values)
    fields = _viscous_fields(params, vphi.values, eta,
                             stable_power(vphi.values, 2.0 * params.m))
    spectra = grid.dealias_mask * grid.fft(np.concatenate((W.rows, fields)))
    y_hat, coeff_hat = spectra[1:d + 2], spectra[d + 2:]
    return np.concatenate((
        _transport_rhs(grid, params, stage, spectra[0], None)[None],
        _momentum_rhs(grid, params, stage, coeff_hat, y_hat, 0.0, 0.0, None)))


def momentum_rhs_componentwise(params, V: ReformState, vphi: ScalarField, eta: float, W: ReformState):
    """u_t assembled directly in evolution form, no a1 anywhere:
    -v.grad u - (2 A gamma/(gamma-1)) phitilde grad phi
    + (vphi^2+eta^2)[alpha Lap u + (alpha+beta vphi^(2m)) grad div u]
    + (alpha delta1/(delta1-1)) Q1(v).grad(vphi^2)
    + (beta delta2/(delta2-1)) (div v) grad(vphi^(2m+2)),
    the u rows of reform_slopes."""
    return W.grid.ifft(reform_slopes(params, V, vphi, eta, W)[2:])


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


class EllipticityReport(NamedTuple):
    min_ratio: float
    coeff_min: float
    passed: bool


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
    coeff = params.compressive(stable_power(flat, 2.0 * params.m))
    min_ratio = float(ratio.min())
    coeff_min = float(coeff.min())
    return EllipticityReport(
        min_ratio=min_ratio,
        coeff_min=coeff_min,
        passed=bool(min_ratio >= 1.0 - 1e-9 and coeff_min > 0.0),
    )


def exponent_identity_residual(params: FluidParams) -> float:
    """Max relative residual of the exponent bookkeeping the operators rely
    on: (delta2-1)/(delta1-1) = m+1, (gamma-1)/(2 a1) = 2 A gamma/(gamma-1),
    and vphi^(2m+2) = vphi^(2m) * vphi^2 on 256 evenly spaced values in
    [0, 2] (not random ones: numpy.random loads OpenSSL into every solve),
    compared where both sides are finite (a large m overflows near 2). A
    nan residual comes back as nan."""
    res = []
    lhs = (params.delta2 - 1.0) / (params.delta1 - 1.0)
    res.append(abs(lhs - (params.m + 1.0)) / abs(params.m + 1.0))
    lhs = (params.gamma - 1.0) / (2.0 * params.a1)
    rhs = 2.0 * params.A * params.gamma / (params.gamma - 1.0)
    res.append(abs(lhs - rhs) / abs(rhs))
    f = np.linspace(0.0, 2.0, 256)
    with np.errstate(over="ignore"):
        a = stable_power(f, 2.0 * params.m + 2.0)
        b = stable_power(f, 2.0 * params.m) * f**2
    finite = np.isfinite(a) & np.isfinite(b)
    a, b = a[finite], b[finite]
    scale = max(float(np.max(np.abs(a))), 1e-30)
    res.append(float(np.max(np.abs(a - b))) / scale)
    return float(np.max(res))

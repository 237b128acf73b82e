"""Spatial operator assembly, its two momentum routes, and ellipticity."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacflow.fields import Grid, ScalarField, VectorField
from vacflow.operators import (
    _T_ALPHA,
    _T_BETA,
    ReformState,
    advect,
    convection_apply,
    deformation,
    ellipticity_check,
    exponent_identity_residual,
    reformulation_gap,
    source_apply,
    stable_power,
    viscous_apply,
)
from vacflow.params import validate_params

from stacking import deriv


def soft_params():
    return validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-0.1,
                           delta1=1.5, delta2=2.5)


def band_limited(grid, rng, lo=0.0, hi=1.0):
    """Random real field supported on |mode| <= n//4, rescaled into [lo, hi]."""
    spec = np.zeros(grid.shape, dtype=complex)
    cut = grid.n // 4
    mask = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        m = np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(int)
        m = m.reshape([-1 if a == axis else 1 for a in range(grid.dim)])
        mask &= np.abs(m) <= cut
    spec[mask] = rng.standard_normal(int(mask.sum())) + 1j * rng.standard_normal(
        int(mask.sum()))
    f = np.fft.ifftn(spec).real
    f = (f - f.min()) / max(f.max() - f.min(), 1e-30)
    return lo + (hi - lo) * f


def random_state(grid, rng, vmax=0.5):
    vphi = ScalarField(grid, band_limited(grid, rng, 0.1, 0.9))
    phi = ScalarField(grid, band_limited(grid, rng, 0.0, 0.7))
    u = VectorField(
        grid,
        np.stack([vmax * (2.0 * band_limited(grid, rng) - 1.0)
                  for _ in range(grid.dim)]),
    )
    return ReformState(vphi=vphi, phi=phi, u=u)


def test_stable_power_matches_numpy_on_positive_values():
    x = np.linspace(0.01, 3.0, 50)
    assert np.allclose(stable_power(x, 2.7), x**2.7, rtol=1e-14)


def test_stable_power_is_exactly_zero_at_and_below_zero():
    x = np.array([0.0, -1e-13, -2.0, 1e-301])
    out = stable_power(x, 0.5)
    assert np.all(out == 0.0)


def test_state_rejects_mixed_grids():
    g1 = Grid(dim=1, n=16, box_length=1.0)
    g2 = Grid(dim=1, n=32, box_length=1.0)
    with pytest.raises(ValueError, match="different grids"):
        ReformState(
            vphi=ScalarField(g1, np.zeros(16)),
            phi=ScalarField(g2, np.zeros(32)),
            u=VectorField(g1, np.zeros((1, 16))),
        )


def test_state_floor_rejects_negative_proxies_but_none_allows():
    g = Grid(dim=1, n=16, box_length=1.0)
    bad = np.full(16, -1e-6)
    with pytest.raises(ValueError, match="negative"):
        ReformState(
            vphi=ScalarField(g, bad),
            phi=ScalarField(g, np.zeros(16)),
            u=VectorField(g, np.zeros((1, 16))),
        )
    st = ReformState(
        vphi=ScalarField(g, bad),
        phi=ScalarField(g, np.zeros(16)),
        u=VectorField(g, np.zeros((1, 16))),
        floor=None,
    )
    assert st.vphi.values.min() == -1e-6


def test_advect_constant_velocity_single_mode():
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    f = np.sin(3.0 * x)
    v = np.full((1,) + g.shape, 0.7)
    out = advect(g, v, f)
    assert np.max(np.abs(out - 0.7 * 3.0 * np.cos(3.0 * x))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_advect_of_truncated_velocity_equals_the_product_loop(seed, dim):
    # Unresolved data on purpose: every mode is populated, so the
    # truncations matter. The reference is the former per-component form
    # with both factors and the product truncated by Grid.mult; advect
    # leaves its sum for the caller to truncate.
    g = Grid(dim=dim, n=16, box_length=2.0 * np.pi)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((dim,) + g.shape)
    f = rng.standard_normal(g.shape)
    want = np.zeros(g.shape)
    for i in range(dim):
        order = tuple(int(a == i) for a in range(dim))
        want += g.mult(v[i], deriv(g, f, order))
    got = g.dealias(advect(g, g.dealias(v), f))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       batch=st.integers(1, 4))
def test_batched_advect_equals_the_per_field_loop(seed, dim, batch):
    g = Grid(dim=dim, n=8, box_length=2.0 * np.pi)
    rng = np.random.default_rng(seed)
    v = g.dealias(rng.standard_normal((dim,) + g.shape))
    f = rng.standard_normal((batch,) + g.shape)
    want = np.stack([advect(g, v, f[b]) for b in range(batch)])
    got = advect(g, v, f)
    assert got.shape == f.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_deformation_is_symmetric_with_analytic_entries():
    g = Grid(dim=2, n=32, box_length=2.0 * np.pi)
    _, y = g.coordinates
    v = np.zeros((2,) + g.shape)
    v[0] = np.broadcast_to(np.sin(2.0 * y), g.shape)
    q1 = deformation(g, v)
    expect = np.broadcast_to(2.0 * np.cos(2.0 * y), g.shape)
    assert np.max(np.abs(q1[0, 1] - expect)) < 1e-12
    assert np.max(np.abs(q1[1, 0] - expect)) < 1e-12
    assert np.max(np.abs(q1[0, 0])) < 1e-13
    assert np.max(np.abs(q1[1, 1])) < 1e-13


def test_convection_zero_coefficients_gives_zero():
    p = soft_params()
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    rng = np.random.default_rng(5)
    W = random_state(g, rng)
    V = ReformState(
        vphi=ScalarField(g, np.zeros(g.shape)),
        phi=ScalarField(g, np.zeros(g.shape)),
        u=VectorField(g, np.zeros((1,) + g.shape)),
    )
    scalar, vector = convection_apply(p, V, W)
    assert np.abs(scalar.values).max() == 0.0
    assert np.abs(vector.values).max() == 0.0


def test_convection_constant_pressure_coefficient_single_mode():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    p0 = 0.6
    V = ReformState(
        vphi=ScalarField(g, np.zeros(g.shape)),
        phi=ScalarField(g, np.full(g.shape, p0)),
        u=VectorField(g, np.zeros((1,) + g.shape)),
    )
    W = ReformState(
        vphi=ScalarField(g, np.zeros(g.shape)),
        phi=ScalarField(g, np.sin(2.0 * x)),
        u=VectorField(g, np.cos(5.0 * x)[None, :]),
        floor=None,
    )
    scalar, vector = convection_apply(p, V, W)
    half_gm1 = 0.5 * (p.gamma - 1.0)
    want_scalar = half_gm1 * p0 * (-5.0 * np.sin(5.0 * x))
    want_vector = half_gm1 * p0 * 2.0 * np.cos(2.0 * x)
    assert np.max(np.abs(scalar.values - want_scalar)) < 1e-12
    assert np.max(np.abs(vector.values[0] - want_vector)) < 1e-12


def test_viscous_vanishes_in_full_degeneracy():
    p = soft_params()
    g = Grid(dim=1, n=32, box_length=2.0 * np.pi)
    u = VectorField(g, np.sin(3.0 * g.coordinates[0])[None, :])
    out = viscous_apply(p, ScalarField(g, np.zeros(g.shape)), u, eta=0.0)
    assert np.abs(out.values).max() == 0.0


def test_viscous_single_mode_constant_coefficient_oracle():
    p = soft_params()
    g = Grid(dim=1, n=64, box_length=2.0 * np.pi)
    x = g.coordinates[0]
    c, eta, k = 0.8, 0.3, 3.0
    u = VectorField(g, np.sin(k * x)[None, :])
    out = viscous_apply(p, ScalarField(g, np.full(g.shape, c)), u, eta)
    # 1d: laplacian and grad div coincide, so the prefactor doubles the
    # shear viscosity and adds the compressive correction
    factor = p.a1 * (c**2 + eta**2) * (2.0 * p.alpha + p.beta * c**(2 * p.m))
    want = factor * k**2 * np.sin(k * x)
    assert np.max(np.abs(out.values[0] - want)) < 1e-10


def test_viscous_divergence_free_mode_reduces_to_shear_laplacian():
    p = soft_params()
    g = Grid(dim=2, n=32, box_length=2.0 * np.pi)
    _, y = g.coordinates
    c, eta, k = 0.5, 0.2, 2.0
    u = np.zeros((2,) + g.shape)
    u[0] = np.broadcast_to(np.sin(k * y), g.shape)
    out = viscous_apply(p, ScalarField(g, np.full(g.shape, c)),
                        VectorField(g, u), eta)
    want = p.a1 * (c**2 + eta**2) * p.alpha * k**2 * u[0]
    assert np.max(np.abs(out.values[0] - want)) < 1e-10
    assert np.max(np.abs(out.values[1])) < 1e-12


def test_source_zero_for_constant_proxy_or_still_coefficients():
    p = soft_params()
    g = Grid(dim=2, n=16, box_length=2.0 * np.pi)
    rng = np.random.default_rng(7)
    V = random_state(g, rng)
    const = ReformState(
        vphi=ScalarField(g, np.full(g.shape, 0.4)),
        phi=ScalarField(g, np.zeros(g.shape)),
        u=VectorField(g, np.zeros((2,) + g.shape)),
    )
    out = source_apply(p, V, const.vphi)
    assert np.abs(out.values).max() < 1e-13
    out = source_apply(p, const, V.vphi)
    assert np.abs(out.values).max() == 0.0


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_momentum_routes_agree_on_random_smooth_states(dim, n):
    p = soft_params()
    g = Grid(dim=dim, n=n, box_length=2.0 * np.pi)
    rng = np.random.default_rng(100 + dim)
    for _ in range(3):
        V = random_state(g, rng)
        W = random_state(g, rng)
        gap = reformulation_gap(p, V, V.vphi, 0.25, W)
        assert gap <= 1e-9


def test_momentum_routes_agree_with_negative_beta_near_cap():
    p = validate_params(A=0.5, gamma=3.0, alpha=0.7, beta=-0.4,
                        delta1=2.0, delta2=3.5)
    g = Grid(dim=2, n=32, box_length=2.0 * np.pi)
    rng = np.random.default_rng(42)
    V = random_state(g, rng)
    W = random_state(g, rng)
    assert reformulation_gap(p, V, V.vphi, 0.0, W) <= 1e-9


def test_ellipticity_tables_match_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(200):
        xi = rng.standard_normal(3)
        zeta = rng.standard_normal(3)
        base = np.einsum("pqij,p,q,i,j->", _T_ALPHA, xi, xi, zeta, zeta)
        degen = np.einsum("pqij,p,q,i,j->", _T_BETA, xi, xi, zeta, zeta)
        dot = float(xi @ zeta)
        want_base = float(xi @ xi) * float(zeta @ zeta) + dot**2
        assert base == pytest.approx(want_base, rel=1e-12)
        assert degen == pytest.approx(dot**2, rel=1e-12, abs=1e-12)


def test_ellipticity_hand_values_aligned_and_orthogonal():
    # unit xi = zeta = e1 gives ratio 1 + (1 + (beta/alpha) w); orthogonal
    # directions give exactly 1
    alpha, beta, w = 1.0, -1.0, 0.5
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    base = np.einsum("pqij,p,q,i,j->", _T_ALPHA, e1, e1, e1, e1)
    degen = np.einsum("pqij,p,q,i,j->", _T_BETA, e1, e1, e1, e1)
    assert alpha * base + beta * w * degen == pytest.approx(1.5)
    base = np.einsum("pqij,p,q,i,j->", _T_ALPHA, e1, e1, e2, e2)
    degen = np.einsum("pqij,p,q,i,j->", _T_BETA, e1, e1, e2, e2)
    assert alpha * base + beta * w * degen == pytest.approx(1.0)


def test_ellipticity_check_passes_for_nonnegative_beta():
    p = validate_params(A=1.0, gamma=2.0, alpha=0.9, beta=0.8,
                        delta1=1.5, delta2=2.5)
    g = Grid(dim=2, n=16, box_length=2.0 * np.pi)
    rng = np.random.default_rng(1)
    vphi = ScalarField(g, band_limited(g, rng, 0.0, 2.0))
    rep = ellipticity_check(p, vphi, samples=4000, seed=99)
    assert rep.passed
    assert rep.min_ratio >= 1.0 - 1e-9
    assert rep.coeff_min >= p.alpha


def test_ellipticity_check_fails_past_the_coefficient_floor():
    p = validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-1.0,
                        delta1=1.5, delta2=2.5)
    g = Grid(dim=1, n=16, box_length=1.0)
    vphi = ScalarField(g, np.full(16, 1.2))
    rep = ellipticity_check(p, vphi, samples=500, seed=2)
    assert rep.coeff_min < 0.0
    assert not rep.passed


def test_ellipticity_check_is_seeded_and_validates_samples():
    p = soft_params()
    g = Grid(dim=1, n=16, box_length=1.0)
    vphi = ScalarField(g, np.full(16, 0.5))
    a = ellipticity_check(p, vphi, samples=300, seed=7)
    b = ellipticity_check(p, vphi, samples=300, seed=7)
    assert a.min_ratio == b.min_ratio
    with pytest.raises(ValueError):
        ellipticity_check(p, vphi, samples=0)


@pytest.mark.parametrize("kwargs", [
    dict(A=1.0, gamma=2.0, alpha=1.0, beta=-0.1, delta1=1.5, delta2=2.5),
    dict(A=2.0, gamma=1.4, alpha=0.3, beta=0.7, delta1=2.0, delta2=3.5),
    dict(A=0.5, gamma=3.0, alpha=1.0, beta=0.0, delta1=3.0, delta2=6.0),
])
def test_exponent_identities_hold(kwargs):
    p = validate_params(**kwargs)
    assert exponent_identity_residual(p) <= 1e-12


def test_exponent_identities_compare_only_finite_powers_when_m_is_large():
    # delta1 = 1.001, delta2 = 2 is admissible with m = 999, so vphi^(2m+2)
    # overflows near vphi = 2; inf - inf there must not hide the comparison
    p = validate_params(A=1.0, gamma=3.0, alpha=1.0, beta=0.5,
                        delta1=1.001, delta2=2.0)
    assert round(p.m) == 999
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = exponent_identity_residual(p)
    assert np.isfinite(residual) and residual <= 1e-10

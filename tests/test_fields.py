"""Grid, derivative, norm, and snapshot behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacflow.fields import (
    FieldError,
    Grid,
    ScalarField,
    VectorField,
    derivative,
    load_snapshot,
    quadrature_l2,
    save_snapshot,
    seminorm,
    sobolev_norm,
    support_margin,
    weighted_seminorm,
)

L = 2.0 * math.pi


def grid1d(n=64):
    return Grid(dim=1, n=n, box_length=L)


def test_grid_rejects_bad_shapes():
    with pytest.raises(FieldError):
        Grid(dim=1, n=6, box_length=L)
    with pytest.raises(FieldError):
        Grid(dim=1, n=48, box_length=L)
    with pytest.raises(FieldError):
        Grid(dim=4, n=16, box_length=L)
    with pytest.raises(FieldError):
        Grid(dim=1, n=16, box_length=0.0)


def test_grid_geometry():
    g = Grid(dim=2, n=16, box_length=4.0)
    assert g.spacing == 0.25
    assert g.shape == (16, 16)
    assert g.cell_volume == 0.0625
    assert len(g.coordinates) == 2


def test_derivative_of_constant_is_zero():
    g = grid1d()
    f = ScalarField(g, np.full(g.shape, 3.7))
    for order in ((1,), (2,), (3,), (4,)):
        assert derivative(f, order).linf() == 0.0


def test_derivative_of_single_mode_is_analytic():
    g = grid1d(128)
    x = g.coordinates[0].ravel()
    f = ScalarField(g, np.sin(2.0 * np.pi * x / L))
    df = derivative(f, (1,))
    want = (2.0 * np.pi / L) * np.cos(2.0 * np.pi * x / L)
    assert np.max(np.abs(df.values - want)) < 1e-13


def test_product_rule_identity_for_resolved_products():
    # With both factors band-limited well inside the 2/3 band, the pointwise
    # product is exactly representable and the Laplacian identity
    # lap(fg) = f lap g + g lap f + 2 grad f . grad g holds to roundoff.
    g = Grid(dim=2, n=64, box_length=L)
    x, y = g.coordinates
    f = np.sin(3 * x) * np.cos(2 * y)
    h = np.cos(5 * x) + np.sin(y)

    def lap(a):
        return g.deriv(a, (2, 0)) + g.deriv(a, (0, 2))

    lhs = lap(f * h)
    rhs = (f * lap(h) + h * lap(f)
           + 2.0 * (g.deriv(f, (1, 0)) * g.deriv(h, (1, 0))
                    + g.deriv(f, (0, 1)) * g.deriv(h, (0, 1))))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cached_multipliers_are_read_only_and_stay_intact(dim):
    g = Grid(dim=dim, n=16, box_length=L)
    e0 = tuple(int(a == 0) for a in range(dim))
    assert np.array_equal(g.derivative_multiplier(e0), g.ik[0])
    second = (2,) + (0,) * (dim - 1)
    for arr in (g.derivative_multiplier(e0), g.derivative_multiplier(second),
                g.ik, g.ik_masked, *g.k_projection):
        with pytest.raises(ValueError):
            arr[...] = 0.0
    # the masked multiplier is the plain one with the 2/3 rule applied
    for axis in range(dim):
        assert np.array_equal(g.ik_masked[axis], g.dealias_mask * g.ik[axis])

    rng = np.random.default_rng(dim)
    f = rng.standard_normal(g.shape)
    u = VectorField(g, rng.standard_normal((dim,) + g.shape))
    w = ScalarField(g, rng.uniform(0.5, 1.5, g.shape))
    order = (1,) * dim
    first = g.deriv(f, order)
    norms = [weighted_seminorm(w, u, k) for k in (1, 2, 3)]
    assert np.array_equal(g.deriv(f, order), first)
    assert [weighted_seminorm(w, u, k) for k in (1, 2, 3)] == norms


def test_l2_norm_of_constant():
    g = Grid(dim=3, n=8, box_length=2.0)
    c = -1.25
    f = ScalarField(g, np.full(g.shape, c))
    vol = 2.0**3
    for s in range(4):
        assert sobolev_norm(f, s) == pytest.approx(abs(c) * math.sqrt(vol),
                                                   rel=1e-14)


def test_l2_norm_of_sine_mode():
    g = grid1d(64)
    x = g.coordinates[0]
    f = ScalarField(g, np.sin(2.0 * np.pi * x / L).ravel())
    assert quadrature_l2(g, f.values) == pytest.approx(math.sqrt(L / 2.0),
                                                       rel=1e-14)


def test_h1_norm_splits_into_l2_plus_gradient():
    g = grid1d(64)
    rng = np.random.default_rng(7)
    spectrum = np.zeros(g.n, dtype=complex)
    for k in range(1, 9):
        amp = rng.normal() + 1j * rng.normal()
        spectrum[k] = amp
        spectrum[-k] = np.conj(amp)
    f = ScalarField(g, np.fft.ifft(spectrum).real)
    df = derivative(f, (1,))
    lhs = sobolev_norm(f, 1) ** 2
    rhs = sobolev_norm(f, 0) ** 2 + quadrature_l2(g, df.values) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), kmax=st.integers(1, 10))
def test_sobolev_norms_nondecreasing_in_order(seed, kmax):
    g = grid1d(32)
    rng = np.random.default_rng(seed)
    x = g.coordinates[0].ravel()
    vals = sum(rng.normal() * np.sin(k * x + rng.uniform(0, 2 * np.pi))
               for k in range(1, kmax + 1))
    f = ScalarField(g, vals)
    norms = [sobolev_norm(f, s) for s in range(4)]
    for a, b in zip(norms, norms[1:]):
        assert b >= a - 1e-12 * max(1.0, a)


def complex_spectral_norm(field, power):
    """sqrt(sum_k w(|k|^2) |fhat_k|^2 L^dim) over the full complex spectrum,
    fhat = fftn(f) / n^dim, all components summed; w = power(|k|^2)."""
    g = field.grid
    k = 2.0 * np.pi / g.box_length * np.fft.fftfreq(g.n, 1.0 / g.n)
    k2 = sum(np.reshape(k, [-1 if a == axis else 1 for a in range(g.dim)])**2
             for axis in range(g.dim))
    comps = field.values.reshape((-1,) + g.shape)
    total = sum(np.sum(power(k2) * np.abs(np.fft.fftn(c))**2) for c in comps)
    return math.sqrt(total * g.box_length**g.dim / g.n**(2 * g.dim))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       vector=st.booleans())
def test_half_spectrum_norms_equal_the_complex_sums(seed, dim, vector):
    # White noise fills the Nyquist planes, whose half-spectrum weight is 1
    # against 2 for the interior last-axis modes.
    g = Grid(dim=dim, n=8, box_length=1.7)
    rng = np.random.default_rng(seed)
    if vector:
        f = VectorField(g, rng.standard_normal((dim,) + g.shape))
    else:
        f = ScalarField(g, rng.standard_normal(g.shape))
    for s in range(4):
        want = complex_spectral_norm(f, lambda k2: (1.0 + k2)**s)
        assert sobolev_norm(f, s) == pytest.approx(want, rel=1e-12)
    for k in range(5):
        want = complex_spectral_norm(f, lambda k2: k2**k)
        assert seminorm(f, k) == pytest.approx(want, rel=1e-12)


def test_weighted_seminorm_unit_weight_matches_unweighted():
    g = grid1d(64)
    x = g.coordinates[0]
    u = VectorField(g, (np.sin(3 * x) + 0.5 * np.cos(x)).reshape(1, -1))
    w1 = ScalarField(g, np.ones(g.shape))
    du = derivative(ScalarField(g, u.values[0]), (1,))
    assert weighted_seminorm(w1, u, 1) == pytest.approx(
        quadrature_l2(g, du.values), rel=1e-13)


def test_weighted_seminorm_zero_weight_is_zero():
    g = grid1d(32)
    u = VectorField(g, np.sin(g.coordinates[0]).reshape(1, -1))
    w0 = ScalarField(g, np.zeros(g.shape))
    assert weighted_seminorm(w0, u, 2) == 0.0


def test_weighted_seminorm_against_fine_quadrature():
    # Brute-force check: evaluate |w u'|_2 analytically on a grid four times
    # finer. The weight is a wide periodic Gaussian (spectrally tiny tail),
    # the velocity a single Fourier mode, so both resolve on each grid.
    # sigma small enough that the Gaussian and its derivatives vanish to
    # roundoff at the seam, so the periodic extension is smooth in floats
    n = 128
    g = grid1d(n)
    x = g.coordinates[0].ravel()
    sig = 0.4
    center = L / 2.0

    def w_of(xx):
        return np.exp(-((xx - center) ** 2) / (2.0 * sig**2))

    def du_of(xx):
        return 3.0 * np.cos(3.0 * xx)

    w = ScalarField(g, w_of(x))
    u = VectorField(g, np.sin(3.0 * x).reshape(1, -1))
    got = weighted_seminorm(w, u, 1)

    xf = np.arange(4 * n) * (L / (4 * n))
    want = math.sqrt(np.sum((w_of(xf) * du_of(xf)) ** 2) * (L / (4 * n)))
    assert got == pytest.approx(want, abs=1e-10, rel=1e-10)


def test_support_margin_cases():
    g = grid1d(64)
    x = g.coordinates[0].ravel()
    empty = ScalarField(g, np.zeros(g.shape))
    assert support_margin(empty, 1e-12) == math.inf

    vals = np.where(np.abs(x - L / 2) < 0.5, 1.0, 0.0)
    f = ScalarField(g, vals)
    m = support_margin(f, 1e-12)
    inside = x[vals > 0]
    want = min(inside.min(), L - inside.max())
    assert m == pytest.approx(want, abs=1e-12)

    # threshold hides small values
    vals2 = np.full(g.shape, 1e-9)
    vals2[g.n // 2] = 1.0
    f2 = ScalarField(g, vals2)
    assert support_margin(f2, 1e-6) == pytest.approx(L / 2.0, abs=g.spacing)
    assert support_margin(f2, 1e-12) == 0.0


def test_snapshot_roundtrip_bitexact(tmp_path):
    g = Grid(dim=2, n=16, box_length=3.0)
    rng = np.random.default_rng(3)
    u = VectorField(g, rng.normal(size=(2, 16, 16)))
    p = tmp_path / "field.snap"
    save_snapshot(p, u, "velocity", time=0.25)
    back, role, t = load_snapshot(p)
    assert role == "velocity"
    assert t == 0.25
    assert isinstance(back, VectorField)
    assert np.array_equal(back.values, u.values)

    p2 = tmp_path / "rho.snap"
    rho = ScalarField(g, np.abs(rng.normal(size=(16, 16))))
    save_snapshot(p2, rho, "density")
    back2, role2, _ = load_snapshot(p2)
    assert role2 == "density"
    assert np.array_equal(back2.values, rho.values)


def test_snapshot_rejects_garbage(tmp_path):
    p = tmp_path / "bad.snap"
    p.write_bytes(b"not a snapshot at all")
    with pytest.raises(FieldError):
        load_snapshot(p)


def test_fields_require_finite_values():
    g = grid1d(32)
    bad = np.ones(g.shape)
    bad[3] = np.nan
    with pytest.raises(FieldError):
        ScalarField(g, bad)

"""Admissibility classification, derived constants, and the density cap."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacflow.fields import Grid, ScalarField
from vacflow.params import (
    ParameterError,
    check_initial_compatibility,
    validate_params,
)

# Fifty hand-worked tuples (A, gamma, alpha, beta, delta1, delta2, admit).
# Equality boundaries use dyadic rationals so 2.5*delta1 - 1.5 evaluates
# exactly and the comparison carries zero float slack. Comments give the
# deciding inequality for each rejection.
TUPLES = [
    # accepts
    (1.0, 2.0, 1.0, 1.0, 2.0, 3.5, True),        # bound 3.5 met exactly
    (1.0, 2.0, 1.0, -0.1, 1.5, 2.5, True),       # cap = 10/3, a1 = 1/8, m = 2
    (1.0, 3.0, 1.0, 0.5, 3.0, 6.0, True),        # double boundary: bound 6, min = 3
    (2.0, 1.5, 0.3, 0.0, 2.0, 3.5, True),
    (1.0, 10.0, 1.0, 1.0, 2.0, 3.5, True),       # large gamma, small delta1
    (1.0, 1.0001, 1.0, 1.0, 2.0, 3.5, True),     # gamma barely above 1
    (0.1, 2.0, 0.001, -1e-6, 1.2, 1.6, True),
    (1.0, 4.0, 1.0, 2.0, 3.0, 6.0, True),
    (1.0, 4.0, 1.0, 0.0, 2.5, 4.75, True),       # bound 4.75 met exactly
    (5.0, 1.1, 2.0, -0.5, 1.5, 2.3, True),
    (1.0, 2.0, 1.0, 1.0, 1.0001, 1.0003, True),  # bound 1.00025 < 1.0003
    (1e6, 1.5, 1e-6, 1e6, 2.0, 3.5, True),
    (1.0, 3.0, 1.0, -0.25, 2.0, 4.0, True),
    (1.0, 2.5, 0.7, 0.0, 1.75, 2.875, True),     # bound 2.875 met exactly
    (3.0, 7.0, 2.0, 3.0, 1.25, 1.625, True),     # bound 1.625 met exactly
    (1.0, 1.2, 1.0, 1.0, 6.0, 13.5, True),       # delta1 > 3, gamma small
    (1.0, 2.0, 1.0, -3.0, 2.0, 3.5, True),
    (0.5, 3.0, 0.5, 0.5, 3.0, 6.0, True),
    (1.0, 2.0, 1.0, 1.0, 2.0, 100.0, True),
    (1.0, 2.0, 1.0, 1.0, 1.5, 2.25, True),       # bound 2.25 met exactly
    (1.0, 2.0, 1e-12, 1.0, 2.0, 3.5, True),
    (1e-12, 2.0, 1.0, 1.0, 2.0, 3.5, True),
    (1.0, 2.0, 1.0, -1e9, 2.0, 3.5, True),       # cap tiny but positive
    (1.0, 3.0625, 1.0, 1.0, 3.0, 6.0, True),     # min(3, 3.0625) = 3 allowed
    (1.0, 2.0, 1.0, 1.0, 5.0, 11.0, True),       # bound 11 met exactly
    (1.0, 6.0, 1.0, 0.1, 2.25, 4.125, True),     # bound 4.125 met exactly
    (7.0, 1.75, 3.0, -2.0, 1.5, 2.5, True),      # cap = (1/2)^1
    # rejects
    (1.0, 2.0, 1.0, 1.0, 2.0, 3.0, False),       # 3 < 3.5
    (1.0, 1.0, 1.0, 0.0, 2.0, 3.5, False),       # gamma = 1
    (0.0, 2.0, 1.0, 1.0, 2.0, 3.5, False),       # A = 0
    (-1.0, 2.0, 1.0, 1.0, 2.0, 3.5, False),      # A < 0
    (1.0, 0.5, 1.0, 1.0, 2.0, 3.5, False),       # gamma < 1
    (1.0, 2.0, 0.0, 1.0, 2.0, 3.5, False),       # alpha = 0
    (1.0, 2.0, -0.5, 1.0, 2.0, 3.5, False),      # alpha < 0
    (1.0, 2.0, 1.0, 1.0, 2.0, 2.0, False),       # delta2 = delta1
    (1.0, 2.0, 1.0, 1.0, 2.0, 1.5, False),       # delta2 < delta1
    (1.0, 2.0, 1.0, 1.0, 1.0, 3.5, False),       # delta1 = 1
    (1.0, 2.0, 1.0, 1.0, 0.5, 3.5, False),       # delta1 < 1
    (1.0, 3.5, 1.0, 1.0, 3.5, 8.75, False),      # min(3.5, 3.5) > 3
    (1.0, 4.0, 1.0, 1.0, 3.5, 7.25, False),      # min = 3.5 > 3, bound met
    (1.0, 2.0, 1.0, 1.0, 2.0, 3.4999, False),    # just under the bound
    (1.0, 2.0, 1.0, 1.0, 4.0, 8.0, False),       # 8 < 8.5
    (float("nan"), 2.0, 1.0, 1.0, 2.0, 3.5, False),
    (1.0, float("inf"), 1.0, 1.0, 2.0, 3.5, False),
    (1.0, 2.0, 1.0, float("nan"), 2.0, 3.5, False),
    (1.0, 0.999, 1.0, 0.0, 3.0, 6.0, False),     # gamma < 1
    (1.0, 4.0, 1.0, 1.0, 3.0625, 7.0, False),    # min = 3.0625 > 3
    (1.0, 2.0, 1.0, 1.0, 1.2, 1.2, False),       # delta2 = delta1 again
    (1.0, 2.0, 1.0, 0.0, 5.0, 10.9, False),      # 10.9 < 11
    (1.0, 1.0, 1.0, 0.0, 3.0, 6.0, False),       # gamma = 1, bound met
]


def test_table_has_fifty_entries():
    assert len(TUPLES) == 50


@pytest.mark.parametrize("A,gamma,alpha,beta,delta1,delta2,admit", TUPLES)
def test_admissibility_classification(A, gamma, alpha, beta, delta1, delta2,
                                      admit):
    if admit:
        p = validate_params(A=A, gamma=gamma, alpha=alpha, beta=beta,
                            delta1=delta1, delta2=delta2)
        assert p.m >= 1.5
        assert p.a1 > 0
        if beta < 0:
            assert p.a2_density_cap is not None and p.a2_density_cap > 0
        else:
            assert p.a2_density_cap is None
    else:
        with pytest.raises(ParameterError):
            validate_params(A=A, gamma=gamma, alpha=alpha, beta=beta,
                            delta1=delta1, delta2=delta2)


def test_derived_constants_worked_example():
    p = validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-0.1,
                        delta1=1.5, delta2=2.5)
    assert p.a1 == 0.125
    assert p.m == 2.0
    assert p.a2_density_cap == pytest.approx(10.0 / 3.0, rel=1e-12)


def test_a1_formula_exact():
    p = validate_params(A=2.0, gamma=3.0, alpha=1.0, beta=0.0,
                        delta1=2.0, delta2=3.5)
    assert p.a1 == (3.0 - 1.0) ** 2 / (4.0 * 2.0 * 3.0)
    assert p.m == 1.5


def test_rejection_names_first_failed_inequality():
    with pytest.raises(ParameterError, match=r"\(5/2\)"):
        validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=1.0,
                        delta1=2.0, delta2=3.0)
    with pytest.raises(ParameterError, match="gamma"):
        validate_params(A=1.0, gamma=1.0, alpha=1.0, beta=0.0,
                        delta1=2.0, delta2=3.5)
    with pytest.raises(ParameterError, match="delta2 > delta1"):
        validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=1.0,
                        delta1=2.0, delta2=2.0)


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(1.01, 3.0),
    delta1=st.floats(1.01, 3.0),
    excess=st.floats(0.0, 4.0),
    beta=st.floats(-2.0, 2.0),
)
def test_admissible_region_always_gives_m_at_least_three_halves(
        gamma, delta1, excess, beta):
    delta2 = max(2.5 * delta1 - 1.5, delta1 * (1 + 1e-9)) + excess
    p = validate_params(A=1.0, gamma=gamma, alpha=1.0, beta=beta,
                        delta1=delta1, delta2=delta2)
    assert p.m >= 1.5 - 1e-9
    assert (p.delta2 - 1.0) / (p.delta1 - 1.0) == pytest.approx(p.m + 1.0,
                                                                rel=1e-12)


def _density(values):
    g = Grid(dim=1, n=len(values), box_length=1.0)
    return ScalarField(g, np.asarray(values, dtype=float))


def test_compatibility_nonnegative_beta_always_passes():
    p = validate_params(A=1.0, gamma=2.0, alpha=0.8, beta=0.5,
                        delta1=1.5, delta2=2.5)
    rho = _density(np.linspace(0.0, 5.0, 16))
    rep = check_initial_compatibility(p, rho)
    assert rep.passed
    assert rep.margin >= p.alpha


def test_compatibility_margin_worked_example():
    p = validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-1.0,
                        delta1=1.5, delta2=2.5)
    assert p.a2_density_cap == pytest.approx(1.0 / 3.0, rel=1e-12)
    rho = _density([0.0, 0.1, 0.3, 0.2] * 4)
    rep = check_initial_compatibility(p, rho)
    assert rep.passed
    assert rep.margin == pytest.approx(0.7, rel=1e-12)


def test_compatibility_over_dense_fails():
    p = validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=-1.0,
                        delta1=1.5, delta2=2.5)
    rho = _density([0.0, 0.5, 0.1, 0.0] * 4)
    rep = check_initial_compatibility(p, rho)
    assert not rep.passed
    assert "at cell (1,)" in rep.message
    assert "cap" in rep.message


def test_compatibility_rejects_negative_density():
    p = validate_params(A=1.0, gamma=2.0, alpha=1.0, beta=0.0,
                        delta1=1.5, delta2=2.5)
    rho = _density([0.1, -0.2, 0.1, 0.0] * 4)
    rep = check_initial_compatibility(p, rho)
    assert not rep.passed
    assert math.isnan(rep.margin)

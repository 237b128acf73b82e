"""Model constants for degenerate-viscosity compressible flow and their
admissibility checks.

Pressure P = A rho^gamma, shear viscosity mu = alpha rho^delta1, second
viscosity lambda = beta rho^delta2. Admissibility:

    gamma > 1,  alpha > 0,  delta2 > delta1 > 1,
    delta2 >= (5/2) delta1 - 3/2,  min(delta1, gamma) <= 3,

plus, when beta < 0, a density cap keeping the combined coefficient
alpha + beta rho^(delta2-delta1) positive. Derived constants:

    a1 = (gamma - 1)^2 / (4 A gamma),   m = (delta2 - delta1)/(delta1 - 1),

with m >= 3/2 a consequence of the inequalities above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField


class ParameterError(ValueError):
    """Raised with the first violated admissibility constraint by name."""

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        message = constraint if not detail else f"{constraint}: {detail}"
        super().__init__(message)


@dataclass(frozen=True)
class FluidParams:
    """Validated constants; construct through validate_params."""

    A: float
    gamma: float
    alpha: float
    beta: float
    delta1: float
    delta2: float
    a1: float
    m: float
    a2_density_cap: float | None


def admissibility_rows(A, gamma, alpha, delta1, delta2) -> list:
    """(name, margin, ok) per admissibility inequality in declaration order.
    The margin is the slack of the inequality (the value itself for the
    strict positivity rows)."""
    low = 2.5 * delta1 - 1.5
    return [
        ("A > 0", A, A > 0),
        ("gamma > 1", gamma - 1.0, gamma > 1),
        ("alpha > 0", alpha, alpha > 0),
        ("delta2 > delta1", delta2 - delta1, delta2 > delta1),
        ("delta1 > 1", delta1 - 1.0, delta1 > 1),
        ("delta2 >= (5/2)*delta1 - 3/2", delta2 - low, delta2 >= low),
        ("min(delta1, gamma) <= 3", 3.0 - min(delta1, gamma),
         min(delta1, gamma) <= 3),
    ]


def validate_params(A, gamma, alpha, beta, delta1, delta2) -> FluidParams:
    """Check admissibility in declaration order and derive a1, m, and the
    density cap. The raised error names exactly the first failed inequality."""
    values = dict(A=A, gamma=gamma, alpha=alpha, beta=beta, delta1=delta1, delta2=delta2)
    for name, v in values.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise ParameterError(f"{name} must be a finite number", f"got {v!r}")
    for name, margin, ok in admissibility_rows(A, gamma, alpha, delta1, delta2):
        if not ok:
            raise ParameterError(name, f"margin {margin:+.6g}")
    a1 = (gamma - 1.0) ** 2 / (4.0 * A * gamma)
    m = (delta2 - delta1) / (delta1 - 1.0)
    cap = None
    if beta < 0:
        try:
            cap = (-alpha / (3.0 * beta)) ** (1.0 / (delta2 - delta1))
        except OverflowError:
            # a vanishing negative beta puts the cap beyond every float
            cap = math.inf
    return FluidParams(
        A=float(A),
        gamma=float(gamma),
        alpha=float(alpha),
        beta=float(beta),
        delta1=float(delta1),
        delta2=float(delta2),
        a1=a1,
        m=m,
        a2_density_cap=cap,
    )


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of checking initial density against the negative-beta cap."""

    passed: bool
    margin: float
    message: str


def check_initial_compatibility(params: FluidParams, rho0: ScalarField) -> CompatibilityReport:
    """For beta < 0, require max rho0 <= cap and report the pointwise margin
    min over the grid of alpha + beta rho0^(delta2-delta1). For beta >= 0 the
    coefficient only grows with density and the check passes with the same
    margin formula.
    """
    rho = rho0.values
    if float(rho.min()) < 0:
        worst = np.unravel_index(int(np.argmin(rho)), rho.shape)
        return CompatibilityReport(
            passed=False,
            margin=float("nan"),
            message=f"initial density negative at cell {tuple(int(i) for i in worst)}",
        )
    power = params.delta2 - params.delta1
    with np.errstate(divide="ignore"):
        coeff = params.alpha + params.beta * np.where(rho > 0, rho, 0.0) ** power
    margin = float(coeff.min())
    cap = params.a2_density_cap
    max_density = float(rho.max())
    if cap is not None and max_density > cap:
        worst = np.unravel_index(int(np.argmax(rho)), rho.shape)
        return CompatibilityReport(
            passed=False,
            margin=margin,
            message=(
                f"max initial density {max_density:.6g} exceeds cap {cap:.6g} "
                f"at cell {tuple(int(i) for i in worst)}"
            ),
        )
    return CompatibilityReport(
        passed=True,
        margin=margin,
        message=f"compatible, coefficient margin {margin:.6g}",
    )

"""Initial-data generators.

Density profiles are compactly supported smooth bumps so runs that start
with genuine vacuum keep it outside the support, with room between the
support and the periodic seam. Velocities are global single-mode fields.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import Grid, ScalarField, VectorField
from .operators import ReformState, stable_power
from .params import FluidParams


def bump_density(grid: Grid, amplitude: float, width: float,
                 center: tuple | None = None,
                 background: float = 0.0) -> ScalarField:
    """Smooth bump of compact support on a constant background.

    Inside s = |x - center| / width < 1 the profile is
    amplitude * exp(1 - 1/(1 - s^2)), which peaks at exactly amplitude and
    vanishes with all derivatives at s = 1; outside it is identically zero.
    Width may not exceed a quarter of the box, keeping the support at least
    a quarter box away from the seam when centered.
    """
    if not 0.0 <= amplitude < math.inf:
        raise ValueError(
            f"amplitude must be nonnegative and finite, got {amplitude}")
    if not 0.0 <= background < math.inf:
        raise ValueError(
            f"background must be nonnegative and finite, got {background}")
    if not 0.0 < width <= grid.box_length / 4.0:
        raise ValueError(
            f"width must lie in (0, L/4] = (0, {grid.box_length / 4.0:g}], "
            f"got {width}")
    if center is None:
        center = tuple(grid.box_length / 2.0 for _ in range(grid.dim))
    if len(center) != grid.dim:
        raise ValueError(f"center has {len(center)} entries for a "
                         f"{grid.dim}-d grid")
    if not all(map(math.isfinite, center)):
        raise ValueError(f"center must be finite, got {center}")
    L = grid.box_length
    s2 = np.zeros(grid.shape)
    for axis, x in enumerate(grid.coordinates):
        d = (x - center[axis] + 0.5 * L) % L - 0.5 * L
        s2 = s2 + (d / width) ** 2
    prof = np.zeros(grid.shape)
    inside = s2 < 1.0
    prof[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return ScalarField(grid, background + amplitude * prof)


def velocity_modes(grid: Grid, amplitude: float, mode: int = 1) -> VectorField:
    """One sine mode per component: u_i = amplitude sin(mode k0 x_i)."""
    if mode < 0:
        raise ValueError(f"mode must be nonnegative, got {mode}")
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    k0 = 2.0 * math.pi / grid.box_length
    out = np.zeros((grid.dim,) + grid.shape)
    if amplitude != 0.0 and mode != 0:
        for i in range(grid.dim):
            out[i] = amplitude * np.broadcast_to(
                np.sin(mode * k0 * grid.coordinates[i]), grid.shape)
    return VectorField(grid, out)


def reform_state_from_density(rho0: ScalarField, u0: VectorField,
                              params: FluidParams) -> ReformState:
    """Proxy-variable state built from one density field, so both proxies
    agree with each other by construction."""
    if rho0.grid != u0.grid:
        raise ValueError("density and velocity grids disagree")
    if float(rho0.values.min()) < 0.0:
        raise ValueError("density must be nonnegative")
    grid = rho0.grid
    vphi = stable_power(rho0.values, 0.5 * (params.delta1 - 1.0))
    phi = stable_power(rho0.values, 0.5 * (params.gamma - 1.0))
    return ReformState(ScalarField(grid, vphi), ScalarField(grid, phi), u0)

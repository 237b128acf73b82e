"""Test helpers: a Trajectory stacked from per-sample states, a coefficient
provider frozen at one state, the two steps with their stages read from a
FrozenCoefficients, and the plain spectral derivative the solver's batched
kernels are checked against."""

import numpy as np

from vacflow.linearized import (Trajectory, TrajectoryCoefficients,
                                momentum_step, transport_step)


def stacked(states, times, **kwargs):
    """The Trajectory whose sample i is states[i], at times[i]."""
    return Trajectory(
        states[0].grid, list(times),
        np.stack([s.vphi.values for s in states]),
        np.stack([s.phi.values for s in states]),
        np.stack([s.u.values for s in states]),
        **kwargs,
    )


def frozen(v, phitilde, vphitilde):
    """The provider whose coefficients are v, phitilde and vphitilde at every
    time: a one-sample TrajectoryCoefficients, which clamps every t to its
    sample."""
    return TrajectoryCoefficients([0.0], [vphitilde], [phitilde], [v])


def stages(coeffs, grid, times):
    """The (masked coefficients, forcing rows) pairs of coeffs at times."""
    return tuple((coeffs.provider.stage(grid, t),
                  None if coeffs.forcing is None else coeffs.forcing(t))
                 for t in times)


def transport(params, vphi, coeffs, dt, t=0.0):
    """transport_step with its stages read from coeffs at t, t + dt and
    t + dt/2."""
    return transport_step(params, vphi,
                          stages(coeffs, vphi.grid, (t, t + dt, t + 0.5 * dt)),
                          dt, t)


def momentum(params, phi, u, coeffs, vphi_new, dt, t=0.0):
    """momentum_step with its stages read from coeffs at t, t + dt/2 and
    t + dt."""
    return momentum_step(params, phi, u,
                         stages(coeffs, phi.grid, (t, t + 0.5 * dt, t + dt)),
                         coeffs.eta, vphi_new, dt, t)


def deriv(grid, values, order):
    """The partial derivative of the given order (one entry per axis), one
    transform pair per call."""
    return grid.ifft(grid.derivative_multiplier(order) * grid.fft(values))

"""Test helpers: a Trajectory stacked from per-sample states, and a
coefficient provider frozen at one state."""

import numpy as np

from vacflow.linearized import Trajectory, TrajectoryCoefficients


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

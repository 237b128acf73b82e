"""Test helper: a Trajectory stacked from per-sample states."""

import numpy as np

from vacflow.linearized import Trajectory


def stacked(states, times, **kwargs):
    """The Trajectory whose sample i is states[i], at times[i]."""
    return Trajectory(
        states[0].grid, list(times),
        np.stack([s.vphi.values for s in states]),
        np.stack([s.phi.values for s in states]),
        np.stack([s.u.values for s in states]),
        **kwargs,
    )

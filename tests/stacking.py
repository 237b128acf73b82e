"""Test helpers: a Trajectory stacked from per-sample states, the same
trajectory over a shared window, a stage function frozen at one state, the
two steps with their stages read from the window solve's keywords, the plain
spectral derivative the solver's batched kernels are checked against, and
the resident size of the mapping that holds an array. States and samples are
arrays of the d + 2 rows (vphi, phi, u)."""

import numpy as np

from vacflow.fields import _window, release
from vacflow.linearized import (Trajectory, TrajectoryCoefficients,
                                momentum_step, transport_step)


def stacked(states, times, **kwargs):
    """The Trajectory whose sample i is states[i], at times[i]."""
    return Trajectory(states[0].grid, list(times),
                      np.stack([s.rows for s in states]), **kwargs)


def windowed(traj):
    """traj's samples copied into a _window whose pages this process then
    releases, as a Trajectory over that window."""
    g, nt = traj.grid, len(traj.times)
    window = _window(g, nt, g.dim + 2)
    window[...] = traj.samples
    release(window, 0, nt)
    return Trajectory(g, traj.times, window)


def mapping_rss_kib(arr):
    """The Rss, in KiB, of this process's mapping that holds arr's data, read
    from /proc/self/smaps."""
    address = arr.__array_interface__["data"][0]
    inside = False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head = line.split()[0]
            if "-" in head and ":" not in head:
                lo, hi = (int(a, 16) for a in head.split("-"))
                inside = lo <= address < hi
            elif inside and head == "Rss:":
                return int(line.split()[1])
    raise AssertionError("no mapping holds the array")


def frozen(v, phitilde, vphitilde):
    """The stage function whose coefficients are v, phitilde and vphitilde
    at every time: that of a one-sample TrajectoryCoefficients, which clamps
    every t to its sample."""
    sample = np.concatenate(([vphitilde, phitilde], v))
    return TrajectoryCoefficients([0.0], sample[None]).stage


def stages(coeffs, grid, times):
    """The (masked coefficients, forcing rows) pairs at times of coeffs, the
    window solve's keywords as a dict: its stage and, if any, its forcing."""
    forcing = coeffs.get("forcing")
    return tuple((coeffs["stage"](grid, t),
                  None if forcing is None else forcing(t)) for t in times)


def transport(params, grid, f, coeffs, dt, t=0.0):
    """transport_step with its stages read from coeffs at t, t + dt and
    t + dt/2."""
    return transport_step(params, grid, f,
                          stages(coeffs, grid, (t, t + dt, t + 0.5 * dt)),
                          dt, t)


def momentum(params, grid, y, coeffs, vphi_new, dt, t=0.0):
    """momentum_step of the (phi, u) rows y with its stages read from coeffs
    at t, t + dt/2 and t + dt."""
    return momentum_step(params, grid, y,
                         stages(coeffs, grid, (t, t + 0.5 * dt, t + dt)),
                         coeffs["eta"], vphi_new, dt, t)


def deriv(grid, values, order):
    """The partial derivative of the given order (one entry per axis), one
    transform pair per call."""
    return grid.ifft(grid.derivative_multiplier(order) * grid.fft(values))

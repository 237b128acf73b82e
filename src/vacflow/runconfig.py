"""Run configuration: one INI file drives every experiment.

The schema is strict. Unknown sections or keys abort with a message naming
them, so a typo cannot silently fall back to a default. Every run writes the
fully resolved configuration (all defaults expanded) next to its outputs.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .fields import Grid, ScalarField, VectorField, load_snapshot
from .fixedpoint import EtaSchedule
from .initial_data import bump_density, reform_state_from_density, velocity_modes
from .operators import ReformState
from .params import FluidParams, validate_params


class ConfigError(ValueError):
    """Raised when the configuration file cannot be used as written."""


_SCHEMA = {
    "params": {"A", "gamma", "alpha", "beta", "delta1", "delta2", "calib_C"},
    "grid": {"dim", "n", "length"},
    "initial": {"kind", "amplitude", "width", "background", "center",
                "velocity_amplitude", "velocity_mode",
                "density_snapshot", "velocity_snapshot"},
    "solver": {"eta0", "eta_factor", "eta_levels", "cauchy_tol",
               "picard_tol", "max_iter", "cfl_safety", "t_window",
               "cadence"},
    "output": {"directory", "snapshots", "diagnostics"},
    "sweep": {"amplitude_scales"},
}

_DIAGNOSTIC_NAMES = ("ledger", "validity", "conservation", "vacuum",
                     "characteristics", "residual")


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated configuration, with builder methods for the
    solver-facing objects."""

    A: float
    gamma: float
    alpha: float
    beta: float
    delta1: float
    delta2: float
    calib_C: float
    dim: int
    n: int
    length: float
    kind: str
    amplitude: float
    width: float
    background: float
    center: tuple | None
    velocity_amplitude: float
    velocity_mode: int
    density_snapshot: str
    velocity_snapshot: str
    eta0: float
    eta_factor: float
    eta_levels: int
    cauchy_tol: float
    picard_tol: float
    max_iter: int
    cfl_safety: float
    t_window: float
    cadence: int
    directory: str
    snapshots: bool
    diagnostics: tuple
    amplitude_scales: tuple = field(default=())

    def fluid_params(self) -> FluidParams:
        return validate_params(A=self.A, gamma=self.gamma, alpha=self.alpha,
                               beta=self.beta, delta1=self.delta1,
                               delta2=self.delta2)

    def grid(self) -> Grid:
        return Grid(dim=self.dim, n=self.n, box_length=self.length)

    def density(self, scale: float = 1.0) -> ScalarField:
        grid = self.grid()
        if self.kind == "bump":
            return bump_density(grid, scale * self.amplitude, self.width,
                                center=self.center,
                                background=self.background)
        fld, role, _ = load_snapshot(self.density_snapshot)
        if role != "density":
            raise ConfigError(
                f"density_snapshot holds role {role!r}, expected 'density'")
        if not isinstance(fld, ScalarField) or fld.grid != grid:
            raise ConfigError("density_snapshot grid disagrees with [grid]")
        if scale != 1.0:
            fld = ScalarField(grid, scale * fld.values)
        return fld

    def velocity(self, scale: float = 1.0) -> VectorField:
        grid = self.grid()
        if self.kind == "bump" or not self.velocity_snapshot:
            return velocity_modes(grid, scale * self.velocity_amplitude,
                                  mode=self.velocity_mode)
        fld, role, _ = load_snapshot(self.velocity_snapshot)
        if role != "velocity":
            raise ConfigError(
                f"velocity_snapshot holds role {role!r}, expected 'velocity'")
        if not isinstance(fld, VectorField) or fld.grid != grid:
            raise ConfigError("velocity_snapshot grid disagrees with [grid]")
        if scale != 1.0:
            fld = VectorField(grid, scale * fld.values)
        return fld

    def initial_state(self, scale: float = 1.0) -> ReformState:
        return reform_state_from_density(self.density(scale),
                                         self.velocity(scale),
                                         self.fluid_params())

    def schedule(self) -> EtaSchedule:
        return EtaSchedule(eta0=self.eta0, factor=self.eta_factor,
                           max_levels=self.eta_levels,
                           cauchy_tol=self.cauchy_tol)

    def sample_dt(self) -> float:
        return self.t_window / self.cadence


def _get_float(sec, key, default=None) -> float:
    raw = sec.get(key)
    if raw is None or raw == "":
        if default is None:
            raise ConfigError(f"missing required key [{sec.name}] {key}")
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {key} = {raw!r} is not a number") from exc


def _get_int(sec, key, default=None) -> int:
    raw = sec.get(key)
    if raw is None or raw == "":
        if default is None:
            raise ConfigError(f"missing required key [{sec.name}] {key}")
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {key} = {raw!r} is not an integer") from exc


def _get_bool(sec, key, default: bool) -> bool:
    raw = sec.get(key)
    if raw is None or raw == "":
        return default
    try:
        return sec.getboolean(key)
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {key} = {raw!r} is not a boolean") from exc


def load_config(path) -> RunConfig:
    """Parse and validate one INI file; raises ConfigError on any schema or
    value problem. The file must at least name the fluid constants, the
    grid, and the solver window."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key [{section}] {key}")
    for required in ("params", "grid", "solver"):
        if required not in parser:
            raise ConfigError(f"missing required section [{required}]")

    for optional in ("initial", "output", "sweep"):
        if optional not in parser:
            parser.add_section(optional)
    params, grid_sec, init, solver, output, sweep = (
        parser[name] for name in ("params", "grid", "initial", "solver",
                                  "output", "sweep"))

    kind = init.get("kind", "bump").strip()
    if kind not in ("bump", "snapshot"):
        raise ConfigError(f"[initial] kind must be 'bump' or 'snapshot', "
                          f"got {kind!r}")

    center: tuple | None = None
    raw_center = init.get("center", "")
    if raw_center.strip():
        try:
            center = tuple(float(tok) for tok in raw_center.split(","))
        except ValueError as exc:
            raise ConfigError(
                f"[initial] center = {raw_center!r} is not a comma list "
                f"of numbers") from exc

    raw_diag = output.get("diagnostics", "all").strip()
    if raw_diag in ("", "all"):
        diagnostics = _DIAGNOSTIC_NAMES
    else:
        diagnostics = tuple(tok.strip() for tok in raw_diag.split(","))
        for tok in diagnostics:
            if tok not in _DIAGNOSTIC_NAMES:
                raise ConfigError(
                    f"[output] diagnostics names unknown check {tok!r}; "
                    f"known: {', '.join(_DIAGNOSTIC_NAMES)}")

    scales: tuple = ()
    raw_scales = sweep.get("amplitude_scales", "")
    if raw_scales.strip():
        try:
            scales = tuple(float(tok) for tok in raw_scales.split(","))
        except ValueError as exc:
            raise ConfigError(
                f"[sweep] amplitude_scales = {raw_scales!r} is not a comma "
                f"list of numbers") from exc
        for s in scales:
            if not s > 0:
                raise ConfigError(
                    f"[sweep] amplitude_scales entries must be positive, "
                    f"got {s}")

    cfg = RunConfig(
        A=_get_float(params, "A"),
        gamma=_get_float(params, "gamma"),
        alpha=_get_float(params, "alpha"),
        beta=_get_float(params, "beta"),
        delta1=_get_float(params, "delta1"),
        delta2=_get_float(params, "delta2"),
        calib_C=_get_float(params, "calib_C", 1.0),
        dim=_get_int(grid_sec, "dim"),
        n=_get_int(grid_sec, "n"),
        length=_get_float(grid_sec, "length"),
        kind=kind,
        amplitude=_get_float(init, "amplitude", 0.0),
        width=_get_float(init, "width", 0.0),
        background=_get_float(init, "background", 0.0),
        center=center,
        velocity_amplitude=_get_float(init, "velocity_amplitude", 0.0),
        velocity_mode=_get_int(init, "velocity_mode", 1),
        density_snapshot=init.get("density_snapshot", "").strip(),
        velocity_snapshot=init.get("velocity_snapshot", "").strip(),
        eta0=_get_float(solver, "eta0", 0.5),
        eta_factor=_get_float(solver, "eta_factor", 0.5),
        eta_levels=_get_int(solver, "eta_levels", 4),
        cauchy_tol=_get_float(solver, "cauchy_tol", 1e-6),
        picard_tol=_get_float(solver, "picard_tol", 1e-10),
        max_iter=_get_int(solver, "max_iter", 50),
        cfl_safety=_get_float(solver, "cfl_safety", 0.4),
        t_window=_get_float(solver, "t_window"),
        cadence=_get_int(solver, "cadence", 32),
        directory=output.get("directory", "").strip(),
        snapshots=_get_bool(output, "snapshots", False),
        diagnostics=diagnostics,
        amplitude_scales=scales,
    )
    _check_values(cfg)
    return cfg


def _check_values(cfg: RunConfig) -> None:
    if cfg.calib_C < 1.0:
        raise ConfigError(f"calib_C must be >= 1, got {cfg.calib_C}")
    if cfg.kind == "bump":
        if cfg.amplitude < 0 or cfg.width <= 0:
            raise ConfigError(
                "bump initial data needs amplitude >= 0 and width > 0")
    else:
        if not cfg.density_snapshot:
            raise ConfigError(
                "[initial] kind = snapshot requires density_snapshot")
    if cfg.center is not None and len(cfg.center) != cfg.dim:
        raise ConfigError(
            f"[initial] center has {len(cfg.center)} coordinates for "
            f"dim = {cfg.dim}")
    if not cfg.t_window > 0:
        raise ConfigError(f"t_window must be positive, got {cfg.t_window}")
    if cfg.cadence < 1:
        raise ConfigError(f"cadence must be >= 1, got {cfg.cadence}")
    if not 0 < cfg.cfl_safety <= 1:
        raise ConfigError(
            f"cfl_safety must lie in (0, 1], got {cfg.cfl_safety}")
    if cfg.velocity_mode < 0:
        raise ConfigError(
            f"velocity_mode must be nonnegative, got {cfg.velocity_mode}")


def write_resolved(cfg: RunConfig, path) -> None:
    """Write the configuration with every key spelled out, defaults
    included, in a fixed order so identical runs emit identical bytes."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser["params"] = {
        "A": repr(cfg.A), "gamma": repr(cfg.gamma), "alpha": repr(cfg.alpha),
        "beta": repr(cfg.beta), "delta1": repr(cfg.delta1),
        "delta2": repr(cfg.delta2), "calib_C": repr(cfg.calib_C),
    }
    parser["grid"] = {"dim": str(cfg.dim), "n": str(cfg.n),
                      "length": repr(cfg.length)}
    parser["initial"] = {
        "kind": cfg.kind,
        "amplitude": repr(cfg.amplitude),
        "width": repr(cfg.width),
        "background": repr(cfg.background),
        "center": ("" if cfg.center is None
                   else ", ".join(repr(c) for c in cfg.center)),
        "velocity_amplitude": repr(cfg.velocity_amplitude),
        "velocity_mode": str(cfg.velocity_mode),
        "density_snapshot": cfg.density_snapshot,
        "velocity_snapshot": cfg.velocity_snapshot,
    }
    parser["solver"] = {
        "eta0": repr(cfg.eta0), "eta_factor": repr(cfg.eta_factor),
        "eta_levels": str(cfg.eta_levels),
        "cauchy_tol": repr(cfg.cauchy_tol),
        "picard_tol": repr(cfg.picard_tol), "max_iter": str(cfg.max_iter),
        "cfl_safety": repr(cfg.cfl_safety), "t_window": repr(cfg.t_window),
        "cadence": str(cfg.cadence),
    }
    parser["output"] = {
        "directory": cfg.directory,
        "snapshots": str(cfg.snapshots).lower(),
        "diagnostics": ", ".join(cfg.diagnostics),
    }
    if cfg.amplitude_scales:
        parser["sweep"] = {
            "amplitude_scales": ", ".join(repr(s)
                                          for s in cfg.amplitude_scales)}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)

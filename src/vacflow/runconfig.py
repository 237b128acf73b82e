"""Run configuration: one INI file drives every experiment.

The schema is the `RunConfig` fields. Each declares its section, its default
(none for a required key) and the reader that parses its text, and the key
check, the parse and the resolved writer all walk those fields in order.
The schema is strict. Unknown sections or keys abort with a message naming
them, so a typo cannot silently fall back to a default. Every run writes the
fully resolved configuration (all defaults expanded) next to its outputs.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields

from .fields import Grid, ScalarField, VectorField, load_snapshot
from .fixedpoint import DEFAULT_MAX_ITER, DEFAULT_PICARD_TOL, EtaSchedule
from .initial_data import bump_density, velocity_modes
from .linearized import DEFAULT_CFL_SAFETY, DEFAULT_SAMPLES_PER_WINDOW
from .params import FluidParams, validate_params


class ConfigError(ValueError):
    """Raised when the configuration file cannot be used as written."""


_DIAGNOSTIC_NAMES = ("ledger", "validity", "conservation", "vacuum",
                     "characteristics", "residual")


def _bool(raw: str) -> bool:
    state = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
    if state is None:
        raise ValueError(f"not a boolean: {raw!r}")
    return state


def _numbers(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(","))


def _names(raw: str) -> tuple:
    if raw == "all":
        return _DIAGNOSTIC_NAMES
    return tuple(tok.strip() for tok in raw.split(","))


# what the text of a key with this reader must be, for the parse error
_EXPECTED = {float: "a number", int: "an integer", _bool: "a boolean",
             _numbers: "a comma list of numbers"}


def _key(section: str, default=MISSING, read=float):
    """One config key: its INI section, its default (none for a required
    key) and the reader of its text. A blank value means the default, except
    for a str key, where it is the empty string."""
    return field(default=default, metadata={"section": section, "read": read})


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Parsed and validated configuration, with builder methods for the
    solver-facing objects. The fields are the schema, in the order the
    resolved file lists them."""

    A: float = _key("params")
    gamma: float = _key("params")
    alpha: float = _key("params")
    beta: float = _key("params")
    delta1: float = _key("params")
    delta2: float = _key("params")
    calib_C: float = _key("params", 1.0)
    dim: int = _key("grid", read=int)
    n: int = _key("grid", read=int)
    length: float = _key("grid")
    kind: str = _key("initial", "bump", str)
    amplitude: float = _key("initial", 0.0)
    width: float = _key("initial", 0.0)
    background: float = _key("initial", 0.0)
    center: tuple | None = _key("initial", None, _numbers)
    velocity_amplitude: float = _key("initial", 0.0)
    velocity_mode: int = _key("initial", 1, int)
    density_snapshot: str = _key("initial", "", str)
    velocity_snapshot: str = _key("initial", "", str)
    eta0: float = _key("solver", 0.5)
    eta_factor: float = _key("solver", 0.5)
    eta_levels: int = _key("solver", 4, int)
    cauchy_tol: float = _key("solver", 1e-6)
    picard_tol: float = _key("solver", DEFAULT_PICARD_TOL)
    max_iter: int = _key("solver", DEFAULT_MAX_ITER, int)
    cfl_safety: float = _key("solver", DEFAULT_CFL_SAFETY)
    t_window: float = _key("solver")
    cadence: int = _key("solver", DEFAULT_SAMPLES_PER_WINDOW, int)
    directory: str = _key("output", "", str)
    snapshots: bool = _key("output", False, _bool)
    diagnostics: tuple = _key("output", _DIAGNOSTIC_NAMES, _names)
    amplitude_scales: tuple = _key("sweep", (), _numbers)

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

    def schedule(self) -> EtaSchedule:
        return EtaSchedule(eta0=self.eta0, factor=self.eta_factor,
                           max_levels=self.eta_levels,
                           cauchy_tol=self.cauchy_tol)

    def sample_dt(self) -> float:
        return self.t_window / self.cadence


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

    schema = fields(RunConfig)
    section_of = {f.name: f.metadata["section"] for f in schema}
    for section in parser.sections():
        if section not in section_of.values():
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if section_of.get(key) != section:
                raise ConfigError(f"unknown key [{section}] {key}")
    for required in dict.fromkeys(f.metadata["section"] for f in schema
                                  if f.default is MISSING):
        if required not in parser:
            raise ConfigError(f"missing required section [{required}]")

    values = {}
    for f in schema:
        section, read = f.metadata["section"], f.metadata["read"]
        raw = parser.get(section, f.name, fallback=None)
        if raw is None or (raw == "" and read is not str):
            if f.default is MISSING:
                raise ConfigError(f"missing required key [{section}] {f.name}")
            continue
        try:
            values[f.name] = read(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {f.name} = {raw!r} is not "
                              f"{_EXPECTED[read]}") from exc
    cfg = RunConfig(**values)
    _check_values(cfg)
    return cfg


def _check_values(cfg: RunConfig) -> None:
    if cfg.kind not in ("bump", "snapshot"):
        raise ConfigError(f"[initial] kind must be 'bump' or 'snapshot', "
                          f"got {cfg.kind!r}")
    for tok in cfg.diagnostics:
        if tok not in _DIAGNOSTIC_NAMES:
            raise ConfigError(
                f"[output] diagnostics names unknown check {tok!r}; "
                f"known: {', '.join(_DIAGNOSTIC_NAMES)}")
    for s in cfg.amplitude_scales:
        if not s > 0:
            raise ConfigError(
                f"[sweep] amplitude_scales entries must be positive, got {s}")
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
    # the vacuum clause differences three of the cadence + 1 samples
    if cfg.cadence < 2:
        raise ConfigError(f"cadence must be >= 2, got {cfg.cadence}")
    if not 0 < cfg.picard_tol < math.inf:
        raise ConfigError(
            f"picard_tol must be positive and finite, got {cfg.picard_tol}")
    if cfg.max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {cfg.max_iter}")
    try:
        cfg.schedule()
    except ValueError as exc:
        raise ConfigError(f"[solver] eta schedule: {exc}") from exc
    if not 0 < cfg.cfl_safety <= 1:
        raise ConfigError(
            f"cfl_safety must lie in (0, 1], got {cfg.cfl_safety}")
    if cfg.velocity_mode < 0:
        raise ConfigError(
            f"velocity_mode must be nonnegative, got {cfg.velocity_mode}")


def _format(value) -> str:
    """The INI text of a value; floats by repr, so they read back exactly."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def write_resolved(cfg: RunConfig, path) -> None:
    """Write the configuration with every key spelled out, defaults
    included, in a fixed order so identical runs emit identical bytes. A
    section whose values are all blank ([sweep] without scales) is left
    out."""
    sections: dict = {}
    for f in fields(cfg):
        sections.setdefault(f.metadata["section"], {})[f.name] = _format(
            getattr(cfg, f.name))
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    for name, values in sections.items():
        if any(values.values()):
            parser[name] = values
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)

"""INI schema enforcement, defaults, builders, and resolved-file stability."""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from vacflow.fields import Grid, save_snapshot
from vacflow.initial_data import (bump_density, reform_state_from_density,
                                  velocity_modes)
from vacflow.runconfig import ConfigError, load_config, write_resolved

MINIMAL = """\
[params]
A = 1.0
gamma = 2.0
alpha = 1.0
beta = 0.5
delta1 = 1.5
delta2 = 2.5

[grid]
dim = 1
n = 64
length = 6.283185307179586

[initial]
amplitude = 0.5
width = 0.8

[solver]
t_window = 0.01
"""


# every key set, none to its default, in the resolved file's own format
EVERY_KEY = """\
[params]
A = 1.5
gamma = 2.5
alpha = 0.75
beta = -0.25
delta1 = 1.5
delta2 = 2.75
calib_C = 2.0

[grid]
dim = 2
n = 32
length = 3.0

[initial]
kind = snapshot
amplitude = 0.25
width = 0.5
background = 0.125
center = 0.5, 1.25
velocity_amplitude = 0.2
velocity_mode = 3
density_snapshot = rho.snap
velocity_snapshot = u.snap

[solver]
eta0 = 0.25
eta_factor = 0.75
eta_levels = 6
cauchy_tol = 1e-08
picard_tol = 1e-09
max_iter = 20
cfl_safety = 0.3
t_window = 0.02
cadence = 16

[output]
directory = out/run
snapshots = true
diagnostics = ledger, residual

[sweep]
amplitude_scales = 0.5, 1.0, 2.0

"""

ALL_DIAGNOSTICS = ("ledger", "validity", "conservation", "vacuum",
                   "characteristics", "residual")


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def set_key(text, section, key, value=""):
    """text with key set to value (blank by default): its line is replaced
    if present, else added to [section], which is appended if absent."""
    line = f"{key} = {value}".rstrip()
    if re.search(rf"^{key} = ", text, re.M):
        return re.sub(rf"^{key} = .*$", line, text, count=1, flags=re.M)
    head = f"[{section}]\n"
    if head not in text:
        text += "\n" + head
    return text.replace(head, head + line + "\n")


def test_minimal_config_fills_documented_defaults(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert cfg.calib_C == 1.0
    assert cfg.kind == "bump"
    assert cfg.background == 0.0
    assert cfg.center is None
    assert cfg.velocity_mode == 1
    assert cfg.eta0 == 0.5
    assert cfg.eta_factor == 0.5
    assert cfg.eta_levels == 4
    assert cfg.cauchy_tol == 1e-6
    assert cfg.picard_tol == 1e-10
    assert cfg.max_iter == 50
    assert cfg.cfl_safety == 0.4
    assert cfg.cadence == 32
    assert cfg.snapshots is False
    assert cfg.diagnostics == ALL_DIAGNOSTICS
    assert cfg.amplitude_scales == ()
    assert cfg.sample_dt() == 0.01 / 32


def test_unknown_section_and_key_are_named(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[physics\]"):
        load_config(write(tmp_path, MINIMAL + "\n[physics]\nx = 1\n"))
    with pytest.raises(ConfigError, match=r"unknown key \[grid\] spacing"):
        load_config(write(tmp_path,
                          MINIMAL.replace("n = 64", "n = 64\nspacing = 0.1")))


def test_missing_required_pieces(tmp_path):
    no_solver = MINIMAL[: MINIMAL.index("[solver]")]
    with pytest.raises(ConfigError, match=r"\[solver\]"):
        load_config(write(tmp_path, no_solver))
    with pytest.raises(ConfigError, match="t_window"):
        load_config(write(tmp_path,
                          MINIMAL.replace("t_window = 0.01", "")))
    with pytest.raises(ConfigError, match=r"\[params\] gamma"):
        load_config(write(tmp_path, MINIMAL.replace("gamma = 2.0", "")))


def test_malformed_values_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not a number"):
        load_config(write(tmp_path, MINIMAL.replace("A = 1.0", "A = fast")))
    with pytest.raises(ConfigError, match="not an integer"):
        load_config(write(tmp_path, MINIMAL.replace("n = 64", "n = many")))
    with pytest.raises(ConfigError, match="kind"):
        load_config(write(tmp_path,
                          MINIMAL.replace("amplitude = 0.5",
                                          "kind = gaussian\namplitude = 0.5")))
    with pytest.raises(ConfigError, match="calib_C"):
        load_config(write(tmp_path,
                          MINIMAL.replace("beta = 0.5",
                                          "beta = 0.5\ncalib_C = 0.5")))
    with pytest.raises(ConfigError, match="cadence"):
        load_config(write(tmp_path, MINIMAL + "cadence = 0\n"))
    with pytest.raises(ConfigError, match="cadence must be >= 2"):
        load_config(write(tmp_path, MINIMAL + "cadence = 1\n"))
    with pytest.raises(ConfigError, match="max_iter"):
        load_config(write(tmp_path, MINIMAL + "max_iter = 0\n"))
    with pytest.raises(ConfigError, match=r"eta schedule: factor"):
        load_config(write(tmp_path, MINIMAL + "eta_factor = 1.5\n"))
    with pytest.raises(ConfigError, match="cfl_safety"):
        load_config(write(tmp_path, MINIMAL + "cfl_safety = 1.5\n"))
    with pytest.raises(ConfigError, match="diagnostics"):
        load_config(write(tmp_path,
                          MINIMAL + "\n[output]\ndiagnostics = entropy\n"))
    with pytest.raises(ConfigError, match="positive"):
        load_config(write(tmp_path,
                          MINIMAL + "\n[sweep]\namplitude_scales = 1, -2\n"))
    with pytest.raises(ConfigError, match="center"):
        load_config(write(tmp_path,
                          MINIMAL.replace("width = 0.8",
                                          "width = 0.8\ncenter = 1.0, 2.0")))
    for section, key, value, expected in (
            ("output", "snapshots", "maybe", "a boolean"),
            ("initial", "center", "1, x", "a comma list of numbers"),
            ("sweep", "amplitude_scales", "1, x", "a comma list of numbers")):
        message = rf"^\[{section}\] {key} = '{value}' is not {expected}$"
        with pytest.raises(ConfigError, match=message):
            load_config(write(tmp_path, set_key(MINIMAL, section, key, value)))


def test_unreadable_path_raises_config_error_with_os_cause(tmp_path):
    with pytest.raises(ConfigError, match="cannot read") as err:
        load_config(tmp_path / "absent.ini")
    assert isinstance(err.value.__cause__, OSError)


def test_case_sensitive_keys_survive_the_parser(tmp_path):
    # A and alpha differ only by case; both must land in the right field
    cfg = load_config(write(tmp_path, MINIMAL.replace("A = 1.0", "A = 2.5")))
    assert cfg.A == 2.5
    assert cfg.alpha == 1.0


def test_builders_produce_consistent_objects(tmp_path):
    text = MINIMAL.replace(
        "width = 0.8",
        "width = 0.8\nvelocity_amplitude = 0.1\nvelocity_mode = 2")
    cfg = load_config(write(tmp_path, text))
    p = cfg.fluid_params()
    assert p.m == 2.0
    g = cfg.grid()
    assert g == Grid(dim=1, n=64, box_length=6.283185307179586)
    rho = cfg.density()
    assert np.array_equal(rho.values,
                          bump_density(g, 0.5, 0.8).values)
    assert np.array_equal(cfg.density(scale=2.0).values,
                          bump_density(g, 1.0, 0.8).values)
    u = cfg.velocity()
    assert np.array_equal(u.values, velocity_modes(g, 0.1, mode=2).values)
    st = reform_state_from_density(rho, u, p)
    assert st.grid == g
    sched = cfg.schedule()
    assert sched.levels() == [0.5, 0.25, 0.125, 0.0625]


def test_snapshot_kind_roundtrip_and_role_checks(tmp_path):
    g = Grid(dim=1, n=64, box_length=6.283185307179586)
    rho = bump_density(g, 0.5, 0.8)
    u = velocity_modes(g, 0.1)
    rho_path = tmp_path / "rho.snap"
    u_path = tmp_path / "u.snap"
    save_snapshot(rho_path, rho, "density")
    save_snapshot(u_path, u, "velocity")

    text = MINIMAL.replace(
        "amplitude = 0.5\nwidth = 0.8",
        f"kind = snapshot\ndensity_snapshot = {rho_path}\n"
        f"velocity_snapshot = {u_path}")
    cfg = load_config(write(tmp_path, text))
    assert np.array_equal(cfg.density().values, rho.values)
    assert np.array_equal(cfg.velocity().values, u.values)

    swapped = MINIMAL.replace(
        "amplitude = 0.5\nwidth = 0.8",
        f"kind = snapshot\ndensity_snapshot = {u_path}")
    cfg = load_config(write(tmp_path, swapped, name="swap.ini"))
    with pytest.raises(ConfigError, match="role"):
        cfg.density()

    missing = MINIMAL.replace("amplitude = 0.5\nwidth = 0.8",
                              "kind = snapshot")
    with pytest.raises(ConfigError, match="density_snapshot"):
        load_config(write(tmp_path, missing, name="missing.ini"))


def test_resolved_file_is_stable_and_reloads_identically(tmp_path):
    src = write(tmp_path,
                MINIMAL.replace("width = 0.8",
                                "width = 0.8\nvelocity_amplitude = 0.1")
                + "\n[sweep]\namplitude_scales = 1, 2, 4\n")
    cfg = load_config(src)

    first = tmp_path / "resolved1.ini"
    write_resolved(cfg, first)
    cfg2 = load_config(first)
    assert cfg2 == cfg

    second = tmp_path / "resolved2.ini"
    write_resolved(cfg2, second)
    assert first.read_bytes() == second.read_bytes()


def test_every_key_round_trips_through_the_resolved_file(tmp_path):
    cfg = load_config(write(tmp_path, EVERY_KEY))
    for f in fields(cfg):
        assert getattr(cfg, f.name) != f.default, f.name
    first = tmp_path / "resolved1.ini"
    write_resolved(cfg, first)
    assert first.read_text() == EVERY_KEY
    cfg2 = load_config(first)
    assert cfg2 == cfg
    second = tmp_path / "resolved2.ini"
    write_resolved(cfg2, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("section, key, default", [
    ("initial", "background", 0.0),
    ("solver", "cadence", 32),
    ("output", "snapshots", False),
    ("initial", "center", None),
    ("output", "diagnostics", ALL_DIAGNOSTICS),
    ("sweep", "amplitude_scales", ()),
])
def test_blank_value_takes_the_default(tmp_path, section, key, default):
    cfg = load_config(write(tmp_path, set_key(MINIMAL, section, key)))
    assert getattr(cfg, key) == default


@pytest.mark.parametrize("section, key, message", [
    ("initial", "kind", r"\[initial\] kind must be 'bump' or 'snapshot', "
                        r"got ''$"),
    ("params", "A", r"^missing required key \[params\] A$"),
    ("grid", "dim", r"^missing required key \[grid\] dim$"),
], ids=["kind", "A", "dim"])
def test_blank_kind_or_required_key_is_rejected(tmp_path, section, key,
                                                message):
    with pytest.raises(ConfigError, match=message):
        load_config(write(tmp_path, set_key(MINIMAL, section, key)))


def test_readme_example_loads_as_shown(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^```ini\n(.*?)^```", readme, re.S | re.M).group(1)
    shown = dict(re.findall(r"^(\w+) = (.*)$", block, re.M))
    cfg = load_config(write(tmp_path, block))
    assert cfg.dim == int(shown["dim"])
    assert cfg.n == int(shown["n"])
    assert cfg.t_window == float(shown["t_window"])
    assert cfg.eta_levels == int(shown["eta_levels"])

"""Command line front end.

Subcommands: validate, run, sweep, mms, oracle-compare. All behavior is
driven by one INI configuration file; the only flags are --config on every
subcommand (optional on mms), --out and --snapshots on run and sweep, the
two that write a bundle, and --seed on run, sweep and oracle-compare (which
ignores it). There are no environment overrides, so a command line plus a
config file pins a run completely.

Exit codes: 0 success, 1 constraint or validation failure, 2 runtime solver
or quality failure, 3 I/O failure. An argparse usage error exits 2 too; its
"usage:" line on stderr tells it apart. A subcommand raises its failures, and
main alone maps each to its exit code and its one "error:" line; a
subcommand returns a failing code itself only with a message of its own:
a bundle or table it cannot write, or a quality gate its results miss.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import sys
from functools import partial

from .diagnostics import (
    characteristics_check,
    conservation,
    density_of,
    horizon_times,
    initial_constant,
    ledger,
    nonlinear_residual,
    vacuum_residual,
    validity,
)
from .fields import ScalarField, save_snapshot
from .fixedpoint import (
    ContinuationError,
    LostChild,
    eta_continuation,
    run_forked,
)
from .initial_data import reform_state_from_density
from .linearized import SolverAbort
from .oracle import (
    cross_compare,
    default_case,
    oracle_temporal_study,
    reform_spatial_errors,
    reform_temporal_study,
    refuse_vacuum,
    soft_viscosity_params,
)
from .params import ParameterError, admissibility_rows, check_initial_compatibility
from .runconfig import ConfigError, RunConfig, load_config, write_resolved

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3

MMS_REFORM_TARGET = 3.0
MMS_REFORM_TOL = 0.2
MMS_ORACLE_TARGET = 4.0
MMS_ORACLE_TOL = 0.3
MMS_SPATIAL_FLOOR = 1e-9
ORACLE_COMPARE_GATE = 5e-3


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load(path: str) -> RunConfig:
    """The config at path, with its snapshot files checked readable; a
    config or snapshot file that cannot be read raises a ConfigError from
    its OSError."""
    cfg = load_config(path)
    for key in ("density_snapshot", "velocity_snapshot"):
        if cfg.kind == "snapshot" and getattr(cfg, key):
            try:
                open(getattr(cfg, key), "rb").close()
            except OSError as exc:
                raise ConfigError(f"cannot read [initial] {key}: "
                                  f"{exc}") from exc
    return cfg


def _initial_data(cfg: RunConfig, params, scale: float = 1.0):
    """(rho0, u0, density-cap report), or ConfigError if unbuildable or capped."""
    try:
        rho0, u0 = cfg.density(scale), cfg.velocity(scale)
    except ValueError as exc:
        raise ConfigError(f"initial data: {exc}") from exc
    compat = check_initial_compatibility(params, rho0)
    if not compat.passed:
        raise ConfigError(f"initial data violates the density cap: "
                          f"{compat.message}")
    return rho0, u0, compat


def _sha256(path) -> str:
    # hashlib maps OpenSSL's libcrypto into the process; only a run bundle's
    # manifest needs it, and run_pipeline hashes in a child
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# -- validate ----------------------------------------------------------------


def cmd_validate(args) -> int:
    cfg = _load(args.config)
    print(f"constraint report for {args.config}")
    rows = admissibility_rows(cfg.A, cfg.gamma, cfg.alpha, cfg.delta1,
                              cfg.delta2)
    width = max(len(r[0]) for r in rows)
    for name, margin, ok in rows:
        mark = "pass" if ok else "FAIL"
        print(f"  {name:<{width}}  margin {margin:+.6g}  {mark}")

    params = cfg.fluid_params()
    print(f"  a1 = {params.a1:.9g}")
    print(f"  m  = {params.m:.9g}")
    if params.a2_density_cap is not None:
        print(f"  density cap (beta < 0): {params.a2_density_cap:.9g}")

    rho0, u0, compat = _initial_data(cfg, params)
    print(f"  initial data: {compat.message}")

    c0 = initial_constant(reform_state_from_density(rho0, u0, params))
    c3 = math.sqrt(cfg.calib_C) * c0
    t1, t2, t3, tss = horizon_times(cfg.t_window, c3, params.m)
    print(f"  horizon preview (c0 = {c0:.6g}, c3 = {c3:.6g}, "
          f"T = {cfg.t_window:g}):")
    print(f"    T1 = {t1:.6g}  T2 = {t2:.6g}  T3 = {t3:.6g}  "
          f"T** = {tss:.6g}")
    print("ok")
    return EXIT_OK


# -- run ---------------------------------------------------------------------


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header: list, rows) -> None:
    """Every table of a bundle or a sweep: a header row, then the rows, all
    ASCII, floats already formatted by the caller."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _e_or_blank(value: float) -> str:
    """A table float, or "" for NaN: level 0's distance, a dropped
    particle's error."""
    return "" if math.isnan(value) else f"{value:.17e}"


def _bundle_tables(led, report, chars) -> dict:
    """name -> (header, rows) of each table of a run bundle, each row built
    as it is written. Floats carry 17 significant digits, so each reads
    back exactly."""
    header = ["time"]
    header += [f"vphi_h{s}" for s in (1, 2, 3)]
    header += [f"phi_h{s}" for s in (1, 2, 3)]
    header += [f"u_h{s}" for s in (1, 2, 3)]
    header += [f"int_weighted_d{s + 1}" for s in (1, 2, 3)]
    header += ["dvphi_h2", "dphi_h2", "du_h1", "ok1", "ok2", "ok3"]

    def ledger_rows():
        for i, t in enumerate(led.times):
            row = [f"{t:.17e}"]
            row += [f"{v:.17e}" for v in led.vphi_norms[i]]
            row += [f"{v:.17e}" for v in led.phi_norms[i]]
            row += [f"{v:.17e}" for v in led.u_norms[i]]
            row += [f"{v:.17e}" for v in led.weighted_integrals[i]]
            row += [f"{led.dvphi_h2[i]:.17e}", f"{led.dphi_h2[i]:.17e}",
                    f"{led.du_h1[i]:.17e}"]
            row += [int(b) for b in led.level_ok[i]]
            yield row

    tables = {
        "ledger.csv": (header, ledger_rows()),
        "continuation.csv": (
            ["level", "eta", "picard_iters", "picard_S", "distance"],
            ([lv.index, f"{lv.eta:.17e}", lv.picard_iters,
              f"{lv.picard_S:.17e}", _e_or_blank(lv.distance)]
             for lv in report.levels)),
        # wall times are left out so reruns of the same configuration
        # produce byte-identical files
        "picard_trace.csv": (
            ["k", "S_k", "linf_delta"],
            ([it.k, f"{it.S_k:.17e}", f"{it.linf_delta:.17e}"]
             for it in report.final_trace.iterations)),
    }
    if chars is not None:
        tables["characteristics.csv"] = (
            ["start", "dropped", "rel_error"],
            ([";".join(f"{c:.17e}" for c in row.start), int(row.dropped),
              _e_or_blank(row.rel_error)] for row in chars.particles))
    return tables


def _level_json(lv, key: str) -> dict:
    """The fields of a continuation level (a continuation.csv row) for a
    JSON file: its index under key, and a NaN distance (level 0's) as null."""
    return {key: lv.index, "eta": lv.eta, "picard_iters": lv.picard_iters,
            "picard_S": lv.picard_S,
            "distance": None if math.isnan(lv.distance) else lv.distance}


def _failure_record(out_dir, phase: str, time, detail: str, **more) -> None:
    _write_json(os.path.join(out_dir, "failure.json"),
                {"phase": phase, "time": time, "detail": detail, **more})


def run_pipeline(cfg: RunConfig, out_dir: str, seed: int,
                 snapshots: bool, scale: float = 1.0) -> dict:
    """Execute continuation plus diagnostics and write the report bundle,
    with snapshots when the flag or [output] snapshots asks for them.
    The diagnostics run as run_forked jobs over the final trajectory, which
    the children inherit, and the manifest's digests are taken in a
    run_forked child, "manifest", so this process never loads hashlib
    (OpenSSL). Returns the summary dictionary; raises ContinuationError
    after writing failure.json, with the rows of the levels read before
    it, when the solve dies (eta_continuation raises every SolverAbort as
    the failing level's), and
    LostChild when a diagnostics or the manifest child does. The parameters
    and the initial data are checked before out_dir is created, so refused
    input leaves no directory behind."""
    params = cfg.fluid_params()
    rho0, u0, _ = _initial_data(cfg, params, scale)
    init = reform_state_from_density(rho0, u0, params)
    os.makedirs(out_dir, exist_ok=True)

    resolved = os.path.join(out_dir, "resolved_config.ini")
    write_resolved(cfg, resolved)

    files = ["resolved_config.ini"]
    try:
        traj, report = eta_continuation(
            init, params, cfg.schedule(), cfg.t_window,
            picard_tol=cfg.picard_tol, max_iter=cfg.max_iter,
            cfl_safety=cfg.cfl_safety, sample_dt=cfg.sample_dt())
    except ContinuationError as exc:
        cause = exc.__cause__
        t_fail = getattr(cause, "time", None)
        _failure_record(out_dir, f"continuation level {exc.level}", t_fail,
                        str(exc), levels=[_level_json(lv, "level")
                                          for lv in exc.levels])
        raise

    def certificates():
        led = ledger(traj, params, calib_C=cfg.calib_C)
        return (led, validity(traj, led, params), conservation(traj, params),
                vacuum_residual(traj, params))

    jobs = {"ledger": certificates}
    if "characteristics" in cfg.diagnostics:
        jobs["characteristics"] = partial(characteristics_check, traj, params,
                                          seed=seed)
    if "residual" in cfg.diagnostics:
        jobs["residual"] = partial(nonlinear_residual, traj, params,
                                   eta=report.levels[-1].eta)
    try:
        results = dict(zip(jobs, list(run_forked(jobs.items()))))
    except LostChild as exc:
        _failure_record(out_dir, "diagnostics", None, str(exc))
        raise
    led, verdict, cons, vac = results["ledger"]
    chars, resid = results.get("characteristics"), results.get("residual")

    for name, (header, rows) in _bundle_tables(led, report, chars).items():
        _write_csv(os.path.join(out_dir, name), header, rows)
        files.append(name)

    if snapshots or cfg.snapshots:
        rho_final = ScalarField(traj.grid, density_of(traj.vphi[-1], params))
        save_snapshot(os.path.join(out_dir, "final_density.snap"),
                      rho_final, "density", time=traj.times[-1])
        save_snapshot(os.path.join(out_dir, "final_velocity.snap"),
                      traj.final.u, "velocity", time=traj.times[-1])
        files += ["final_density.snap", "final_velocity.snap"]

    t1, t2, t3, tss = led.horizons
    summary = {
        "seed": seed,
        "scale": scale,
        "params": {
            "A": params.A, "gamma": params.gamma, "alpha": params.alpha,
            "beta": params.beta, "delta1": params.delta1,
            "delta2": params.delta2, "a1": params.a1, "m": params.m,
            "density_cap": params.a2_density_cap,
            "calib_C": cfg.calib_C,
        },
        "grid": {"dim": cfg.dim, "n": cfg.n, "length": cfg.length},
        "t_window": cfg.t_window,
        "cadence": cfg.cadence,
        "continuation": {
            "levels": [_level_json(lv, "index") for lv in report.levels],
            "reached_tol": report.reached_tol,
        },
        "picard": {
            "iterations": report.levels[-1].picard_iters,
            "final_S": report.levels[-1].picard_S,
            "converged": True,
        },
        "ledger": {
            "c0": led.c0, "c_levels": list(led.c_levels),
            "m": params.m,
            "T1": t1, "T2": t2, "T3": t3, "T_star_star": tss,
            "first_crossing": led.first_crossing,
            "sup_vphi_h3": float(led.vphi_norms[:, 2].max()),
            "sup_phi_h3": float(led.phi_norms[:, 2].max()),
            "sup_u_h3": float(led.u_norms[:, 2].max()),
            "all_levels_ok": bool(led.level_ok.all()),
        },
        "validity": {
            "t_valid": verdict.t_valid,
            "reasons": list(verdict.reasons),
            "coeff_min_final": verdict.coeff_min[-1],
        },
        "conservation": {
            "mass_drift": cons.mass_drift,
            "momentum_drift": cons.momentum_drift,
        },
        "vacuum": {
            "residual": vac.residual, "no_vacuum": vac.no_vacuum,
            "cell_count": vac.cell_count,
        },
        "characteristics": None if chars is None else {
            "max_rel_error": chars.max_rel_error,
            "traced": chars.traced, "dropped": chars.dropped,
        },
        "residual": None if resid is None else {
            "reform_linf": resid.reform_linf,
            "primitive_linf": resid.primitive_linf,
            "reform_u_l2": resid.reform_u_l2,
            "primitive_momentum_l2": resid.primitive_momentum_l2,
        },
        "clip": {
            "total_count": int(sum(traj.clip_counts)),
            "max_mass": (float(max(traj.clipped_mass))
                         if traj.clipped_mass else 0.0),
        },
        "steps": len(traj.dt_history),
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    files.append("summary.json")

    def digests():
        return {name: _sha256(os.path.join(out_dir, name))
                for name in sorted(files)}

    try:
        [hashed] = run_forked([("manifest", digests)])
    except LostChild as exc:
        _failure_record(out_dir, "manifest", None, str(exc))
        raise
    _write_json(os.path.join(out_dir, "manifest.json"), {"files": hashed})
    return summary


def cmd_run(args) -> int:
    cfg = _load(args.config)
    out_dir = args.out or cfg.directory or "."
    try:
        summary = run_pipeline(cfg, out_dir, args.seed, args.snapshots)
    except OSError as exc:
        if not os.path.isdir(out_dir):
            return _fail(f"cannot create output directory {out_dir}: {exc}",
                         EXIT_IO)
        return _fail(f"cannot write bundle: {exc}", EXIT_IO)
    print(f"run complete: t_valid = {summary['validity']['t_valid']:g} "
          f"of T = {cfg.t_window:g}")
    print(f"  T** = {summary['ledger']['T_star_star']:.6g}, "
          f"m = {summary['params']['m']:g}, "
          f"c3 = {summary['ledger']['c_levels'][2]:.6g}")
    print(f"  mass drift = {summary['conservation']['mass_drift']:.3e}")
    print(f"  bundle written to {out_dir}")
    return EXIT_OK


# -- sweep -------------------------------------------------------------------


def _sweep_row(cfg: RunConfig, scale: float, row_dir: str, seed: int,
               snapshots: bool) -> dict:
    """One sweep row, isolated in its own directory."""
    row = {"scale": scale, "status": "ok", "t_valid": "", "c0": "",
           "c3": "", "m": "", "T_star_star": "", "mass_drift": "",
           "picard_iters": "", "note": ""}
    try:
        summary = run_pipeline(cfg, row_dir, seed, snapshots, scale=scale)
    except (ConfigError, ParameterError) as exc:
        row["status"] = "rejected"
        row["note"] = str(exc)
        return row
    except (ContinuationError, LostChild, OSError) as exc:
        row["status"] = "failed"
        row["note"] = (f"cannot write bundle: {exc}" if isinstance(exc, OSError)
                       else str(exc))
        return row
    row.update({
        "t_valid": repr(summary["validity"]["t_valid"]),
        "c0": repr(summary["ledger"]["c0"]),
        "c3": repr(summary["ledger"]["c_levels"][2]),
        "m": repr(summary["ledger"]["m"]),
        "T_star_star": repr(summary["ledger"]["T_star_star"]),
        "mass_drift": repr(summary["conservation"]["mass_drift"]),
        "picard_iters": str(summary["picard"]["iterations"]),
    })
    return row


def cmd_sweep(args) -> int:
    cfg = _load(args.config)
    scales = cfg.amplitude_scales or (1.0,)
    out_dir = args.out or cfg.directory or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        return _fail(f"cannot create output directory {out_dir}: {exc}",
                     EXIT_IO)

    rows = [_sweep_row(cfg, scale,
                       os.path.join(out_dir, f"row_{i:02d}_scale_{scale:g}"),
                       args.seed, args.snapshots)
            for i, scale in enumerate(scales)]

    header = ["row", "scale", "status", "t_valid", "c0", "c3", "m",
              "T_star_star", "mass_drift", "picard_iters", "note"]
    csv_path = os.path.join(out_dir, "sweep.csv")
    try:
        _write_csv(csv_path, header,
                   ([i, repr(row["scale"])] + [row[k] for k in header[2:]]
                    for i, row in enumerate(rows)))
    except OSError as exc:
        return _fail(f"cannot write sweep table: {exc}", EXIT_IO)

    rejected = sum(1 for r in rows if r["status"] == "rejected")
    failed = sum(1 for r in rows if r["status"] == "failed")
    for i, row in enumerate(rows):
        line = f"  row {i}: scale {row['scale']:g} -> {row['status']}"
        if row["status"] == "ok":
            line += f", t_valid = {float(row['t_valid']):g}"
        elif row["note"]:
            line += f" ({row['note']})"
        print(line)
    print(f"sweep complete: {len(rows)} rows, {rejected} rejected, "
          f"{failed} failed; table in {csv_path}")
    if rejected:
        print(f"warning: {rejected} row(s) rejected by validation")
    return EXIT_OK


# -- mms ---------------------------------------------------------------------


def cmd_mms(args) -> int:
    params = _load(args.config).fluid_params() if args.config else None
    if not _mms_tables(params):
        return _fail("mms study missed a target", EXIT_SOLVER)
    print("all mms targets met")
    return EXIT_OK


def _mms_tables(params) -> bool:
    """Print the temporal and spatial studies; True when every target is
    met."""
    t_win = 8e-3
    ok = True
    for study_of, case_params, steps, target, tol in (
            (reform_temporal_study, params, (10, 20, 40),
             MMS_REFORM_TARGET, MMS_REFORM_TOL),
            (oracle_temporal_study, soft_viscosity_params(), (5, 10, 20),
             MMS_ORACLE_TARGET, MMS_ORACLE_TOL)):
        case = default_case(params=case_params, freq_rho=17.0, freq_u=23.0)
        study = study_of(case, [t_win / k for k in steps], t_win)
        print(f"{study.label}:")
        for lev, err in zip(study.levels, study.errors):
            print(f"  level {lev:g}  error {err:.6e}")
        mean = sum(study.orders) / len(study.orders)
        orders = ", ".join(f"{o:.3f}" for o in study.orders)
        print(f"  observed orders: {orders} (mean {mean:.3f})")
        met = abs(mean - target) <= tol
        print(f"  target {target} +- {tol}: {'pass' if met else 'FAIL'}")
        ok = ok and met

    ns = [128, 256, 512]
    spatial = reform_spatial_errors(ns, dt=5e-5, t_window=5e-4)
    print("reform spatial (band-limited case):")
    for n, err in zip(ns, spatial):
        print(f"  n = {n:g}  error {err:.6e}")
    worst = max(spatial)
    ok_s = worst <= MMS_SPATIAL_FLOOR
    print(f"  floor {MMS_SPATIAL_FLOOR:g}: {'pass' if ok_s else 'FAIL'}")
    return ok and ok_s


# -- oracle-compare ----------------------------------------------------------


def cmd_oracle_compare(args) -> int:
    cfg = _load(args.config)
    params = cfg.fluid_params()
    rho0, u0, _ = _initial_data(cfg, params)
    # the one refusal of input here; what the forked solves raise reaches main
    try:
        refuse_vacuum(rho0.values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = cross_compare(rho0, u0, params, cfg.t_window,
                           sample_dt=cfg.sample_dt(), picard_tol=cfg.picard_tol,
                           max_iter=cfg.max_iter, cfl_safety=cfg.cfl_safety)

    print("time        L2 distance")
    for t, d in zip(report.times, report.distances):
        print(f"{t:<10.6g}  {d:.6e}")
    print(f"sup distance = {report.sup_distance:.6e} "
          f"(gate {ORACLE_COMPARE_GATE:g})")
    if not report.picard_converged:
        return _fail("picard iteration did not converge", EXIT_SOLVER)
    if report.sup_distance > ORACLE_COMPARE_GATE:
        return _fail("distance above gate", EXIT_SOLVER)
    print("ok")
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacflow",
        description="Spectral solver and validity diagnostics for "
                    "degenerate-viscosity compressible flow with vacuum.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, config_required=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=config_required, default="",
                       help="path to the INI run configuration")
        p.set_defaults(func=func)
        return p

    def seeded(p, help_text="seed of random.Random, which draws the "
                            "characteristics check's particles"):
        p.add_argument("--seed", type=int, default=20250819, help=help_text)
        return p

    def bundled(p):
        p.add_argument("--out", default="",
                       help="output directory (overrides [output] directory)")
        p.add_argument("--snapshots", action="store_true",
                       help="also write final-state snapshot files")
        return p

    add("validate", cmd_validate,
        "check constants and initial data, print margins and horizons")
    bundled(seeded(add(
        "run", cmd_run,
        "full continuation run with diagnostics and report bundle")))
    bundled(seeded(add(
        "sweep", cmd_sweep,
        "run a family of amplitude-scaled configs, aggregate one CSV")))
    add("mms", cmd_mms, "manufactured-solution convergence tables",
        config_required=False)
    seeded(add("oracle-compare", cmd_oracle_compare,
               "distance between the main pipeline and the primitive-variable "
               "oracle on shared data"),
           "ignored: nothing is drawn; accepted because the benchmark "
           "(perfbench/run.py) passes it to every workload")
    return parser


def _trim_heap() -> None:
    """Return the heap the imports freed to the system (glibc's malloc_trim),
    so no child forked later holds it; elsewhere this does nothing."""
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    trim = getattr(libc, "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
        trim(0)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _trim_heap()
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 130
    except ParameterError as exc:
        return _fail(f"parameter constraint violated: {exc}", EXIT_VALIDATION)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_IO if isinstance(exc.__cause__, OSError)
                     else EXIT_VALIDATION)
    except (SolverAbort, ContinuationError, LostChild) as exc:
        # run_pipeline writes failure.json before it raises either failure
        # that reaches here from run: a failed level or a lost child
        seen = " (see failure.json)" if args.command == "run" else ""
        return _fail(f"solver failure: {exc}{seen}", EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())

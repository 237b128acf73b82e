"""vacflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload is one pinned vacflow command
(configs/NAME.ini) run in a fresh child process, one child at a time: a
closed loop with one client, for S seconds and at least one run.

--trace 0 reports the end-to-end metrics, with nothing wrapped:
  wall_s        child start to exit, median over the runs
  setup_s       child start to the first call into the fixedpoint layer
                (imports, config, initial state, admissibility checks),
                median over the runs and SETUP_PROBES set-up-only children
  peak_rss_mib  the child's own peak RSS (os.wait4), median over the runs
  accuracy_err  the workload's gated accuracy figure: the summary.json
                mass drift on run-*, the printed sup distance on oracle-3d
--trace 1 runs the same closed loop untraced, then one child with every
layer wrapped (tracer.py), and reports the per-layer metrics plus
trace.overhead_s, the traced wall time minus the untraced median. Its spans
and counters are written to .perfbench_work/trace-NAME-seedN.json.

Every run is checked. It fails when the command exits non-zero, when its
accuracy fields leave reference.json's tolerance, when manifest.json does
not match the bundle, or when its bundle differs from the first bundle of
the same workload and source tree (rerun determinism). The last line of
stdout is the JSON result; a benchmark that cannot run exits non-zero
without one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"
REFERENCE = os.path.join(HERE, "reference.json")

# workload -> (vacflow subcommand, writes a report bundle)
WORKLOADS = {
    "run-1d": ("run", True),
    "run-2d": ("run", True),
    "oracle-3d": ("oracle-compare", False),
}
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150.0
# Start no further optional child once a run could end past this.
RUN_BUDGET_S = 160.0
# Bundle files that depend on --seed (the characteristics particle draw).
SEEDED_FILES = ("characteristics.csv", "summary.json")
SUP_DISTANCE = re.compile(r"^sup distance = (\S+)", re.M)


class Child:
    """One finished child process: its measurements and its outputs."""

    def __init__(self, workload: str, mode: str, seed: int, tag: str):
        command, bundle = WORKLOADS[workload]
        base = os.path.join(WORK, tag)
        self.out_dir = base + ".out" if bundle else None
        record_path = base + ".record.json"
        stdout_path = base + ".stdout"
        argv = [sys.executable, os.path.join(HERE, "child.py"), mode,
                record_path, "--", command, "--config",
                os.path.join(HERE, "configs", workload + ".ini"),
                "--seed", str(seed)]
        if self.out_dir:
            argv += ["--out", self.out_dir]

        with open(stdout_path, "wb") as out, open(base + ".stderr",
                                                  "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            self.wall_s = time.monotonic() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mib = usage.ru_maxrss / 1024.0  # KiB on Linux
        with open(stdout_path, encoding="utf-8", errors="replace") as fh:
            self.stdout = fh.read()
        try:
            with open(record_path, encoding="utf-8") as fh:
                self.record = json.load(fh)
        except (OSError, ValueError):
            self.record = {}
        clock = self.record.get("setup_clock")
        self.setup_s = None if clock is None else clock - start


def remove_outputs(prefix: str) -> None:
    """Delete the children's files and bundles whose tag starts with prefix."""
    for name in os.listdir(WORK):
        if name.startswith(prefix):
            path = os.path.join(WORK, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)


# -- accuracy gate -------------------------------------------------------------


def accuracy_fields(summary: dict) -> dict:
    """The summary.json fields the reference pins."""
    levels = summary["continuation"]["levels"]
    return {
        "t_valid": summary["validity"]["t_valid"],
        "mass_drift": summary["conservation"]["mass_drift"],
        "c0": summary["ledger"]["c0"],
        "c_levels": summary["ledger"]["c_levels"],
        "T_star_star": summary["ledger"]["T_star_star"],
        "picard_iters": [lv["picard_iters"] for lv in levels],
        "distances": [lv["distance"] for lv in levels],
    }


def oracle_fields(stdout: str) -> dict:
    found = SUP_DISTANCE.findall(stdout)
    return {"sup_distance": float(found[-1])} if found else {}


def gate(observed: dict, reference: dict, rtol: float) -> list:
    """Mismatches between observed and reference fields: integers and
    missing values must agree exactly, floats within rtol relative."""
    def close(a, b) -> bool:
        if isinstance(b, list):
            return (isinstance(a, list) and len(a) == len(b)
                    and all(close(x, y) for x, y in zip(a, b)))
        if isinstance(b, float) and isinstance(a, (int, float)):
            return math.isfinite(a) and abs(a - b) <= rtol * abs(b)
        return a == b

    return [f"{key}: {observed.get(key)!r} vs reference {ref!r}"
            for key, ref in reference.items()
            if not close(observed.get(key), ref)]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def verify_manifest(out_dir: str) -> tuple:
    """(manifest hashes, problems): every listed file must hash as listed."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        files = json.load(fh)["files"]
    bad = [name for name, digest in files.items()
           if sha256_file(os.path.join(out_dir, name)) != digest]
    return files, [f"manifest hash mismatch: {name}" for name in bad]


def seed_free_digest(out_dir: str, files: dict) -> str:
    """Digest of the bundle minus what --seed changes, so that runs with
    different seeds can still be compared for determinism."""
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    summary.pop("seed", None)
    summary.pop("characteristics", None)
    h = hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
    for name in sorted(files):
        if name not in SEEDED_FILES:
            h.update(f"{name}={files[name]}\n".encode())
    return h.hexdigest()


def source_digest() -> str:
    """Digest of the sources and the workload configs: one commit's
    identity."""
    h = hashlib.sha256()
    for top in ("src", os.path.join(HERE, "configs")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".py", ".ini")):
                    path = os.path.relpath(os.path.join(dirpath, name))
                    h.update(f"{path}={sha256_file(path)}\n".encode())
    return h.hexdigest()


class Checker:
    """Checks each run against the reference and, for bundles, against the
    first bundle of this workload: within this process (all files) and
    across processes on the same source tree (seed-free digest, kept in
    .perfbench_work/determinism.json)."""

    def __init__(self, workload: str):
        self.workload = workload
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)["workloads"][workload]
        self.rtol = ref["rtol"]
        self.reference = ref["fields"]
        self.first_files = None
        self.state_path = os.path.join(WORK, "determinism.json")
        self.source = source_digest()

    def _first_digest(self, digest: str) -> str:
        try:
            with open(self.state_path, encoding="utf-8") as fh:
                state = json.load(fh)
        except (OSError, ValueError):
            state = {}
        entry = state.get(self.workload)
        if entry and entry["source"] == self.source:
            return entry["digest"]
        state[self.workload] = {"source": self.source, "digest": digest}
        tmp = self.state_path + f".{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(state, fh, indent=1)
        os.replace(tmp, self.state_path)
        return digest

    def problems(self, child: Child) -> tuple:
        """(accuracy figure or None, list of problems) for one run."""
        if child.exit_code != 0 or child.record.get("exit_code") != 0:
            return None, [f"exit code {child.exit_code}, command exit "
                          f"{child.record.get('exit_code')}"]
        if child.record["mode"] == "probe":
            return None, ([] if child.setup_s is not None
                          else ["no fixedpoint call"])
        if child.out_dir is None:
            observed = oracle_fields(child.stdout)
            return (observed.get("sup_distance"),
                    gate(observed, self.reference, self.rtol))
        try:
            files, bad = verify_manifest(child.out_dir)
            with open(os.path.join(child.out_dir, "summary.json"),
                      encoding="utf-8") as fh:
                observed = accuracy_fields(json.load(fh))
            digest = seed_free_digest(child.out_dir, files)
        except (OSError, ValueError, KeyError) as exc:
            return None, [f"unreadable bundle: {exc}"]
        bad += gate(observed, self.reference, self.rtol)
        if bad:
            return observed["mass_drift"], bad
        # Only a bundle that passed the gate becomes the first bundle.
        if self.first_files is None:
            self.first_files = files
        elif files != self.first_files:
            bad.append("bundle differs from this run's first bundle")
        if digest != self._first_digest(digest):
            bad.append("bundle differs from the first bundle of this "
                       "source tree")
        return observed["mass_drift"], bad


# -- the benchmark ---------------------------------------------------------------


def metric_units(trace: bool) -> dict:
    """name -> unit of every metric this kind of run reports, in the order
    BENCHMARK.json lists them."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _finite(value):
    return value if value is not None and math.isfinite(value) else None


def run_benchmark(workload: str, seed: int, seconds: float,
                  trace: bool) -> dict:
    checker = Checker(workload)
    started = time.monotonic()
    attempted = failed = 0
    figures: list = []

    def spawn(mode: str) -> Child:
        nonlocal attempted, failed
        attempted += 1
        child = Child(workload, mode, seed,
                      f"{workload}-{os.getpid()}-{attempted}-{mode}")
        figure, bad = checker.problems(child)
        if bad:
            failed += 1
            for line in bad:
                print(f"{workload} run {attempted} ({mode}): {line}",
                      file=sys.stderr)
        elif figure is not None:
            figures.append(figure)
        return child

    probes = [] if trace else [spawn("probe") for _ in range(SETUP_PROBES)]
    loop_start = time.monotonic()
    runs = [spawn("time")]
    # A traced run still needs room for its traced child.
    reserve = 2.0 if trace else 1.0
    while (time.monotonic() - loop_start < seconds
           and time.monotonic() - started + reserve * runs[-1].wall_s
           < RUN_BUDGET_S):
        runs.append(spawn("time"))
    wall = statistics.median(c.wall_s for c in runs)

    if trace:
        from tracer import layer_metrics
        traced = spawn("trace")
        metrics = {}
        if "trace" in traced.record:
            metrics = layer_metrics(traced.record["trace"],
                                    traced.record["import_s"])
        metrics["trace.overhead_s"] = traced.wall_s - wall
        with open(os.path.join(WORK, f"trace-{workload}-seed{seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"metrics": metrics, **traced.record}, fh)
    else:
        setups = [c.setup_s for c in probes + runs if c.setup_s is not None]
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups) if setups else math.nan,
            "peak_rss_mib": statistics.median(c.peak_rss_mib for c in runs),
            "accuracy_err": (statistics.median(figures) if figures
                             else math.nan),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # A metric that no run produced reads null.
        "metrics": {name: {"value": _finite(metrics.get(name)), "unit": unit}
                    for name, unit in metric_units(trace).items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running child is killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "vacflow", "cli.py")):
        print("error: run from the root of a vacflow checkout "
              "(src/vacflow/cli.py not found)", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    selftest = subprocess.run(
        [sys.executable, os.path.join(HERE, "selftest.py")],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    if selftest.returncode != 0:
        print(selftest.stderr, file=sys.stderr)
        print("error: benchmark self-tests failed", file=sys.stderr)
        return 2
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    finally:
        remove_outputs(f"{args.workload}-{os.getpid()}-")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

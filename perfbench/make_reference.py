"""Write reference.json, the accuracy reference of the benchmark.

    python3 perfbench/make_reference.py

Run from the root of a checkout. Runs each workload once and pins the fields
the accuracy gate compares. Regenerate only when a change is meant to move
the numerical results, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

import run

# Relative tolerance of the gate. The summary fields are written with full
# precision, so this leaves room for reordered floating-point arithmetic and
# catches any change of method; the oracle distance is printed to seven
# significant digits, so it gets ten times the room.
RTOL = 1e-6
ORACLE_RTOL = 1e-5


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    workloads = {}
    for name, (_, bundle) in run.WORKLOADS.items():
        child = run.Child(name, "time", 1, f"reference-{name}")
        if child.exit_code != 0:
            print(f"error: {name} exited {child.exit_code}", file=sys.stderr)
            return 1
        if bundle:
            with open(os.path.join(child.out_dir, "summary.json"),
                      encoding="utf-8") as fh:
                fields = run.accuracy_fields(json.load(fh))
            workloads[name] = {"rtol": RTOL, "fields": fields}
        else:
            workloads[name] = {"rtol": ORACLE_RTOL,
                               "fields": run.oracle_fields(child.stdout)}
        print(f"{name}: {child.wall_s:.2f} s", file=sys.stderr)
    run.remove_outputs("reference-")
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"workloads": workloads}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

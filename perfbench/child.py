"""One vacflow command in a fresh process, as the benchmark's child.

    python3 perfbench/child.py MODE RECORD -- VACFLOW-ARGS...

MODE is one of
  time   run the command; stamp the first call into the fixedpoint layer
  probe  stop at that first call: a set-up-only run
  trace  run the command with every layer wrapped (see tracer.py), and
         no stamp

RECORD is a JSON file the child writes before it exits: the command's exit
code, the clock reading at the first fixedpoint call (CLOCK_MONOTONIC, which
the parent shares), the import time of vacflow.cli and, in trace mode, the
spans and counters. vacflow is imported from src/ of the checkout.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _SetupDone(BaseException):
    """Raised at the first fixedpoint call in probe mode. Derives from
    BaseException so the command's own error handling lets it through."""


def _stamp_fixedpoint(record: dict, stop: bool) -> None:
    """Rebind every fixedpoint function that another vacflow module imported
    by name, so that the first call into the layer records the clock."""
    import vacflow.fixedpoint as fixedpoint

    def stamped(fn):
        def wrapper(*args, **kwargs):
            if "setup_clock" not in record:
                record["setup_clock"] = time.monotonic()
                if stop:
                    raise _SetupDone
            return fn(*args, **kwargs)
        return wrapper

    wrapped = {fn: stamped(fn) for fn in vars(fixedpoint).values()
               if inspect.isfunction(fn)
               and fn.__module__ == fixedpoint.__name__}
    for mod_name, mod in list(sys.modules.items()):
        if mod is fixedpoint or not mod_name.startswith("vacflow."):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])


def main(argv) -> int:
    mode, record_path = argv[1], argv[2]
    if argv[3] != "--" or mode not in ("time", "probe", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    command = argv[4:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    record: dict = {"mode": mode}

    t0 = time.perf_counter()
    import vacflow.cli
    record["import_s"] = time.perf_counter() - t0

    tracer = None
    if mode == "trace":
        from tracer import Tracer  # beside this script, on sys.path
        tracer = Tracer()
        tracer.install()
    else:
        _stamp_fixedpoint(record, stop=mode == "probe")
    try:
        record["exit_code"] = vacflow.cli.main(command)
    except _SetupDone:
        record["exit_code"] = 0
    finally:
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = tracer.dump()
    sys.stdout.flush()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

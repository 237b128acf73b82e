"""Layer tracing by rebinding, from outside the program.

`Tracer.install()` replaces the public functions of each vacflow layer with
wrappers, in the module that defines them and in every vacflow module that
imported them by name, and `Tracer.uninstall()` puts every original back.
Nothing under src/ is edited.

Two kinds of wrapper:

- spans, at layer boundaries that run at most a few thousand times per
  workload: (name, start, end, parent) kept in memory, written out at the
  end of the run;
- counters, for the hot leaves that run hundreds of thousands of times
  (numpy.fft entry points, `advect`, the coefficient providers, the oracle
  right-hand side): a call count and, where named, busy time and elements.
  A leaf's time falls inside the span that called it.

`layer_metrics()` turns one traced run into the per-layer metrics that
BENCHMARK.json lists.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

# Every numpy.fft transform entry point. A call counts once however numpy
# implements it internally, because only the public names are rebound.
FFT_ENTRY_POINTS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn",
                    "irfftn", "fft2", "ifft2", "rfft2", "irfft2", "hfft",
                    "ihfft")

# (module, function) pairs recorded as spans, named "<module>.<function>".
SPAN_FUNCTIONS = (
    ("cli", "run_pipeline"),
    ("runconfig", "load_config"),
    ("runconfig", "write_resolved"),
    ("params", "check_initial_compatibility"),
    ("fixedpoint", "eta_continuation"),
    ("fixedpoint", "picard_solve"),
    ("fixedpoint", "_start_guess"),
    ("fixedpoint", "trajectory_distance"),
    ("linearized", "solve_linearized"),
    ("linearized", "transport_step"),
    ("linearized", "momentum_step"),
    ("diagnostics", "ledger"),
    ("diagnostics", "validity"),
    ("diagnostics", "conservation"),
    ("diagnostics", "vacuum_residual"),
    ("diagnostics", "characteristics_check"),
    ("diagnostics", "nonlinear_residual"),
    ("oracle", "cross_compare"),
    ("oracle", "primitive_solve"),
)

# RunConfig builders that run_pipeline calls before the solve; spanned so
# that the self time of run_pipeline is the bundle work alone.
SPAN_METHODS = (
    ("runconfig", "RunConfig", ("fluid_params", "initial_state", "density",
                                "velocity")),
)

COUNTED_FUNCTIONS = (
    ("operators", "advect", "advect"),
    ("oracle", "primitive_rhs", "oracle_rhs"),
)

PROVIDER_METHODS = ("velocity", "phi_coeff", "vphi_coeff")


class Tracer:
    """Wrappers, spans and counters of one traced run. The wrappers exist
    only between install() and uninstall()."""

    def __init__(self):
        # [name, start, end, parent index or -1, transforms made inside]
        self.spans: list = []
        self.calls: dict = {}
        self.busy: dict = {}
        self.fft = [0, 0, 0.0]  # calls, elements, seconds
        self.picard_iters = 0
        self.levels_kept = 0
        self.clip_count = 0
        self.oracle_steps = 0
        self._stack: list = []
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        fft = self.fft

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, fft[0]]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                span[4] = fft[0] - span[4]
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def _counted(self, name: str, fn):
        calls, busy, clock = self.calls, self.busy, time.perf_counter
        calls.setdefault(name, 0)
        busy.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            busy[name] += clock() - t0
            calls[name] += 1
            return out

        return wrapper

    def _fft(self, fn):
        acc, clock, size = self.fft, time.perf_counter, np.size

        def wrapper(a, *args, **kwargs):
            t0 = clock()
            out = fn(a, *args, **kwargs)
            acc[2] += clock() - t0
            acc[0] += 1
            # The real-space side: the input of a forward transform, the
            # output of an inverse one.
            acc[1] += max(size(a), out.size)
            return out

        return wrapper

    # -- return-value hooks -------------------------------------------------

    def _on_picard(self, out):
        trace = out[1]
        self.picard_iters += trace.final_k
        self.levels_kept += bool(trace.converged)

    def _on_transport(self, out):
        self.clip_count += out[1].clip_count

    def _on_momentum(self, out):
        self.clip_count += out[2].clip_count

    def _on_primitive(self, out):
        self.oracle_steps += len(out.dt_history)

    # -- install / uninstall --------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, original, new) -> None:
        """Rebind every vacflow module attribute bound to `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "vacflow"
                                   or mod_name.startswith("vacflow.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, attr, new)

    def install(self) -> None:
        """Wrap every layer. vacflow must already be imported. Functions a
        later version of the program no longer has are skipped, and their
        metrics read 0."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        hooks = {
            "fixedpoint.picard_solve": self._on_picard,
            "linearized.transport_step": self._on_transport,
            "linearized.momentum_step": self._on_momentum,
            "oracle.primitive_solve": self._on_primitive,
        }

        def module(name):
            try:
                return importlib.import_module(f"vacflow.{name}")
            except ImportError:
                return None

        for mod_name, fn_name in SPAN_FUNCTIONS:
            fn = getattr(module(mod_name), fn_name, None)
            if callable(fn):
                name = f"{mod_name}.{fn_name}"
                self._rebind_everywhere(
                    fn, self._span(name, fn, hooks.get(name)))
        for mod_name, cls_name, methods in SPAN_METHODS:
            cls = getattr(module(mod_name), cls_name, None)
            for meth in methods:
                fn = vars(cls).get(meth) if cls is not None else None
                if callable(fn):
                    self._rebind(cls, meth,
                                 self._span(f"{mod_name}.{meth}", fn))
        for mod_name, fn_name, counter in COUNTED_FUNCTIONS:
            fn = getattr(module(mod_name), fn_name, None)
            if callable(fn):
                self._rebind_everywhere(fn, self._counted(counter, fn))

        linearized = module("linearized")
        for cls in list(vars(linearized).values()) if linearized else ():
            if isinstance(cls, type) and all(
                    callable(vars(cls).get(m)) for m in PROVIDER_METHODS):
                for meth in PROVIDER_METHODS:
                    self._rebind(cls, meth,
                                 self._counted("coeff", vars(cls)[meth]))

        for fn_name in FFT_ENTRY_POINTS:
            fn = getattr(np.fft, fn_name, None)
            if callable(fn):
                wrapped = self._fft(fn)
                self._rebind(np.fft, fn_name, wrapped)
                self._rebind_everywhere(fn, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    # -- results ----------------------------------------------------------------

    def dump(self) -> dict:
        """Plain data for one run: the spans plus every counter."""
        return {
            "spans": self.spans,
            "fft": {"calls": self.fft[0], "elems": self.fft[1],
                    "seconds": self.fft[2]},
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "picard_iters": self.picard_iters,
            "levels_kept": self.levels_kept,
            "clip_count": self.clip_count,
            "oracle_steps": self.oracle_steps,
        }


def layer_metrics(trace: dict, import_s: float) -> dict:
    """Per-layer metrics of one traced run, from `Tracer.dump()` output.
    Span times are inclusive except cli.bundle_s, which is the self time of
    run_pipeline: its duration minus that of the spans it called directly."""
    spans = trace["spans"]
    total: dict = {}
    count: dict = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start
    bundle = sum(end - start - child_time[i]
                 for i, (name, start, end, _, _) in enumerate(spans)
                 if name == "cli.run_pipeline")
    fft_in_solve = sum(s[4] for s in spans
                       if s[0] == "linearized.solve_linearized")
    steps = count.get("linearized.momentum_step", 0)
    windows = (count.get("linearized.solve_linearized", 0)
               + count.get("fixedpoint._start_guess", 0))
    t = lambda name: total.get(name, 0.0)
    return {
        "fields.fft_calls": trace["fft"]["calls"],
        "fields.fft_elems": trace["fft"]["elems"],
        "fields.fft_s": trace["fft"]["seconds"],
        "fields.fft_per_step": fft_in_solve / steps if steps else 0.0,
        "operators.advect_calls": trace["calls"].get("advect", 0),
        "operators.advect_s": trace["busy"].get("advect", 0.0),
        "linearized.steps": steps,
        "linearized.transport_s": t("linearized.transport_step"),
        "linearized.momentum_s": t("linearized.momentum_step"),
        "linearized.solve_s": t("linearized.solve_linearized"),
        "linearized.coeff_evals": trace["calls"].get("coeff", 0),
        "linearized.clip_count": trace["clip_count"],
        "fixedpoint.picard_iters": trace["picard_iters"],
        "fixedpoint.window_solves": windows,
        "fixedpoint.picard_s": t("fixedpoint.picard_solve"),
        "fixedpoint.solve_yield": (trace["levels_kept"] / windows
                                   if windows else 0.0),
        "diagnostics.ledger_s": t("diagnostics.ledger"),
        "diagnostics.residual_s": t("diagnostics.nonlinear_residual"),
        "diagnostics.characteristics_s": t("diagnostics.characteristics_check"),
        "diagnostics.checks_s": (t("diagnostics.validity")
                                 + t("diagnostics.conservation")
                                 + t("diagnostics.vacuum_residual")),
        "oracle.solve_s": t("oracle.primitive_solve"),
        "oracle.steps": trace["oracle_steps"],
        "oracle.rhs_calls": trace["calls"].get("oracle_rhs", 0),
        "cli.import_s": import_s,
        "cli.bundle_s": bundle,
        "runconfig.load_s": t("runconfig.load_config"),
    }

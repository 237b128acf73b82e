"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Run from the root of a checkout; run.py runs them before every measurement
and refuses to measure when one fails.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import vacflow.cli  # noqa: E402  (imports every layer)
from tracer import Tracer, layer_metrics  # noqa: E402


def _bindings() -> dict:
    """Every attribute the tracer may rebind: vacflow modules and their
    classes, and numpy.fft."""
    owners = [np.fft]
    for name, mod in sys.modules.items():
        if name == "vacflow" or name.startswith("vacflow."):
            owners.append(mod)
            owners += [v for v in vars(mod).values() if isinstance(v, type)]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _summary(mass_drift=6.5e-7, iters=(3, 3, 3)) -> dict:
    return {
        "validity": {"t_valid": 0.004},
        "conservation": {"mass_drift": mass_drift},
        "ledger": {"c0": 272.4, "c_levels": [272.4] * 3,
                   "T_star_star": 4.3e-25},
        "continuation": {"levels": [
            {"picard_iters": k, "distance": d}
            for k, d in zip(iters, (None, 2.8e-4, 7.3e-5))]},
    }


class TracerTests(unittest.TestCase):

    def test_wrappers_removed_after_uninstall(self):
        before = _bindings()
        tracer = Tracer()
        tracer.install()
        try:
            during = _bindings()
            self.assertIsNot(np.fft.fftn, before[(id(np.fft), "fftn")])
            self.assertIsNot(vacflow.cli.run_pipeline,
                             before[(id(vacflow.cli), "run_pipeline")])
            self.assertIsNot(vacflow.linearized.advect,
                             before[(id(vacflow.linearized), "advect")])
        finally:
            tracer.uninstall()
        self.assertFalse(tracer.installed)
        self.assertGreater(sum(during[k] is not v for k, v in before.items()),
                           20)
        after = _bindings()
        changed = [k for k, v in before.items() if after.get(k) is not v]
        self.assertEqual(changed, [])

    def test_counter_catches_rfftn(self):
        tracer = Tracer()
        tracer.install()
        try:
            spec = np.fft.rfftn(np.ones((8, 4)))
            np.fft.irfftn(spec, s=(8, 4), axes=(0, 1))
            np.fft.fft(np.ones(16))
        finally:
            tracer.uninstall()
        dump = tracer.dump()
        self.assertEqual(dump["fft"]["calls"], 3)
        # Real-space elements: 32 in, 32 out, then 16.
        self.assertEqual(dump["fft"]["elems"], 80)
        np.fft.rfftn(np.ones(4))
        self.assertEqual(tracer.dump()["fft"]["calls"], 3)

    def test_calls_by_imported_name_are_traced(self):
        tracer = Tracer()
        tracer.install()
        try:
            vacflow.cli.load_config(
                os.path.join(HERE, "configs", "run-1d.ini"))
            grid = vacflow.fields.Grid(dim=1, n=16, box_length=2 * np.pi)
            vacflow.linearized.advect(grid, np.ones((1, 16)), np.ones(16))
        finally:
            tracer.uninstall()
        dump = tracer.dump()
        self.assertEqual([s[0] for s in dump["spans"]],
                         ["runconfig.load_config"])
        metrics = layer_metrics(dump, import_s=0.0)
        self.assertEqual(metrics["operators.advect_calls"], 1)
        self.assertGreater(metrics["fields.fft_calls"], 0)
        self.assertGreater(metrics["runconfig.load_s"], 0.0)


class GateTests(unittest.TestCase):

    def setUp(self):
        self.reference = run.accuracy_fields(_summary())

    def test_gate_passes_identical_summary(self):
        self.assertEqual(
            run.gate(run.accuracy_fields(_summary()), self.reference, 1e-6),
            [])

    def test_gate_flags_perturbed_summary(self):
        drifted = run.accuracy_fields(_summary(mass_drift=6.5e-7 * 1.0001))
        self.assertEqual(len(run.gate(drifted, self.reference, 1e-6)), 1)
        slower = run.accuracy_fields(_summary(iters=(3, 4, 3)))
        self.assertEqual(len(run.gate(slower, self.reference, 1e-6)), 1)
        broken = copy.deepcopy(self.reference)
        broken["c_levels"][1] = float("nan")
        self.assertEqual(len(run.gate(broken, self.reference, 1e-6)), 1)

    def test_stored_reference_covers_every_workload(self):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            stored = json.load(fh)["workloads"]
        self.assertEqual(set(stored), set(run.WORKLOADS))
        for name, (_, bundle) in run.WORKLOADS.items():
            keys = set(self.reference) if bundle else {"sup_distance"}
            self.assertEqual(set(stored[name]["fields"]), keys, name)

    def test_manifest_check_flags_edited_file(self):
        os.makedirs(run.WORK, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as out:
            path = os.path.join(out, "ledger.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("t,c\n0,1\n")
            with open(os.path.join(out, "manifest.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"files": {"ledger.csv": run.sha256_file(path)}},
                          fh)
            self.assertEqual(run.verify_manifest(out)[1], [])
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("1,2\n")
            self.assertEqual(len(run.verify_manifest(out)[1]), 1)


if __name__ == "__main__":
    unittest.main()

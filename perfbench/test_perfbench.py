"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

The metric-name test against the driver runs only once the driver is built
(any run.py invocation builds it).
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def pif_properties(pif):
    return set(re.findall(r"^(?:ctl|automaton)\s+(\w+)", pif, re.M))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_corpus(self):
        for workload in gen.WORKLOADS:
            for seed in (0, 1, 7, 12345):
                a = json.dumps(gen.generate(workload, seed, ROOT))
                b = json.dumps(gen.generate(workload, seed, ROOT))
                self.assertEqual(a, b, f"{workload} seed {seed}")

    def test_seed_changes_the_corpus(self):
        for workload in gen.WORKLOADS:
            corpora = {json.dumps(gen.generate(workload, seed, ROOT))
                       for seed in range(10)}
            self.assertGreater(len(corpora), 1, workload)

    def test_every_property_has_an_expected_verdict(self):
        for workload in gen.WORKLOADS:
            for design in gen.generate(workload, 3, ROOT)["designs"]:
                self.assertEqual(pif_properties(design["pif"]),
                                 set(design["expected"]), design["name"])

    def test_serve_blocks_have_a_fixed_mix(self):
        manifest = gen.generate("serve-table1", 5, ROOT)
        n = len(manifest["designs"])
        self.assertEqual(n, len(gen.TABLE1))
        mix = sorted(list(range(n)) + [gen.TABLE1.index(gen.SERVE_EXTRA)])
        self.assertEqual(len(mix) % 2, 1)
        for client in manifest["serve"]["blocks"]:
            for block in client:
                self.assertEqual(sorted(block), mix)


class SpecTest(unittest.TestCase):
    def test_workloads_match_generator(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(gen.WORKLOADS))

    def test_command_runs_this_package(self):
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertEqual(Path(run.__file__).resolve().parent, HERE)

    def test_bounds(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    @unittest.skipUnless(run.DRIVER.exists(), "driver not built yet")
    def test_driver_metric_names_match_spec(self):
        out = subprocess.run([str(run.DRIVER), "--list-metrics"],
                             capture_output=True, text=True, check=True)
        listed = json.loads(out.stdout)
        for section in ("end_to_end", "per_layer"):
            self.assertEqual(listed[section],
                             [m["name"] for m in SPEC[section]], section)


if __name__ == "__main__":
    unittest.main()

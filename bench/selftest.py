"""Tests of the benchmark itself:  python3 bench/selftest.py

They cover seeded inputs, a short run of every workload with and without
tracing (checked against the metric names in BENCHMARK.json), and negative
controls: a corrupted library must fail the run of every workload, and the
identities workload must refuse record builders it cannot time.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class SeededInputs(unittest.TestCase):
    def test_pointwise(self):
        self.assertEqual(workloads.pointwise_inputs(5, 200), workloads.pointwise_inputs(5, 200))
        self.assertNotEqual(workloads.pointwise_inputs(5, 200), workloads.pointwise_inputs(6, 200))

    def test_ivp(self):
        self.assertEqual(workloads.ivp_inputs(5, 8), workloads.ivp_inputs(5, 8))
        self.assertNotEqual(workloads.ivp_inputs(5, 8), workloads.ivp_inputs(6, 8))

    def test_identities(self):
        lib = workloads.load_library()
        self.assertEqual(workloads.build_inputs(lib, "identities", 5, 1),
                         workloads.build_inputs(lib, "identities", 5, 1))
        self.assertNotEqual(workloads.build_inputs(lib, "identities", 5, 1),
                            workloads.build_inputs(lib, "identities", 6, 1))


class SmokeRuns(unittest.TestCase):
    """A one-second run of each workload, untraced and traced."""

    def check(self, workload: str, trace: int) -> None:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = last_json(proc.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


class NegativeControls(unittest.TestCase):
    """A library whose q_gamma is off by one part in a million must fail the run."""

    def run_corrupted(self, workload: str, seconds: str) -> dict:
        special = workloads.load_library().special
        q_gamma = special.q_gamma
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "3", "--seconds", seconds,
                                 "--corrupt"])
        finally:
            special.q_gamma = q_gamma
        self.assertEqual(code, 1)
        result = last_json(out.getvalue())
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)
        return result

    def test_pointwise(self):
        self.run_corrupted("pointwise", "0.2")

    def test_ivp_solve(self):
        self.run_corrupted("ivp-solve", "1")

    def test_identities(self):
        self.run_corrupted("identities", "1")

    def test_identities_report_must_repeat(self):
        def rep(digest: str, exit_code: int) -> dict:
            info = {"exit": exit_code, "sha256": digest, "records": [(True, "")] * 3,
                    "headroom": 1.0}
            return {"suites": {suite: info for suite in workloads.SUITES}}

        gate, digests = workloads.Gate(), {}
        workloads.gate_identity_rep(gate, digests, 0, rep("a", 0))
        self.assertEqual(gate.failed, 0)
        workloads.gate_identity_rep(gate, digests, 1, rep("b", 0))
        self.assertEqual(gate.failed, 3 * len(workloads.SUITES))
        gate = workloads.Gate()
        workloads.gate_identity_rep(gate, {}, 0, rep("a", 1))
        self.assertEqual(gate.failed, 3 * len(workloads.SUITES))

    def test_identities_need_lazy_records(self):
        """Records built before they are asked for cannot be timed one by one."""
        lib = workloads.load_library()
        builders = lib.checks._SUITE_BUILDERS
        saved = dict(builders)
        builders["core"] = lambda *args: list(saved["core"](*args))
        try:
            with self.assertRaisesRegex(RuntimeError, "generator functions"):
                workloads.identity_rep(lib, 3, run.OUT_DIR / "selftest")
        finally:
            builders.update(saved)


if __name__ == "__main__":
    unittest.main()

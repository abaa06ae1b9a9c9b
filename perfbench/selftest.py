"""Tests of the benchmark itself: its correctness gate, seeded input and
exact-count identities.  Run from the root of a source checkout with

    python3 perfbench/selftest.py

(the file is deliberately not named ``test_*.py``, so the repository's own
pytest run does not pick it up).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY_UNION = run._sweep("union", "--max-dim", "3", cases=44)


def _workdir():
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT)


def _runner(workload, tmp):
    return run.Runner(workload, Path(tmp) / "reps.json", Path(tmp),
                      time.monotonic() + 60)


class GateTest(unittest.TestCase):
    def verify_out(self, **over):
        out = {"command": "verify union", "status": "PASS",
               "cases_checked": 44, "counterexamples": [], "timing_ms": 1}
        out.update(over)
        return json.dumps(out)

    def test_passing_sweep(self):
        self.assertEqual(run.check_output(TINY_UNION, 0, self.verify_out()), [])

    def test_each_sweep_failure_is_reported(self):
        for code, stdout in (
            (1, self.verify_out()),
            (0, self.verify_out(status="FAIL")),
            (0, self.verify_out(counterexamples=[{"case": 1}])),
            (0, self.verify_out(cases_checked=43)),
            (0, "Traceback (most recent call last):"),
        ):
            self.assertTrue(run.check_output(TINY_UNION, code, stdout), stdout)

    def oracle_out(self, distance=1e-12, exponent=1):
        cmd = run.Command(("epsilon", "{reps}", "--oracle"), constituents=2)
        out = {"epsilon": "i", "exponent": exponent, "is_real": False,
               "oracle": [
                   {"constituent": "a", "value": [0.0, 1.0],
                    "distance": distance, "tol": 1e-6},
                   {"constituent": "b", "value": [1.0, 0.0],
                    "distance": 1e-12, "tol": 1e-6},
               ]}
        return run.check_output(cmd, 0, json.dumps(out))

    def test_oracle_gate(self):
        self.assertEqual(self.oracle_out(), [])
        self.assertTrue(self.oracle_out(distance=1e-6))
        self.assertTrue(self.oracle_out(distance=float("nan")))
        self.assertTrue(self.oracle_out(exponent=3))

    def test_identities(self):
        workload = run.Workload("w", (), (("x", ("a.calls", "b.calls"), 5),))
        self.assertEqual(run.check_identities(workload, {"a.calls": 2,
                                                         "b.calls": 3}), [])
        self.assertTrue(run.check_identities(workload, {"a.calls": 2}))


class ContractTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(run.WORKLOADS),
                         {w["name"] for w in spec["workloads"]})
        self.assertEqual(run.E2E_UNITS,
                         {m["name"]: m["unit"] for m in spec["end_to_end"]})
        metrics, _, _ = run.layer_result(
            {"layers": [{}], "traced_wall_s": [1.0], "untraced_wall_s": [1.0]})
        self.assertEqual({name: m["unit"] for name, m in metrics.items()},
                         {m["name"]: m["unit"] for m in spec["per_layer"]})


class SeededInputTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(run.make_reps(7), run.make_reps(7))
        self.assertNotEqual(run.make_reps(7), run.make_reps(8))

    def test_constituents(self):
        for seed in range(50):
            entries = json.loads(run.make_reps(seed))
            reps = [tuple(sorted(e["rep"].items())) for e in entries]
            self.assertEqual(len(set(reps)), len(reps))
            kinds = [e["rep"]["kind"] for e in entries]
            self.assertEqual(kinds.count("char"), run.N_CHAR_REPS)
            self.assertEqual(kinds.count("disc"), run.N_DISC_REPS)
            self.assertTrue(all(1 <= e["rep"]["k"] <= 12
                                for e in entries if "k" in e["rep"]))


class EndToEndTest(unittest.TestCase):
    """Real CLI processes on a sweep small enough to take a second."""

    def main_result(self, workload):
        out = io.StringIO()
        with mock.patch.dict(run.WORKLOADS, {workload.name: workload}), \
                contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload.name, "--seed", "1",
                             "--seconds", "0", "--trace", "0"])
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().splitlines()[-1])

    def test_wrong_pinned_count_is_a_failure(self):
        wrong = run.Workload("tiny", (run._sweep("union", "--max-dim", "3",
                                                 cases=45),))
        result = self.main_result(wrong)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_pinned_count_passes(self):
        result = self.main_result(run.Workload("tiny", (TINY_UNION,)))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(run.E2E_UNITS))

    def test_traced_identities(self):
        for pinned, ok in ((44, True), (43, False)):
            workload = run.Workload("tiny", (TINY_UNION,), (
                ("union cases", ("conjclass.verify_union_prop.calls",),
                 pinned),))
            with _workdir() as tmp:
                _, layer, errors = _runner(workload, tmp).traced_run("t")
            self.assertEqual(layer["conjclass.verify_union_prop.calls"], 44)
            self.assertEqual(not errors, ok, errors)

    def test_refuses_to_run_without_sources(self):
        with _workdir() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload",
                 "chi-wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

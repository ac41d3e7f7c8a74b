#!/usr/bin/env python3
"""Self-tests of the repo benchmark.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/tests/test_perfbench.py

They check the metric plumbing (names, units, tail percentiles, the result
line run.py accepts), the determinism of every 4-shard workload against its
1-shard twin at reduced size, that a held-out master seed gives the same
metric names and passes the output checks, and that the command fails
cleanly where the library sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (perfbench/run.py)

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 1
HELD_OUT_SEED = 977  # never used while the benchmark was tuned


def bench(workload: str, seed: int, trace: bool, seconds: float = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE.parent / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                             f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        run.build()

    def test_binary_self_test(self) -> None:
        """Plumbing rules and 4-shard vs 1-shard byte-identity, in C++."""
        proc = subprocess.run([str(run.BINARY), "--self-test"], cwd=ROOT,
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("self-test passed", proc.stdout)

    def test_result_line_checks(self) -> None:
        expected = {"wall_s": "s", "setup_s": "s"}

        def line(metrics, **top):
            body = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
            body.update(top)
            return json.dumps(body)

        good = {"wall_s": {"value": 1.5, "unit": "s"},
                "setup_s": {"value": 0.25, "unit": "s"}}
        self.assertEqual(run.check_result(line(good), expected)["attempted"], 3)
        bad_lines = [
            line({"wall_s": good["wall_s"]}),                      # metric missing
            line({**good, "extra": {"value": 1, "unit": "s"}}),    # undeclared metric
            line({**good, "wall_s": {"value": 1.5}}),              # no unit
            line({**good, "wall_s": {"value": 1.5, "unit": "ms"}}),  # wrong unit
            line({**good, "wall_s": {"value": "1.5", "unit": "s"}}),  # not a number
            line(good, attempted=0),
            line(good, failed=4),
            line(good, extra_key=1),
            "not json",
        ]
        for bad in bad_lines:
            with self.assertRaises(run.BenchError, msg=bad):
                run.check_result(bad, expected)
        self.assertTrue(run.NAME_RE.fullmatch("core.engine.round_ms_p99"))
        self.assertFalse(run.NAME_RE.fullmatch("has space"))
        self.assertFalse(run.UNIT_RE.fullmatch(""))

    def test_declared_names_are_valid(self) -> None:
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(run.NAME_RE.fullmatch(m["name"]), m["name"])
            self.assertTrue(run.UNIT_RE.fullmatch(m["unit"]), m["name"])

    def test_held_out_seed(self) -> None:
        """Both seeds pass every output check and print the same metrics."""
        for workload in WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    a = bench(workload, DEFAULT_SEED, trace)
                    b = bench(workload, HELD_OUT_SEED, trace)
                    for r in (a, b):
                        self.assertTrue(r["correct"])
                        self.assertEqual(r["failed"], 0)
                    self.assertEqual(sorted(a["metrics"]), sorted(b["metrics"]))
                    self.assertEqual(
                        {k: v["unit"] for k, v in a["metrics"].items()},
                        {k: v["unit"] for k, v in b["metrics"].items()})

    def test_fails_without_sources(self) -> None:
        """A directory with only BENCHMARK.json and perfbench/ has nothing to
        build: the command must fail without printing a result."""
        with tempfile.TemporaryDirectory(dir=run.BUILD.parent) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE.parent, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

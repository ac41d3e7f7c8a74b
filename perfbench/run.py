#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
`dlb_perfbench` (perfbench/CMakeLists.txt, which links the repository's own
`dlb` library) into `.bench_build/`; later runs only check that the build is
current. The binary then runs the workload and this script checks its result
against BENCHMARK.json: with `--trace 0` the metrics must be exactly the
`end_to_end` set, with `--trace 1` exactly the `per_layer` set, each with its
declared unit. The last line of standard output is the result JSON
(`correct`, `attempted`, `failed`, `metrics`); build logs go to standard
error. Exits non-zero, printing no result, when the build, the run or the
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "dlb_perfbench"

BUILD_TIMEOUT_S = 700
RUN_GRACE_S = 100  # beyond --seconds: set-up, the last pass, trace probes
RUN_TIMEOUT_CAP_S = 170

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class BenchError(Exception):
    pass


def run_bounded(cmd: list[str], timeout: float, stdout) -> str | None:
    """Runs cmd in its own process group; kills the whole group on timeout.

    Returns captured stdout when `stdout` is subprocess.PIPE."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[0]} timed out after {timeout:.0f} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return out


def build() -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "dlb").is_dir():
        raise BenchError(f"no dlb sources under {ROOT}: run from the repository root")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        run_bounded(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, sys.stderr)
    run_bounded(["cmake", "--build", str(BUILD), "--target", "dlb_perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S, sys.stderr)


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line: str, expected: dict[str, str]) -> dict:
    """Checks the binary's result line; returns it parsed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        raise BenchError(f"last line is not JSON: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise BenchError(f"{key} is not a whole number")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        raise BenchError(f"attempted {result['attempted']} failed {result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in metrics.items():
        if not NAME_RE.fullmatch(name):
            raise BenchError(f"bad metric name {name!r}")
        if set(m) != {"value", "unit"} or not UNIT_RE.fullmatch(str(m["unit"])):
            raise BenchError(f"metric {name} lacks a value or a valid unit")
        if m["unit"] != expected[name]:
            raise BenchError(f"metric {name} unit {m['unit']} != {expected[name]}")
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise BenchError(f"metric {name} value is not a number")
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    trace = args.trace == "1"
    try:
        expected = declared_metrics(trace)
        build()
        timeout = min(RUN_TIMEOUT_CAP_S, args.seconds * 2 + RUN_GRACE_S)
        out = run_bounded([str(BINARY), "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", args.trace], timeout, subprocess.PIPE)
        lines = out.rstrip("\n").split("\n")
        result = check_result(lines[-1], expected)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

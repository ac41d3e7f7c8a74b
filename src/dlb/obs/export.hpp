// Exporters for recorded traces: Chrome/Perfetto trace-event JSON, the
// per-cell sidecar, and the human --obs-summary table.
//
// All three read the recorder (or its prof::analyze_profile report) after
// the run — they never touch the hot path.
#pragma once

#include <iosfwd>
#include <string>

#include "dlb/obs/prof.hpp"
#include "dlb/obs/recorder.hpp"

namespace dlb::obs {

/// Writes `text` as a quoted JSON string (quote, backslash and control
/// characters escaped) — the one escaper every obs JSON writer uses.
void write_json_string(std::ostream& os, const std::string& text);

/// Chrome trace-event JSON: an object with a "traceEvents" array of complete
/// ("ph":"X") events in microseconds. Loads in ui.perfetto.dev and
/// chrome://tracing; `tools/obs_report.py summary` aggregates it offline.
void write_chrome_trace(std::ostream& os, const recorder& rec);

/// The "dlb-obs-v1" per-cell sidecar `--trace FILE` writes to
/// FILE.metrics.json: one object, the header (counter backend, fallback
/// reason, memory) then one entry per registered cell — identity,
/// finished flag, counters and histograms, round and barrier totals, and
/// per-shard phases. Fixed key set and order, so `tools/obs_report.py
/// check` can validate it.
void write_sidecar(std::ostream& os, const prof::profile_report& report);

/// Human summary: top span names by total time, per-phase shard skew
/// (slowest shard vs mean shard), and pool-task utilization / queue-wait —
/// what `dlb_run --obs-summary` prints to stderr. The balance rows are the
/// report's per-(phase, shard >= 0) totals summed over cells, with IPC and
/// miss% columns when the recorder read hardware counters. The utilization
/// line names the 8 busiest worker tids; the rest fold into an explicit
/// "+N more totalling X ms" aggregate, never a silent cut.
void write_summary(std::ostream& os, const recorder& rec,
                   const prof::profile_report& report);

}  // namespace dlb::obs

// Hardware-counter & shard-skew profiling on top of the trace recorder.
//
// This is the counter backend a counters-on recorder reads: five hardware
// counters (cycles, instructions, cache-references, cache-misses,
// branch-misses) through one perf_event_open(2) fd group per participating
// thread. Where the syscall is unavailable — containers with seccomp
// filters, macOS, restrictive perf_event_paranoid, or the
// DLB_PROF_FORCE_FALLBACK=1 test knob — the recorder degrades to wall-clock
// spans: exactly one stderr notice, never a failure, and the sidecar keeps
// its full schema with every counter marked unavailable.
//
// Counter reads are strictly opt-in observation: they read counter fds and
// never touch RNG streams, floating-point order, or serialized row bytes
// (tests/prof_test.cpp pins rows byte-identical with profiling on or off at
// shard-threads 1 and 8).
//
// Post-run, `analyze_profile` is the one fold of the recorder's spans by
// (cell, phase, shard) — per-shard phase spans with their counter deltas,
// barrier:<phase> waits, round spans — into per-cell per-phase skew
// statistics: slowest/mean/p99 shard, barrier-wait share of round time, IPC
// and cache-miss rate per shard. The exporters (obs/export.hpp) render the
// report: the per-cell sidecar `dlb_run --trace` writes and the shard
// balance rows of `--obs-summary`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dlb/obs/recorder.hpp"

namespace dlb::obs::prof {

/// The fixed counter set's slots in hw_counts (obs::num_hw of them).
enum class hw : std::size_t {
  cycles = 0,
  instructions = 1,
  cache_references = 2,
  cache_misses = 3,
  branch_misses = 4,
};

/// The slots' names, in hw order — the sidecar's per-shard counter keys.
inline constexpr const char* hw_names[num_hw] = {
    "cycles", "instructions", "cache_references", "cache_misses",
    "branch_misses",
};

/// Probes the counter backend on the calling thread. False selects the
/// wall-clock-only fallback: `reason` names why (DLB_PROF_FORCE_FALLBACK=1,
/// the failed perf_event_open, the platform) and one stderr notice is
/// printed. Never throws for backend reasons.
[[nodiscard]] bool open_counters(std::string& reason);

/// Reads the calling thread's counter group, opening it on first use; false
/// (and `out` untouched) when the group cannot be read on this thread.
[[nodiscard]] bool read_counters(hw_counts& out);

// ---------------------------------------------------------------------------
// Post-run skew analysis
// ---------------------------------------------------------------------------

/// Per (phase, shard) totals for one cell.
struct shard_stat {
  std::int32_t shard = -1;
  std::uint64_t calls = 0;
  std::int64_t wall_ns = 0;
  std::int64_t barrier_wait_ns = 0;  ///< from the recorder's barrier:* spans
  hw_counts hw{};
  bool hw_available = false;

  [[nodiscard]] double ipc() const noexcept;
  [[nodiscard]] double cache_miss_rate() const noexcept;
};

/// One phase of one cell, aggregated over shards.
struct phase_profile {
  std::string phase;
  std::vector<shard_stat> shards;  ///< sorted by shard id
  std::uint64_t calls = 0;
  std::int64_t wall_total_ns = 0;
  std::int64_t wall_mean_ns = 0;     ///< mean per-shard wall total
  std::int64_t wall_slowest_ns = 0;  ///< max per-shard wall total
  std::int64_t wall_p99_ns = 0;      ///< nearest-rank p99 per-shard wall total
  std::int32_t slowest_shard = -1;
  double skew = 0.0;  ///< slowest / mean, 1.0 = perfectly balanced
  std::int64_t barrier_wait_ns = 0;
};

struct cell_profile {
  cell_record cell;  ///< identity, finished flag and metrics snapshot
  std::uint64_t rounds = 0;       ///< count of round/tA_round spans
  std::int64_t round_wall_ns = 0; ///< summed round-span wall time
  std::int64_t barrier_wait_ns = 0;
  /// Share of aggregate shard-time spent waiting at barriers:
  /// barrier_wait_ns / (round_wall_ns * max shard count), clamped to [0, 1].
  double barrier_wait_share = 0.0;
  std::vector<phase_profile> phases;  ///< sorted by phase name
};

struct memory_profile {
  std::uint64_t max_rss_kb = 0;  ///< getrusage ru_maxrss (0 if unavailable)
  std::uint64_t vm_hwm_kb = 0;   ///< /proc/self/status VmHWM (0 if absent)
  std::uint64_t vm_rss_kb = 0;   ///< /proc/self/status VmRSS (0 if absent)
  recorder_footprint recorder;
};

struct profile_report {
  bool hardware_available = false;
  std::string fallback_reason;
  memory_profile memory;
  std::vector<cell_profile> cells;  ///< every registered cell, in order
};

/// Process-wide memory high-water marks plus the recorder's footprint.
/// Reads getrusage and /proc/self/status; fields that cannot be read stay 0.
[[nodiscard]] memory_profile sample_memory(const recorder* rec);

/// Folds the recorder's cell-attributed spans into per-cell per-phase skew
/// statistics, one entry per registered cell (a cell that recorded no span
/// has no phases). The recorder must be quiescent.
[[nodiscard]] profile_report analyze_profile(const recorder& rec);

}  // namespace dlb::obs::prof

// Lock-free-per-thread trace recorder.
//
// A recorder owns one append-only event buffer per participating thread.
// Threads register themselves lazily on their first record and cache the
// buffer pointer in a thread_local slot, so the steady-state record path is
// a clock read plus a vector push_back on thread-private storage — no lock,
// no atomic, no contention. The registry mutex is taken only on a thread's
// first record against a given recorder.
//
// Timestamps are steady_clock nanoseconds relative to the recorder's
// construction epoch, so spans from different threads order correctly and
// exported microsecond values stay small.
//
// A recorder built with counters on (dlb_run --obs-profile) also reads the
// calling thread's hardware-counter group (dlb::obs::prof owns the
// perf_event_open backend) wherever it reads the clock for begin()/end(),
// so each span carries its own counter deltas and the skew profile
// (prof::analyze_profile) folds from the spans alone.
//
// Reading the buffers back (events(), cells()) is only safe when no
// instrumented work is in flight — after run_grid has returned and the pools
// are idle. That is the natural export point and the only one dlb_run uses.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dlb/obs/metrics.hpp"
#include "dlb/obs/probe.hpp"

namespace dlb::obs {

/// Hardware counters a counters-on recorder reads at both ends of a span, in
/// perf fd-group (and sidecar) order; prof::hw names the slots.
inline constexpr std::size_t num_hw = 5;
using hw_counts = std::array<std::uint64_t, num_hw>;

/// One completed span. `name` must be a string literal (or otherwise outlive
/// the recorder) — records store the pointer, never a copy.
struct span_record {
  const char* name = nullptr;
  std::int64_t ts_ns = 0;   ///< start, ns since the recorder epoch
  std::int64_t dur_ns = 0;  ///< duration, ns
  std::int64_t arg = -1;    ///< span payload: items for phases, queue-wait ns
                            ///< for pool tasks, -1 = none
  std::uint64_t cell = no_cell;  ///< owning cell, or no_cell
  std::uint32_t tid = 0;    ///< recorder-assigned thread index
  std::int32_t shard = -1;  ///< shard index for per-shard phase spans
  hw_counts hw{};           ///< counter deltas over the span (zero unless
                            ///< hw_available)
  bool hw_available = false;  ///< counters read at both ends on one thread
};

/// The opening reading of a span: the clock, plus (counters on) the calling
/// thread's counter values. Produced by recorder::begin(), consumed by end().
struct span_start {
  std::int64_t ts_ns = 0;
  hw_counts hw{};
  bool hw_available = false;
};

/// Allocation accounting for a recorder's span buffers.
struct recorder_footprint {
  std::uint64_t threads = 0;  ///< per-thread buffers registered
  std::uint64_t spans = 0;    ///< spans held across all buffers
  std::uint64_t bytes = 0;    ///< capacity actually reserved
};

/// One experiment cell the recorder saw: identity plus (once the cell has
/// finished) its metrics snapshot — the sidecar JSON rows.
struct cell_record {
  std::uint64_t id = 0;      ///< recorder-assigned, unique across grids
  std::uint64_t index = 0;   ///< the grid's own cell index (repeats per grid)
  std::string grid;
  std::string scenario;
  std::string process;
  metrics_snapshot snapshot;
  bool finished = false;
};

class recorder {
 public:
  enum class counters { off, on };

  /// counters::on probes the counter backend once: DLB_PROF_FORCE_FALLBACK=1
  /// or a failed trial perf_event_open selects the wall-clock-only fallback
  /// and prints a single stderr notice. Construction never throws for
  /// backend reasons.
  explicit recorder(counters mode = counters::off);
  ~recorder();

  recorder(const recorder&) = delete;
  recorder& operator=(const recorder&) = delete;

  /// Nanoseconds since the recorder epoch (steady_clock).
  [[nodiscard]] std::int64_t now() const noexcept;

  /// True when spans opened by begin() carry hardware-counter deltas.
  [[nodiscard]] bool hardware_available() const noexcept;

  /// Why spans carry no counters ("counters off", the forced fallback, the
  /// failed syscall); empty when hardware_available().
  [[nodiscard]] const std::string& fallback_reason() const noexcept;

  /// Opens a span on the calling thread: reads its counters (counters on,
  /// hardware backend), then the clock.
  [[nodiscard]] span_start begin() const;

  /// Closes the span `start` opened on the same thread and appends it, with
  /// its counter deltas, to the calling thread's buffer. Returns the end
  /// timestamp. `name` must be a string literal.
  std::int64_t end(const char* name, const span_start& start,
                   std::int32_t shard = -1, std::uint64_t cell = no_cell,
                   std::int64_t arg = -1);

  /// Appends one completed span timed by the caller (no counters) to the
  /// calling thread's buffer. `name` must be a string literal. Lock-free
  /// after the thread's first record.
  void complete(const char* name, std::int64_t ts_ns, std::int64_t dur_ns,
                std::int32_t shard = -1, std::uint64_t cell = no_cell,
                std::int64_t arg = -1);

  /// Registers one experiment cell and returns its recorder-unique id
  /// (grid-local cell indices repeat across grids in a multi-grid run).
  /// Thread-safe.
  [[nodiscard]] std::uint64_t register_cell(std::string grid,
                                            std::string scenario,
                                            std::string process,
                                            std::uint64_t index);

  /// Stores the finished cell's metrics snapshot. Thread-safe.
  void finish_cell(std::uint64_t id, const metrics_snapshot& snapshot);

  /// All spans, merged across threads and sorted by start time. Only valid
  /// when no instrumented work is in flight.
  [[nodiscard]] std::vector<span_record> events() const;

  /// All registered cells in registration order. Same quiescence contract.
  [[nodiscard]] std::vector<cell_record> cells() const;

  /// Buffer footprint (threads registered, spans held, bytes reserved) —
  /// surfaced by the sidecar's memory section. Same quiescence
  /// contract as events().
  [[nodiscard]] recorder_footprint footprint() const;

 private:
  struct buffer {
    std::uint32_t tid = 0;
    std::vector<span_record> spans;
  };

  /// The calling thread's buffer (registering it on first use).
  buffer& local();

  const std::uint64_t id_;  ///< distinguishes recorders in thread_local caches
  std::int64_t epoch_ns_ = 0;  ///< steady_clock at construction
  bool hardware_ = false;      ///< counters on and the backend opened
  std::string fallback_reason_;

  mutable std::mutex mutex_;  // guards the containers below, not their spans
  std::vector<std::unique_ptr<buffer>> buffers_;
  std::vector<cell_record> cells_;
};

/// RAII span: records [construction, destruction) on the probe's recorder.
/// A null recorder makes both ends a no-op — the zero-cost-when-disabled
/// idiom for code that cannot conveniently call begin()/end() itself.
class scoped_span {
 public:
  scoped_span(recorder* rec, const char* name, std::int32_t shard = -1,
              std::uint64_t cell = no_cell, std::int64_t arg = -1)
      : rec_(rec), name_(name), shard_(shard), cell_(cell), arg_(arg) {
    if (rec_ != nullptr) start_ = rec_->begin();
  }
  ~scoped_span() {
    if (rec_ != nullptr) rec_->end(name_, start_, shard_, cell_, arg_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  recorder* rec_;
  const char* name_;
  span_start start_;
  std::int32_t shard_;
  std::uint64_t cell_;
  std::int64_t arg_;
};

}  // namespace dlb::obs

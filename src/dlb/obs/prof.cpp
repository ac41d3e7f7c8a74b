#include "dlb/obs/prof.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "dlb/obs/recorder.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#elif defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace dlb::obs::prof {

namespace {

#if defined(__linux__)

constexpr std::uint64_t kHwConfigs[num_hw] = {
    PERF_COUNT_HW_CPU_CYCLES,       PERF_COUNT_HW_INSTRUCTIONS,
    PERF_COUNT_HW_CACHE_REFERENCES, PERF_COUNT_HW_CACHE_MISSES,
    PERF_COUNT_HW_BRANCH_MISSES,
};

/// One perf fd group measuring *this thread*, opened lazily on the thread's
/// first hardware read and closed when the thread exits (thread_local
/// destructor) — so per-cell shard pools that come and go never accumulate
/// open fds for dead threads. The group is recorder-independent: the
/// counters measure the thread, any counters-on recorder may read them.
struct perf_group {
  int fds[num_hw] = {-1, -1, -1, -1, -1};
  bool tried = false;
  bool ok = false;
  std::string fail_reason;  ///< from the first (only) failed open attempt

  ~perf_group() { close_all(); }

  void close_all() {
    for (int& fd : fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    ok = false;
  }

  /// Opens the five-counter group. On failure closes everything, stores the
  /// failing counter + errno in `reason`, and never retries on this thread.
  bool ensure_open(std::string* reason) {
    if (tried) {
      // A later recorder on this thread must still learn why the first
      // attempt failed (the syscall is never retried).
      if (!ok && reason != nullptr) *reason = fail_reason;
      return ok;
    }
    tried = true;
    for (std::size_t i = 0; i < num_hw; ++i) {
      perf_event_attr attr;
      std::memset(&attr, 0, sizeof(attr));
      attr.size = sizeof(attr);
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = kHwConfigs[i];
      attr.disabled = 0;
      attr.exclude_kernel = 1;  // user-space only: works at paranoid <= 2
      attr.exclude_hv = 1;
      attr.read_format = PERF_FORMAT_GROUP;
      const int group_fd = i == 0 ? -1 : fds[0];
      const long fd = ::syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                                /*cpu=*/-1, group_fd, /*flags=*/0UL);
      if (fd < 0) {
        std::ostringstream os;
        os << "perf_event_open(" << hw_names[i]
           << ") failed: " << std::strerror(errno);
        if (errno == EACCES || errno == EPERM) {
          os << " (check /proc/sys/kernel/perf_event_paranoid or container "
                "seccomp policy)";
        }
        fail_reason = os.str();
        if (reason != nullptr) *reason = fail_reason;
        close_all();
        return false;
      }
      fds[i] = static_cast<int>(fd);
    }
    ok = true;
    return true;
  }

  /// Reads all five counters atomically via the group leader.
  bool read_values(hw_counts& out) {
    if (!ok) return false;
    // PERF_FORMAT_GROUP layout: u64 nr, then nr values in open order.
    std::uint64_t buf[1 + num_hw] = {};
    const ssize_t got = ::read(fds[0], buf, sizeof(buf));
    if (got != static_cast<ssize_t>(sizeof(buf)) || buf[0] != num_hw) {
      return false;
    }
    for (std::size_t i = 0; i < num_hw; ++i) out[i] = buf[1 + i];
    return true;
  }
};

thread_local perf_group tl_group;

#endif  // defined(__linux__)

bool force_fallback_env() {
  const char* v = std::getenv("DLB_PROF_FORCE_FALLBACK");
  return v != nullptr && v[0] == '1' && v[1] == '\0';
}

double safe_div(double num, double den) noexcept {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace

bool open_counters(std::string& reason) {
  bool hardware = false;
  if (force_fallback_env()) {
    reason = "forced by DLB_PROF_FORCE_FALLBACK=1";
  } else {
#if defined(__linux__)
    // Probe on the constructing thread: if the syscall is denied here it is
    // denied everywhere in this process, so later per-thread opens cannot
    // introduce a surprise mid-run.
    hardware = tl_group.ensure_open(&reason);
#else
    reason = "perf_event_open is Linux-only on this platform";
#endif
  }
  if (!hardware) {
    // Reported once per counters-on recorder (dlb_run builds exactly one),
    // never fatal: wall-clock skew attribution still works without
    // hardware counters.
    std::fprintf(stderr,
                 "dlb prof: hardware counters unavailable (%s); continuing "
                 "with wall-clock-only profiling\n",
                 reason.c_str());
  }
  return hardware;
}

bool read_counters(hw_counts& out) {
#if defined(__linux__)
  return tl_group.ensure_open(nullptr) && tl_group.read_values(out);
#else
  (void)out;
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Post-run skew analysis
// ---------------------------------------------------------------------------

double shard_stat::ipc() const noexcept {
  return safe_div(static_cast<double>(hw[static_cast<std::size_t>(
                      hw::instructions)]),
                  static_cast<double>(hw[static_cast<std::size_t>(
                      hw::cycles)]));
}

double shard_stat::cache_miss_rate() const noexcept {
  return safe_div(static_cast<double>(hw[static_cast<std::size_t>(
                      hw::cache_misses)]),
                  static_cast<double>(hw[static_cast<std::size_t>(
                      hw::cache_references)]));
}

memory_profile sample_memory(const recorder* rec) {
  memory_profile mem;
#if defined(__unix__) || defined(__APPLE__) || defined(__linux__)
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    mem.max_rss_kb = static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
#else
    mem.max_rss_kb = static_cast<std::uint64_t>(usage.ru_maxrss);
#endif
  }
#endif
#if defined(__linux__)
  // VmHWM is the true heap+stack high-water; ru_maxrss can under-report
  // after memory is returned. Missing file (non-proc mounts) just leaves 0.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    std::uint64_t* slot = nullptr;
    if (line.rfind("VmHWM:", 0) == 0) slot = &mem.vm_hwm_kb;
    if (line.rfind("VmRSS:", 0) == 0) slot = &mem.vm_rss_kb;
    if (slot != nullptr) {
      std::istringstream fields(line.substr(line.find(':') + 1));
      fields >> *slot;
    }
  }
#endif
  if (rec != nullptr) mem.recorder = rec->footprint();
  return mem;
}

namespace {

bool is_round_span(const char* name) noexcept {
  return std::strcmp(name, "round") == 0 || std::strcmp(name, "tA_round") == 0;
}

std::int64_t nearest_rank_p99(std::vector<std::int64_t> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

}  // namespace

profile_report analyze_profile(const recorder& rec) {
  profile_report report;
  report.hardware_available = rec.hardware_available();
  report.fallback_reason = rec.fallback_reason();
  report.memory = sample_memory(&rec);

  struct cell_accum {
    std::uint64_t rounds = 0;
    std::int64_t round_wall_ns = 0;
    std::int64_t barrier_wait_ns = 0;
    std::int32_t max_shard = -1;
    // (phase name, shard) -> totals. std::map keeps phases name-sorted and
    // shards id-sorted, which is what makes the sidecar order deterministic.
    std::map<std::string, std::map<std::int32_t, shard_stat>> phases;
  };
  std::map<std::uint64_t, cell_accum> accums;

  for (const span_record& span : rec.events()) {
    // Spans without a cell (pool warmup etc.) are not attributable; the
    // run-level "cell" span brackets a whole cell and is no phase.
    if (span.cell == no_cell || span.name == nullptr ||
        std::strcmp(span.name, "cell") == 0) {
      continue;
    }
    cell_accum& acc = accums[span.cell];
    acc.max_shard = std::max(acc.max_shard, span.shard);
    if (std::strncmp(span.name, "barrier:", 8) == 0) {
      acc.barrier_wait_ns += span.dur_ns;
      // Credit the wait to the phase it guards so per-shard barrier columns
      // line up with the matching phase spans.
      shard_stat& st = acc.phases[span.name + 8][span.shard];
      if (st.calls == 0) st.shard = span.shard;
      st.barrier_wait_ns += span.dur_ns;
      continue;
    }
    if (is_round_span(span.name)) {
      acc.rounds += 1;
      acc.round_wall_ns += span.dur_ns;
    }
    shard_stat& st = acc.phases[span.name][span.shard];
    if (st.calls == 0) {
      st.shard = span.shard;
      st.hw_available = span.hw_available;
    }
    st.calls += 1;
    st.wall_ns += span.dur_ns;
    st.hw_available = st.hw_available && span.hw_available;
    for (std::size_t i = 0; i < num_hw; ++i) st.hw[i] += span.hw[i];
  }

  const cell_accum no_spans;
  for (cell_record& cell : rec.cells()) {
    const auto it = accums.find(cell.id);
    const cell_accum& acc = it != accums.end() ? it->second : no_spans;

    cell_profile cp;
    cp.cell = std::move(cell);
    cp.rounds = acc.rounds;
    cp.round_wall_ns = acc.round_wall_ns;
    cp.barrier_wait_ns = acc.barrier_wait_ns;

    std::int64_t all_phase_wall = 0;
    for (const auto& [name, shards] : acc.phases) {
      phase_profile pp;
      pp.phase = name;
      std::vector<std::int64_t> walls;
      for (const auto& [shard, st] : shards) {
        pp.shards.push_back(st);
        pp.calls += st.calls;
        pp.wall_total_ns += st.wall_ns;
        pp.barrier_wait_ns += st.barrier_wait_ns;
        walls.push_back(st.wall_ns);
        if (st.wall_ns > pp.wall_slowest_ns) {
          pp.wall_slowest_ns = st.wall_ns;
          pp.slowest_shard = st.shard;
        }
      }
      if (!pp.shards.empty()) {
        pp.wall_mean_ns =
            pp.wall_total_ns / static_cast<std::int64_t>(pp.shards.size());
      }
      pp.wall_p99_ns = nearest_rank_p99(std::move(walls));
      pp.skew = safe_div(static_cast<double>(pp.wall_slowest_ns),
                         static_cast<double>(pp.wall_mean_ns));
      all_phase_wall += pp.wall_total_ns;
      cp.phases.push_back(std::move(pp));
    }

    // Share of aggregate shard-time spent waiting: the barriers accumulate
    // one wait per shard per phase, so the matching denominator is round
    // wall time multiplied by the shard count (falling back to summed phase
    // wall when no round spans exist, e.g. bare step() calls).
    const std::int64_t shard_count =
        acc.max_shard >= 0 ? acc.max_shard + 1 : 1;
    const std::int64_t denom = acc.round_wall_ns > 0
                                   ? acc.round_wall_ns * shard_count
                                   : all_phase_wall + acc.barrier_wait_ns;
    cp.barrier_wait_share =
        std::min(1.0, safe_div(static_cast<double>(acc.barrier_wait_ns),
                               static_cast<double>(denom)));
    report.cells.push_back(std::move(cp));
  }
  return report;
}

}  // namespace dlb::obs::prof

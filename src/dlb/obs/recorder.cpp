#include "dlb/obs/recorder.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "dlb/obs/prof.hpp"

namespace dlb::obs {

namespace {

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t next_recorder_id() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  // dlb-lint: allow(atomic-claim): process-lifetime recorder-id allocation; ids never reach rows
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread cache of "my buffer in recorder X". Keyed by the recorder's
/// unique id, not its address: a new recorder at a recycled address must not
/// inherit a dead recorder's cache entry.
struct tl_cache {
  std::uint64_t recorder_id = 0;
  void* buffer = nullptr;
};
thread_local tl_cache tls;

}  // namespace

recorder::recorder(counters mode)
    : id_(next_recorder_id()), epoch_ns_(steady_ns()) {
  if (mode == counters::on) {
    hardware_ = prof::open_counters(fallback_reason_);
  } else {
    fallback_reason_ = "recorder built with counters off";
  }
}

recorder::~recorder() = default;

std::int64_t recorder::now() const noexcept {
  return steady_ns() - epoch_ns_;
}

bool recorder::hardware_available() const noexcept { return hardware_; }

const std::string& recorder::fallback_reason() const noexcept {
  return fallback_reason_;
}

span_start recorder::begin() const {
  span_start start;
  if (hardware_) start.hw_available = prof::read_counters(start.hw);
  start.ts_ns = now();
  return start;
}

std::int64_t recorder::end(const char* name, const span_start& start,
                           std::int32_t shard, std::uint64_t cell,
                           std::int64_t arg) {
  const std::int64_t end_ns = now();
  span_record span{name, start.ts_ns, end_ns - start.ts_ns, arg, cell,
                   /*tid=*/0, shard};
  if (start.hw_available && prof::read_counters(span.hw)) {
    for (std::size_t i = 0; i < num_hw; ++i) {
      // Counters are monotonic per thread; clamp anyway so a kernel quirk
      // cannot wrap a delta.
      span.hw[i] = span.hw[i] >= start.hw[i] ? span.hw[i] - start.hw[i] : 0;
    }
    span.hw_available = true;
  }
  buffer& buf = local();
  span.tid = buf.tid;
  buf.spans.push_back(span);
  return end_ns;
}

recorder::buffer& recorder::local() {
  if (tls.recorder_id == id_) {
    return *static_cast<buffer*>(tls.buffer);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<buffer>());
  buffer& buf = *buffers_.back();
  buf.tid = static_cast<std::uint32_t>(buffers_.size() - 1);
  buf.spans.reserve(1024);
  tls = {id_, &buf};
  return buf;
}

void recorder::complete(const char* name, std::int64_t ts_ns,
                        std::int64_t dur_ns, std::int32_t shard,
                        std::uint64_t cell, std::int64_t arg) {
  buffer& buf = local();
  buf.spans.push_back({name, ts_ns, dur_ns, arg, cell, buf.tid, shard});
}

std::uint64_t recorder::register_cell(std::string grid, std::string scenario,
                                      std::string process,
                                      std::uint64_t index) {
  const std::lock_guard<std::mutex> lock(mutex_);
  cell_record rec;
  rec.id = cells_.size();
  rec.index = index;
  rec.grid = std::move(grid);
  rec.scenario = std::move(scenario);
  rec.process = std::move(process);
  cells_.push_back(std::move(rec));
  return cells_.back().id;
}

void recorder::finish_cell(std::uint64_t id, const metrics_snapshot& snapshot) {
  const std::lock_guard<std::mutex> lock(mutex_);
  cells_[static_cast<std::size_t>(id)].snapshot = snapshot;
  cells_[static_cast<std::size_t>(id)].finished = true;
}

std::vector<span_record> recorder::events() const {
  std::vector<span_record> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buf : buffers_) {
      out.insert(out.end(), buf->spans.begin(), buf->spans.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const span_record& a, const span_record& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

std::vector<cell_record> recorder::cells() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cells_;
}

recorder_footprint recorder::footprint() const {
  recorder_footprint fp;
  const std::lock_guard<std::mutex> lock(mutex_);
  fp.threads = buffers_.size();
  for (const auto& buf : buffers_) {
    fp.spans += buf->spans.size();
    fp.bytes += buf->spans.capacity() * sizeof(span_record);
  }
  return fp;
}

}  // namespace dlb::obs

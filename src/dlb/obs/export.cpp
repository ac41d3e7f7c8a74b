#include "dlb/obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace dlb::obs {

void write_json_string(std::ostream& os, const std::string& text) {
  os << '"';
  for (const char c : text) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

namespace {

/// Microseconds with sub-ns timestamps preserved (trace-event ts/dur unit).
void write_us(std::ostream& os, std::int64_t ns) {
  os << ns / 1000 << '.' << std::setw(3) << std::setfill('0') << ns % 1000
     << std::setfill(' ');
}

/// The span's payload key: phases carry entity counts, pool tasks carry the
/// enqueue→start latency.
const char* arg_key(const span_record& span) {
  return std::strcmp(span.name, "pool_task") == 0 ? "queue_wait_ns" : "items";
}

bool is_barrier(const char* name) {
  return std::strncmp(name, "barrier:", 8) == 0;
}

void write_hist(std::ostream& os, const char* key,
                const std::array<std::uint64_t, histogram::num_buckets>& h) {
  // Buckets past the last non-empty one carry no information — trim them so
  // the sidecar stays readable.
  std::size_t last = 0;
  for (std::size_t b = 0; b < histogram::num_buckets; ++b) {
    if (h[b] > 0) last = b + 1;
  }
  os << '"' << key << "\": [";
  for (std::size_t b = 0; b < last; ++b) {
    if (b > 0) os << ", ";
    os << h[b];
  }
  os << ']';
}

/// %.6g formatting: locale-independent, no exponent surprises for the value
/// ranges we emit, and identical across the compilers CI runs.
void write_double(std::ostream& os, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  os << buf;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const recorder& rec) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const span_record& span : rec.events()) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid << ",\"name\":";
    write_json_string(os, span.name);
    os << ",\"cat\":\"dlb\",\"ts\":";
    write_us(os, span.ts_ns);
    os << ",\"dur\":";
    write_us(os, span.dur_ns);
    os << ",\"args\":{";
    bool first_arg = true;
    const auto arg_field = [&](const char* key, std::int64_t value) {
      if (!first_arg) os << ',';
      first_arg = false;
      os << '"' << key << "\":" << value;
    };
    if (span.shard >= 0) arg_field("shard", span.shard);
    if (span.cell != no_cell) {
      arg_field("cell", static_cast<std::int64_t>(span.cell));
    }
    if (span.arg >= 0) arg_field(arg_key(span), span.arg);
    os << "}}";
  }
  os << "\n]}\n";
}

void write_sidecar(std::ostream& os, const prof::profile_report& report) {
  os << "{\n";
  os << "  \"schema\": \"dlb-obs-v1\",\n";
  os << "  \"backend\": "
     << (report.hardware_available ? "\"perf_event\"" : "\"fallback\"")
     << ",\n";
  os << "  \"fallback_reason\": ";
  write_json_string(os, report.fallback_reason);
  os << ",\n";
  const prof::memory_profile& mem = report.memory;
  os << "  \"memory\": {\"max_rss_kb\": " << mem.max_rss_kb
     << ", \"vm_hwm_kb\": " << mem.vm_hwm_kb
     << ", \"vm_rss_kb\": " << mem.vm_rss_kb
     << ", \"recorder_threads\": " << mem.recorder.threads
     << ", \"recorder_spans\": " << mem.recorder.spans
     << ", \"recorder_bytes\": " << mem.recorder.bytes << "},\n";
  os << "  \"cells\": [";
  bool first_cell = true;
  for (const prof::cell_profile& cp : report.cells) {
    os << (first_cell ? "\n" : ",\n");
    first_cell = false;
    const cell_record& cell = cp.cell;
    os << "    {\"cell\": " << cell.id << ", \"grid_cell\": " << cell.index
       << ", \"grid\": ";
    write_json_string(os, cell.grid);
    os << ", \"scenario\": ";
    write_json_string(os, cell.scenario);
    os << ", \"process\": ";
    write_json_string(os, cell.process);
    os << ", \"finished\": " << (cell.finished ? "true" : "false")
       << ",\n     \"counters\": {";
    bool first_counter = true;
    for (const auto& [key, value] : cell.snapshot.counters) {
      if (!first_counter) os << ", ";
      first_counter = false;
      os << '"' << key << "\": " << value;
    }
    os << "},\n     ";
    write_hist(os, "barrier_wait_hist", cell.snapshot.barrier_wait_hist);
    os << ", ";
    write_hist(os, "queue_depth_hist", cell.snapshot.queue_depth_hist);
    os << ",\n     \"rounds\": " << cp.rounds
       << ", \"round_wall_ns\": " << cp.round_wall_ns
       << ", \"barrier_wait_ns\": " << cp.barrier_wait_ns
       << ", \"barrier_wait_share\": ";
    write_double(os, cp.barrier_wait_share);
    os << ",\n     \"phases\": [";
    bool first_phase = true;
    for (const prof::phase_profile& pp : cp.phases) {
      os << (first_phase ? "\n" : ",\n");
      first_phase = false;
      os << "      {\"phase\": ";
      write_json_string(os, pp.phase);
      os << ", \"shards\": " << pp.shards.size()
         << ", \"calls\": " << pp.calls
         << ", \"wall_total_ns\": " << pp.wall_total_ns
         << ", \"wall_mean_ns\": " << pp.wall_mean_ns
         << ", \"wall_slowest_ns\": " << pp.wall_slowest_ns
         << ", \"wall_p99_ns\": " << pp.wall_p99_ns
         << ", \"slowest_shard\": " << pp.slowest_shard << ", \"skew\": ";
      write_double(os, pp.skew);
      os << ", \"barrier_wait_ns\": " << pp.barrier_wait_ns;
      os << ",\n       \"per_shard\": [";
      bool first_shard = true;
      for (const prof::shard_stat& st : pp.shards) {
        os << (first_shard ? "\n" : ",\n");
        first_shard = false;
        os << "        {\"shard\": " << st.shard << ", \"calls\": " << st.calls
           << ", \"wall_ns\": " << st.wall_ns
           << ", \"barrier_wait_ns\": " << st.barrier_wait_ns
           << ", \"hw_available\": " << (st.hw_available ? "true" : "false");
        for (std::size_t i = 0; i < num_hw; ++i) {
          os << ", \"" << prof::hw_names[i] << "\": " << st.hw[i];
        }
        os << ", \"ipc\": ";
        write_double(os, st.hw_available ? st.ipc() : 0.0);
        os << ", \"cache_miss_rate\": ";
        write_double(os, st.hw_available ? st.cache_miss_rate() : 0.0);
        os << "}";
      }
      os << (first_shard ? "]" : "\n       ]") << "}";
    }
    os << (first_phase ? "]" : "\n     ]") << "}";
  }
  os << (first_cell ? "]" : "\n  ]") << "\n}\n";
}

void write_summary(std::ostream& os, const recorder& rec,
                   const prof::profile_report& report) {
  const std::vector<span_record> events = rec.events();
  if (events.empty()) {
    os << "obs: no spans recorded\n";
    return;
  }

  struct name_stats {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t max_ns = 0;
  };
  std::map<std::string, name_stats> by_name;
  std::map<std::uint32_t, std::int64_t> pool_busy;  // tid → Σ pool_task dur
  std::int64_t queue_wait_total = 0;
  std::int64_t queue_wait_max = 0;
  std::uint64_t queue_wait_count = 0;
  std::int64_t t_min = events.front().ts_ns;
  std::int64_t t_max = t_min;

  for (const span_record& span : events) {
    name_stats& ns = by_name[span.name];
    ++ns.count;
    ns.total_ns += span.dur_ns;
    ns.max_ns = std::max(ns.max_ns, span.dur_ns);
    t_min = std::min(t_min, span.ts_ns);
    t_max = std::max(t_max, span.ts_ns + span.dur_ns);
    if (std::strcmp(span.name, "pool_task") == 0) {
      pool_busy[span.tid] += span.dur_ns;
      if (span.arg >= 0) {
        queue_wait_total += span.arg;
        queue_wait_max = std::max(queue_wait_max, span.arg);
        ++queue_wait_count;
      }
    }
  }
  const double wall_ms =
      static_cast<double>(t_max - t_min) / 1e6;
  const auto ms = [](std::int64_t ns) {
    return static_cast<double>(ns) / 1e6;
  };

  os << "== obs summary: " << events.size() << " spans over " << std::fixed
     << std::setprecision(2) << wall_ms << " ms ==\n";

  std::vector<std::pair<std::string, name_stats>> ranked(by_name.begin(),
                                                         by_name.end());
  // Stable, so equal totals keep name order (as the offline tool prints).
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.total_ns > b.second.total_ns;
                   });
  os << "top spans by total time:\n";
  os << "  " << std::left << std::setw(28) << "name" << std::right
     << std::setw(10) << "count" << std::setw(14) << "total ms"
     << std::setw(14) << "mean us" << std::setw(14) << "max us" << "\n";
  const std::size_t top = std::min<std::size_t>(ranked.size(), 12);
  for (std::size_t i = 0; i < top; ++i) {
    const auto& [name, st] = ranked[i];
    os << "  " << std::left << std::setw(28) << name << std::right
       << std::setw(10) << st.count << std::setw(14) << std::setprecision(2)
       << ms(st.total_ns) << std::setw(14) << std::setprecision(1)
       << static_cast<double>(st.total_ns) /
              (1e3 * static_cast<double>(st.count))
       << std::setw(14) << static_cast<double>(st.max_ns) / 1e3 << "\n";
  }

  // Per-(phase, shard >= 0) totals summed over cells, read off the report.
  // Barrier waits are credited to the phase they guard there, never a phase
  // of their own, so their inverted skew (the slowest shard waits least)
  // stays out of these rows.
  struct phase_balance {
    std::map<std::int32_t, std::int64_t> shard_wall;
    prof::shard_stat counters{.hw_available = true};  // summed over shards
  };
  std::map<std::string, phase_balance> balance;
  for (const prof::cell_profile& cp : report.cells) {
    for (const prof::phase_profile& pp : cp.phases) {
      for (const prof::shard_stat& st : pp.shards) {
        if (st.shard < 0 || st.calls == 0) continue;
        phase_balance& pb = balance[pp.phase];
        pb.shard_wall[st.shard] += st.wall_ns;
        for (std::size_t i = 0; i < num_hw; ++i) {
          pb.counters.hw[i] += st.hw[i];
        }
        pb.counters.hw_available =
            pb.counters.hw_available && st.hw_available;
      }
    }
  }
  if (!balance.empty()) {
    const bool hw_columns = report.hardware_available;
    os << "per-phase shard balance (totals across the run):\n";
    os << "  " << std::left << std::setw(28) << "phase" << std::right
       << std::setw(8) << "shards" << std::setw(14) << "mean/shard ms"
       << std::setw(14) << "slowest ms" << std::setw(8) << "skew";
    if (hw_columns) os << std::setw(7) << "IPC" << std::setw(8) << "miss%";
    os << "\n";
    for (const auto& [name, pb] : balance) {
      std::int64_t total = 0;
      std::int64_t slowest = 0;
      for (const auto& [shard, dur] : pb.shard_wall) {
        total += dur;
        slowest = std::max(slowest, dur);
      }
      const double mean = static_cast<double>(total) /
                          static_cast<double>(pb.shard_wall.size());
      os << "  " << std::left << std::setw(28) << name << std::right
         << std::setw(8) << pb.shard_wall.size() << std::setw(14)
         << std::setprecision(2) << mean / 1e6 << std::setw(14)
         << ms(slowest) << std::setw(7) << std::setprecision(2)
         << (mean > 0 ? static_cast<double>(slowest) / mean : 1.0) << "x";
      if (hw_columns && pb.counters.hw_available) {
        os << std::setw(7) << pb.counters.ipc() << std::setw(8)
           << std::setprecision(1) << 100.0 * pb.counters.cache_miss_rate();
      } else if (hw_columns) {
        os << std::setw(7) << "-" << std::setw(8) << "-";
      }
      os << "\n";
    }
  }

  std::int64_t barrier_total = 0;
  for (const auto& [name, st] : by_name) {
    if (is_barrier(name.c_str())) barrier_total += st.total_ns;
  }
  if (barrier_total > 0) {
    os << "barrier waits: " << std::setprecision(2) << ms(barrier_total)
       << " ms total\n";
  }

  if (!pool_busy.empty()) {
    // A run with per-cell shard pools registers hundreds of mostly-idle
    // tids — show the busiest few, fold the rest into one aggregate.
    // `tools/obs_report.py summary` names the same 8.
    constexpr std::size_t top_tids = 8;
    std::vector<std::pair<std::int64_t, std::uint32_t>> busiest;
    for (const auto& [tid, busy] : pool_busy) busiest.push_back({busy, tid});
    std::sort(busiest.rbegin(), busiest.rend());
    os << "pool tasks: utilization over the " << std::setprecision(2)
       << wall_ms << " ms window (" << busiest.size() << " worker threads):";
    const std::size_t shown =
        std::min<std::size_t>(busiest.size(), top_tids);
    for (std::size_t i = 0; i < shown; ++i) {
      os << " t" << busiest[i].second << "=" << std::setprecision(0)
         << (wall_ms > 0 ? 100.0 * ms(busiest[i].first) / wall_ms : 0.0)
         << "%";
    }
    if (busiest.size() > shown) {
      std::int64_t rest = 0;
      for (std::size_t i = shown; i < busiest.size(); ++i) {
        rest += busiest[i].first;
      }
      os << " +" << busiest.size() - shown << " more totalling "
         << std::setprecision(2) << ms(rest) << " ms";
    }
    os << "\n";
    if (queue_wait_count > 0) {
      os << "  enqueue->start wait: mean " << std::setprecision(1)
         << static_cast<double>(queue_wait_total) /
                (1e3 * static_cast<double>(queue_wait_count))
         << " us, max " << static_cast<double>(queue_wait_max) / 1e3
         << " us over " << queue_wait_count << " tasks\n";
    }
  }
  os.unsetf(std::ios::fixed);
}

}  // namespace dlb::obs

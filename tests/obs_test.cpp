// The observability contract: probes, recorders and metrics are pure
// observation. Grid rows must stay byte-identical with tracing on or off at
// any shard-thread count; counters must match the processes' own integer
// accounting; span streams must nest sanely and export as parseable
// trace-event JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dlb/core/algorithm1.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/obs/export.hpp"
#include "dlb/obs/metrics.hpp"
#include "dlb/obs/prof.hpp"
#include "dlb/obs/recorder.hpp"
#include "dlb/runtime/grids.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

std::shared_ptr<const graph> make_g(graph g) {
  return std::make_shared<const graph>(std::move(g));
}

std::shared_ptr<const shard_context> serial_context(const graph& g,
                                                    std::size_t shards) {
  return std::make_shared<const shard_context>(shard_context{
      shard_plan(g, shards),
      [](std::size_t count, const std::function<void(std::size_t)>& body) {
        for (std::size_t i = 0; i < count; ++i) body(i);
      }});
}

runtime::grid_options tiny_options(unsigned shard_threads) {
  runtime::grid_options opts;
  opts.target_n = 24;
  opts.repeats = 1;
  opts.spike_per_node = 10;
  opts.dynamic_rounds = 30;
  opts.arrivals_per_round = 4;
  opts.shard_threads = shard_threads;
  return opts;
}

/// Canonical (timing-masked) JSON of one grid run, optionally observed.
std::string run_json(const std::string& grid, unsigned shard_threads,
                     obs::recorder* rec, bool extras = false) {
  runtime::grid_spec spec =
      runtime::make_named_grid(grid, tiny_options(shard_threads), 5);
  spec.recorder = rec;
  spec.obs_extras = extras;
  runtime::thread_pool pool(2);
  const auto rows = runtime::run_grid(spec, 5, pool);
  std::ostringstream os;
  runtime::write_rows(os, rows, runtime::sink_format::json,
                      runtime::timing::exclude);
  return os.str();
}

// ------------------------------------------------ rows unchanged by obs

TEST(ObsRowsTest, Table1ByteIdenticalWithRecorderOnAndOff) {
  const std::string plain = run_json("table1", 1, nullptr);
  obs::recorder rec;
  EXPECT_EQ(plain, run_json("table1", 1, &rec));
  obs::recorder rec8;
  EXPECT_EQ(plain, run_json("table1", 8, &rec8));
  EXPECT_FALSE(rec.events().empty()) << "observed run recorded nothing";
}

TEST(ObsRowsTest, HugeUniformByteIdenticalWithRecorderOnAndOff) {
  const std::string plain = run_json("huge-uniform", 1, nullptr);
  obs::recorder rec;
  EXPECT_EQ(plain, run_json("huge-uniform", 1, &rec));
  obs::recorder rec8;
  EXPECT_EQ(plain, run_json("huge-uniform", 8, &rec8));
}

TEST(ObsRowsTest, ObsExtrasAreDeterministicAcrossShardThreads) {
  // The allow-listed counters change the bytes vs a plain run (that is why
  // they are opt-in), but must be byte-identical at any shard-thread count:
  // phase ranges partition the full entity sets and token movement is the
  // processes' own integer accounting.
  obs::recorder rec1;
  obs::recorder rec8;
  const std::string one = run_json("huge-uniform", 1, &rec1, true);
  EXPECT_EQ(one, run_json("huge-uniform", 8, &rec8, true));
  EXPECT_NE(one.find("obs_tokens_moved"), std::string::npos);
  EXPECT_NE(one.find("obs_rounds"), std::string::npos);
  EXPECT_EQ(one.find("barrier"), std::string::npos)
      << "timing-derived values must never reach rows";
}

TEST(ObsRowsTest, ExtrasWorkWithoutARecorder) {
  // --obs-extras alone (no --trace) runs the metrics-only probe path.
  obs::recorder rec;
  EXPECT_EQ(run_json("table1", 1, nullptr, true),
            run_json("table1", 4, &rec, true));
}

// ------------------------------------------------------- span structure

TEST(ObsSpanTest, ShardedPhasesEmitPerShardAndBarrierSpans) {
  const auto g = make_g(generators::ring_of_cliques(4, 5));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, 20);
  algorithm1 p(make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree)),
               task_assignment::tokens(tokens));
  p.enable_sharded_stepping(serial_context(*g, 4));

  obs::recorder rec;
  obs::metrics met;
  const std::uint64_t cell = rec.register_cell("t", "ring", "algorithm1", 0);
  ASSERT_TRUE(try_attach_probe(p, obs::probe{&rec, &met, cell}));
  for (int t = 0; t < 10; ++t) p.step();

  std::map<std::string, int> shards_seen;  // name → distinct shard count
  std::map<std::string, std::vector<bool>> by_shard;
  for (const obs::span_record& span : rec.events()) {
    EXPECT_EQ(span.cell, cell);
    ASSERT_GE(span.shard, 0) << span.name
                             << ": sharded stepping must attribute shards";
    auto& seen = by_shard[span.name];
    if (seen.size() <= static_cast<std::size_t>(span.shard)) {
      seen.resize(static_cast<std::size_t>(span.shard) + 1, false);
    }
    seen[static_cast<std::size_t>(span.shard)] = true;
  }
  for (const char* name :
       {"edge_phase", "node_phase", "barrier:edge_phase",
        "barrier:node_phase"}) {
    ASSERT_TRUE(by_shard.count(name)) << name << " never recorded";
    EXPECT_EQ(by_shard[name].size(), 4u) << name;
    for (const bool b : by_shard[name]) EXPECT_TRUE(b) << name;
  }
  EXPECT_GT(met.take().counter("barrier_wait_ns"), 0u);
}

TEST(ObsSpanTest, SpanNestingIsWellFormedPerThread) {
  const auto g = make_g(generators::torus_2d(5));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, 15);
  algorithm1 p(make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree)),
               task_assignment::tokens(tokens));
  p.enable_sharded_stepping(serial_context(*g, 3));
  obs::recorder rec;
  p.set_probe(obs::probe{&rec, nullptr, obs::no_cell});
  for (int t = 0; t < 20; ++t) p.step();

  // On one thread, any two spans must either nest or be disjoint — a partial
  // overlap means instrumentation attributed time to two places at once.
  // Sort parents before children at equal timestamps (longer span first).
  std::vector<obs::span_record> events = rec.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::span_record& a, const obs::span_record& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     return a.dur_ns > b.dur_ns;
                   });
  std::map<std::uint32_t, std::vector<std::int64_t>> open;  // tid → end stack
  for (const obs::span_record& span : events) {
    auto& stack = open[span.tid];
    while (!stack.empty() && stack.back() <= span.ts_ns) stack.pop_back();
    if (!stack.empty()) {
      ASSERT_LE(span.ts_ns + span.dur_ns, stack.back())
          << span.name << " partially overlaps an enclosing span";
    }
    stack.push_back(span.ts_ns + span.dur_ns);
  }
}

// --------------------------------------------------- histogram bucketing

TEST(ObsMetricsTest, HistogramBucketBoundariesArePinned) {
  // v lands in bucket bit_width(v): 0 is its own bucket, every power of two
  // opens the next one, and the top octave [2^63, 2^64) needs bucket 64 —
  // the regression this pins had num_buckets = 64, so any value with the
  // top bit set indexed one past the bucket array.
  obs::histogram h;
  h.add(0);                                          // bucket 0: exactly {0}
  h.add(1);                                          // bucket 1: [1, 2)
  h.add(2);                                          // bucket 2: [2, 4)
  h.add(3);                                          // bucket 2
  h.add(4);                                          // bucket 3: [4, 8)
  h.add(7);                                          // bucket 3
  h.add(std::uint64_t{1} << 62);                     // bucket 63: [2^62, 2^63)
  h.add((std::uint64_t{1} << 63) - 1);               // bucket 63
  h.add(std::uint64_t{1} << 63);                     // bucket 64: [2^63, 2^64)
  h.add(std::numeric_limits<std::uint64_t>::max());  // bucket 64
  static_assert(obs::histogram::num_buckets == 65,
                "64 buckets cannot hold bit widths 0..64");
  const auto snap = h.snapshot();
  EXPECT_EQ(snap[0], 1u);
  EXPECT_EQ(snap[1], 1u);
  EXPECT_EQ(snap[2], 2u);
  EXPECT_EQ(snap[3], 2u);
  EXPECT_EQ(snap[62], 0u);
  EXPECT_EQ(snap[63], 2u);
  EXPECT_EQ(snap[64], 2u);
  std::uint64_t total = 0;
  for (const std::uint64_t count : snap) total += count;
  EXPECT_EQ(total, 10u) << "every sample must land in exactly one bucket";
}

// --------------------------------------------------- counter conservation

TEST(ObsCountersTest, TokensMovedMatchesReceiverAccounting) {
  // Two nodes, one edge, all load on node 0: after one Alg1 step, every
  // token node 1 holds arrived over the edge — the counter must equal that
  // load exactly (each transfer counted once, at the receiver).
  const auto g = make_g(generators::path(2));
  const speed_vector s = uniform_speeds(2);
  algorithm1 p(make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree)),
               task_assignment::tokens(workload::point_mass(2, 0, 10)));
  obs::metrics met;
  ASSERT_TRUE(try_attach_probe(p, obs::probe{nullptr, &met, obs::no_cell}));
  p.step();
  const weight_t received = p.loads()[1];
  EXPECT_GT(received, 0);
  EXPECT_EQ(met.take().counter("tokens_moved"),
            static_cast<std::uint64_t>(received));
}

TEST(ObsCountersTest, CountersAreShardCountIndependent) {
  const auto g = make_g(generators::ring_of_cliques(5, 6));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, 25);
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);

  const auto run = [&](std::size_t shards) {
    algorithm1 p(make_fos(g, s, alpha), task_assignment::tokens(tokens));
    if (shards > 1) p.enable_sharded_stepping(serial_context(*g, shards));
    obs::metrics met;
    try_attach_probe(p, obs::probe{nullptr, &met, obs::no_cell});
    for (int t = 0; t < 25; ++t) p.step();
    return met.take();
  };
  const obs::metrics_snapshot sequential = run(1);
  EXPECT_GT(sequential.counter("tokens_moved"), 0u);
  for (const std::size_t shards : {2u, 8u}) {
    const obs::metrics_snapshot sharded = run(shards);
    EXPECT_EQ(sharded.counter("tokens_moved"),
              sequential.counter("tokens_moved"))
        << "shards=" << shards;
    EXPECT_EQ(sharded.counter("phases"), sequential.counter("phases"));
    EXPECT_EQ(sharded.counter("edges_touched"),
              sequential.counter("edges_touched"));
    EXPECT_EQ(sharded.counter("nodes_touched"),
              sequential.counter("nodes_touched"));
  }
}

// ------------------------------------------------------------- exporters

/// Minimal JSON well-formedness scan: quotes respected, braces/brackets
/// balanced and non-negative throughout. Not a full parser — the CI smoke
/// runs `python -m json.tool` for that — but enough to catch escaping bugs.
void expect_balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        --depth;
        ASSERT_GE(depth, 0);
        break;
      default: break;
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(ObsExportTest, ChromeTraceIsWellFormedAndCarriesShardSpans) {
  obs::recorder rec;
  (void)run_json("table1", 2, &rec);
  std::ostringstream trace;
  obs::write_chrome_trace(trace, rec);
  const std::string text = trace.str();
  expect_balanced_json(text);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"edge_phase\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"barrier:edge_phase\""), std::string::npos);
  EXPECT_NE(text.find("\"shard\":"), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"cell\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
}

/// The sidecar `--trace` writes for a recorder, rendered from its report.
std::string sidecar_of(const obs::recorder& rec) {
  std::ostringstream os;
  obs::write_sidecar(os, obs::prof::analyze_profile(rec));
  return os.str();
}

TEST(ObsExportTest, MetricsSidecarCarriesPerCellCounters) {
  obs::recorder rec;
  (void)run_json("table1", 1, &rec);
  const std::string text = sidecar_of(rec);
  expect_balanced_json(text);
  EXPECT_NE(text.find("\"tokens_moved\""), std::string::npos);
  EXPECT_NE(text.find("\"rounds\""), std::string::npos);
  EXPECT_NE(text.find("\"finished\": true"), std::string::npos);
  EXPECT_NE(text.find("\"process\""), std::string::npos);
}

TEST(ObsExportTest, SidecarCellCarriesCountersAndShardPhases) {
  // One sidecar, one entry per cell: the metrics half (counters) and the
  // span half (per-shard phases) of the same cell sit side by side.
  obs::recorder rec;
  (void)run_json("table1", 4, &rec);
  const std::vector<obs::cell_record> cells = rec.cells();
  ASSERT_FALSE(cells.empty());
  const std::string text = sidecar_of(rec);
  expect_balanced_json(text);
  EXPECT_EQ(text.rfind("{\n  \"schema\": \"dlb-obs-v1\",\n", 0), 0u);

  const std::string cell_open = "\n    {\"cell\": ";
  std::size_t pos = text.find(cell_open);
  for (const obs::cell_record& cell : cells) {
    ASSERT_NE(pos, std::string::npos) << "no entry for cell " << cell.id;
    const std::size_t next = text.find(cell_open, pos + 1);
    const std::string entry = text.substr(pos, next - pos);
    pos = next;
    EXPECT_EQ(entry.rfind(cell_open + std::to_string(cell.id) +
                              ", \"grid_cell\": " +
                              std::to_string(cell.index) + ",",
                          0),
              0u)
        << entry.substr(0, 80);
    EXPECT_NE(entry.find("\"finished\": true"), std::string::npos);
    EXPECT_GT(cell.snapshot.counter("tokens_moved"), 0u) << cell.process;
    EXPECT_NE(entry.find("\"tokens_moved\": " +
                         std::to_string(cell.snapshot.counter("tokens_moved"))),
              std::string::npos)
        << cell.process;

    const std::string edge = "{\"phase\": \"edge_phase\", \"shards\": 4,";
    const std::size_t phase = entry.find(edge);
    ASSERT_NE(phase, std::string::npos) << cell.process;
    const std::size_t phase_end = entry.find("{\"phase\": ", phase + 1);
    const std::string per_shard = entry.substr(phase, phase_end - phase);
    std::size_t items = 0;
    for (std::size_t at = per_shard.find("{\"shard\": ");
         at != std::string::npos;
         at = per_shard.find("{\"shard\": ", at + 1)) {
      ++items;
    }
    EXPECT_EQ(items, 4u) << cell.process;
  }
  EXPECT_EQ(pos, std::string::npos) << "more entries than cells";
}

TEST(ObsExportTest, SummaryNamesTheEightBusiestTids) {
  // One pool_task span of a distinct duration per worker thread. With 10
  // workers the summary must name the 8 busiest and fold the other two into
  // one aggregate; with 4 it names all of them and folds nothing.
  const auto summarize = [](int workers) {
    obs::recorder rec;
    std::vector<std::thread> threads;
    for (int i = 1; i <= workers; ++i) {
      threads.emplace_back([&rec, i] {
        rec.complete("pool_task", /*ts_ns=*/0, /*dur_ns=*/i * 1000000);
      });
    }
    for (std::thread& t : threads) t.join();
    std::ostringstream os;
    obs::write_summary(os, rec, obs::prof::analyze_profile(rec));
    return os.str();
  };
  const auto tid_entries = [](const std::string& text) {
    std::size_t count = 0;
    for (std::size_t pos = text.find(" t"); pos != std::string::npos;
         pos = text.find(" t", pos + 1)) {
      if (pos + 2 < text.size() && text[pos + 2] >= '0' &&
          text[pos + 2] <= '9') {
        ++count;
      }
    }
    return count;
  };

  const std::string capped = summarize(10);
  EXPECT_NE(capped.find("10 worker threads"), std::string::npos) << capped;
  EXPECT_EQ(tid_entries(capped), 8u) << capped;
  EXPECT_NE(capped.find("+2 more"), std::string::npos) << capped;

  const std::string full = summarize(4);
  EXPECT_NE(full.find("4 worker threads"), std::string::npos) << full;
  EXPECT_EQ(tid_entries(full), 4u) << full;
  EXPECT_EQ(full.find("more"), std::string::npos) << full;
}

TEST(ObsExportTest, SummaryReportsShardSkewAndPhases) {
  obs::recorder rec;
  (void)run_json("table1", 4, &rec);
  std::ostringstream summary;
  obs::write_summary(summary, rec, obs::prof::analyze_profile(rec));
  const std::string text = summary.str();
  EXPECT_NE(text.find("top spans by total time"), std::string::npos);
  EXPECT_NE(text.find("per-phase shard balance"), std::string::npos);
  EXPECT_NE(text.find("edge_phase"), std::string::npos);
  EXPECT_NE(text.find("skew"), std::string::npos);
  EXPECT_EQ(text.find("IPC"), std::string::npos)
      << "a counters-off recorder read no counters";
}

TEST(ObsExportTest, SummaryBalanceRowsEqualReportSums) {
  obs::recorder rec;
  (void)run_json("table1", 4, &rec);
  const obs::prof::profile_report report = obs::prof::analyze_profile(rec);

  // The expected rows, summed here straight off the report: per phase, the
  // wall time of every shard >= 0 across all cells.
  std::map<std::string, std::map<std::int32_t, std::int64_t>> sums;
  for (const obs::prof::cell_profile& cp : report.cells) {
    for (const obs::prof::phase_profile& pp : cp.phases) {
      for (const obs::prof::shard_stat& st : pp.shards) {
        if (st.shard >= 0) sums[pp.phase][st.shard] += st.wall_ns;
      }
    }
  }
  ASSERT_EQ(sums.size(), 3u) << "edge_phase, node_phase, node_phase_reduce";
  std::ostringstream expected;
  expected << "per-phase shard balance (totals across the run):\n"
           << "  phase                         shards mean/shard ms"
              "    slowest ms    skew\n";
  for (const auto& [phase, shards] : sums) {
    std::int64_t total = 0;
    std::int64_t slowest = 0;
    for (const auto& [shard, wall] : shards) {
      total += wall;
      slowest = std::max(slowest, wall);
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(shards.size());
    char row[160];
    std::snprintf(row, sizeof(row), "  %-28s%8zu%14.2f%14.2f%7.2fx\n",
                  phase.c_str(), shards.size(), mean / 1e6,
                  static_cast<double>(slowest) / 1e6,
                  mean > 0 ? static_cast<double>(slowest) / mean : 1.0);
    expected << row;
  }

  std::ostringstream summary;
  obs::write_summary(summary, rec, report);
  const std::string text = summary.str();
  const std::size_t begin = text.find("per-phase shard balance");
  ASSERT_NE(begin, std::string::npos) << text;
  EXPECT_EQ(text.substr(begin, expected.str().size()), expected.str());
  EXPECT_EQ(text.find("barrier waits:", begin),
            begin + expected.str().size())
      << "the balance section holds exactly the summed rows";
}

}  // namespace
}  // namespace dlb

// The profiling contract (dlb::obs::prof): a counters-on recorder is pure
// observation — grid rows must stay byte-identical with counters on or off
// at any shard-thread count — and the backend degrades gracefully: where
// perf_event_open is unavailable (or DLB_PROF_FORCE_FALLBACK=1 forces the
// issue) the recorder keeps the full sidecar schema on wall-clock-only
// spans, reports exactly one stderr notice, and never fails.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dlb/core/algorithm1.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/obs/export.hpp"
#include "dlb/obs/prof.hpp"
#include "dlb/obs/recorder.hpp"
#include "dlb/runtime/grids.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

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

/// Canonical (timing-masked) JSON of one grid run, optionally recorded.
std::string run_json(const std::string& grid, unsigned shard_threads,
                     obs::recorder* rec) {
  runtime::grid_spec spec =
      runtime::make_named_grid(grid, tiny_options(shard_threads), 5);
  spec.recorder = rec;
  runtime::thread_pool pool(2);
  if (rec != nullptr) pool.set_recorder(rec);
  const auto rows = runtime::run_grid(spec, 5, pool);
  std::ostringstream os;
  runtime::write_rows(os, rows, runtime::sink_format::json,
                      runtime::timing::exclude);
  return os.str();
}

/// Same well-formedness scan as tests/obs_test.cpp: quotes respected,
/// braces/brackets balanced. CI runs `python -m json.tool` for the rest.
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

// ----------------------------------------------- rows unchanged by profiling

constexpr auto counters_on = obs::recorder::counters::on;

TEST(ProfRowsTest, Table1ByteIdenticalWithCountersOnAndOff) {
  const std::string plain = run_json("table1", 1, nullptr);
  obs::recorder rec1(counters_on);
  EXPECT_EQ(plain, run_json("table1", 1, &rec1));
  obs::recorder rec8(counters_on);
  EXPECT_EQ(plain, run_json("table1", 8, &rec8));
  EXPECT_FALSE(rec1.events().empty()) << "profiled run recorded nothing";
}

TEST(ProfRowsTest, HugeStaticByteIdenticalWithCountersOnAndOff) {
  const std::string plain = run_json("huge-static", 1, nullptr);
  obs::recorder rec1(counters_on);
  EXPECT_EQ(plain, run_json("huge-static", 1, &rec1));
  obs::recorder rec8(counters_on);
  EXPECT_EQ(plain, run_json("huge-static", 8, &rec8));
}

// ------------------------------------------------------- fallback backend

TEST(ProfFallbackTest, ForcedFallbackKeepsRowsAndSchemaWithOneNotice) {
  ASSERT_EQ(setenv("DLB_PROF_FORCE_FALLBACK", "1", /*overwrite=*/1), 0);
  const std::string plain = run_json("table1", 1, nullptr);

  testing::internal::CaptureStderr();
  obs::recorder rec(counters_on);
  const std::string notice = testing::internal::GetCapturedStderr();
  ASSERT_EQ(unsetenv("DLB_PROF_FORCE_FALLBACK"), 0);

  // Exactly one notice, at construction, naming the reason.
  EXPECT_NE(notice.find("dlb prof:"), std::string::npos) << notice;
  EXPECT_NE(notice.find("DLB_PROF_FORCE_FALLBACK"), std::string::npos);
  EXPECT_EQ(notice.find("dlb prof:"), notice.rfind("dlb prof:"))
      << "fallback notice printed more than once:\n" << notice;
  EXPECT_FALSE(rec.hardware_available());
  EXPECT_NE(rec.fallback_reason().find("DLB_PROF_FORCE_FALLBACK"),
            std::string::npos);

  // Rows stay byte-identical and spans keep running on wall clock.
  testing::internal::CaptureStderr();  // swallow any later prints
  const std::string profiled = run_json("table1", 4, &rec);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "")
      << "fallback must be reported once, at construction only";
  EXPECT_EQ(plain, profiled);

  // Full-schema sidecar: backend marked, counters flagged unavailable.
  const obs::prof::profile_report report = obs::prof::analyze_profile(rec);
  ASSERT_FALSE(report.cells.empty());
  EXPECT_FALSE(report.hardware_available);
  EXPECT_FALSE(report.fallback_reason.empty());
  for (const obs::prof::cell_profile& cell : report.cells) {
    ASSERT_FALSE(cell.phases.empty());
    for (const obs::prof::phase_profile& phase : cell.phases) {
      for (const obs::prof::shard_stat& shard : phase.shards) {
        EXPECT_FALSE(shard.hw_available);
        EXPECT_EQ(shard.hw[0], 0u) << "fallback must not invent counters";
        EXPECT_GT(shard.wall_ns, 0) << "wall clock stays live in fallback";
      }
    }
  }
  std::ostringstream sidecar;
  obs::write_sidecar(sidecar, report);
  expect_balanced_json(sidecar.str());
  EXPECT_NE(sidecar.str().find("\"backend\": \"fallback\""),
            std::string::npos);
}

// ------------------------------------------------------------ skew analysis

std::shared_ptr<const shard_context> serial_context(const graph& g,
                                                    std::size_t shards) {
  return std::make_shared<const shard_context>(shard_context{
      shard_plan(g, shards),
      [](std::size_t count, const std::function<void(std::size_t)>& body) {
        for (std::size_t i = 0; i < count; ++i) body(i);
      }});
}

TEST(ProfAnalysisTest, FoldsPerShardSpansAndBarrierWaits) {
  const auto g =
      std::make_shared<const graph>(generators::ring_of_cliques(4, 5));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, 20);
  algorithm1 p(make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree)),
               task_assignment::tokens(tokens));
  p.enable_sharded_stepping(serial_context(*g, 4));

  obs::recorder rec(counters_on);
  const std::uint64_t cell = rec.register_cell("t", "ring", "algorithm1", 0);
  ASSERT_TRUE(try_attach_probe(p, obs::probe{&rec, nullptr, cell}));
  for (int t = 0; t < 10; ++t) p.step();

  const obs::prof::profile_report report = obs::prof::analyze_profile(rec);
  ASSERT_EQ(report.cells.size(), 1u);
  const obs::prof::cell_profile& cp = report.cells[0];
  EXPECT_EQ(cp.cell.id, cell);
  EXPECT_EQ(cp.cell.grid, "t");
  EXPECT_GE(cp.barrier_wait_share, 0.0);
  EXPECT_LE(cp.barrier_wait_share, 1.0);

  // Phases sorted by name; the sharded phases carry all four shards with
  // internally consistent wall statistics.
  ASSERT_FALSE(cp.phases.empty());
  for (std::size_t i = 1; i < cp.phases.size(); ++i) {
    EXPECT_LT(cp.phases[i - 1].phase, cp.phases[i].phase);
  }
  bool saw_edge = false;
  for (const obs::prof::phase_profile& phase : cp.phases) {
    ASSERT_FALSE(phase.shards.empty()) << phase.phase;
    EXPECT_LE(phase.wall_mean_ns, phase.wall_slowest_ns) << phase.phase;
    EXPECT_LE(phase.wall_p99_ns, phase.wall_slowest_ns) << phase.phase;
    EXPECT_LE(phase.wall_slowest_ns, phase.wall_total_ns) << phase.phase;
    EXPECT_GE(phase.skew, 1.0) << phase.phase << ": slowest/mean < 1";
    bool slowest_present = false;
    for (const obs::prof::shard_stat& shard : phase.shards) {
      slowest_present |= shard.shard == phase.slowest_shard;
    }
    EXPECT_TRUE(slowest_present) << phase.phase;
    if (phase.phase == "edge_phase") {
      saw_edge = true;
      EXPECT_EQ(phase.shards.size(), 4u);
      EXPECT_GT(phase.barrier_wait_ns, 0)
          << "barrier:edge_phase spans must credit the phase";
    }
  }
  EXPECT_TRUE(saw_edge);

  // Memory section: high-water marks and the recorder footprint populated.
  const obs::prof::memory_profile mem = obs::prof::sample_memory(&rec);
  EXPECT_GT(mem.max_rss_kb + mem.vm_hwm_kb, 0u);
  EXPECT_GT(mem.recorder.spans, 0u);
  EXPECT_GE(mem.recorder.bytes, mem.recorder.spans * sizeof(obs::span_record));
}

TEST(ProfAnalysisTest, ReportRendersAsJsonAndTable) {
  obs::recorder rec(counters_on);
  (void)run_json("table1", 2, &rec);
  const obs::prof::profile_report report = obs::prof::analyze_profile(rec);
  ASSERT_FALSE(report.cells.empty());

  std::ostringstream sidecar;
  obs::write_sidecar(sidecar, report);
  const std::string json = sidecar.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"schema\": \"dlb-obs-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"barrier_wait_share\""), std::string::npos);
  EXPECT_NE(json.find("\"per_shard\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_misses\""), std::string::npos);

  std::ostringstream table;
  obs::write_summary(table, rec, report);
  EXPECT_NE(table.str().find("skew"), std::string::npos);
  EXPECT_NE(table.str().find("barrier"), std::string::npos);
}

TEST(ProfAnalysisTest, SummaryBalanceRowsGainCounterColumns) {
  // Counters are read only where the PMU is exposed, so the report is
  // given hand-set counts: the summed edge_phase counters give IPC
  // 8000/4000 = 2.00 and miss 100/400 = 25.0%, and a phase with one shard
  // lacking counters prints "-" in both columns.
  obs::recorder rec;
  (void)run_json("table1", 4, &rec);
  obs::prof::profile_report report = obs::prof::analyze_profile(rec);
  report.hardware_available = true;
  report.fallback_reason.clear();
  bool first_node_phase = true;
  for (obs::prof::cell_profile& cp : report.cells) {
    for (obs::prof::phase_profile& pp : cp.phases) {
      for (obs::prof::shard_stat& st : pp.shards) {
        st.hw_available = !(pp.phase == "node_phase" && first_node_phase);
        if (pp.phase == "node_phase") first_node_phase = false;
        st.hw = {};
        if (pp.phase == "edge_phase" && &cp == &report.cells.front()) {
          using obs::prof::hw;
          st.hw[static_cast<std::size_t>(hw::cycles)] = 1000;
          st.hw[static_cast<std::size_t>(hw::instructions)] = 2000;
          st.hw[static_cast<std::size_t>(hw::cache_references)] = 100;
          st.hw[static_cast<std::size_t>(hw::cache_misses)] = 25;
        }
      }
    }
  }
  ASSERT_FALSE(first_node_phase) << "table1 at 4 shards steps node phases";

  std::ostringstream summary;
  obs::write_summary(summary, rec, report);
  const std::string text = summary.str();
  const std::size_t balance = text.find("per-phase shard balance");
  ASSERT_NE(balance, std::string::npos) << text;
  const auto line_of = [&](const std::string& head) {
    const std::size_t at = text.find(head, balance);
    return at == std::string::npos
               ? std::string()
               : text.substr(at, text.find('\n', at) - at);
  };
  EXPECT_EQ(line_of("  phase "),
            "  phase                         shards mean/shard ms"
            "    slowest ms    skew    IPC   miss%");
  const auto tail_of = [&](const std::string& head) {
    const std::string line = line_of(head);
    return line.substr(line.size() < 16 ? 0 : line.size() - 16);
  };
  EXPECT_EQ(tail_of("  edge_phase "), "x   2.00    25.0") << text;
  EXPECT_EQ(tail_of("  node_phase "), "x      -       -") << text;
}

TEST(ProfSpanCountersTest, CountersOffAndFallbackSpansCarryNoCounters) {
  { const obs::scoped_span nothing(nullptr, "nothing"); }  // null: no-op

  obs::recorder off;
  ASSERT_EQ(setenv("DLB_PROF_FORCE_FALLBACK", "1", /*overwrite=*/1), 0);
  testing::internal::CaptureStderr();
  obs::recorder fallback(counters_on);
  (void)testing::internal::GetCapturedStderr();
  ASSERT_EQ(unsetenv("DLB_PROF_FORCE_FALLBACK"), 0);

  for (obs::recorder* rec : {&off, &fallback}) {
    { const obs::scoped_span live(rec, "slice", 3, 7); }
    EXPECT_FALSE(rec->hardware_available());
    EXPECT_FALSE(rec->fallback_reason().empty());
    const std::vector<obs::span_record> spans = rec->events();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_STREQ(spans[0].name, "slice");
    EXPECT_EQ(spans[0].shard, 3);
    EXPECT_EQ(spans[0].cell, 7u);
    EXPECT_GE(spans[0].dur_ns, 0);
    EXPECT_FALSE(spans[0].hw_available);
    EXPECT_EQ(spans[0].hw, obs::hw_counts{});
  }
}

}  // namespace
}  // namespace dlb

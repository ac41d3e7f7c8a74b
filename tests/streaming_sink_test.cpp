// Streaming result flushing: the row_writer's incremental framing is the
// document the parsers read back, and run_grid's emit callback receives the
// grid's canonical row sequence in cell order — from real multi-threaded
// pools whose cells finish out of order — without materializing the grid.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dlb/runtime/grids.hpp"

// GCC 12 at -O3 reports a spurious -Wrestrict from char_traits once
// sample_row's string-literal field assignments inline into the test bodies
// (GCC bug 105329 — the reported offsets, around ±4.6e18, are impossible for
// a 2-byte literal). File-scoped suppression so the -Werror gate stays on
// for every real warning class; drop when the baseline compiler moves on.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace dlb::runtime {
namespace {

result_row sample_row(std::uint64_t cell) {
  result_row row;
  row.cell = cell;
  row.grid = "g";
  row.scenario = "case, \"quoted\"";  // exercises CSV quoting
  row.process = "p" + std::to_string(cell);
  row.model = "diffusion";
  row.n = 8;
  row.seed = 99 + cell;
  row.rounds = 7;
  row.converged = true;
  row.final_max_min = 1.5 + static_cast<real_t>(cell);
  row.extra.push_back({"k=weird", 0.25});
  row.wall_ns = 1234;
  return row;
}

class RowWriterFormatsTest : public ::testing::TestWithParam<sink_format> {};

TEST_P(RowWriterFormatsTest, FramingRoundTripsAtAnyRowCount) {
  for (const std::size_t count : {0u, 1u, 3u}) {
    std::vector<result_row> rows;
    for (std::size_t i = 0; i < count; ++i) rows.push_back(sample_row(i));
    for (const timing t : {timing::include, timing::exclude}) {
      const std::string label =
          "rows=" + std::to_string(count) +
          (t == timing::include ? " timing=include" : " timing=exclude");
      std::ostringstream streamed;
      row_writer writer(streamed, GetParam(), t);
      writer.begin();
      for (const result_row& row : rows) writer.row(row);
      writer.end();
      EXPECT_EQ(writer.rows_written(), count) << label;

      std::vector<result_row> want = rows;
      if (t == timing::exclude) {
        for (result_row& row : want) row.wall_ns = 0;
      }
      if (GetParam() == sink_format::csv) {
        EXPECT_EQ(parse_csv(streamed.str()), want) << label;
        continue;
      }
      EXPECT_EQ(parse_json(streamed.str()), want) << label;
      // The JSON array framing, byte for byte: one object per line, the
      // comma at the end of every line but the last.
      std::string framed = "[\n";
      for (std::size_t i = 0; i < count; ++i) {
        framed += "  " + to_json(rows[i], t) + (i + 1 < count ? ",\n" : "\n");
      }
      framed += "]\n";
      EXPECT_EQ(streamed.str(), framed) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, RowWriterFormatsTest,
                         ::testing::Values(sink_format::json,
                                           sink_format::csv),
                         [](const ::testing::TestParamInfo<sink_format>& i) {
                           return i.param == sink_format::json ? "json"
                                                               : "csv";
                         });

TEST(RunGridStreamingTest, EmitsTheSerialCellSequenceInCellOrder) {
  grid_options opts;
  opts.target_n = 32;
  opts.repeats = 2;
  opts.spike_per_node = 10;
  const grid_spec spec = make_named_grid("table1", opts, /*master=*/5);

  // The reference: every cell run one after another in cell order.
  std::vector<result_row> expected;
  for (const grid_cell& cell : expand_grid(spec, /*master=*/5)) {
    expected.push_back(run_cell(spec, cell));
  }

  thread_pool pool(4);
  std::vector<result_row> streamed;
  const std::uint64_t count =
      run_grid(spec, /*master=*/5, pool,
               [&](const result_row& row) { streamed.push_back(row); });

  ASSERT_EQ(count, expected.size());
  ASSERT_EQ(streamed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    // Cell order, not completion order.
    EXPECT_EQ(streamed[i].cell, static_cast<std::uint64_t>(i));
    // wall_ns is the one nondeterministic field; mask it for comparison.
    result_row a = streamed[i];
    result_row b = expected[i];
    a.wall_ns = 0;
    b.wall_ns = 0;
    EXPECT_EQ(a, b) << "row " << i;
  }
}

TEST(RunGridStreamingTest, StreamingIntoWriterMatchesBufferedSerialization) {
  grid_options opts;
  opts.target_n = 32;
  opts.repeats = 2;
  opts.dynamic_rounds = 20;
  opts.arrivals_per_round = 4;
  opts.spike_per_node = 4;
  const grid_spec spec = make_named_grid("huge-uniform", opts, /*master=*/17);

  thread_pool serial(1);
  const auto rows = run_grid(spec, /*master=*/17, serial);
  std::ostringstream buffered;
  write_rows(buffered, rows, sink_format::csv, timing::exclude);

  std::ostringstream streamed;
  row_writer writer(streamed, sink_format::csv, timing::exclude);
  writer.begin();
  thread_pool pool(4);
  run_grid(spec, /*master=*/17, pool,
           [&](const result_row& row) { writer.row(row); });
  writer.end();
  EXPECT_EQ(streamed.str(), buffered.str());
}

}  // namespace
}  // namespace dlb::runtime

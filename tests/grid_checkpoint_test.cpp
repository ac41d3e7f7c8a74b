// Grid-level checkpointing (runtime/grid_checkpoint.hpp) through run_grid:
// a cold checkpointed run gives run_grid's rows, rows already in the
// checkpoint come back verbatim without their cells running, every fresh row
// ends up in the saved file whatever the save cadence, a damaged or foreign
// file is refused with one line, and a bad replay trace is refused before
// any cell runs or any row is saved.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "dlb/common/contracts.hpp"
#include "dlb/obs/recorder.hpp"
#include "dlb/runtime/grid_checkpoint.hpp"
#include "dlb/runtime/grids.hpp"

namespace dlb::runtime {
namespace {

constexpr std::uint64_t master = 5;

// A checkpoint path in the test temp directory; the file and the `.tmp`
// twin of an interrupted save are removed before and after the test.
class temp_path {
 public:
  explicit temp_path(const std::string& name)
      : path_(::testing::TempDir() + "grid_checkpoint_test_" + name) {
    clear();
  }
  ~temp_path() { clear(); }
  temp_path(const temp_path&) = delete;
  temp_path& operator=(const temp_path&) = delete;

  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  void clear() const {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_;
};

bool exists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path, std::ios::binary));
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

grid_spec small_grid() {
  grid_options opts;
  opts.target_n = 32;
  opts.repeats = 2;
  opts.spike_per_node = 10;
  return make_named_grid("table1", opts, master);
}

// The checkpointed run, collected in emission order.
std::vector<result_row> run_checkpointed(const grid_spec& spec,
                                         grid_checkpoint& ckpt,
                                         const std::string& path,
                                         std::uint64_t every = 1) {
  thread_pool pool(2);
  std::vector<result_row> rows;
  run_grid(spec, master, pool,
           [&rows](const result_row& row) { rows.push_back(row); }, &ckpt,
           path, every);
  return rows;
}

// wall_ns is the one nondeterministic field.
std::vector<result_row> masked(std::vector<result_row> rows) {
  for (result_row& row : rows) row.wall_ns = 0;
  return rows;
}

// A refusal is one contract_violation line, never a multi-line dump.
template <typename Fn>
void expect_one_line_refusal(Fn&& fn, const std::string& label) {
  try {
    fn();
    ADD_FAILURE() << label << ": no exception";
  } catch (const contract_violation& e) {
    const std::string what = e.what();
    EXPECT_FALSE(what.empty()) << label;
    EXPECT_EQ(what.find('\n'), std::string::npos) << label << ": " << what;
  }
}

TEST(GridCheckpointTest, ColdCheckpointedRunMatchesRunGrid) {
  const grid_spec spec = small_grid();
  thread_pool pool(2);
  const std::vector<result_row> expected = run_grid(spec, master, pool);

  const temp_path path("cold");
  grid_checkpoint ckpt("fp");
  const std::vector<result_row> rows = run_checkpointed(spec, ckpt, path.str());
  EXPECT_EQ(masked(rows), masked(expected));
  EXPECT_EQ(ckpt.size(), expected.size());
  EXPECT_EQ(grid_checkpoint::load(path.str(), "fp").size(), expected.size());
}

TEST(GridCheckpointTest, SeededRowsReturnVerbatimWithoutRunningTheirCells) {
  grid_spec spec = small_grid();
  thread_pool pool(2);
  const std::vector<result_row> expected = run_grid(spec, master, pool);
  ASSERT_GE(expected.size(), 4u);

  // Every even cell is seeded with a row no cell body would produce, so a
  // recomputed cell could not pass for a restored one.
  grid_checkpoint ckpt("fp");
  std::set<std::uint64_t> seeded;
  for (const result_row& row : expected) {
    if (row.cell % 2 != 0) continue;
    result_row marked = row;
    marked.final_max_min = -1.0 - static_cast<real_t>(row.cell);
    marked.wall_ns = 777;
    ckpt.put(spec.name, marked);
    seeded.insert(row.cell);
  }

  obs::recorder rec;
  spec.recorder = &rec;
  const temp_path path("seeded");
  const std::vector<result_row> rows = run_checkpointed(spec, ckpt, path.str());
  ASSERT_EQ(rows.size(), expected.size());
  EXPECT_EQ(rec.cells().size(), expected.size() - seeded.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].cell, static_cast<std::uint64_t>(i));
    result_row want = expected[i];
    if (seeded.count(want.cell) != 0) {
      want.final_max_min = -1.0 - static_cast<real_t>(want.cell);
      want.wall_ns = 777;
      EXPECT_EQ(rows[i], want) << "seeded cell " << i;
    } else {
      result_row got = rows[i];
      got.wall_ns = 0;
      want.wall_ns = 0;
      EXPECT_EQ(got, want) << "fresh cell " << i;
    }
  }
  EXPECT_EQ(grid_checkpoint::load(path.str(), "fp").size(), expected.size());
}

TEST(GridCheckpointTest, LoadRefusesAForeignFingerprint) {
  const temp_path path("foreign");
  result_row row;
  row.grid = "g";
  grid_checkpoint ckpt("grids=table1;n=32");
  ckpt.put("g", row);
  ckpt.save(path.str());
  EXPECT_EQ(grid_checkpoint::load(path.str(), "grids=table1;n=32").size(), 1u);
  expect_one_line_refusal(
      [&] { (void)grid_checkpoint::load(path.str(), "grids=table1;n=64"); },
      "foreign fingerprint");
  expect_one_line_refusal(
      [&] {
        (void)grid_checkpoint::load_or_empty(path.str(), "grids=table1;n=64");
      },
      "foreign fingerprint via load_or_empty");
}

TEST(GridCheckpointTest, LoadRefusesATruncatedOrFlippedFile) {
  const grid_spec spec = small_grid();
  const temp_path path("damaged");
  grid_checkpoint ckpt("fp");
  (void)run_checkpointed(spec, ckpt, path.str());
  const std::string bytes = read_bytes(path.str());
  ASSERT_GT(bytes.size(), 64u);

  write_bytes(path.str(), bytes.substr(0, bytes.size() / 2));
  expect_one_line_refusal(
      [&] { (void)grid_checkpoint::load(path.str(), "fp"); }, "truncated");

  std::string flipped = bytes;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^
                                                  0x20);
  write_bytes(path.str(), flipped);
  expect_one_line_refusal(
      [&] { (void)grid_checkpoint::load(path.str(), "fp"); }, "flipped byte");
}

TEST(GridCheckpointTest, LoadOrEmptyOnAMissingFileIsAColdStart) {
  const temp_path path("missing");
  ASSERT_FALSE(exists(path.str()));
  const grid_checkpoint ckpt =
      grid_checkpoint::load_or_empty(path.str(), "fp");
  EXPECT_EQ(ckpt.size(), 0u);
  EXPECT_EQ(ckpt.fingerprint(), "fp");
  EXPECT_FALSE(exists(path.str()));
  expect_one_line_refusal(
      [&] { (void)grid_checkpoint::load(path.str(), "fp"); }, "plain load");
}

TEST(GridCheckpointTest, SparseCadenceStillEndsWithEveryRowSaved) {
  // table1 has a multiple of 3 cells per scenario; one competitor fewer
  // leaves a final partial batch.
  grid_spec spec = small_grid();
  spec.processes.erase(spec.processes.begin());
  const temp_path path("every3");
  grid_checkpoint ckpt("fp");
  const std::vector<result_row> rows =
      run_checkpointed(spec, ckpt, path.str(), /*every=*/3);
  ASSERT_NE(rows.size() % 3, 0u);
  const grid_checkpoint saved = grid_checkpoint::load(path.str(), "fp");
  ASSERT_EQ(saved.size(), rows.size());
  for (const result_row& row : rows) {
    const std::string* json = saved.find(spec.name, row.cell);
    ASSERT_NE(json, nullptr) << "cell " << row.cell;
    EXPECT_EQ(parse_row(*json), row) << "cell " << row.cell;
  }
}

TEST(GridCheckpointTest, OutOfRangeReplayTraceFailsBeforeAnyCellRuns) {
  // async-poisson at n=32: the torus rounds up to 36 nodes, every other
  // scenario has 32, so node 33 fits only the cells that run first.
  const temp_path trace("node33.trace");
  write_bytes(trace.str(), "0.5 33 1\n");
  grid_options opts;
  opts.target_n = 32;
  opts.repeats = 1;
  opts.dynamic_rounds = 20;
  opts.trace_path = trace.str();
  grid_spec spec = make_named_grid("async-poisson", opts, master);
  obs::recorder rec;
  spec.recorder = &rec;

  const temp_path path("trace");
  grid_checkpoint ckpt("fp");
  thread_pool pool(1);
  std::vector<result_row> rows;
  EXPECT_THROW(run_grid(
                   spec, master, pool,
                   [&rows](const result_row& row) { rows.push_back(row); },
                   &ckpt, path.str(), 1),
               contract_violation);
  EXPECT_TRUE(rows.empty());
  EXPECT_TRUE(rec.cells().empty());
  EXPECT_EQ(ckpt.size(), 0u);
  EXPECT_FALSE(exists(path.str()));
}

}  // namespace
}  // namespace dlb::runtime

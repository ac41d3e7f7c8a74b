#include "dlb/runtime/grid_checkpoint.hpp"

#include <fstream>

#include "dlb/common/contracts.hpp"
#include "dlb/snapshot/snapshot.hpp"

namespace dlb::runtime {

namespace {
constexpr std::string_view grid_section = "dlb-grid-checkpoint";
}  // namespace

const std::string* grid_checkpoint::find(const std::string& grid,
                                         std::uint64_t cell) const {
  const auto it = rows_.find({grid, cell});
  return it != rows_.end() ? &it->second : nullptr;
}

void grid_checkpoint::put(const std::string& grid, const result_row& row) {
  rows_[{grid, row.cell}] = to_json(row, timing::include);
}

void grid_checkpoint::save(const std::string& path) const {
  snapshot::writer w;
  w.section(grid_section);
  w.str(fingerprint_);
  w.u64(rows_.size());
  for (const auto& [key, json] : rows_) {
    w.str(key.first);
    w.u64(key.second);
    w.str(json);
  }
  w.save_file(path);
}

grid_checkpoint grid_checkpoint::load(const std::string& path,
                                      const std::string& expected) {
  snapshot::reader r = snapshot::reader::from_file(path);
  r.expect_section(grid_section);
  const std::string found = r.str();
  if (found != expected) {
    throw contract_violation(
        "checkpoint: " + path +
        " was written under different settings (its fingerprint is \"" +
        found + "\", this run's is \"" + expected +
        "\") — rows cannot be spliced across configurations");
  }
  grid_checkpoint ckpt(expected);
  const std::uint64_t count = r.u64();
  for (std::uint64_t k = 0; k < count; ++k) {
    std::string grid = r.str();
    const std::uint64_t cell = r.u64();
    std::string json = r.str();
    // Re-parse on load so a hand-edited row fails here, not mid-output.
    (void)parse_row(json);
    ckpt.rows_[{std::move(grid), cell}] = std::move(json);
  }
  return ckpt;
}

grid_checkpoint grid_checkpoint::load_or_empty(const std::string& path,
                                               const std::string& expected) {
  if (std::ifstream probe(path, std::ios::binary); !probe) {
    return grid_checkpoint(expected);  // cold start: nothing saved yet
  }
  return load(path, expected);
}

}  // namespace dlb::runtime

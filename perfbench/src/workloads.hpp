// The benchmark's workloads and the runs that measure them. Every layer is
// reached from outside, through public library calls only; see README.md
// beside this directory for why each workload exists and what it loads.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct run_result {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< cells run
  std::uint64_t failed = 0;     ///< cells that threw or broke a check
  metric_set metrics;
  std::vector<std::string> report;  ///< human-readable lines, printed first
};

/// Workload names, in BENCHMARK.json order.
[[nodiscard]] std::vector<std::string> workload_names();

/// Runs one workload for about `seconds`: end-to-end metrics with tracing
/// off, or (trace) the per-layer metrics of a separate traced run. Throws
/// std::invalid_argument for an unknown workload name.
[[nodiscard]] run_result run_workload(const run_options& opts);

/// Determinism self-test: every 4-shard workload, at reduced size, must give
/// rows byte-identical (wall_ns masked) to its 1-shard twin. Prints one line
/// per failure to `log` and returns the count.
int self_test_determinism(std::ostream& log);

}  // namespace perfbench

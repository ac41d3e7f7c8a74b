// Metric plumbing of the repo benchmark: naming and unit rules, medians and
// tail percentiles, and the one-line JSON the runner prints. Kept apart from
// the workloads so the self-test can exercise the rules on their own.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (arbitrary epoch).
[[nodiscard]] std::int64_t now_ns();

/// CPU nanoseconds the whole process (every thread) has run so far. Unlike
/// now_ns() it does not advance while the host runs other work on the
/// process's CPU (steal time, other processes), so it gives the gated
/// figures: on a shared host that time is most of a run's wall-clock spread.
[[nodiscard]] std::int64_t cpu_ns();

/// Median of `v`; v must be non-empty.
[[nodiscard]] double median(std::vector<double> v);

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported: a percentile resting on fewer is noise, not a tail.
inline constexpr std::size_t min_tail_samples = 10;

/// Nearest-rank q-quantile of `v` (0 < q < 1), or nullopt when fewer than
/// min_tail_samples samples rank beyond it (so p99 needs >= 1000 samples,
/// p90 >= 100).
[[nodiscard]] std::optional<double> tail_percentile(std::vector<double> v,
                                                    double q);

/// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
[[nodiscard]] bool valid_name(std::string_view name);

/// Units: 1-16 of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(std::string_view unit);

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// An ordered set of named metrics. Every entry carries a unit; names are
/// unique and checked on insertion (std::invalid_argument otherwise).
class metric_set {
 public:
  void add(const std::string& name, double value, const std::string& unit);

  /// Adds `name` = the q-quantile of `samples` (scaled by `scale`) when
  /// tail_percentile reports it. Otherwise adds 0 and lists the name in
  /// unreported(), so the output keeps one shape for every run.
  void add_tail(const std::string& name, const std::vector<double>& samples,
                double q, double scale, const std::string& unit);

  /// Adds a metric that the workload does not execute: value 0, listed in
  /// not_on_path().
  void add_absent(const std::string& name, const std::string& unit);

  [[nodiscard]] const std::vector<metric>& items() const { return items_; }
  [[nodiscard]] const metric* find(std::string_view name) const;
  [[nodiscard]] const std::vector<std::string>& unreported() const {
    return unreported_;
  }
  [[nodiscard]] const std::vector<std::string>& not_on_path() const {
    return absent_;
  }

  /// {"<name>": {"value": v, "unit": "<unit>"}, ...} with every digit of v.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<metric> items_;
  std::vector<std::string> unreported_;
  std::vector<std::string> absent_;
};

/// Runs the plumbing self-tests (percentile rule, name and unit rules,
/// JSON shape); prints one line per failure to `log` and returns the count.
int self_test_plumbing(std::ostream& log);

}  // namespace perfbench

#include "metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <thread>

#include <time.h>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  }
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

std::optional<double> tail_percentile(std::vector<double> v, double q) {
  if (v.empty() || !(q > 0 && q < 1)) return std::nullopt;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (v.size() - 1 - idx < min_tail_samples) return std::nullopt;
  return v[idx];
}

namespace {

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

bool all_of_chars(std::string_view s, std::string_view extra) {
  return std::all_of(s.begin(), s.end(), [&](char c) {
    return alnum(c) || extra.find(c) != std::string_view::npos;
  });
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool valid_name(std::string_view name) {
  return !name.empty() && name.size() <= 64 && alnum(name.front()) &&
         all_of_chars(name, "_.-");
}

bool valid_unit(std::string_view unit) {
  return !unit.empty() && unit.size() <= 16 && all_of_chars(unit, "_/%.-");
}

void metric_set::add(const std::string& name, double value,
                     const std::string& unit) {
  if (!valid_name(name)) {
    throw std::invalid_argument("bad metric name: '" + name + "'");
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument("metric " + name + " has bad unit '" + unit +
                                "'");
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric " + name + " is not finite");
  }
  if (find(name) != nullptr) {
    throw std::invalid_argument("duplicate metric: " + name);
  }
  items_.push_back({name, value, unit});
}

void metric_set::add_tail(const std::string& name,
                          const std::vector<double>& samples, double q,
                          double scale, const std::string& unit) {
  const std::optional<double> p = tail_percentile(samples, q);
  add(name, p.has_value() ? *p * scale : 0.0, unit);
  if (!p.has_value()) unreported_.push_back(name);
}

void metric_set::add_absent(const std::string& name, const std::string& unit) {
  add(name, 0.0, unit);
  absent_.push_back(name);
}

const metric* metric_set::find(std::string_view name) const {
  for (const metric& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string metric_set::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const metric& m = items_[i];
    if (i > 0) out += ", ";
    // Names and units are restricted to characters JSON needs no escape
    // for, so they are written verbatim.
    out += "\"" + m.name + "\": {\"value\": " + format_value(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

int self_test_plumbing(std::ostream& log) {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      log << "FAIL plumbing: " << what << "\n";
      ++failures;
    }
  };

  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  expect(tail_percentile(ramp, 0.99) == 990.0,
         "p99 of 1..1000 is 990 (10 samples beyond)");
  ramp.pop_back();
  expect(!tail_percentile(ramp, 0.99).has_value(),
         "p99 of 999 samples is refused (9 beyond)");
  std::vector<double> hundred(ramp.begin(), ramp.begin() + 100);
  expect(tail_percentile(hundred, 0.90) == 90.0, "p90 of 1..100 is 90");
  hundred.pop_back();
  expect(!tail_percentile(hundred, 0.90).has_value(),
         "p90 of 99 samples is refused");
  expect(median({3, 1, 2}) == 2.0 && median({4, 1, 2, 3}) == 2.5, "median");

  // The gated times rest on the CPU clock: it advances while the process
  // computes and stands still while it sleeps.
  const std::int64_t spin_start = now_ns();
  const std::int64_t cpu_start = cpu_ns();
  volatile std::uint64_t spins = 0;
  while (now_ns() - spin_start < 20'000'000) spins = spins + 1;
  const std::int64_t cpu_spun = cpu_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::int64_t cpu_slept = cpu_ns();
  expect(cpu_spun - cpu_start >= 5'000'000,
         "CPU clock advances while computing (20 ms spin)");
  expect(cpu_slept - cpu_spun < 25'000'000,
         "CPU clock stands still while sleeping (50 ms sleep)");

  expect(valid_name("core.engine.round_ms_p99"), "dotted name accepted");
  expect(valid_name("runtime.thread_pool.dispatch_us_p50"), "name accepted");
  expect(!valid_name(""), "empty name refused");
  expect(!valid_name(".leading"), "leading dot refused");
  expect(!valid_name("has space"), "space refused");
  expect(!valid_name("quote\""), "quote refused");
  expect(!valid_name(std::string(65, 'a')), "65-letter name refused");
  expect(valid_unit("1/s") && valid_unit("MiB") && valid_unit("%"),
         "units accepted");
  expect(!valid_unit("") && !valid_unit("a b") && !valid_unit("x\""),
         "bad units refused");

  metric_set set;
  set.add("wall_s", 1.25, "s");
  bool threw = false;
  try {
    set.add("wall_s", 2.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "duplicate name refused");
  threw = false;
  try {
    set.add("no_unit", 2.0, "");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "metric without unit refused");
  set.add_tail("p99_small", {1, 2, 3}, 0.99, 1.0, "ms");
  expect(set.unreported().size() == 1 && set.unreported()[0] == "p99_small",
         "unreportable tail listed");
  expect(set.to_json() ==
             "{\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, "
             "\"p99_small\": {\"value\": 0, \"unit\": \"ms\"}}",
         "json shape");
  for (const metric& m : set.items()) {
    expect(!m.unit.empty(), "every metric carries a unit");
  }
  return failures;
}

}  // namespace perfbench

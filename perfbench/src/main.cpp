// dlb_perfbench: runs one benchmark workload and prints its metrics.
//
//   dlb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   dlb_perfbench --self-test
//
// Human-readable report lines come first; the last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}. Normally
// driven through perfbench/run.py, which builds this binary first.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "metrics.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "dlb_perfbench: " << why
            << "\nusage: dlb_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n       dlb_perfbench "
               "--self-test\nworkloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_options opts;
  bool have_workload = false;
  bool self_test = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--self-test") {
        self_test = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
        if (!(opts.seconds > 0)) return usage("--seconds must be > 0");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }

  if (self_test) {
    int failures = perfbench::self_test_plumbing(std::cout);
    failures += perfbench::self_test_determinism(std::cout);
    std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
              << "\n";
    return failures == 0 ? 0 : 1;
  }
  if (!have_workload) return usage("--workload is required");

  try {
    const perfbench::run_result r = perfbench::run_workload(opts);
    for (const std::string& line : r.report) std::cout << line << "\n";
    if (!r.metrics.unreported().empty()) {
      std::cout << "unreported (fewer than " << perfbench::min_tail_samples
                << " samples beyond the percentile, printed as 0):";
      for (const std::string& n : r.metrics.unreported()) std::cout << " " << n;
      std::cout << "\n";
    }
    if (!r.metrics.not_on_path().empty()) {
      std::cout << "not on this workload's path (printed as 0):";
      for (const std::string& n : r.metrics.not_on_path()) std::cout << " " << n;
      std::cout << "\n";
    }
    for (const perfbench::metric& m : r.metrics.items()) {
      std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
    }
    std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed
              << ", \"metrics\": " << r.metrics.to_json() << "}" << std::endl;
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "dlb_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

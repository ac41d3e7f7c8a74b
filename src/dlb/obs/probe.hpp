// The observability attachment point: a probe bundles the (optional) trace
// recorder and the (optional) per-cell metrics a component should report to.
//
// Everything in dlb::obs is strictly opt-in and must never perturb results:
// instrumented code branches on the null pointers below and otherwise reads
// only clocks (and, on a counters-on recorder, hardware-counter fds) and
// bumps relaxed atomics — it never touches RNG streams,
// floating-point evaluation order, or any serialized row field. Rows are
// byte-identical with a probe attached or not, at any thread or shard-thread
// count (tests/obs_test.cpp enforces this).
#pragma once

#include <cstdint>

namespace dlb::obs {

class recorder;
class metrics;

/// Sentinel for spans not attributed to any experiment cell.
inline constexpr std::uint64_t no_cell = ~std::uint64_t{0};

/// Non-owning handles to the active recorder and metrics plus the cell id
/// the spans should be attributed to. Default-constructed = observability
/// off. Hardware-counter deltas ride on the recorder's spans
/// (recorder::counters::on).
struct probe {
  recorder* rec = nullptr;  ///< span sink, or nullptr (no tracing)
  metrics* met = nullptr;   ///< counter sink, or nullptr (no counting)
  std::uint64_t cell = no_cell;  ///< recorder cell id (recorder::register_cell)

  /// True when any sink is attached — the single branch disabled paths take.
  [[nodiscard]] bool active() const noexcept {
    return rec != nullptr || met != nullptr;
  }
};

}  // namespace dlb::obs

#include "dlb/core/tasks.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace dlb {

task_assignment task_assignment::tokens(const std::vector<weight_t>& counts) {
  DLB_EXPECTS(!counts.empty());
  task_assignment a(static_cast<node_id>(counts.size()));
  for (node_id i = 0; i < a.num_nodes(); ++i) {
    const weight_t c = counts[static_cast<size_t>(i)];
    DLB_EXPECTS(c >= 0);
    if (c > 0) a.pool(i).add_real(1, /*origin=*/i, c);
  }
  return a;
}

task_assignment task_assignment::from_weights(
    const std::vector<std::vector<weight_t>>& weights) {
  DLB_EXPECTS(!weights.empty());
  task_assignment a(static_cast<node_id>(weights.size()));
  for (node_id i = 0; i < a.num_nodes(); ++i) {
    for (const weight_t w : weights[static_cast<size_t>(i)]) {
      a.pool(i).add_real(w, /*origin=*/i);
    }
  }
  return a;
}

std::vector<weight_t> task_assignment::loads() const {
  std::vector<weight_t> x(pools_.size());
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    x[i] = pools_[i].total_weight();
  }
  return x;
}

std::vector<weight_t> task_assignment::real_loads() const {
  std::vector<weight_t> x(pools_.size());
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    x[i] = pools_[i].real_weight();
  }
  return x;
}

weight_t task_assignment::total_weight() const {
  weight_t w = 0;
  for (const task_pool& p : pools_) w += p.total_weight();
  return w;
}

void task_assignment::real_load_extrema(node_id begin, node_id end,
                                        const std::vector<weight_t>& speeds,
                                        real_t& lo, real_t& hi) const {
  DLB_EXPECTS(begin >= 0 && begin <= end && end <= num_nodes());
  DLB_EXPECTS(static_cast<node_id>(speeds.size()) == num_nodes());
  for (node_id i = begin; i < end; ++i) {
    const real_t per_speed =
        static_cast<real_t>(pools_[static_cast<size_t>(i)].real_weight()) /
        static_cast<real_t>(speeds[static_cast<size_t>(i)]);
    lo = std::min(lo, per_speed);
    hi = std::max(hi, per_speed);
  }
}

weight_t task_assignment::max_task_weight() const {
  weight_t wmax = 1;
  for (const task_pool& p : pools_) wmax = std::max(wmax, p.max_task_weight());
  return wmax;
}

namespace {

// total + w·count, or a one-line contract_violation when the pool total
// would leave weight_t (a 24-byte run can hold 2^62 tokens).
weight_t grown_total(weight_t total, weight_t w, weight_t count) {
  weight_t added = 0;
  weight_t sum = 0;
  if (__builtin_mul_overflow(w, count, &added) ||
      __builtin_add_overflow(total, added, &sum)) {
    throw contract_violation("task pool total " + std::to_string(total) +
                             " plus " + std::to_string(count) +
                             " tasks of weight " + std::to_string(w) +
                             " overflows weight_t");
  }
  return sum;
}

}  // namespace

void task_pool::add_real(weight_t w, node_id origin, weight_t count) {
  DLB_EXPECTS(w >= 1);
  DLB_EXPECTS(count >= 1);
  total_ = grown_total(total_, w, count);
  push_run(runs_, {w, count, origin});
}

void task_pool::add_dummies(weight_t count) {
  DLB_EXPECTS(count >= 0);
  total_ = grown_total(total_, 1, count);
  dummy_count_ += count;
}

std::size_t task_pool::real_task_count() const noexcept {
  weight_t tasks = 0;
  for (const task_run& r : runs_) tasks += r.count;
  return static_cast<std::size_t>(tasks);
}

void task_pool::receive(const task_transfer& in) {
  for (const task_run& r : in.runs) add_real(r.weight, r.origin, r.count);
  add_dummies(in.dummies);
}

weight_t task_pool::drain_real_units(weight_t count) {
  DLB_EXPECTS(count >= 0);
  weight_t drained = 0;
  while (drained < count && !runs_.empty() && runs_.back().weight == 1) {
    task_run& top = runs_.back();
    const weight_t k = std::min(count - drained, top.count);
    top.count -= k;
    drained += k;
    if (top.count == 0) runs_.pop_back();
  }
  total_ -= drained;
  return drained;
}

weight_t task_pool::max_task_weight() const noexcept {
  weight_t wmax = 0;
  for (const task_run& r : runs_) wmax = std::max(wmax, r.weight);
  return wmax;
}

std::vector<weight_t> task_pool::real_task_weights() const {
  std::vector<weight_t> weights;
  weights.reserve(real_task_count());
  for (const task_run& r : runs_) {
    weights.insert(weights.end(), static_cast<std::size_t>(r.count), r.weight);
  }
  return weights;
}

std::vector<node_id> task_pool::real_task_origins() const {
  std::vector<node_id> origins;
  origins.reserve(real_task_count());
  for (const task_run& r : runs_) {
    origins.insert(origins.end(), static_cast<std::size_t>(r.count), r.origin);
  }
  return origins;
}

void task_pool::save_state(snapshot::writer& w) const {
  w.vec_int(real_task_weights());
  w.vec_int(real_task_origins());
  w.i64(dummy_count_);
}

void task_pool::restore_state(snapshot::reader& r) {
  const std::vector<weight_t> weights = r.vec_int<weight_t>();
  const std::vector<node_id> origins = r.vec_int<node_id>();
  const weight_t dummies = r.i64();
  DLB_EXPECTS(weights.size() == origins.size());
  task_pool restored;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    restored.add_real(weights[k], origins[k]);
  }
  restored.add_dummies(dummies);
  *this = std::move(restored);
}

void task_assignment::save_state(snapshot::writer& w) const {
  w.section("tasks");
  w.u64(pools_.size());
  for (const task_pool& p : pools_) p.save_state(w);
}

void task_assignment::restore_state(snapshot::reader& r) {
  r.expect_section("tasks");
  r.expect_u64(pools_.size(), "task_assignment node count");
  for (task_pool& p : pools_) p.restore_state(r);
}

void add_dummy_preload(task_assignment& a, const std::vector<weight_t>& s,
                       weight_t ell) {
  DLB_EXPECTS(static_cast<node_id>(s.size()) == a.num_nodes());
  DLB_EXPECTS(ell >= 0);
  for (node_id i = 0; i < a.num_nodes(); ++i) {
    DLB_EXPECTS(s[static_cast<size_t>(i)] >= 1);
    a.pool(i).add_dummies(ell * s[static_cast<size_t>(i)]);
  }
}

}  // namespace dlb

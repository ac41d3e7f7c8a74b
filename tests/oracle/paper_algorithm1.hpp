// A paper-literal Algorithm 1 (flow imitation, paper §3) for witness tests.
//
// Every task is one entry of a per-node vector, the transfer loop adds one
// task per iteration ("while ŷ - |S| >= w_max: move an arbitrary task"), and
// each phase is one loop over all edges in edge-id order — no runs, no
// closed forms, no chunks, no shards. It is the plainest transcription of
// the algorithm there is, kept apart from the library so that the library's
// run-length pools and closed-form send can be compared with it round by
// round (tests/algorithm1_oracle_test.cpp).
#pragma once

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "dlb/core/process.hpp"
#include "dlb/core/tasks.hpp"

namespace dlb::oracle {

class paper_algorithm1 {
 public:
  /// One node's tasks: weights and origins in stack order (the back is
  /// removed first), plus the dummy token count.
  struct pool {
    std::vector<weight_t> weights;
    std::vector<node_id> origins;
    weight_t dummies = 0;

    [[nodiscard]] bool empty() const { return weights.empty() && dummies == 0; }
    [[nodiscard]] weight_t total() const {
      weight_t t = dummies;
      for (const weight_t w : weights) t += w;
      return t;
    }
  };

  /// `process` is fresh; `wmax` is the transfer loop's w_max.
  paper_algorithm1(std::unique_ptr<continuous_process> process,
                   const task_assignment& initial, removal_policy removal,
                   weight_t wmax)
      : process_(std::move(process)), removal_(removal), wmax_(wmax) {
    const graph& g = process_->topology();
    std::vector<real_t> x0;
    for (node_id i = 0; i < g.num_nodes(); ++i) {
      const task_pool& p = initial.pool(i);
      pools_.push_back({p.real_task_weights(), p.real_task_origins(),
                        p.dummy_count()});
      x0.push_back(static_cast<real_t>(pools_.back().total()));
    }
    process_->reset(std::move(x0));
    flow_.assign(static_cast<size_t>(g.num_edges()), 0);
    last_sent_.assign(static_cast<size_t>(g.num_edges()), 0);
  }

  void step() {
    process_->step();
    const graph& g = process_->topology();
    struct transfer {
      node_id to = invalid_node;
      std::vector<weight_t> weights;
      std::vector<node_id> origins;
      weight_t dummies = 0;
    };
    std::vector<transfer> sets(static_cast<size_t>(g.num_edges()));
    for (edge_id e = 0; e < g.num_edges(); ++e) {
      last_sent_[static_cast<size_t>(e)] = 0;
      real_t deficit = process_->cumulative_flow(e) -
                       static_cast<real_t>(flow_[static_cast<size_t>(e)]);
      const real_t snapped = std::round(deficit);
      if (std::abs(deficit - snapped) < flow_epsilon) deficit = snapped;
      if (deficit == 0) continue;
      const auto [u, v] = g.endpoints(e);
      const node_id from = deficit > 0 ? u : v;
      const real_t amount = std::abs(deficit);
      transfer& s = sets[static_cast<size_t>(e)];
      s.to = deficit > 0 ? v : u;
      pool& p = pools_[static_cast<size_t>(from)];
      weight_t total = 0;
      while (amount - static_cast<real_t>(total) >=
             static_cast<real_t>(wmax_) - flow_epsilon) {
        const bool take_dummy = removal_ == removal_policy::dummy_first
                                    ? p.dummies > 0
                                    : p.weights.empty();
        if (p.empty()) {
          ++s.dummies;
          ++dummy_created_;
          ++total;
        } else if (take_dummy) {
          --p.dummies;
          ++s.dummies;
          ++total;
        } else {
          s.weights.push_back(p.weights.back());
          s.origins.push_back(p.origins.back());
          total += p.weights.back();
          p.weights.pop_back();
          p.origins.pop_back();
        }
      }
      flow_[static_cast<size_t>(e)] += from == u ? total : -total;
      last_sent_[static_cast<size_t>(e)] = from == u ? total : -total;
    }
    for (const transfer& s : sets) {
      if (s.to == invalid_node) continue;
      pool& p = pools_[static_cast<size_t>(s.to)];
      p.weights.insert(p.weights.end(), s.weights.begin(), s.weights.end());
      p.origins.insert(p.origins.end(), s.origins.begin(), s.origins.end());
      p.dummies += s.dummies;
    }
  }

  void inject_tokens(node_id i, weight_t count) {
    for (weight_t k = 0; k < count; ++k) {
      pools_[static_cast<size_t>(i)].weights.push_back(1);
      pools_[static_cast<size_t>(i)].origins.push_back(i);
      process_->inject_load(i, 1.0);
    }
  }

  weight_t drain_tokens(node_id i, weight_t count) {
    pool& p = pools_[static_cast<size_t>(i)];
    weight_t drained = 0;
    while (drained < count && !p.weights.empty() && p.weights.back() == 1) {
      p.weights.pop_back();
      p.origins.pop_back();
      ++drained;
    }
    process_->inject_load(i, -static_cast<real_t>(drained));
    return drained;
  }

  [[nodiscard]] std::vector<weight_t> loads() const {
    std::vector<weight_t> x;
    for (const pool& p : pools_) x.push_back(p.total());
    return x;
  }
  [[nodiscard]] const pool& pool_of(node_id i) const {
    return pools_[static_cast<size_t>(i)];
  }
  [[nodiscard]] weight_t discrete_flow(edge_id e) const {
    return flow_[static_cast<size_t>(e)];
  }
  [[nodiscard]] weight_t last_sent(edge_id e) const {
    return last_sent_[static_cast<size_t>(e)];
  }
  [[nodiscard]] weight_t dummy_created() const { return dummy_created_; }

 private:
  std::unique_ptr<continuous_process> process_;
  removal_policy removal_;
  weight_t wmax_;
  std::vector<pool> pools_;
  std::vector<weight_t> flow_;       // f^D, oriented u→v
  std::vector<weight_t> last_sent_;  // oriented u→v
  weight_t dummy_created_ = 0;
};

}  // namespace dlb::oracle

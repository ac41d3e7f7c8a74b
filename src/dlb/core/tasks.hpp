// The discrete task model (paper §3): every node holds a multiset of tasks
// with positive integer weights; identical unit-weight tasks are "tokens".
// Dummy tokens (unit weight, drawn from a node's infinite source when its
// real load cannot cover the prescribed flow) are tracked separately so that
// they can be eliminated at the end of the balancing process, as the paper's
// reporting convention requires.
#pragma once

#include <vector>

#include "dlb/common/contracts.hpp"
#include "dlb/common/types.hpp"
#include "dlb/snapshot/snapshot.hpp"

namespace dlb {

/// Which task an algorithm removes when the paper says "arbitrary task".
enum class removal_policy {
  real_first,   ///< prefer real tasks, dummies only when no real task remains
  dummy_first,  ///< prefer circulating dummies back out first
};

/// `count` identical real tasks: the same weight and the same origin.
struct task_run {
  weight_t weight = 1;
  weight_t count = 0;
  node_id origin = invalid_node;

  friend bool operator==(const task_run&, const task_run&) = default;
};

/// Tasks in flight over one edge (Algorithm 1's transfer set S_ij): the real
/// runs in the order they left the sender's pool, then `dummies` unit dummy
/// tokens. `total` is their summed weight.
struct task_transfer {
  std::vector<task_run> runs;
  weight_t dummies = 0;
  weight_t total = 0;

  void clear() {
    runs.clear();
    dummies = 0;
    total = 0;
  }
};

/// The multiset of tasks residing on one node, stored as runs of identical
/// tasks in LIFO order (the top of the stack is the back run); adjacent runs
/// with equal weight and origin merge. Dummy tokens carry no origin and are
/// a separate count. A pool of 2^40 tokens from one origin is one run.
class task_pool {
 public:
  task_pool() = default;

  /// Pushes `count` >= 1 real tasks of weight `w` >= 1 on top. `origin`
  /// records where they entered the system (for locality analyses;
  /// invalid_node if untracked). The pool total must stay within weight_t.
  void add_real(weight_t w, node_id origin = invalid_node, weight_t count = 1);

  /// Adds `count` dummy unit-weight tokens.
  void add_dummies(weight_t count);

  /// Total weight including dummy tokens — the discrete load x^D_i.
  [[nodiscard]] weight_t total_weight() const noexcept { return total_; }

  /// Total weight of real tasks only (dummies eliminated).
  [[nodiscard]] weight_t real_weight() const noexcept {
    return total_ - dummy_count_;
  }

  [[nodiscard]] weight_t dummy_count() const noexcept { return dummy_count_; }

  /// Number of real tasks (O(runs)).
  [[nodiscard]] std::size_t real_task_count() const noexcept;

  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }

  /// The real runs, bottom of the stack first.
  [[nodiscard]] const std::vector<task_run>& runs() const noexcept {
    return runs_;
  }

  /// Moves tasks onto the back of `out` in the order the paper's "remove an
  /// arbitrary task" loop would pop them one by one: real tasks top-down
  /// then dummies under real_first, dummies first under dummy_first. Each
  /// run (and the dummy count, as a run of weight 1) is offered whole:
  /// `take(w, c)` returns how many of its next c tasks of weight w to move,
  /// 0 <= k <= c, and sees out.total already advanced past earlier runs.
  /// The first run it cuts short ends the transfer, as the loop would.
  template <typename Take>
  void move_into(task_transfer& out, removal_policy policy, Take&& take) {
    if (policy == removal_policy::dummy_first &&
        !move_dummies_into(out, take)) {
      return;
    }
    while (!runs_.empty()) {
      const task_run top = runs_.back();
      const weight_t k = take(top.weight, top.count);
      DLB_ASSERT(k >= 0 && k <= top.count);
      if (k == 0) return;
      push_run(out.runs, {top.weight, k, top.origin});
      out.total += k * top.weight;
      total_ -= k * top.weight;
      if (k < top.count) {
        runs_.back().count -= k;
        return;
      }
      runs_.pop_back();
    }
    if (policy == removal_policy::real_first) move_dummies_into(out, take);
  }

  /// Pushes a transfer set's real runs in order, then its dummies.
  void receive(const task_transfer& in);

  /// Removes up to `count` unit-weight real tasks (service completions;
  /// dummies never leave through service). Takes from the top — the same
  /// LIFO end move_into uses — and stops early at a task of weight > 1
  /// (weighted tasks do not complete in unit quanta) or when the pool runs
  /// out of real tasks. Returns the number of units removed.
  weight_t drain_real_units(weight_t count);

  /// Largest real task weight, 0 for a pool without real tasks.
  [[nodiscard]] weight_t max_task_weight() const noexcept;

  /// The real tasks' weights, one entry per task, bottom of the stack first
  /// (an expanded copy, for tests and examples).
  [[nodiscard]] std::vector<weight_t> real_task_weights() const;

  /// Origins parallel to real_task_weights() (invalid_node if untracked).
  [[nodiscard]] std::vector<node_id> real_task_origins() const;

  /// Checkpointing: the pool's exact contents in stack order — removal is
  /// LIFO, so the order is state, not an implementation detail. The wire
  /// format lists one weight and one origin per task (runs expanded), then
  /// the dummy count; restore merges the tasks back into runs.
  void save_state(snapshot::writer& w) const;
  void restore_state(snapshot::reader& r);

 private:
  // Appends `r` to a run stack, merging it into an equal top run.
  static void push_run(std::vector<task_run>& runs, const task_run& r) {
    if (!runs.empty() && runs.back().weight == r.weight &&
        runs.back().origin == r.origin) {
      runs.back().count += r.count;
    } else {
      runs.push_back(r);
    }
  }

  template <typename Take>
  bool move_dummies_into(task_transfer& out, Take& take) {
    if (dummy_count_ == 0) return true;
    const weight_t k = take(1, dummy_count_);
    DLB_ASSERT(k >= 0 && k <= dummy_count_);
    out.dummies += k;
    out.total += k;
    dummy_count_ -= k;
    total_ -= k;
    return dummy_count_ == 0;
  }

  std::vector<task_run> runs_;  // bottom → top; removal is LIFO
  weight_t dummy_count_ = 0;
  weight_t total_ = 0;
};

/// Tasks for all nodes of a network.
class task_assignment {
 public:
  explicit task_assignment(node_id n) : pools_(static_cast<size_t>(n)) {
    DLB_EXPECTS(n > 0);
  }

  /// Builds an assignment of identical unit tasks: `counts[i]` tokens on i.
  [[nodiscard]] static task_assignment tokens(
      const std::vector<weight_t>& counts);

  /// Builds an assignment from explicit per-node task weight lists.
  [[nodiscard]] static task_assignment from_weights(
      const std::vector<std::vector<weight_t>>& weights);

  [[nodiscard]] node_id num_nodes() const {
    return static_cast<node_id>(pools_.size());
  }

  [[nodiscard]] task_pool& pool(node_id i) {
    DLB_EXPECTS(i >= 0 && i < num_nodes());
    return pools_[static_cast<size_t>(i)];
  }
  [[nodiscard]] const task_pool& pool(node_id i) const {
    DLB_EXPECTS(i >= 0 && i < num_nodes());
    return pools_[static_cast<size_t>(i)];
  }

  /// Discrete load vector x^D (total weights, dummies included).
  [[nodiscard]] std::vector<weight_t> loads() const;

  /// Load vector with dummy tokens eliminated.
  [[nodiscard]] std::vector<weight_t> real_loads() const;

  /// Total weight over all nodes (dummies included).
  [[nodiscard]] weight_t total_weight() const;

  /// Maximum real task weight w_max; returns 1 for an all-token (or empty)
  /// assignment so that bounds like 2·d·w_max stay meaningful.
  [[nodiscard]] weight_t max_task_weight() const;

  /// Folds min/max real-load-per-speed over nodes [begin, end) into lo/hi
  /// (callers seed the sentinels). Lets sharded metric reductions scan the
  /// pools directly instead of materializing an O(n) load vector per round.
  void real_load_extrema(node_id begin, node_id end,
                         const std::vector<weight_t>& speeds, real_t& lo,
                         real_t& hi) const;

  /// Checkpointing: every pool, in node order. restore_state requires the
  /// assignment to span the same node count it was saved with.
  void save_state(snapshot::writer& w) const;
  void restore_state(snapshot::reader& r);

 private:
  std::vector<task_pool> pools_;
};

/// Adds ℓ·s_i dummy unit tokens to every node — the preload used by the
/// proofs of Theorem 3(1) and Theorem 8(1) to control max-avg discrepancy
/// (the extra load is perfectly balanced, so it does not change T^A, and it
/// is eliminated from final reports).
void add_dummy_preload(task_assignment& a, const std::vector<weight_t>& s,
                       weight_t ell);

}  // namespace dlb

// Algorithm 1 of the paper: deterministic flow imitation.
//
// D(A) tracks the cumulative flow f^A_{i,j}(t) of the continuous process A
// (re-simulated internally, exactly as the paper's footnote 1 prescribes) and
// each round tries to make up the flow deficit
//     ŷ_{i,j}(t) = f^A_{i,j}(t) - f^D_{i,j}(t-1)
// by moving whole tasks: it greedily adds tasks to the transfer set S_ij
// while the remaining deficit is at least w_max, drawing unit-weight dummy
// tokens from the node's infinite source when its pool runs dry.
//
// Guarantees (Theorem 3): at the balancing time T^A of A,
//  (1) max-avg discrepancy <= 2·d·w_max + 2, always;
//  (2) max-min discrepancy <= 2·d·w_max + 2 and no dummy is ever created, if
//      the initial load majorizes d·w_max·(s_1,...,s_n) (Lemma 7).
//
// Loop-condition note (documented in DESIGN.md §3): we add tasks while
// `deficit - |S| >= w_max`, i.e. floor semantics, matching the paper's prose
// ("send ⌊f^A - f^D(t-1)⌋") and Observation 4's strict bound |e| < w_max.
// Pools and transfer sets hold runs of identical tasks (core/tasks.hpp), so
// the send phase evaluates that loop per run in closed form, with a fix-up
// that keeps its float edges; tests/oracle/ holds the one-task-at-a-time
// loop it is checked against.
#pragma once

#include <memory>
#include <vector>

#include "dlb/core/flow_ledger.hpp"
#include "dlb/core/process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/core/tasks.hpp"
#include "dlb/snapshot/snapshot.hpp"

namespace dlb {

struct algorithm1_config {
  /// Which task to pick when the paper says "arbitrary task".
  removal_policy removal = removal_policy::real_first;
  /// Override for w_max; 0 derives it from the initial assignment.
  weight_t wmax_override = 0;
};

/// Each round decomposes into a deficit phase (per edge), a send phase (each
/// node allocates tasks to its positive-deficit edges in ascending edge-id
/// order — only the sender's own pool shrinks, so nodes are independent), and
/// a receive phase (each node drains its inbound transfer sets, again in
/// ascending edge-id order) — the shared `sharded_stepper` protocol.
/// `enable_sharded_stepping` runs the phases over a shard plan with results
/// bit-identical to the sequential round (each pool's run order is
/// preserved exactly; see core/sharding.hpp).
class algorithm1 final : public discrete_process,
                         public sharded_stepper,
                         public snapshot::checkpointable {
 public:
  /// `process` is a *fresh* continuous process (it will be reset to the
  /// total-weight load vector of `initial` and stepped internally).
  algorithm1(std::unique_ptr<continuous_process> process,
             task_assignment initial, algorithm1_config config = {});

  void step() override;

  [[nodiscard]] const std::vector<weight_t>& loads() const override {
    return loads_;
  }
  [[nodiscard]] std::vector<weight_t> real_loads() const override {
    return tasks_.real_loads();
  }
  [[nodiscard]] const graph& topology() const override {
    return process_->topology();
  }
  [[nodiscard]] const speed_vector& speeds() const override {
    return process_->speeds();
  }
  [[nodiscard]] round_t rounds_executed() const override { return t_; }
  [[nodiscard]] weight_t dummy_created() const override {
    return dummy_created_;
  }
  [[nodiscard]] std::string name() const override {
    return "alg1-flow-imitation(" + process_->name() + ")";
  }

  /// Dynamic arrivals: `count` unit tasks land on node i as one run,
  /// mirrored into the internal continuous process one unit at a time
  /// (additivity keeps the imitation valid).
  void inject_tokens(node_id i, weight_t count) override;

  /// Weighted arrival variant: one task of weight `w`.
  void inject_task(node_id i, weight_t w);

  /// Departures: up to `count` real unit tasks on node i complete and leave,
  /// mirrored into the continuous process as negative load (additivity works
  /// in both directions, so the imitation stays valid).
  weight_t drain_tokens(node_id i, weight_t count) override;

  /// The internally simulated continuous process A (read-only).
  [[nodiscard]] const continuous_process& continuous() const {
    return *process_;
  }

  /// w_max used by the transfer loop.
  [[nodiscard]] weight_t wmax() const { return wmax_; }

  /// Discrete cumulative flow f^D_{u,v}(t-1), oriented u→v.
  [[nodiscard]] weight_t discrete_flow(edge_id e) const {
    return ledger_.forward(e);
  }

  /// Flow deviation e_{u,v}(t-1) = f^A - f^D, oriented u→v. Observation 4:
  /// |e| < w_max at all times.
  [[nodiscard]] real_t flow_error(edge_id e) const {
    return process_->cumulative_flow(e) -
           static_cast<real_t>(ledger_.forward(e));
  }

  /// Weight sent over edge e in the last round, oriented u→v (signed); used
  /// by tests of Observation 5.
  [[nodiscard]] weight_t last_sent(edge_id e) const {
    DLB_EXPECTS(e >= 0 && e < topology().num_edges());
    return last_sent_[static_cast<size_t>(e)];
  }

  /// Task pools (read-only view).
  [[nodiscard]] const task_assignment& tasks() const { return tasks_; }

  // shardable:
  void real_load_extrema(node_id begin, node_id end, real_t& lo,
                         real_t& hi) const override;

  // checkpointable: task pools (in LIFO storage order), ledger, loads,
  // dummy counter, round counter, and the embedded continuous process.
  void save_state(snapshot::writer& w) const override;
  void restore_state(snapshot::reader& r) override;

 protected:
  [[nodiscard]] const graph& shard_topology() const override {
    return process_->topology();
  }
  // Also enables sharding on the internal continuous process when it
  // supports it (flow imitation stays exact either way).
  void on_sharding_enabled(
      const std::shared_ptr<const shard_context>& ctx) override;
  // Forwards the observability probe to the internal continuous process the
  // same way.
  void on_probe_attached(const obs::probe& pb) override;

 private:
  // One round's phases; ranges are one chunk of edges/nodes. The send
  // phase moves whole runs into the outbox and returns the chunk's
  // dummy-token mint count; the receive phase appends the runs in order.
  void deficit_phase(const edge_slice& es);
  [[nodiscard]] weight_t send_phase(node_id i0, node_id i1);
  void receive_phase(node_id i0, node_id i1);

  std::unique_ptr<continuous_process> process_;
  task_assignment tasks_;
  algorithm1_config config_;
  weight_t wmax_ = 1;
  discrete_flow_ledger ledger_;
  std::vector<weight_t> loads_;
  std::vector<weight_t> last_sent_;
  weight_t dummy_created_ = 0;
  round_t t_ = 0;
  std::vector<real_t> deficit_;           // per-edge ŷ, oriented u→v (reused)
  // Per-edge transfer sets S_ij, as runs. An edge's set is cleared and
  // filled only in a round it sends in (last_sent_ != 0), and read only then.
  std::vector<task_transfer> outbox_;
};

}  // namespace dlb

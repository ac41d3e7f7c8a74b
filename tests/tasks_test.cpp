// Task model tests: pools, removal policies, assignments, dummy preload.
#include "dlb/core/tasks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

namespace dlb {
namespace {

TEST(TaskPoolTest, AddAndTotals) {
  task_pool p;
  EXPECT_TRUE(p.empty());
  p.add_real(3);
  p.add_real(1);
  p.add_dummies(2);
  EXPECT_EQ(p.total_weight(), 6);
  EXPECT_EQ(p.real_weight(), 4);
  EXPECT_EQ(p.dummy_count(), 2);
  EXPECT_EQ(p.real_task_count(), 2u);
  EXPECT_FALSE(p.empty());
}

TEST(TaskPoolTest, RejectsBadWeights) {
  task_pool p;
  EXPECT_THROW(p.add_real(0), contract_violation);
  EXPECT_THROW(p.add_real(-2), contract_violation);
  EXPECT_THROW(p.add_real(1, invalid_node, 0), contract_violation);
  EXPECT_THROW(p.add_real(1, invalid_node, -3), contract_violation);
  EXPECT_THROW(p.add_dummies(-1), contract_violation);
  EXPECT_TRUE(p.empty());
}

constexpr weight_t weight_max = std::numeric_limits<weight_t>::max();

TEST(TaskPoolTest, RefusesTotalsBeyondWeightT) {
  // A run costs 24 bytes whatever its count, so a pool can reach the top of
  // weight_t; every way in must refuse to wrap, and leave the pool as it was.
  task_pool p;
  p.add_real(1, 0, weight_max - 1);
  EXPECT_THROW(p.add_real(2, 0), contract_violation);
  EXPECT_THROW(p.add_dummies(2), contract_violation);
  EXPECT_EQ(p.total_weight(), weight_max - 1);
  p.add_dummies(1);  // exactly fills weight_t
  EXPECT_EQ(p.total_weight(), weight_max);
  EXPECT_THROW(p.add_real(1, 0), contract_violation);

  task_pool q;
  EXPECT_THROW(q.add_real(4, 0, weight_max / 2), contract_violation);
  EXPECT_TRUE(q.empty());
}

TEST(TaskPoolTest, AdjacentEqualRunsMerge) {
  task_pool p;
  p.add_real(1, 0, 3);
  p.add_real(1, 0, 2);  // same weight and origin: merges
  p.add_real(1, 1);     // new origin: new run
  p.add_real(2, 1);     // new weight: new run
  p.add_real(1, 0);     // equal to the bottom run, but not adjacent
  EXPECT_EQ(p.runs(), (std::vector<task_run>{
                          {1, 5, 0}, {1, 1, 1}, {2, 1, 1}, {1, 1, 0}}));
  EXPECT_EQ(p.real_task_count(), 8u);
  EXPECT_EQ(p.real_task_weights(),
            (std::vector<weight_t>{1, 1, 1, 1, 1, 1, 2, 1}));
  EXPECT_EQ(p.real_task_origins(),
            (std::vector<node_id>{0, 0, 0, 0, 0, 1, 1, 0}));
  EXPECT_EQ(p.max_task_weight(), 2);
}

// Moves the first `n` tasks `move_into` offers, as the paper's loop popping
// n tasks one at a time would.
weight_t move_n(task_pool& p, removal_policy policy, weight_t n,
                task_transfer& out) {
  weight_t moved = 0;
  p.move_into(out, policy, [&](weight_t, weight_t cap) {
    const weight_t k = std::min(cap, n - moved);
    moved += k;
    return k;
  });
  return moved;
}

TEST(TaskPoolTest, RealFirstRemoval) {
  task_pool p;
  p.add_real(5);
  p.add_dummies(1);
  task_transfer out;
  EXPECT_EQ(move_n(p, removal_policy::real_first, 1, out), 1);
  EXPECT_EQ(out.runs, (std::vector<task_run>{{5, 1, invalid_node}}));
  EXPECT_EQ(out.dummies, 0);
  EXPECT_EQ(out.total, 5);
  EXPECT_EQ(move_n(p, removal_policy::real_first, 1, out), 1);
  EXPECT_EQ(out.dummies, 1);
  EXPECT_EQ(out.total, 6);
  EXPECT_TRUE(p.empty());
}

TEST(TaskPoolTest, DummyFirstRemoval) {
  task_pool p;
  p.add_real(5);
  p.add_dummies(1);
  task_transfer out;
  EXPECT_EQ(move_n(p, removal_policy::dummy_first, 1, out), 1);
  EXPECT_EQ(out.dummies, 1);
  EXPECT_TRUE(out.runs.empty());
  EXPECT_EQ(move_n(p, removal_policy::dummy_first, 1, out), 1);
  EXPECT_EQ(out.runs, (std::vector<task_run>{{5, 1, invalid_node}}));
  EXPECT_TRUE(p.empty());
}

TEST(TaskPoolTest, MovesRunsTopDownAndSplitsTheLastOne) {
  task_pool p;
  p.add_real(1, 0, 4);
  p.add_real(3, 1, 2);
  p.add_real(1, 2, 3);
  task_transfer out;
  EXPECT_EQ(move_n(p, removal_policy::real_first, 6, out), 6);
  // Pop order: the three tasks of origin 2, both heavy ones, one of origin 0.
  EXPECT_EQ(out.runs,
            (std::vector<task_run>{{1, 3, 2}, {3, 2, 1}, {1, 1, 0}}));
  EXPECT_EQ(out.total, 10);
  EXPECT_EQ(p.runs(), (std::vector<task_run>{{1, 3, 0}}));
  EXPECT_EQ(p.total_weight(), 3);

  // The receiver pushes them in pop order: the last popped ends on top.
  task_pool dest;
  dest.add_real(1, 0, 2);
  dest.receive(out);
  EXPECT_EQ(dest.real_task_origins(),
            (std::vector<node_id>{0, 0, 2, 2, 2, 1, 1, 0}));
  EXPECT_EQ(dest.total_weight(), 12);
}

TEST(TaskPoolTest, MoveFromEmptyMovesNothing) {
  task_pool p;
  task_transfer out;
  EXPECT_EQ(move_n(p, removal_policy::real_first, 3, out), 0);
  EXPECT_EQ(out.total, 0);
  EXPECT_TRUE(p.empty());
}

TEST(TaskPoolTest, DrainTakesUnitTasksFromTheTopOnly) {
  task_pool p;
  p.add_real(1, 0, 2);
  p.add_real(2, 0);
  p.add_real(1, 1, 3);
  p.add_dummies(4);
  EXPECT_EQ(p.drain_real_units(2), 2);
  EXPECT_EQ(p.runs().back(), (task_run{1, 1, 1}));
  // Stops at the weight-2 task, leaving the unit tasks under it.
  EXPECT_EQ(p.drain_real_units(10), 1);
  EXPECT_EQ(p.real_task_weights(), (std::vector<weight_t>{1, 1, 2}));
  EXPECT_EQ(p.total_weight(), 8);
  EXPECT_EQ(p.dummy_count(), 4);
}

TEST(TaskPoolTest, FragmentedPoolSnapshotRoundTripsByteForByte) {
  // Interleaved origins and weights, with equal runs apart: restore merges
  // the expanded wire format back into the same runs, and saving again
  // gives the same bytes.
  task_pool p;
  p.add_real(1, 0, 3);
  p.add_real(2, 1);
  p.add_real(1, 1, 2);
  p.add_real(1, 0);
  p.add_real(5, invalid_node, 2);
  p.add_real(1, 0, 4);
  p.add_dummies(3);
  snapshot::writer w1;
  p.save_state(w1);

  task_pool q;
  q.add_real(7, 3);  // restore replaces, it does not append
  snapshot::reader r(w1.payload());
  q.restore_state(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(q.runs(), p.runs());
  EXPECT_EQ(q.total_weight(), p.total_weight());
  EXPECT_EQ(q.dummy_count(), 3);
  snapshot::writer w2;
  q.save_state(w2);
  EXPECT_EQ(w2.payload(), w1.payload());
}

TEST(TaskPoolTest, RestoreRefusesBadTasksAndOverflow) {
  const auto restore = [](const std::vector<weight_t>& weights,
                          weight_t dummies) {
    snapshot::writer w;
    w.vec_int(weights);
    w.vec_int(std::vector<node_id>(weights.size(), 0));
    w.i64(dummies);
    task_pool p;
    snapshot::reader r(w.payload());
    p.restore_state(r);
    return p;
  };
  EXPECT_EQ(restore({2, 1}, 1).total_weight(), 4);
  EXPECT_THROW(restore({1, 0}, 0), contract_violation);
  EXPECT_THROW(restore({-1}, 0), contract_violation);
  EXPECT_THROW(restore({1}, -1), contract_violation);
  EXPECT_THROW(restore({weight_max, 1}, 0), contract_violation);
  EXPECT_THROW(restore({weight_max}, 1), contract_violation);

  snapshot::writer w;  // origins shorter than weights
  w.vec_int(std::vector<weight_t>{1, 1});
  w.vec_int(std::vector<node_id>{0});
  w.i64(0);
  task_pool p;
  snapshot::reader r(w.payload());
  EXPECT_THROW(p.restore_state(r), contract_violation);
}

TEST(TaskAssignmentTest, TokensBuilder) {
  const task_assignment a = task_assignment::tokens({3, 0, 2});
  EXPECT_EQ(a.num_nodes(), 3);
  EXPECT_EQ(a.pool(0).runs(), (std::vector<task_run>{{1, 3, 0}}));
  EXPECT_TRUE(a.pool(1).runs().empty());
  EXPECT_EQ(a.loads(), (std::vector<weight_t>{3, 0, 2}));
  EXPECT_EQ(a.total_weight(), 5);
  EXPECT_EQ(a.max_task_weight(), 1);
}

TEST(TaskAssignmentTest, FromWeightsBuilder) {
  const task_assignment a =
      task_assignment::from_weights({{2, 3}, {}, {7, 1, 1}});
  EXPECT_EQ(a.loads(), (std::vector<weight_t>{5, 0, 9}));
  EXPECT_EQ(a.max_task_weight(), 7);
  EXPECT_EQ(a.pool(2).real_task_count(), 3u);
}

TEST(TaskAssignmentTest, RealLoadsExcludeDummies) {
  task_assignment a = task_assignment::tokens({4, 4});
  a.pool(0).add_dummies(3);
  EXPECT_EQ(a.loads(), (std::vector<weight_t>{7, 4}));
  EXPECT_EQ(a.real_loads(), (std::vector<weight_t>{4, 4}));
}

TEST(TaskAssignmentTest, DummyPreload) {
  task_assignment a = task_assignment::tokens({1, 1, 1});
  add_dummy_preload(a, {1, 2, 3}, 4);
  EXPECT_EQ(a.loads(), (std::vector<weight_t>{5, 9, 13}));
  EXPECT_EQ(a.real_loads(), (std::vector<weight_t>{1, 1, 1}));
}

TEST(TaskAssignmentTest, BuilderRejections) {
  EXPECT_THROW(task_assignment::tokens({}), contract_violation);
  EXPECT_THROW(task_assignment::tokens({-1}), contract_violation);
  EXPECT_THROW(task_assignment::from_weights({{0}}), contract_violation);
}

TEST(TaskAssignmentTest, MaxTaskWeightDefaultsToOne) {
  const task_assignment a = task_assignment::from_weights({{}, {}});
  EXPECT_EQ(a.max_task_weight(), 1);
}

}  // namespace
}  // namespace dlb

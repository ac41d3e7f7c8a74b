// Workload generators: totals, decompositions, speed profiles, scenarios.
#include "dlb/workload/initial_load.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "dlb/graph/generators.hpp"
#include "dlb/workload/competitors.hpp"
#include "dlb/workload/scenario.hpp"

namespace dlb {
namespace {

using namespace dlb::workload;

weight_t sum(const std::vector<weight_t>& x) {
  return std::accumulate(x.begin(), x.end(), weight_t{0});
}

TEST(WorkloadTest, PointMass) {
  const auto x = point_mass(5, 2, 100);
  EXPECT_EQ(sum(x), 100);
  EXPECT_EQ(x[2], 100);
  EXPECT_EQ(x[0], 0);
  EXPECT_THROW(point_mass(5, 5, 1), contract_violation);
}

TEST(WorkloadTest, UniformRandomTotalsAndDeterminism) {
  const auto x = uniform_random(10, 1000, 3);
  EXPECT_EQ(sum(x), 1000);
  EXPECT_EQ(x, uniform_random(10, 1000, 3));
  EXPECT_NE(x, uniform_random(10, 1000, 4));
}

TEST(WorkloadTest, BalancedPlusSpike) {
  const auto x = balanced_plus_spike(4, 10, 1, 7);
  EXPECT_EQ(x, (std::vector<weight_t>{10, 17, 10, 10}));
}

TEST(WorkloadTest, Bimodal) {
  const auto x = bimodal(100, 1, 9, 0.5, 7);
  for (const weight_t xi : x) EXPECT_TRUE(xi == 1 || xi == 9);
  int highs = 0;
  for (const weight_t xi : x) highs += (xi == 9);
  EXPECT_GT(highs, 20);
  EXPECT_LT(highs, 80);
}

TEST(WorkloadTest, ZipfIsSkewed) {
  const auto x = zipf(20, 10000, 1.2, 5);
  EXPECT_EQ(sum(x), 10000);
  EXPECT_GT(x[0], x[10]);
  EXPECT_GT(x[0], x[19]);
}

TEST(WorkloadTest, AddSpeedMultiple) {
  const auto x = add_speed_multiple({1, 2, 3}, {1, 2, 3}, 10);
  EXPECT_EQ(x, (std::vector<weight_t>{11, 22, 33}));
}

TEST(WorkloadTest, AddSpeedMultipleRefusesAnOverflowingTopUp) {
  constexpr weight_t top = std::numeric_limits<weight_t>::max();
  EXPECT_EQ(add_speed_multiple({top - 6, 0}, {2, 1}, 3),
            (std::vector<weight_t>{top, 3}));
  EXPECT_THROW((void)add_speed_multiple({top - 5, 0}, {2, 1}, 3),
               contract_violation);
  EXPECT_THROW((void)add_speed_multiple({0, 0}, {1, 2}, top / 2 + 1),
               contract_violation);
}

TEST(WorkloadTest, SpikeWorkloadRefusesAnOverflowingSpike) {
  // A 7-node cycle: spike_per_node * 7 on node 0, then 2 (the degree) on
  // every node. 7 divides 2^63 - 1, so the spike can fill weight_t exactly.
  const graph g = generators::cycle(7);
  const speed_vector s = uniform_speeds(7);
  const auto x = spike_workload(g, s, 50);
  EXPECT_EQ(x[0], 50 * 7 + 2);
  EXPECT_EQ(x[1], 2);

  constexpr weight_t top = std::numeric_limits<weight_t>::max();
  static_assert(top % 7 == 0);
  // The spike itself fits, the top-up on node 0 does not.
  EXPECT_THROW((void)spike_workload(g, s, top / 7), contract_violation);
  // The spike does not fit: 2^62 per node used to wrap silently.
  EXPECT_THROW((void)spike_workload(g, s, weight_t{1} << 62),
               contract_violation);
  // The largest spike that leaves room for the top-up is accepted.
  EXPECT_EQ(spike_workload(g, s, top / 7 - 1)[0], top - 7 + 2);
}

TEST(WorkloadTest, DecomposeUniformWeightsMatchesLoadsExactly) {
  const std::vector<weight_t> loads = {17, 0, 42, 5};
  const task_assignment a = decompose_uniform_weights(loads, 5, 9);
  EXPECT_EQ(a.loads(), loads);
  EXPECT_LE(a.max_task_weight(), 5);
  for (node_id i = 0; i < a.num_nodes(); ++i) {
    for (const weight_t w : a.pool(i).real_task_weights()) {
      EXPECT_GE(w, 1);
      EXPECT_LE(w, 5);
    }
  }
}

TEST(WorkloadTest, DecomposeHeavyLightMatchesLoads) {
  const std::vector<weight_t> loads = {100, 33};
  const task_assignment a = decompose_heavy_light(loads, 10, 0.5, 1);
  EXPECT_EQ(a.loads(), loads);
  // Node 0 gets ⌊50/10⌋ = 5 heavy tasks and 50 unit tasks.
  int heavy = 0;
  for (const weight_t w : a.pool(0).real_task_weights()) heavy += (w == 10);
  EXPECT_EQ(heavy, 5);
}

TEST(WorkloadTest, RandomSpeedsInRange) {
  const speed_vector s = random_speeds(50, 7, 3);
  for (const weight_t si : s) {
    EXPECT_GE(si, 1);
    EXPECT_LE(si, 7);
  }
  EXPECT_EQ(random_speeds(50, 7, 3), s);
}

TEST(ScenarioTest, TableGraphClassesProduceAllFamilies) {
  const auto cases = table_graph_classes(64, 1);
  ASSERT_EQ(cases.size(), 4u);
  EXPECT_EQ(cases[0].family, "arbitrary");
  EXPECT_EQ(cases[1].family, "expander");
  EXPECT_EQ(cases[2].family, "hypercube");
  EXPECT_EQ(cases[3].family, "torus");
  for (const auto& c : cases) {
    ASSERT_NE(c.g, nullptr);
    EXPECT_TRUE(c.g->is_connected());
    EXPECT_GE(c.g->num_nodes(), 32);
    EXPECT_LE(c.g->num_nodes(), 128);
  }
  // Hypercube is exactly a power of two near the target.
  EXPECT_EQ(cases[2].g->num_nodes(), 64);
}

TEST(ScenarioTest, MakeGraphCaseByName) {
  const auto c = make_graph_case("torus", 100, 2);
  EXPECT_EQ(c.family, "torus");
  EXPECT_EQ(c.g->num_nodes(), 100);
  EXPECT_THROW(make_graph_case("moebius", 64, 2), contract_violation);
}

}  // namespace
}  // namespace dlb

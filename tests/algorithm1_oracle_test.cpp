// Witness test: the library's Algorithm 1 (run-length pools, closed-form
// send, sharded phases) against the paper-literal transcription in
// tests/oracle/, compared after every round: loads, the flow ledger,
// last_sent, dummy counts, and every pool's contents in LIFO order.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dlb/common/rng.hpp"
#include "dlb/core/algorithm1.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/workload/initial_load.hpp"
#include "oracle/paper_algorithm1.hpp"

namespace dlb {
namespace {

// A continuous process whose cumulative flows are scripted rather than
// computed: every round each edge's f^A moves by a random integer step and
// lands on that integer plus an offset taken from the float edges of the
// transfer loop and of the deficit snap (± flow_epsilon, half and twice it,
// far-below-epsilon dust, plain fractions). The deficit f^A - f^D then sits
// at k ± flow_epsilon for every integer k, multiples of w_max included.
// Loads are not modelled: Algorithm 1 reads only the cumulative flows.
class scripted_flows final : public continuous_process {
 public:
  scripted_flows(std::shared_ptr<const graph> g, weight_t step,
                 std::uint64_t seed)
      : g_(std::move(g)),
        speeds_(uniform_speeds(g_->num_nodes())),
        step_(step),
        seed_(seed) {}

  void reset(std::vector<real_t> x0) override {
    x_ = std::move(x0);
    rng_ = make_rng(seed_, 0);
    base_.assign(static_cast<size_t>(g_->num_edges()), 0);
    flow_.assign(base_.size(), 0.0);
    last_.assign(base_.size(), directed_flow{});
    t_ = 0;
  }

  void step() override {
    static constexpr std::array<real_t, 12> offsets = {
        0.0,          flow_epsilon,      -flow_epsilon,
        flow_epsilon / 2, -flow_epsilon / 2, 2 * flow_epsilon,
        -2 * flow_epsilon, 1e-13,       -1e-13,
        0.5,          -0.25,             0.999999999};
    for (std::size_t e = 0; e < base_.size(); ++e) {
      base_[e] += uniform_int<weight_t>(rng_, -step_, step_);
      flow_[e] = static_cast<real_t>(base_[e]) +
                 offsets[uniform_int<std::size_t>(rng_, 0, offsets.size() - 1)];
    }
    ++t_;
  }

  [[nodiscard]] const graph& topology() const override { return *g_; }
  [[nodiscard]] const speed_vector& speeds() const override {
    return speeds_;
  }
  [[nodiscard]] const std::vector<real_t>& loads() const override {
    return x_;
  }
  [[nodiscard]] round_t rounds_executed() const override { return t_; }
  [[nodiscard]] real_t cumulative_flow(edge_id e) const override {
    return flow_[static_cast<size_t>(e)];
  }
  [[nodiscard]] const std::vector<directed_flow>& last_flows()
      const override {
    return last_;
  }
  [[nodiscard]] bool negative_load_detected() const override { return false; }
  [[nodiscard]] std::unique_ptr<continuous_process> clone_fresh()
      const override {
    return std::make_unique<scripted_flows>(g_, step_, seed_);
  }
  void inject_load(node_id i, real_t amount) override {
    x_[static_cast<size_t>(i)] += amount;
  }
  [[nodiscard]] std::string name() const override { return "scripted"; }

 private:
  std::shared_ptr<const graph> g_;
  speed_vector speeds_;
  weight_t step_;
  std::uint64_t seed_;
  rng_t rng_;
  std::vector<weight_t> base_;
  std::vector<real_t> flow_;
  std::vector<directed_flow> last_;
  std::vector<real_t> x_;
  round_t t_ = 0;
};

enum class process_kind { diffusion, periodic, random_matching, scripted };

struct oracle_case {
  process_kind kind;
  weight_t wmax;
  removal_policy removal;
};

std::string case_name(const testing::TestParamInfo<oracle_case>& info) {
  static const char* kinds[] = {"Diffusion", "Periodic", "RandomMatching",
                                "Scripted"};
  return std::string(kinds[static_cast<int>(info.param.kind)]) + "Wmax" +
         std::to_string(info.param.wmax) +
         (info.param.removal == removal_policy::real_first ? "RealFirst"
                                                           : "DummyFirst");
}

std::shared_ptr<const graph> small_graph(int which, std::uint64_t seed) {
  switch (which % 5) {
    case 0:
      return std::make_shared<const graph>(generators::cycle(7));
    case 1:
      return std::make_shared<const graph>(
          generators::random_regular(10, 3, seed));
    case 2:
      return std::make_shared<const graph>(
          generators::erdos_renyi_connected(9, 0.4, seed));
    case 3:
      return std::make_shared<const graph>(generators::star(6));
    default:
      return std::make_shared<const graph>(generators::torus_2d(3));
  }
}

std::unique_ptr<continuous_process> make_process(
    process_kind kind, const std::shared_ptr<const graph>& g, weight_t wmax,
    std::uint64_t seed) {
  const speed_vector s = uniform_speeds(g->num_nodes());
  switch (kind) {
    case process_kind::diffusion:
      return make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree));
    case process_kind::periodic:
      return make_periodic_matching_process(
          g, s, to_matchings(*g, misra_gries_edge_coloring(*g)));
    case process_kind::random_matching:
      return make_random_matching_process(g, s, seed);
    case process_kind::scripted:
      return std::make_unique<scripted_flows>(g, 3 * wmax, seed);
  }
  return nullptr;
}

std::shared_ptr<const shard_context> serial_context(const graph& g,
                                                    std::size_t shards) {
  return std::make_shared<const shard_context>(shard_context{
      shard_plan(g, shards),
      [](std::size_t count, const std::function<void(std::size_t)>& body) {
        for (std::size_t i = 0; i < count; ++i) body(i);
      }});
}

class Algorithm1OracleTest : public testing::TestWithParam<oracle_case> {};

// Everything the two implementations expose, compared; the first
// difference fails the case with its round.
void expect_same_state(const algorithm1& lib,
                       const oracle::paper_algorithm1& ref,
                       const std::string& where) {
  const graph& g = lib.topology();
  ASSERT_EQ(lib.loads(), ref.loads()) << where;
  ASSERT_EQ(lib.dummy_created(), ref.dummy_created()) << where;
  for (edge_id e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(lib.discrete_flow(e), ref.discrete_flow(e))
        << where << " edge " << e;
    ASSERT_EQ(lib.last_sent(e), ref.last_sent(e)) << where << " edge " << e;
  }
  for (node_id i = 0; i < g.num_nodes(); ++i) {
    const task_pool& p = lib.tasks().pool(i);
    const oracle::paper_algorithm1::pool& q = ref.pool_of(i);
    ASSERT_EQ(p.real_task_weights(), q.weights) << where << " node " << i;
    ASSERT_EQ(p.real_task_origins(), q.origins) << where << " node " << i;
    ASSERT_EQ(p.dummy_count(), q.dummies) << where << " node " << i;
  }
}

TEST_P(Algorithm1OracleTest, MatchesPaperLiteralLoopEveryRound) {
  const oracle_case c = GetParam();
  const algorithm1_config config{.removal = c.removal,
                                 .wmax_override = c.wmax};
  weight_t minted = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto g = small_graph(static_cast<int>(seed), seed);
    const node_id n = g->num_nodes();
    rng_t rng = make_rng(seed, 0xACE);
    // Light loads so that pools run dry and dummies are minted, and on odd
    // seeds a point mass; a few nodes start with dummies to circulate.
    const auto loads =
        seed % 2 == 0
            ? workload::uniform_random(n, 2 * c.wmax * n, seed)
            : workload::point_mass(n, 0, 6 * c.wmax * n);
    task_assignment tasks =
        workload::decompose_uniform_weights(loads, c.wmax, seed);
    tasks.pool(n - 1).add_dummies(2 * c.wmax);
    tasks.pool(1).add_dummies(1);

    algorithm1 lib(make_process(c.kind, g, c.wmax, seed), tasks, config);
    oracle::paper_algorithm1 ref(make_process(c.kind, g, c.wmax, seed), tasks,
                                 c.removal, c.wmax);
    if (seed % 3 == 0) lib.enable_sharded_stepping(serial_context(*g, 3));

    for (int t = 0; t < 40; ++t) {
      const std::string where = "seed " + std::to_string(seed) + " round " +
                                std::to_string(t);
      // Mid-run arrivals and departures on random nodes.
      if (t % 4 == 1) {
        const auto i = uniform_int<node_id>(rng, 0, n - 1);
        const auto count = uniform_int<weight_t>(rng, 0, 3 * c.wmax);
        lib.inject_tokens(i, count);
        ref.inject_tokens(i, count);
      }
      if (t % 5 == 2) {
        const auto i = uniform_int<node_id>(rng, 0, n - 1);
        const auto count = uniform_int<weight_t>(rng, 0, 2 * c.wmax);
        ASSERT_EQ(lib.drain_tokens(i, count), ref.drain_tokens(i, count))
            << where;
      }
      lib.step();
      ref.step();
      expect_same_state(lib, ref, where);
      if (HasFatalFailure()) return;
    }
    minted += lib.dummy_created();
  }
  // The cases must reach the dummy-minting branch to witness it.
  if (c.kind == process_kind::scripted) {
    EXPECT_GT(minted, 0);
  }
}

std::vector<oracle_case> all_cases() {
  std::vector<oracle_case> cases;
  for (const process_kind k :
       {process_kind::diffusion, process_kind::periodic,
        process_kind::random_matching, process_kind::scripted}) {
    for (const weight_t wmax : {1, 3, 5}) {
      for (const removal_policy r :
           {removal_policy::real_first, removal_policy::dummy_first}) {
        cases.push_back({k, wmax, r});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllProcesses, Algorithm1OracleTest,
                         testing::ValuesIn(all_cases()), case_name);

// A single edge whose deficit is placed exactly at k·w_max and k·w_max ±
// flow_epsilon (and nudges around them), for a pool that holds enough and
// one that runs dry: the closed form and its fix-up must land where the
// one-task-at-a-time loop lands, task for task.
TEST(Algorithm1OracleEdgeTest, DeficitsAtMultiplesOfWmaxPlusMinusEpsilon) {
  const auto g = std::make_shared<const graph>(generators::path(2));
  for (const weight_t wmax : {1, 3, 5}) {
    for (const weight_t tokens : {weight_t{0}, weight_t{4}, weight_t{40}}) {
      for (std::uint64_t seed = 0; seed < 20; ++seed) {
        task_assignment tasks(2);
        if (tokens > 0) tasks.pool(0).add_real(1, 0, tokens);
        tasks.pool(0).add_real(wmax, 0, 3);
        const algorithm1_config config{.removal = removal_policy::real_first,
                                       .wmax_override = wmax};
        algorithm1 lib(std::make_unique<scripted_flows>(g, 4 * wmax, seed),
                       tasks, config);
        oracle::paper_algorithm1 ref(
            std::make_unique<scripted_flows>(g, 4 * wmax, seed), tasks,
            removal_policy::real_first, wmax);
        for (int t = 0; t < 30; ++t) {
          lib.step();
          ref.step();
          expect_same_state(lib, ref,
                            "wmax " + std::to_string(wmax) + " tokens " +
                                std::to_string(tokens) + " seed " +
                                std::to_string(seed) + " round " +
                                std::to_string(t));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dlb

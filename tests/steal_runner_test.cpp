// The work-stealing phase runner: chunked dynamic execution must be a pure
// execution strategy. Every competitor steps bit-identically under the steal
// runner on a *real* thread pool at shard-threads {1, 2, 8} (with mid-run
// arrivals) and through the synthesized (pool-less) claim loop, the sharded
// α-schedule fill of the matching models reproduces the sequential alphas()
// bits, the cache-locality edge layout is a key-sorted permutation (identity
// on test-sized graphs), and — the point of stealing — a seeded-skew phase
// does not park the shard threads at the barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "dlb/baselines/excess_tokens.hpp"
#include "dlb/baselines/local_rounding.hpp"
#include "dlb/baselines/random_walk_balancer.hpp"
#include "dlb/common/contracts.hpp"
#include "dlb/core/algorithm1.hpp"
#include "dlb/core/algorithm2.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/graph/matching.hpp"
#include "dlb/obs/metrics.hpp"
#include "dlb/obs/probe.hpp"
#include "dlb/obs/recorder.hpp"
#include "dlb/runtime/thread_pool.hpp"
#include "dlb/workload/competitors.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

std::shared_ptr<const graph> make_g(graph g) {
  return std::make_shared<const graph>(std::move(g));
}

/// A context backed by a real thread pool (kept alive by the runner
/// closures) — the production wiring of runtime/experiment_grid.cpp in
/// miniature.
std::shared_ptr<const shard_context> pool_context(const graph& g,
                                                  std::size_t shards) {
  auto pool =
      std::make_shared<runtime::thread_pool>(static_cast<unsigned>(shards));
  return std::make_shared<const shard_context>(shard_context{
      shard_plan(g, shards),
      [pool](std::size_t count,
             const std::function<void(std::size_t)>& body) {
        pool->parallel_for_each(count, body);
      },
      shard_exec::work_stealing,
      [pool](std::size_t groups, std::size_t chunks,
             const std::function<void(std::size_t,
                                      const std::function<std::size_t()>&)>&
                 body) { pool->steal_loop(groups, chunks, body); }});
}

/// A serial single-thread context: exercises the synthesized claim loop (no
/// pool-side primitive attached).
std::shared_ptr<const shard_context> serial_steal_context(const graph& g,
                                                          std::size_t shards) {
  return std::make_shared<const shard_context>(shard_context{
      shard_plan(g, shards),
      [](std::size_t count, const std::function<void(std::size_t)>& body) {
        for (std::size_t i = 0; i < count; ++i) body(i);
      },
      shard_exec::work_stealing});
}

// ------------------------------------------------------- the six competitors

struct competitor_case {
  std::string name;
  std::function<std::unique_ptr<discrete_process>(
      std::shared_ptr<const graph>, const speed_vector&,
      const std::vector<weight_t>&, std::uint64_t)>
      build;
};

std::vector<competitor_case> all_competitors() {
  std::vector<competitor_case> cases;
  cases.push_back({"algorithm1",
                   [](std::shared_ptr<const graph> g, const speed_vector& s,
                      const std::vector<weight_t>& tokens, std::uint64_t) {
                     return std::make_unique<algorithm1>(
                         make_fos(g, s,
                                  make_alphas(*g,
                                              alpha_scheme::half_max_degree)),
                         task_assignment::tokens(tokens));
                   }});
  cases.push_back(
      {"algorithm2",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<algorithm2>(
             make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree)),
             tokens, seed);
       }});
  cases.push_back(
      {"local_rounding",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<local_rounding_process>(
             g, s,
             std::make_unique<diffusion_alpha_schedule>(
                 make_alphas(*g, alpha_scheme::half_max_degree)),
             rounding_policy::randomized_fraction, tokens, seed);
       }});
  // Exercises the sharded random-matching α fill inside a full competitor.
  cases.push_back(
      {"local_rounding_random_matchings",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<local_rounding_process>(
             g, s, std::make_unique<random_matching_schedule>(*g, s, seed),
             rounding_policy::randomized_fraction, tokens, seed);
       }});
  cases.push_back(
      {"excess_tokens",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<excess_token_process>(
             g, s, make_alphas(*g, alpha_scheme::half_max_degree), tokens,
             seed);
       }});
  cases.push_back(
      {"random_walk_balancer",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<random_walk_balancer>(
             g, s, make_alphas(*g, alpha_scheme::half_max_degree), tokens,
             seed,
             random_walk_config{
                 .phase1_rounds = 5, .slack = 1, .laziness = 0.5});
       }});
  return cases;
}

class StealRunnerCompetitorsTest
    : public ::testing::TestWithParam<competitor_case> {};

// Byte-identity under the steal runner on a real pool at shard-threads
// {1, 2, 8}, with mid-run arrivals — the sequential run is the reference.
TEST_P(StealRunnerCompetitorsTest, BitIdenticalOnRealPoolAt128) {
  const auto g = make_g(generators::ring_of_cliques(6, 5));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, /*spike_per_node=*/20);
  constexpr std::uint64_t seed = 42;

  const auto reference = GetParam().build(g, s, tokens, seed);
  std::vector<std::vector<weight_t>> checkpoints;
  for (int t = 0; t < 40; ++t) {
    if (t == 10) reference->inject_tokens(3, 17);
    reference->step();
    if (t % 10 == 9) checkpoints.push_back(reference->loads());
  }

  for (const std::size_t shards : {1u, 2u, 8u}) {
    const auto stolen = GetParam().build(g, s, tokens, seed);
    ASSERT_TRUE(try_enable_sharding(*stolen, pool_context(*g, shards)))
        << GetParam().name << " is not shardable";
    std::size_t checkpoint = 0;
    for (int t = 0; t < 40; ++t) {
      if (t == 10) stolen->inject_tokens(3, 17);
      stolen->step();
      if (t % 10 == 9) {
        ASSERT_EQ(stolen->loads(), checkpoints[checkpoint++])
            << GetParam().name << " shards=" << shards << " round " << t;
      }
    }
    EXPECT_EQ(stolen->loads(), reference->loads());
    EXPECT_EQ(stolen->real_loads(), reference->real_loads());
    EXPECT_EQ(stolen->dummy_created(), reference->dummy_created());
  }
}

// The pool's steal primitive and the synthesized (pool-less) claim loop must
// both match the sequential run round for round.
TEST_P(StealRunnerCompetitorsTest, StealAndSynthesizedRowsMatchSequential) {
  const auto g = make_g(generators::torus_2d(6));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, /*spike_per_node=*/8);
  constexpr std::uint64_t seed = 7;

  const auto sequential = GetParam().build(g, s, tokens, seed);
  const auto stolen = GetParam().build(g, s, tokens, seed);
  const auto synthesized = GetParam().build(g, s, tokens, seed);
  ASSERT_TRUE(try_enable_sharding(*stolen, pool_context(*g, 4)));
  ASSERT_TRUE(try_enable_sharding(*synthesized, serial_steal_context(*g, 4)));
  for (int t = 0; t < 30; ++t) {
    sequential->step();
    stolen->step();
    synthesized->step();
    ASSERT_EQ(stolen->loads(), sequential->loads())
        << GetParam().name << " diverged at round " << t;
    ASSERT_EQ(synthesized->loads(), sequential->loads())
        << GetParam().name << " (synthesized) diverged at round " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCompetitors, StealRunnerCompetitorsTest,
    ::testing::ValuesIn(all_competitors()),
    [](const ::testing::TestParamInfo<competitor_case>& tpi) {
      return tpi.param.name;
    });

// ----------------------------------------------- sharded α-schedule fills

// Continuous processes over periodic and random matching schedules must step
// bit-identically sequentially (the fill as one whole-range slice) and
// steal-sharded on a 4-thread pool (the fill as chunked slices): identical
// loads and cumulative flows every round. Both sides run begin_round + the
// ranged fill; FillMatchesAlphasReference below checks that fill against
// the plain alphas() path.
TEST(ShardedAlphaScheduleTest, MatchingModelsBitEqualSequential) {
  const auto g = make_g(generators::hypercube(5));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, 25);
  const std::vector<real_t> x0(tokens.begin(), tokens.end());

  const auto run_pair = [&](const std::function<
                                std::unique_ptr<linear_process>()>& build,
                            const std::string& label) {
    auto sequential = build();
    auto stolen = build();
    stolen->enable_sharded_stepping(pool_context(*g, 4));
    sequential->reset(x0);
    stolen->reset(x0);
    for (int t = 0; t < 50; ++t) {
      sequential->step();
      stolen->step();
      ASSERT_EQ(stolen->loads(), sequential->loads())
          << label << " loads diverged at round " << t;
      for (edge_id e = 0; e < g->num_edges(); ++e) {
        ASSERT_EQ(stolen->cumulative_flow(e), sequential->cumulative_flow(e))
            << label << " flow diverged at round " << t << " edge " << e;
      }
    }
  };

  run_pair([&] { return make_random_matching_process(g, s, /*seed=*/9); },
           "random-matchings");
  run_pair(
      [&] {
        return make_periodic_matching_process(
            g, s, to_matchings(*g, misra_gries_edge_coloring(*g)));
      },
      "periodic-matchings");
  run_pair(
      [&] {
        return make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree));
      },
      "diffusion");
}

/// Drives a schedule's ranged fill through edge_phase exactly as the
/// steppers do: begin_round(t), then fill_alphas over the phase's slices.
class fill_harness final : public sharded_stepper {
 public:
  explicit fill_harness(std::shared_ptr<const graph> g) : g_(std::move(g)) {}

  [[nodiscard]] std::vector<real_t> fill(const alpha_schedule& schedule,
                                         round_t t) const {
    // NaN sentinel: a slot no slice writes fails the bit compare.
    std::vector<real_t> out(static_cast<std::size_t>(g_->num_edges()),
                            std::numeric_limits<real_t>::quiet_NaN());
    schedule.begin_round(t);
    edge_phase([&](const edge_slice& es) {
      schedule.fill_alphas(t, out.data(), es);
    });
    return out;
  }

  void real_load_extrema(node_id, node_id, real_t&, real_t&) const override {}

 protected:
  [[nodiscard]] const graph& shard_topology() const override { return *g_; }

 private:
  std::shared_ptr<const graph> g_;
};

bool same_bits(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
}

// The ranged fill (begin_round + fill_alphas) must equal the alphas()
// reference bit for bit, for both matching schedules, as one whole-range
// slice and as chunked slices on a 4-thread steal pool: rounds 0..40 in
// order, then rewinds to 5 and 0 (restore revisits rounds), and a clone()
// taken mid-run continuing on its own copy of the round cache. The torus
// spans 4 chunks and a non-identity edge layout.
TEST(ShardedAlphaScheduleTest, FillMatchesAlphasReference) {
  const auto g = make_g(generators::torus_2d(160));
  speed_vector s(static_cast<std::size_t>(g->num_nodes()));
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = 1 + static_cast<weight_t>(i % 3);  // distinct α per edge kind
  }
  const auto colours = to_matchings(*g, misra_gries_edge_coloring(*g));
  ASSERT_GE(colours.size(), 3u);
  // A periodic list where the edges of trimmed sit in two matchings, the
  // trimmed-off edge in one, and every colour class from 2 on in none.
  matching trimmed = colours[0];
  trimmed.pop_back();
  const std::vector<matching> uneven = {colours[0], colours[1], trimmed};

  const auto check = [&](const alpha_schedule& schedule,
                         const std::string& label) {
    for (const bool sharded : {false, true}) {
      fill_harness harness(g);
      if (sharded) harness.enable_sharded_stepping(pool_context(*g, 4));
      const std::string where = label + (sharded ? " s4" : " s1");
      const std::unique_ptr<alpha_schedule> own = schedule.clone();
      std::unique_ptr<alpha_schedule> mid_run;
      std::vector<real_t> want;
      const auto expect_round = [&](const alpha_schedule& sched, round_t t,
                                    const std::string& who) {
        sched.alphas(t, want);
        ASSERT_TRUE(same_bits(harness.fill(sched, t), want))
            << who << " round " << t;
      };
      for (round_t t = 0; t <= 40; ++t) {
        expect_round(*own, t, where);
        if (t == 20) mid_run = own->clone();
      }
      for (const round_t t : {5, 6, 0, 40}) expect_round(*own, t, where);
      for (const round_t t : {20, 21, 33, 3, 0}) {
        expect_round(*mid_run, t, where + " clone");
      }
    }
  };

  check(random_matching_schedule(*g, s, /*seed=*/9), "random");
  check(periodic_matching_schedule(*g, s, colours), "periodic");
  check(periodic_matching_schedule(*g, s, uneven), "periodic-uneven");
}

// A fill for round t without begin_round(t) reads another round's cache:
// both schedules refuse it.
TEST(ShardedAlphaScheduleTest, FillWithoutBeginRoundIsRejected) {
  const auto g = make_g(generators::hypercube(4));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const random_matching_schedule random(*g, s, /*seed=*/3);
  const periodic_matching_schedule periodic(
      *g, s, to_matchings(*g, misra_gries_edge_coloring(*g)));
  std::vector<real_t> out(static_cast<std::size_t>(g->num_edges()));
  const edge_slice all(0, g->num_edges(), nullptr);
  for (const alpha_schedule* schedule :
       {static_cast<const alpha_schedule*>(&random),
        static_cast<const alpha_schedule*>(&periodic)}) {
    EXPECT_THROW(schedule->fill_alphas(0, out.data(), all),
                 contract_violation)
        << schedule->name();
    schedule->begin_round(2);
    EXPECT_THROW(schedule->fill_alphas(3, out.data(), all),
                 contract_violation)
        << schedule->name();
    EXPECT_NO_THROW(schedule->fill_alphas(2, out.data(), all))
        << schedule->name();
  }
}

// ------------------------------------------------------- edge layout pass

TEST(EdgeLayoutTest, TestSizedGraphsKeepTheIdentityLayout) {
  for (const graph& g :
       {generators::ring_of_cliques(6, 5), generators::hypercube(6),
        generators::star(33)}) {
    const shard_plan plan(g, 4);
    EXPECT_EQ(plan.edge_order(), nullptr)
        << "graphs under one layout block must detect the identity";
  }
}

TEST(EdgeLayoutTest, LargeGraphLayoutIsABlockSortedPermutation) {
  // cycle(20000) spans 5 layout blocks; the wrap edge (0, n-1) has block key
  // (0, 4) and sits at position 1 in id order — not block-sorted, so a
  // non-identity permutation must be installed.
  const auto g = generators::cycle(20000);
  const shard_plan plan(g, 4);
  const edge_id* order = plan.edge_order();
  ASSERT_NE(order, nullptr);

  const auto m = static_cast<std::size_t>(g.num_edges());
  std::vector<bool> seen(m, false);
  std::uint64_t prev_key = 0;
  for (std::size_t p = 0; p < m; ++p) {
    const edge_id e = order[p];
    ASSERT_LT(static_cast<std::size_t>(e), m);
    ASSERT_FALSE(seen[static_cast<std::size_t>(e)])
        << "edge visited twice: " << e;
    seen[static_cast<std::size_t>(e)] = true;
    const edge& ed = g.endpoints(e);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(ed.u / 4096) << 32) |
        static_cast<std::uint64_t>(ed.v / 4096);
    ASSERT_GE(key, prev_key) << "layout keys must be non-decreasing";
    prev_key = key;
  }
}

// ------------------------------------------------------- seeded-skew proof

/// A stepper whose node phase is deliberately skewed: nodes in the first
/// quarter of the range burn a spin loop, the rest are free. A static
/// one-slice-per-shard cut would land that entire cost on shard 0 of 4 and
/// park the other three at the barrier; under stealing they drain the heavy
/// chunks instead.
class skewed_stepper final : public sharded_stepper {
 public:
  explicit skewed_stepper(std::shared_ptr<const graph> g) : g_(std::move(g)) {}

  void run_round() {
    node_phase([&](node_id i0, node_id i1) {
      const node_id heavy_end = g_->num_nodes() / 4;
      unsigned sink = 0;
      for (node_id i = i0; i < i1; ++i) {
        if (i < heavy_end) {
          // A serially dependent non-affine mix: the compiler can neither
          // constant-fold the chain nor replace it with a closed form, so
          // every heavy node really burns ~200 multiply-xor steps.
          auto h = static_cast<unsigned>(i) + 1u;
          for (unsigned k = 0; k < 200; ++k) {
            h ^= h >> 13;
            h *= 0x5bd1e995u;
            h ^= h << 7;
          }
          sink += h;
        }
      }
      sink_ += sink;  // defeat dead-code elimination
    });
  }

  void real_load_extrema(node_id, node_id, real_t&, real_t&) const override {}

 protected:
  [[nodiscard]] const graph& shard_topology() const override { return *g_; }

 private:
  std::shared_ptr<const graph> g_;
  std::atomic<unsigned> sink_{0};
};

/// Barrier-wait share of ten skewed rounds at 4 shards: barrier_wait_ns ÷
/// (barrier_wait_ns + Σ node_phase span durations).
double barrier_wait_share_of(const std::shared_ptr<const graph>& g) {
  obs::recorder rec;
  obs::metrics met;
  const std::uint64_t cell =
      rec.register_cell("skew", "cycle", "skewed_stepper", 0);
  skewed_stepper st(g);
  st.enable_sharded_stepping(pool_context(*g, 4));
  st.set_probe(obs::probe{&rec, &met, cell});
  for (int t = 0; t < 10; ++t) st.run_round();
  const auto wait =
      static_cast<double>(met.take().counter("barrier_wait_ns"));
  double work = 0;
  for (const obs::span_record& span : rec.events()) {
    if (std::string_view(span.name) == "node_phase") {
      work += static_cast<double>(span.dur_ns);
    }
  }
  return wait / (wait + work);
}

TEST(SeededSkewTest, SkewedWorkDoesNotParkShardThreads) {
  // 400k nodes → 25 chunks; the heavy quarter (100k nodes) spans chunks
  // 0-6, so the four groups share the heavy chunks nearly evenly and the
  // residual barrier wait is one chunk's granularity — a share around
  // 0.15. A static one-slice-per-shard cut would park three of four shards
  // for the heavy shard's whole duration: a share of 3/4.
  const auto g = make_g(generators::cycle(400'000));
  const double share = barrier_wait_share_of(g);
  EXPECT_LT(share, 0.5) << "barrier-wait share " << share;
}

}  // namespace
}  // namespace dlb

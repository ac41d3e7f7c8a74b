// The two-phase random-walk balancer of [19]: phase transitions, the
// load = α + positive - negative invariant, annihilation, convergence.
#include "dlb/baselines/random_walk_balancer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "dlb/common/rng.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/metrics.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/snapshot/snapshot.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

std::shared_ptr<const graph> make_g(graph g) {
  return std::make_shared<const graph>(std::move(g));
}

random_walk_balancer make_rw(std::shared_ptr<const graph> g,
                             std::vector<weight_t> tokens,
                             random_walk_config cfg,
                             std::uint64_t seed = 1) {
  const speed_vector s = uniform_speeds(g->num_nodes());
  auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  return random_walk_balancer(g, s, std::move(alpha), std::move(tokens),
                              seed, cfg);
}

TEST(RandomWalkTest, PhaseTransition) {
  auto g = make_g(generators::hypercube(4));
  auto p = make_rw(g, workload::point_mass(16, 0, 1600),
                   {.phase1_rounds = 50, .slack = 1, .laziness = 0.5});
  for (int t = 0; t < 50; ++t) {
    EXPECT_FALSE(p.in_fine_phase());
    p.step();
  }
  EXPECT_TRUE(p.in_fine_phase());
  EXPECT_EQ(p.positive_tokens() + p.negative_tokens(), 0);  // not marked yet
  p.step();  // first fine round marks and walks
  EXPECT_TRUE(p.in_fine_phase());
}

TEST(RandomWalkTest, ConservesLoad) {
  auto g = make_g(generators::torus_2d(4));
  auto p = make_rw(g, workload::point_mass(16, 0, 800),
                   {.phase1_rounds = 30, .slack = 1, .laziness = 0.5});
  for (int t = 0; t < 200; ++t) {
    p.step();
    weight_t total = 0;
    for (const weight_t x : p.loads()) total += x;
    ASSERT_EQ(total, 800) << "round " << t;
  }
}

TEST(RandomWalkTest, WalkerLoadInvariant) {
  // After marking: loads_i = α + positive_i - negative_i at every node.
  auto g = make_g(generators::random_regular(24, 3, 7));
  auto p = make_rw(g, workload::uniform_random(24, 24 * 40, 5),
                   {.phase1_rounds = 20, .slack = 2, .laziness = 0.5});
  for (int t = 0; t < 20; ++t) p.step();
  // Enter fine phase; check the invariant for many rounds. Reconstruct α
  // from totals (= ⌈m/n⌉ + slack).
  const weight_t alpha_threshold = (24 * 40 + 23) / 24 + 2;
  for (int t = 0; t < 150; ++t) {
    p.step();
    // Totals invariant: Σ loads = Σ (α + pos - neg) → pos - neg = m - n·α.
    ASSERT_EQ(p.positive_tokens() - p.negative_tokens(),
              24 * 40 - 24 * alpha_threshold);
  }
}

TEST(RandomWalkTest, WalkersAnnihilateOverTime) {
  auto g = make_g(generators::random_regular(32, 4, 11));
  auto p = make_rw(g, workload::point_mass(32, 0, 3200),
                   {.phase1_rounds = 100, .slack = 1, .laziness = 0.5});
  for (int t = 0; t < 101; ++t) p.step();
  const weight_t walkers_start = p.positive_tokens() + p.negative_tokens();
  for (int t = 0; t < 2000; ++t) p.step();
  const weight_t walkers_end = p.positive_tokens() + p.negative_tokens();
  EXPECT_LT(walkers_end, walkers_start);
}

TEST(RandomWalkTest, ReachesLowDiscrepancyOnExpander) {
  auto g = make_g(generators::random_regular(32, 4, 13));
  auto p = make_rw(g, workload::point_mass(32, 0, 3200),
                   {.phase1_rounds = 150, .slack = 1, .laziness = 0.5},
                   /*seed=*/3);
  for (int t = 0; t < 4000; ++t) p.step();
  // [19]: constant final discrepancy; be generous but meaningful.
  EXPECT_LE(max_min_discrepancy(p.loads(), p.speeds()), 8.0);
}

TEST(RandomWalkTest, DeterministicGivenSeed) {
  auto g = make_g(generators::cycle(12));
  auto a = make_rw(g, workload::point_mass(12, 0, 240),
                   {.phase1_rounds = 10, .slack = 1, .laziness = 0.5}, 9);
  auto b = make_rw(g, workload::point_mass(12, 0, 240),
                   {.phase1_rounds = 10, .slack = 1, .laziness = 0.5}, 9);
  for (int t = 0; t < 120; ++t) {
    a.step();
    b.step();
  }
  EXPECT_EQ(a.loads(), b.loads());
}

TEST(RandomWalkTest, RequiresUniformSpeeds) {
  auto g = make_g(generators::path(3));
  speed_vector s = {1, 2, 1};
  auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  EXPECT_THROW(random_walk_balancer(g, s, alpha, {1, 1, 1}, 0, {}),
               contract_violation);
}

TEST(RandomWalkTest, InjectDuringFinePhaseKeepsInvariant) {
  auto g = make_g(generators::torus_2d(4));
  auto p = make_rw(g, workload::balanced_plus_spike(16, 20, 0, 160),
                   {.phase1_rounds = 5, .slack = 1, .laziness = 0.5});
  for (int t = 0; t < 30; ++t) p.step();  // well into fine phase
  const weight_t before = p.positive_tokens();
  p.inject_tokens(3, 7);
  EXPECT_EQ(p.positive_tokens(), before + 7);
  weight_t total = 0;
  for (const weight_t x : p.loads()) total += x;
  EXPECT_EQ(total, 16 * 20 + 160 + 7);
}

// ---- one walker round against per-walker steps -------------------------
//
// The law of a round: each walker stays with probability laziness, else
// moves to a uniform neighbour. The balancer draws it as one multinomial
// split per node; these tests compare that split with walkers stepped one
// at a time, in distribution, per (edge, direction, sign) slot and per stay
// count, over many seeds.

struct walker_source {
  node_id node;
  weight_t positive;  // exactly one of positive/negative is non-zero
  weight_t negative;
};

// Counts of one round's moves out of every source: index 0 is the stay
// count, index 1 + j the walkers sent over the source's j-th incidence.
using source_moves = std::vector<std::vector<weight_t>>;

// Test-only per-walker round: every walker draws its own step (a
// Bernoulli stay, else a uniform neighbour pick).
source_moves per_walker_round(const graph& g,
                              const std::vector<walker_source>& sources,
                              double laziness, std::uint64_t round_seed) {
  source_moves out;
  for (const walker_source& src : sources) {
    counter_rng rng(round_seed, static_cast<std::uint64_t>(src.node));
    const auto nbrs = g.neighbors(src.node);
    std::vector<weight_t> moves(nbrs.size() + 1, 0);
    for (weight_t k = 0; k < src.positive + src.negative; ++k) {
      if (nbrs.empty() || bernoulli(rng, laziness)) {
        ++moves[0];
        continue;
      }
      const auto pick = static_cast<std::size_t>(uniform_int<std::int64_t>(
          rng, 0, static_cast<std::int64_t>(nbrs.size()) - 1));
      ++moves[1 + pick];
    }
    out.push_back(std::move(moves));
  }
  return out;
}

// Runs one fine round of the balancer from exactly the given walkers (set
// through a snapshot restore) and reads each source's slots back from the
// walkers that sit on its neighbours afterwards. The sources' closed
// neighbourhoods must be pairwise disjoint, so no neighbour hears from two
// sources and no walkers annihilate.
source_moves balancer_round(std::shared_ptr<const graph> g,
                            const std::vector<walker_source>& sources,
                            double laziness, std::uint64_t seed) {
  auto p = make_rw(g, std::vector<weight_t>(
                          static_cast<std::size_t>(g->num_nodes()), 0),
                   {.phase1_rounds = 0, .slack = 1, .laziness = laziness},
                   seed);
  snapshot::writer fresh;
  p.save_state(fresh);
  snapshot::reader head(fresh.payload());
  head.expect_section("random_walk");
  const std::uint64_t n = head.u64();
  const std::uint64_t m = head.u64();
  const std::uint64_t walk_seed = head.u64();
  constexpr weight_t threshold = 1000;
  std::vector<weight_t> pos(n, 0);
  std::vector<weight_t> neg(n, 0);
  std::vector<weight_t> loads(n, threshold);
  for (const walker_source& src : sources) {
    const auto i = static_cast<std::size_t>(src.node);
    pos[i] = src.positive;
    neg[i] = src.negative;
    loads[i] += src.positive - src.negative;
  }
  snapshot::writer w;
  w.section("random_walk");
  w.u64(n);
  w.u64(m);
  w.u64(walk_seed);
  w.i64(/*t=*/3);
  w.i64(/*negative_events=*/0);
  w.i64(threshold);
  w.u8(/*tokens_marked=*/1);
  w.vec_int(loads);
  w.vec_int(pos);
  w.vec_int(neg);
  snapshot::reader in(w.payload());
  p.restore_state(in);
  p.step();

  snapshot::writer after;
  p.save_state(after);
  snapshot::reader r(after.payload());
  r.expect_section("random_walk");
  for (int f = 0; f < 3; ++f) (void)r.u64();
  for (int f = 0; f < 3; ++f) (void)r.i64();
  (void)r.u8();
  const auto new_loads = r.vec_int<weight_t>();
  const auto new_pos = r.vec_int<weight_t>();
  const auto new_neg = r.vec_int<weight_t>();
  weight_t total = 0;
  for (const weight_t x : new_loads) total += x;
  EXPECT_EQ(total, std::accumulate(loads.begin(), loads.end(), weight_t{0}));

  source_moves out;
  for (const walker_source& src : sources) {
    const auto& walkers = src.positive > 0 ? new_pos : new_neg;
    std::vector<weight_t> moves{walkers[static_cast<std::size_t>(src.node)]};
    for (const incidence& inc : g->neighbors(src.node)) {
      moves.push_back(walkers[static_cast<std::size_t>(inc.neighbor)]);
    }
    out.push_back(std::move(moves));
  }
  return out;
}

// Two-sample chi-square over one slot's value histograms (cells merged
// until both samples together hold at least 20), plus a z-test on means.
void expect_same_law(const std::vector<weight_t>& a,
                     const std::vector<weight_t>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size());
  std::map<weight_t, std::pair<double, double>> hist;
  double sum_a = 0;
  double sum_b = 0;
  double sq_a = 0;
  double sq_b = 0;
  for (std::size_t s = 0; s < a.size(); ++s) {
    ++hist[a[s]].first;
    ++hist[b[s]].second;
    sum_a += static_cast<double>(a[s]);
    sum_b += static_cast<double>(b[s]);
    sq_a += static_cast<double>(a[s]) * static_cast<double>(a[s]);
    sq_b += static_cast<double>(b[s]) * static_cast<double>(b[s]);
  }
  std::vector<std::pair<double, double>> cells;
  std::pair<double, double> run{0, 0};
  for (const auto& [value, counts] : hist) {
    run.first += counts.first;
    run.second += counts.second;
    if (run.first + run.second >= 20) {
      cells.push_back(run);
      run = {0, 0};
    }
  }
  if (cells.empty()) {
    cells.push_back(run);
  } else {
    cells.back().first += run.first;
    cells.back().second += run.second;
  }
  double chi2 = 0;
  for (const auto& [ca, cb] : cells) {
    chi2 += (ca - cb) * (ca - cb) / (ca + cb);
  }
  const double df = static_cast<double>(cells.size()) - 1;
  if (df > 0) {
    // Wilson–Hilferty upper quantile at z = 4.
    const double c = 1 - 2 / (9 * df) + 4 * std::sqrt(2 / (9 * df));
    EXPECT_LT(chi2, df * c * c * c) << what << ", " << cells.size()
                                    << " cells";
  }
  const auto n = static_cast<double>(a.size());
  const double var_a = sq_a / n - (sum_a / n) * (sum_a / n);
  const double var_b = sq_b / n - (sum_b / n) * (sum_b / n);
  EXPECT_LE(std::abs(sum_a / n - sum_b / n),
            5 * std::sqrt((var_a + var_b) / n) + 1e-12)
      << what << ": means " << sum_a / n << " vs " << sum_b / n;
}

struct walk_case {
  std::string name;
  std::shared_ptr<const graph> g;
  std::vector<walker_source> sources;
  double laziness;
};

void expect_split_matches_per_walker(const walk_case& c) {
  std::vector<int> owner(static_cast<std::size_t>(c.g->num_nodes()), -1);
  for (std::size_t s = 0; s < c.sources.size(); ++s) {
    std::vector<node_id> closed{c.sources[s].node};
    for (const incidence& inc : c.g->neighbors(c.sources[s].node)) {
      closed.push_back(inc.neighbor);
    }
    for (const node_id v : closed) {
      ASSERT_EQ(owner[static_cast<std::size_t>(v)], -1)
          << c.name << ": sources share node " << v;
      owner[static_cast<std::size_t>(v)] = static_cast<int>(s);
    }
  }
  constexpr int trials = 3000;
  // samples[source][slot][trial]
  std::vector<std::vector<std::vector<weight_t>>> lib;
  std::vector<std::vector<std::vector<weight_t>>> old;
  for (const walker_source& src : c.sources) {
    const std::size_t slots = c.g->neighbors(src.node).size() + 1;
    lib.emplace_back(slots, std::vector<weight_t>(trials));
    old.emplace_back(slots, std::vector<weight_t>(trials));
  }
  for (int t = 0; t < trials; ++t) {
    const source_moves a = balancer_round(
        c.g, c.sources, c.laziness, static_cast<std::uint64_t>(t) + 1);
    const source_moves b = per_walker_round(
        *c.g, c.sources, c.laziness,
        derive_seed(0xD1FFu, static_cast<std::uint64_t>(t)));
    for (std::size_t s = 0; s < c.sources.size(); ++s) {
      weight_t moved = 0;
      for (std::size_t j = 0; j < a[s].size(); ++j) {
        lib[s][j][static_cast<std::size_t>(t)] = a[s][j];
        old[s][j][static_cast<std::size_t>(t)] = b[s][j];
        moved += a[s][j];
      }
      ASSERT_EQ(moved, c.sources[s].positive + c.sources[s].negative)
          << c.name << ": walkers not conserved at node "
          << c.sources[s].node;
    }
  }
  for (std::size_t s = 0; s < c.sources.size(); ++s) {
    const walker_source& src = c.sources[s];
    const auto nbrs = c.g->neighbors(src.node);
    for (std::size_t j = 0; j < lib[s].size(); ++j) {
      std::string what = c.name + " node " + std::to_string(src.node) +
                         (src.positive > 0 ? " positive" : " negative");
      if (j == 0) {
        what += " stay";
      } else {
        const incidence& inc = nbrs[j - 1];
        what += " edge " + std::to_string(inc.edge) +
                (inc.neighbor > src.node ? " u->v" : " v->u");
      }
      expect_same_law(lib[s][j], old[s][j], what);
    }
  }
}

// Each case mixes sources whose movers number below 8 per neighbour (one
// uniform pick each) with sources far above it (conditional binomials, up
// to the large-mean sampler path), so both ways of splitting the movers are
// compared.
TEST(RandomWalkSplitTest, RingMatchesPerWalkerSteps) {
  // Every node has a neighbour on each side (both edge directions); the
  // closed neighbourhoods of 1, 4, 7 and 10 tile the ring.
  expect_split_matches_per_walker({"ring",
                                   make_g(generators::cycle(12)),
                                   {{1, 37, 0}, {4, 0, 23}, {7, 200, 0},
                                    {10, 0, 5000}},
                                   0.5});
}

TEST(RandomWalkSplitTest, TorusMatchesPerWalkerSteps) {
  auto g = make_g(generators::torus_2d(6));
  expect_split_matches_per_walker(
      {"torus", g, {{0, 41, 0}, {21, 0, 29}, {3, 300, 0}, {18, 0, 9}},
       0.25});
  expect_split_matches_per_walker(
      {"torus lazy", g, {{0, 0, 33}, {21, 52, 0}, {3, 0, 700}, {18, 2, 0}},
       0.75});
}

TEST(RandomWalkSplitTest, StarWithIsolatedNodeMatchesPerWalkerSteps) {
  // A star on nodes 0..6 (centre 0) plus node 7 with no edges: the centre
  // splits over six leaves, the isolated node keeps every walker.
  std::vector<edge> edges;
  for (node_id leaf = 1; leaf <= 6; ++leaf) edges.push_back({0, leaf});
  auto g = make_g(graph(8, std::move(edges)));
  expect_split_matches_per_walker({"star", g, {{0, 45, 0}, {7, 0, 9}}, 0.5});
  expect_split_matches_per_walker(
      {"star swapped", g, {{0, 0, 38}, {7, 12, 0}}, 0.0});
  expect_split_matches_per_walker(
      {"star crowded", g, {{0, 400, 0}, {7, 0, 3}}, 0.5});
}

}  // namespace
}  // namespace dlb

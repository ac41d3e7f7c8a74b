// The exact binomial sampler in common/rng.hpp: its edges (empty trials,
// certain and impossible success, huge k) and its law, checked by
// chi-square against the exact pmf and by moments, on both the inversion
// path (small means) and the large-mean path.
#include "dlb/common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace dlb {
namespace {

// Upper quantile of chi-square with `df` degrees of freedom at standard
// normal score z (Wilson–Hilferty).
double chi2_quantile(double df, double z) {
  const double a = 2.0 / (9.0 * df);
  const double c = 1.0 - a + z * std::sqrt(a);
  return df * c * c * c;
}

double binomial_pmf(std::int64_t k, double p, std::int64_t x) {
  const auto kd = static_cast<double>(k);
  const auto xd = static_cast<double>(x);
  return std::exp(std::lgamma(kd + 1) - std::lgamma(xd + 1) -
                  std::lgamma(kd - xd + 1) + xd * std::log(p) +
                  (kd - xd) * std::log1p(-p));
}

// Draws `samples` values of Bin(k, p) from one seeded counter stream.
std::vector<std::int64_t> draw(std::int64_t k, double p, int samples,
                               std::uint64_t seed) {
  counter_rng rng(seed, static_cast<std::uint64_t>(k));
  std::vector<std::int64_t> xs;
  xs.reserve(static_cast<std::size_t>(samples));
  for (int s = 0; s < samples; ++s) xs.push_back(binomial(rng, k, p));
  return xs;
}

TEST(BinomialTest, DegenerateTrialsDrawNothing) {
  for (const double p : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    counter_rng rng(3, 4);
    EXPECT_EQ(binomial(rng, std::int64_t{0}, p), 0) << "p=" << p;
    EXPECT_EQ(rng(), counter_rng(3, 4)()) << "k=0 consumed a draw, p=" << p;
  }
  for (const std::int64_t k : {1, 7, 10'000'000}) {
    counter_rng rng(5, 6);
    EXPECT_EQ(binomial(rng, k, 0.0), 0);
    EXPECT_EQ(binomial(rng, k, 1.0), k);
    EXPECT_EQ(rng(), counter_rng(5, 6)()) << "p in {0,1} consumed a draw";
  }
}

TEST(BinomialTest, AblationLazinessEdges) {
  // The ablation grid's extreme laziness values: 0 keeps no walker, and
  // 0.75 (drawn as the flipped q = 0.25) stays in range with the right mean.
  counter_rng rng(11, 0);
  for (int s = 0; s < 100; ++s) {
    EXPECT_EQ(binomial(rng, std::int64_t{40}, 0.0), 0);
  }
  const std::vector<std::int64_t> xs = draw(40, 0.75, 20000, 12);
  double sum = 0;
  for (const std::int64_t x : xs) {
    ASSERT_GE(x, 0);
    ASSERT_LE(x, 40);
    sum += static_cast<double>(x);
  }
  const double se = std::sqrt(40 * 0.75 * 0.25 / 20000.0);
  EXPECT_NEAR(sum / 20000.0, 30.0, 5 * se);
}

TEST(BinomialTest, HugeTrialCountsFinishInRange) {
  const std::int64_t k = 10'000'000;
  for (const double p : {1e-6, 0.5, 0.75, 1 - 1e-6}) {
    for (const std::int64_t x : draw(k, p, 200, 21)) {
      ASSERT_GE(x, 0) << "p=" << p;
      ASSERT_LE(x, k) << "p=" << p;
      const double mean = static_cast<double>(k) * p;
      EXPECT_NEAR(static_cast<double>(x), mean,
                  8 * std::sqrt(mean * (1 - p)) + 1)
          << "p=" << p;
    }
  }
}

struct law_case {
  std::int64_t k;
  double p;
};

class BinomialLawTest : public ::testing::TestWithParam<law_case> {};

// Chi-square goodness of fit against the exact pmf, cells merged until each
// expects at least 20 draws, plus the first two moments.
TEST_P(BinomialLawTest, MatchesExactPmf) {
  const auto [k, p] = GetParam();
  constexpr int samples = 40000;
  const std::vector<std::int64_t> xs = draw(k, p, samples, 31);
  const double mean = static_cast<double>(k) * p;
  const double var = mean * (1 - p);
  // One cell per value in [mean - 7σ, mean + 7σ] ∩ [0, k]; each tail folds
  // into its end cell.
  const auto lo = std::max<std::int64_t>(
      0, static_cast<std::int64_t>(std::floor(mean - 7 * std::sqrt(var))));
  const auto hi = std::min<std::int64_t>(
      k, static_cast<std::int64_t>(std::ceil(mean + 7 * std::sqrt(var))));
  std::vector<double> expect(static_cast<std::size_t>(hi - lo + 1));
  double inside = 0;
  for (std::int64_t x = lo; x <= hi; ++x) {
    const double px = binomial_pmf(k, p, x);
    expect[static_cast<std::size_t>(x - lo)] = px * samples;
    inside += px;
  }
  double below = 0;
  for (std::int64_t x = 0; x < lo; ++x) below += binomial_pmf(k, p, x);
  expect.front() += below * samples;
  expect.back() += (1 - inside - below) * samples;
  std::vector<double> seen(expect.size(), 0);
  double sum = 0;
  double sum_sq = 0;
  for (const std::int64_t x : xs) {
    ASSERT_GE(x, 0);
    ASSERT_LE(x, k);
    ++seen[static_cast<std::size_t>(std::clamp(x, lo, hi) - lo)];
    sum += static_cast<double>(x);
    sum_sq += static_cast<double>(x) * static_cast<double>(x);
  }
  // Merge neighbouring values until each cell expects at least 20 draws;
  // a short last run joins the cell before it.
  std::vector<double> cell_expect;
  std::vector<double> cell_seen;
  double e_run = 0;
  double o_run = 0;
  for (std::size_t c = 0; c < expect.size(); ++c) {
    e_run += expect[c];
    o_run += seen[c];
    if (e_run >= 20) {
      cell_expect.push_back(e_run);
      cell_seen.push_back(o_run);
      e_run = o_run = 0;
    }
  }
  ASSERT_FALSE(cell_expect.empty());
  cell_expect.back() += e_run;
  cell_seen.back() += o_run;
  double chi2 = 0;
  for (std::size_t c = 0; c < cell_expect.size(); ++c) {
    const double d = cell_seen[c] - cell_expect[c];
    chi2 += d * d / cell_expect[c];
  }
  const int cells = static_cast<int>(cell_expect.size());
  ASSERT_GE(cells, 10);
  EXPECT_LT(chi2, chi2_quantile(cells - 1, 4.0)) << "cells=" << cells;
  const double m = sum / samples;
  EXPECT_NEAR(m, mean, 5 * std::sqrt(var / samples));
  const double v = sum_sq / samples - m * m;
  EXPECT_NEAR(v / var, 1.0, 5 * std::sqrt(2.0 / samples));
}

INSTANTIATE_TEST_SUITE_P(
    InversionAndLargeMean, BinomialLawTest,
    ::testing::Values(law_case{51, 0.5},            // inversion
                      law_case{51, 0.75},           // inversion, flipped
                      law_case{199, 0.5},           // mean 99.5: inversion
                      law_case{200, 0.5},           // mean 100: large path
                      law_case{100'000, 1.0 / 3},   // large path
                      law_case{100'000, 2.0 / 3}),  // large path, flipped
    [](const ::testing::TestParamInfo<law_case>& c) {
      std::string name = "k";
      name += std::to_string(c.param.k);
      name += "_p";
      name += std::to_string(static_cast<int>(c.param.p * 100));
      return name;
    });

}  // namespace
}  // namespace dlb

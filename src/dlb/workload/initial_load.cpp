#include "dlb/workload/initial_load.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "dlb/common/contracts.hpp"
#include "dlb/common/rng.hpp"

namespace dlb::workload {

std::vector<weight_t> point_mass(node_id n, node_id at, weight_t total) {
  DLB_EXPECTS(n > 0 && at >= 0 && at < n && total >= 0);
  std::vector<weight_t> x(static_cast<size_t>(n), 0);
  x[static_cast<size_t>(at)] = total;
  return x;
}

std::vector<weight_t> uniform_random(node_id n, weight_t total,
                                     std::uint64_t seed) {
  DLB_EXPECTS(n > 0 && total >= 0);
  rng_t rng = make_rng(seed, /*stream=*/0x10ADu);
  std::vector<weight_t> x(static_cast<size_t>(n), 0);
  for (weight_t k = 0; k < total; ++k) {
    ++x[static_cast<size_t>(uniform_int<node_id>(rng, 0, n - 1))];
  }
  return x;
}

std::vector<weight_t> balanced_plus_spike(node_id n, weight_t base,
                                          node_id at, weight_t spike) {
  DLB_EXPECTS(n > 0 && at >= 0 && at < n && base >= 0 && spike >= 0);
  std::vector<weight_t> x(static_cast<size_t>(n), base);
  x[static_cast<size_t>(at)] += spike;
  return x;
}

std::vector<weight_t> bimodal(node_id n, weight_t low, weight_t high,
                              double p_high, std::uint64_t seed) {
  DLB_EXPECTS(n > 0 && low >= 0 && high >= low);
  DLB_EXPECTS(p_high >= 0 && p_high <= 1);
  rng_t rng = make_rng(seed, /*stream=*/0xB1Du);
  std::vector<weight_t> x(static_cast<size_t>(n));
  for (auto& xi : x) xi = bernoulli(rng, p_high) ? high : low;
  return x;
}

std::vector<weight_t> zipf(node_id n, weight_t total, double exponent,
                           std::uint64_t seed) {
  DLB_EXPECTS(n > 0 && total >= 0 && exponent >= 0);
  rng_t rng = make_rng(seed, /*stream=*/0x21Fu);
  // Cumulative Zipf weights over nodes.
  std::vector<real_t> cum(static_cast<size_t>(n));
  real_t acc = 0;
  for (node_id i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<real_t>(i + 1), exponent);
    cum[static_cast<size_t>(i)] = acc;
  }
  std::vector<weight_t> x(static_cast<size_t>(n), 0);
  for (weight_t k = 0; k < total; ++k) {
    const real_t u = uniform_real(rng, 0.0, acc);
    const auto it = std::lower_bound(cum.begin(), cum.end(), u);
    ++x[static_cast<size_t>(it - cum.begin())];
  }
  return x;
}

std::vector<weight_t> add_speed_multiple(std::vector<weight_t> x,
                                         const speed_vector& s, weight_t ell) {
  DLB_EXPECTS(x.size() == s.size() && ell >= 0);
  constexpr weight_t top = std::numeric_limits<weight_t>::max();
  for (std::size_t i = 0; i < x.size(); ++i) {
    DLB_EXPECTS(s[i] >= 0);
    if ((s[i] > 0 && ell > top / s[i]) || x[i] > top - ell * s[i]) {
      throw contract_violation(
          "top-up of " + std::to_string(ell) + "*" + std::to_string(s[i]) +
          " tokens on node " + std::to_string(i) + " (already holding " +
          std::to_string(x[i]) + ") overflows the token count");
    }
    x[i] += ell * s[i];
  }
  return x;
}

task_assignment decompose_uniform_weights(const std::vector<weight_t>& loads,
                                          weight_t wmax, std::uint64_t seed) {
  DLB_EXPECTS(!loads.empty() && wmax >= 1);
  rng_t rng = make_rng(seed, /*stream=*/0xDECu);
  task_assignment a(static_cast<node_id>(loads.size()));
  for (node_id i = 0; i < a.num_nodes(); ++i) {
    weight_t remaining = loads[static_cast<size_t>(i)];
    DLB_EXPECTS(remaining >= 0);
    while (remaining > 0) {
      const weight_t w =
          uniform_int<weight_t>(rng, 1, std::min(wmax, remaining));
      a.pool(i).add_real(w, i);
      remaining -= w;
    }
  }
  return a;
}

task_assignment decompose_heavy_light(const std::vector<weight_t>& loads,
                                      weight_t wmax, double p_heavy,
                                      std::uint64_t seed) {
  DLB_EXPECTS(!loads.empty() && wmax >= 1);
  DLB_EXPECTS(p_heavy >= 0 && p_heavy <= 1);
  (void)seed;  // deterministic split; seed kept for interface symmetry
  task_assignment a(static_cast<node_id>(loads.size()));
  for (node_id i = 0; i < a.num_nodes(); ++i) {
    weight_t remaining = loads[static_cast<size_t>(i)];
    DLB_EXPECTS(remaining >= 0);
    weight_t heavy_budget = static_cast<weight_t>(
        std::floor(p_heavy * static_cast<real_t>(remaining)));
    while (heavy_budget >= wmax) {
      a.pool(i).add_real(wmax, i);
      heavy_budget -= wmax;
      remaining -= wmax;
    }
    while (remaining > 0) {
      a.pool(i).add_real(1, i);
      --remaining;
    }
  }
  return a;
}

speed_vector random_speeds(node_id n, weight_t s_max, std::uint64_t seed) {
  DLB_EXPECTS(n > 0 && s_max >= 1);
  rng_t rng = make_rng(seed, /*stream=*/0x5EEDu);
  speed_vector s(static_cast<size_t>(n));
  for (auto& si : s) si = uniform_int<weight_t>(rng, 1, s_max);
  return s;
}

}  // namespace dlb::workload

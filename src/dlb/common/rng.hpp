// Seeded random number utilities. No global RNG state anywhere in dlb:
// every randomized component receives an explicit seed or engine so that
// whole experiments are reproducible from a single master seed.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>

namespace dlb {

/// The engine used throughout the library.
using rng_t = std::mt19937_64;

/// Derives a stream-specific seed from a master seed. Uses the SplitMix64
/// finalizer so that nearby (master, stream) pairs yield decorrelated seeds.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t master,
                                               std::uint64_t stream) noexcept {
  std::uint64_t z = master + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Constructs an engine for a (master seed, stream id) pair.
[[nodiscard]] inline rng_t make_rng(std::uint64_t master,
                                    std::uint64_t stream = 0) {
  return rng_t{derive_seed(master, stream)};
}

/// Counter-based RNG stream: every output is the SplitMix64 finalizer of
/// (seed, key, counter) — a pure function of its inputs, with no carried
/// engine state. Sharded randomized processes draw through one counter_rng
/// per (entity, round), so the draw a given edge/node/walker sees never
/// depends on which shard — or in which order — the entities are visited.
/// Satisfies UniformRandomBitGenerator, so the helpers below accept it.
class counter_rng {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  counter_rng(std::uint64_t seed, std::uint64_t key)
      : base_(derive_seed(seed, key)) {}

  result_type operator()() noexcept { return derive_seed(base_, counter_++); }

 private:
  std::uint64_t base_;
  std::uint64_t counter_ = 0;
};

/// Bernoulli draw with success probability p in [0,1].
template <typename Rng>
[[nodiscard]] bool bernoulli(Rng& rng, double p) {
  return std::bernoulli_distribution{p}(rng);
}

/// Uniform integer in [lo, hi] inclusive.
template <typename Int, typename Rng>
[[nodiscard]] Int uniform_int(Rng& rng, Int lo, Int hi) {
  return std::uniform_int_distribution<Int>{lo, hi}(rng);
}

/// Binomial draw: successes in k independent trials of probability p in
/// [0,1]. k <= 0, p = 0 and p = 1 draw nothing. The draw counts successes
/// of the rarer outcome q = min(p, 1-p). For means k·q < 100 it inverts the
/// CDF upward from 0 with one uniform: O(k·q) steps and no transcendental
/// call (P(X=0) = (1-q)^k by repeated squaring, whose rounding is of the
/// order that rounding q itself already causes). Larger means go to
/// std::binomial_distribution: its set-up (a few lgamma calls) and
/// rejection cost about 350 ns whatever the mean, which inversion matches
/// near a mean of 150. Needs a full 64-bit generator, as rng_t and
/// counter_rng are. The result is in [0, k].
template <typename Int, typename Rng>
[[nodiscard]] Int binomial(Rng& rng, Int k, double p) {
  static_assert(Rng::min() == 0 && Rng::max() == ~std::uint64_t{0});
  if (k <= 0 || p <= 0) return 0;
  if (p >= 1) return k;
  const bool flip = p > 0.5;
  const double q = flip ? 1 - p : p;
  const auto kd = static_cast<double>(k);
  Int x = 0;
  if (kd * q < 100) {
    double pmf = 1;  // P(X=0) = (1-q)^k
    double base = 1 - q;
    for (Int e = k; e != 0; e >>= 1) {
      pmf *= (e & 1) != 0 ? base : 1.0;
      base *= base;
    }
    // The top 53 bits as a uniform in [0, 1).
    double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    // P(X=x+1) = P(X=x) · (k-x)/(x+1) · q/(1-q).
    const double odds = q / (1 - q);
    while (u >= pmf && x < k) {
      u -= pmf;
      ++x;
      pmf *= odds * (kd + 1 - static_cast<double>(x)) / static_cast<double>(x);
    }
  } else {
    x = std::binomial_distribution<Int>{k, q}(rng);
  }
  return flip ? k - x : x;
}

/// Uniform real in [lo, hi).
template <typename Rng>
[[nodiscard]] double uniform_real(Rng& rng, double lo = 0.0,
                                  double hi = 1.0) {
  return std::uniform_real_distribution<double>{lo, hi}(rng);
}

}  // namespace dlb

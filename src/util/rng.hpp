// Deterministic pseudo-random number generation (xoshiro256**).
//
// Every stochastic element of the simulation (message contents, synthetic
// genomes, graph structure, noise injection) draws from a seeded Xoshiro256
// instance so that runs are exactly reproducible. Wall-clock seeding is
// deliberately not offered.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

#include "util/assert.hpp"

namespace impact::util {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) { reseed(seed); }

  /// Re-initializes state from `seed` using splitmix64, which guarantees a
  /// non-zero state for every seed value.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Inline, like below() and uniform(): the frame-pool shuffle and the
  /// graph and genome generators draw millions of values, and an
  /// out-of-line call per draw doubles the shuffle's cost.
  result_type operator()() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be positive. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound) {
    check(bound > 0, "Xoshiro256::below requires bound > 0");
    // Lemire's method: multiply into a 128-bit product and reject the
    // biased low fringe.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high-quality bits into the mantissa.
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p`.
  bool chance(double p) { return uniform() < p; }

  /// Standard normal via Marsaglia polar method.
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

 private:
  std::uint64_t s_[4]{};
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace impact::util

#pragma once
// Deterministic random number generation.
//
// Every sequential stochastic component in the repository (dataset
// synthesis, weight init, test data) draws from an explicitly seeded Rng
// so that experiments are bit-reproducible across runs. The macro's
// analog read noise is keyed instead (common/keyed_noise.hpp). The engine is
// xoshiro256** (public-domain algorithm by Blackman & Vigna), which is
// fast, has 256 bits of state and passes BigCrush.

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace yoloc {

/// Counter-free deterministic PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi);
  /// Standard normal via Marsaglia polar method.
  double normal();
  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);
  /// Bernoulli draw.
  bool bernoulli(double p_true);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(uniform_int(0, static_cast<int>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream (e.g. one per dataset split).
  Rng fork();

 private:
  std::array<std::uint64_t, 4> state_{};
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace yoloc

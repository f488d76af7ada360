#include "common/rng.hpp"

#include <cmath>

#include "common/check.hpp"

namespace yoloc {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed the full 256-bit state from splitmix64 per the xoshiro authors'
  // recommendation; guarantees a non-zero state for any seed.
  for (auto& word : state_) word = splitmix64(seed);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  YOLOC_CHECK(lo <= hi, "uniform range inverted");
  return lo + (hi - lo) * uniform();
}

int Rng::uniform_int(int lo, int hi) {
  YOLOC_CHECK(lo <= hi, "uniform_int range inverted");
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - lo + 1;
  // Modulo bias is < 2^-50 for any span that fits in int; acceptable for
  // simulation workloads.
  return lo + static_cast<int>((*this)() % span);
}

double Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Marsaglia polar method: u, v uniform in [-1, 1) (as uniform(-1.0,
  // 1.0) computes them), accepted when 0 < s = u^2 + v^2 < 1.
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = -1.0 + 2.0 * uniform();
    v = -1.0 + 2.0 * uniform();
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  have_cached_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p_true) { return uniform() < p_true; }

Rng Rng::fork() { return Rng((*this)() ^ 0xA5A5A5A55A5A5A5Aull); }

}  // namespace yoloc

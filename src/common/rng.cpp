#include "common/rng.hpp"

#include <algorithm>
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

// Marsaglia polar method: a candidate is accepted when 0 < s < 1, and an
// accepted (u, v, s) yields the pair (u * f, v * f), f = sqrt(-2 ln s / s).
// normal() and fill_normal() both go through these two helpers, so the
// repository has one polar implementation.
bool polar_accepts(double s) { return (s < 1.0) & (s != 0.0); }

double polar_factor(double s) { return std::sqrt(-2.0 * std::log(s) / s); }

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

double Rng::polar_candidate(double& u, double& v) {
  // Same arithmetic as uniform(-1.0, 1.0): lo + (hi - lo) * uniform().
  u = -1.0 + 2.0 * uniform();
  v = -1.0 + 2.0 * uniform();
  return u * u + v * v;
}

double Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    s = polar_candidate(u, v);
  } while (!polar_accepts(s));
  const double factor = polar_factor(s);
  cached_normal_ = v * factor;
  have_cached_normal_ = true;
  return u * factor;
}

void Rng::fill_normal(double* out, std::size_t n) {
  std::size_t i = 0;
  if (n > 0 && have_cached_normal_) {
    out[i++] = cached_normal_;
    have_cached_normal_ = false;
  }
  constexpr std::size_t kBlock = 64;  // polar pairs per block
  double us[kBlock] = {};
  double vs[kBlock] = {};
  double ss[kBlock] = {};
  while (i < n) {
    const std::size_t pairs = std::min((n - i + 1) / 2, kBlock);
    // Each candidate yields at most one pair, so a round of `pairs -
    // accepted` candidates can never overshoot: the last candidate drawn
    // is always the pairs-th accepted one, exactly where sequential
    // normal() calls would leave the stream. Rejected candidates are
    // overwritten by the next one (branchless compaction).
    std::size_t accepted = 0;
    while (accepted < pairs) {
      const std::size_t round = pairs - accepted;
      for (std::size_t c = 0; c < round; ++c) {
        const double s = polar_candidate(us[accepted], vs[accepted]);
        ss[accepted] = s;
        accepted += polar_accepts(s) ? 1u : 0u;
      }
    }
    const std::size_t full = std::min(pairs, (n - i) / 2);
    for (std::size_t a = 0; a < full; ++a) {
      const double factor = polar_factor(ss[a]);
      out[i + 2 * a] = us[a] * factor;
      out[i + 2 * a + 1] = vs[a] * factor;
    }
    i += 2 * full;
    if (full < pairs) {
      // Odd tail: the last pair's second value stays cached, as after a
      // normal() call that returned its first.
      const double factor = polar_factor(ss[full]);
      out[i++] = us[full] * factor;
      cached_normal_ = vs[full] * factor;
      have_cached_normal_ = true;
    }
  }
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p_true) { return uniform() < p_true; }

Rng Rng::fork() { return Rng((*this)() ^ 0xA5A5A5A55A5A5A5Aull); }

}  // namespace yoloc

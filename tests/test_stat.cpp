// Statistical equivalence of the keyed analog noise (`ctest -L stat`).
//
// The macro's read noise comes from keyed counter-based draws
// (common/keyed_noise.hpp) instead of the sequential polar-method stream
// it replaced. These checks show the change is statistically invisible:
//   * the keyed normals are N(0, 1): mean, variance, Kolmogorov–Smirnov
//     distance to the normal CDF, and no correlation inside a pair;
//   * for every exact ON-cell count, the ADC codes CimArrayModel::read()
//     produces from keyed normals match those it produces from
//     Rng::normal (the polar reference) in mean, variance and two-sample
//     KS distance, over > 1e6 reads per side, on both macro kinds.
// Seeds are fixed, so every statistic is a deterministic number; the
// bounds sit at roughly six standard errors (KS: a 1e-6 significance
// level), so they cannot flake and still catch a biased transform.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/keyed_noise.hpp"
#include "common/rng.hpp"
#include "macro/cim_macro.hpp"

namespace yoloc {
namespace {

struct Moments {
  double mean = 0.0;
  double var = 0.0;
  double m4 = 0.0;  // fourth central moment: the variance's own spread
};

Moments moments(const std::vector<double>& v) {
  Moments m;
  for (const double x : v) m.mean += x;
  m.mean /= static_cast<double>(v.size());
  for (const double x : v) {
    const double d2 = (x - m.mean) * (x - m.mean);
    m.var += d2;
    m.m4 += d2 * d2;
  }
  m.var /= static_cast<double>(v.size() - 1);
  m.m4 /= static_cast<double>(v.size());
  return m;
}

/// sup |F_n(x) - Phi(x)| of `v` (sorted in place).
double ks_vs_normal(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double d = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double cdf = 0.5 * std::erfc(-v[i] / std::sqrt(2.0));
    d = std::max({d, static_cast<double>(i + 1) / n - cdf,
                  cdf - static_cast<double>(i) / n});
  }
  return d;
}

/// Two-sample KS distance of integer samples: max CDF gap.
double ks_two_sample(const std::vector<int>& a, const std::vector<int>& b,
                     int levels) {
  std::vector<double> ha(static_cast<std::size_t>(levels), 0.0);
  std::vector<double> hb(static_cast<std::size_t>(levels), 0.0);
  for (const int c : a) ha[static_cast<std::size_t>(c)] += 1.0;
  for (const int c : b) hb[static_cast<std::size_t>(c)] += 1.0;
  double fa = 0.0;
  double fb = 0.0;
  double d = 0.0;
  for (int c = 0; c < levels; ++c) {
    fa += ha[static_cast<std::size_t>(c)] / static_cast<double>(a.size());
    fb += hb[static_cast<std::size_t>(c)] / static_cast<double>(b.size());
    d = std::max(d, std::fabs(fa - fb));
  }
  return d;
}

TEST(KeyedNoise, NormalsAreStandardNormal) {
  constexpr int kReads = 1 << 20;
  std::vector<double> cell(kReads);
  std::vector<double> adc(kReads);
  double cross = 0.0;
  const ReadNoiseKey key{.seed = 0x5EEDull, .call = 3, .tile = 1, .column = 2};
  for (int i = 0; i < kReads; ++i) {
    // Spread the reads over rows and read indices, as a layer does.
    const NormalPair z = read_normals(key, static_cast<std::uint32_t>(i >> 13),
                                      static_cast<std::uint32_t>(i & 8191));
    cell[static_cast<std::size_t>(i)] = z.cell;
    adc[static_cast<std::size_t>(i)] = z.adc;
    cross += z.cell * z.adc;
  }
  const double se = 1.0 / std::sqrt(static_cast<double>(kReads));
  for (std::vector<double>* v : {&cell, &adc}) {
    const Moments m = moments(*v);
    EXPECT_LT(std::fabs(m.mean), 6.0 * se);
    EXPECT_LT(std::fabs(m.var - 1.0), 6.0 * std::sqrt(2.0) * se);
    // Critical distance at significance 1e-6: sqrt(ln(2e6) / 2) / sqrt(n).
    EXPECT_LT(ks_vs_normal(*v), 2.76 * se);
  }
  EXPECT_LT(std::fabs(cross / kReads), 6.0 * se);
}

TEST(KeyedNoise, AdcCodeHistogramsMatchThePolarStream) {
  constexpr int kReadsPerCount = 1 << 15;
  for (const MacroConfig& cfg : {default_rom_macro(), default_sram_macro()}) {
    SCOPED_TRACE(cfg.kind == MacroKind::kRom ? "ROM" : "SRAM");
    const CimMacro macro(cfg);
    const CimArrayModel& array = macro.array_model();
    const int group = cfg.geometry.rows_per_activation;
    const int levels = array.adc().code_count();
    Rng polar(77);
    int total_reads = 0;
    for (int exact = 0; exact <= group; ++exact) {
      SCOPED_TRACE(exact);
      const ReadNoiseKey key{.seed = 0xC0DEull,
                             .call = static_cast<std::uint64_t>(exact),
                             .tile = 0,
                             .column = 5};
      std::vector<int> keyed_codes(kReadsPerCount);
      std::vector<int> polar_codes(kReadsPerCount);
      std::vector<double> kv(kReadsPerCount);
      std::vector<double> pv(kReadsPerCount);
      for (int i = 0; i < kReadsPerCount; ++i) {
        const NormalPair z =
            read_normals(key, 0, static_cast<std::uint32_t>(i));
        const int kc = array.read(exact, z.cell, z.adc).code;
        const double zc = polar.normal();
        const int pc = array.read(exact, zc, polar.normal()).code;
        keyed_codes[static_cast<std::size_t>(i)] = kc;
        polar_codes[static_cast<std::size_t>(i)] = pc;
        kv[static_cast<std::size_t>(i)] = kc;
        pv[static_cast<std::size_t>(i)] = pc;
      }
      total_reads += kReadsPerCount;
      const Moments mk = moments(kv);
      const Moments mp = moments(pv);
      const double n = kReadsPerCount;
      EXPECT_LE(std::fabs(mk.mean - mp.mean),
                6.0 * std::sqrt((mk.var + mp.var) / n) + 1e-12);
      // Var(sample variance) ~ (m4 - var^2) / n for any distribution.
      EXPECT_LE(std::fabs(mk.var - mp.var),
                6.0 * std::sqrt((mk.m4 - mk.var * mk.var + mp.m4 -
                                 mp.var * mp.var) /
                                n) +
                    1.0 / n);
      // Two-sample critical distance at significance 1e-6.
      EXPECT_LT(ks_two_sample(keyed_codes, polar_codes, levels),
                2.76 * std::sqrt(2.0 / n));
    }
    EXPECT_GE(total_reads, 1000000);
  }
}

}  // namespace
}  // namespace yoloc

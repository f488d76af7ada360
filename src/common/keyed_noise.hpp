#pragma once
// Counter-based analog noise for the macro read chain.
//
// Every noisy ADC read takes one pair of standard normals (z_cell, z_adc)
// that is a pure function of a key: the context's noise seed, the
// context's MVM call count, the packed tile, the input column, the output
// row and the read index. Nothing is drawn from a sequential stream, so
// reads can run in any order, and any number of rows at once, and still
// see the same noise. That is what lets the read chain run four output
// rows per AVX2 vector (macro/packed_kernels.*).
//
// The bits come from Philox4x32-10 (Salmon, Moraes, Dror and Shaw,
// "Parallel random numbers: as easy as 1, 2, 3", SC'11): a 10-round
// keyed bijection of a 128-bit counter. One block gives one read's pair
// through the Box–Muller transform, with no rejection loop. Its log and
// sin/cos are the polynomials below, built from +, -, *, / and sqrt
// only. Those five are correctly rounded IEEE operations, so the normals
// do not depend on the libm version, and the scalar functions here and
// the AVX2 lanes that mirror them (same operations, same order, no FMA)
// give the same bits.

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace yoloc {

/// The keyed noise state of one session: the seed, and how many MVM
/// calls have drawn under it so far. An ExecutionContext holds one per
/// macro; reseeding restarts the count.
struct AnalogNoise {
  std::uint64_t seed = 0;
  std::uint64_t calls = 0;
};

/// The key words every read of one single-tile, single-column macro call
/// shares. Within the call a read adds its output row and read index.
struct ReadNoiseKey {
  std::uint64_t seed = 0;
  std::uint64_t call = 0;
  std::uint32_t tile = 0;  // < 2^16
  std::uint32_t column = 0;
};

/// One read's standard normals: cell mismatch and ADC input noise.
struct NormalPair {
  double cell = 0.0;
  double adc = 0.0;
};

namespace keyed {

inline constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
inline constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
inline constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;
inline constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;
inline constexpr int kPhiloxRounds = 10;

/// Read indices use the low 16 counter bits, the tile the high 16.
inline constexpr int kReadIndexBits = 16;

inline constexpr std::uint64_t kMantissa = (1ull << 52) - 1;
inline constexpr std::uint64_t kOneBits = 0x3FF0000000000000ull;  // 1.0
inline constexpr double kSqrt2 = 1.4142135623730951;
inline constexpr double kLn2 = 0.6931471805599453;
inline constexpr double kHalfPi = 1.5707963267948966;

/// ln f = 2 atanh(s) = 2 s (1 + s^2/3 + s^4/5 + ...), s = (f-1)/(f+1).
/// With f in (1/sqrt2, sqrt2], |s| <= 0.172; the first omitted term is
/// below 4e-14 relative.
inline constexpr std::array<double, 7> kLogSeries = {
    1.0 / 3, 1.0 / 5, 1.0 / 7, 1.0 / 9, 1.0 / 11, 1.0 / 13, 1.0 / 15};
/// sin p = p + p^3 (-1/3! + p^2/5! - ...) through p^13, and
/// cos p = 1 + p^2 (-1/2! + p^2/4! - ...) through p^14: Taylor series on
/// |p| <= pi/4, first omitted terms below 3e-14 and 2e-15.
inline constexpr std::array<double, 6> kSinSeries = {
    -1.0 / 6, 1.0 / 120, -1.0 / 5040, 1.0 / 362880, -1.0 / 39916800,
    1.0 / 6227020800};
inline constexpr std::array<double, 7> kCosSeries = {
    -1.0 / 2,        1.0 / 24,           -1.0 / 720,
    1.0 / 40320,     -1.0 / 3628800,     1.0 / 479001600,
    -1.0 / 87178291200};

/// The double in [1, 2) whose mantissa is the low 52 bits of `bits`.
inline double unit_from_mantissa(std::uint64_t bits) {
  return std::bit_cast<double>(kOneBits | (bits & kMantissa));
}

/// Philox4x32-10 of counter `ctr` under key (k0, k1).
inline std::array<std::uint32_t, 4> philox4x32(
    std::array<std::uint32_t, 4> ctr, std::uint32_t k0, std::uint32_t k1) {
  for (int round = 0; round < kPhiloxRounds; ++round) {
    const std::uint64_t p0 = static_cast<std::uint64_t>(kPhiloxM0) * ctr[0];
    const std::uint64_t p1 = static_cast<std::uint64_t>(kPhiloxM1) * ctr[2];
    ctr = {static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ k0,
           static_cast<std::uint32_t>(p1),
           static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ k1,
           static_cast<std::uint32_t>(p0)};
    k0 += kPhiloxW0;
    k1 += kPhiloxW1;
  }
  return ctr;
}

/// ln u for u in (0, 1] with a normal exponent (u >= 2^-52 here).
inline double log_unit(double u) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
  double e = static_cast<double>(bits >> 52) - 1023.0;
  double f = unit_from_mantissa(bits);
  if (f > kSqrt2) {
    f = f * 0.5;
    e = e + 1.0;
  }
  const double s = (f - 1.0) / (f + 1.0);
  const double s2 = s * s;
  double p = kLogSeries[6];
  for (int i = 5; i >= 0; --i) {
    p = p * s2 + kLogSeries[static_cast<std::size_t>(i)];
  }
  p = p * s2 + 1.0;
  return e * kLn2 + (s + s) * p;
}

/// The Box–Muller pair of one Philox block: radius from words 0-1, angle
/// from words 2-3 (the top two bits pick the quadrant, the low 52 the
/// offset inside it).
inline NormalPair box_muller(const std::array<std::uint32_t, 4>& w) {
  const std::uint64_t radius_bits =
      (static_cast<std::uint64_t>(w[1]) << 32) | w[0];
  const std::uint64_t angle_bits =
      (static_cast<std::uint64_t>(w[3]) << 32) | w[2];
  // u in (0, 1]: 2 - [1, 2) is exact.
  const double u = 2.0 - unit_from_mantissa(radius_bits >> 12);
  const double r = std::sqrt(-2.0 * log_unit(u));

  const double phi = (unit_from_mantissa(angle_bits) - 1.5) * kHalfPi;
  const double phi2 = phi * phi;
  double ps = kSinSeries[5];
  for (int i = 4; i >= 0; --i) {
    ps = ps * phi2 + kSinSeries[static_cast<std::size_t>(i)];
  }
  const double sin_phi = phi + (phi * phi2) * ps;
  double pc = kCosSeries[6];
  for (int i = 5; i >= 0; --i) {
    pc = pc * phi2 + kCosSeries[static_cast<std::size_t>(i)];
  }
  const double cos_phi = 1.0 + phi2 * pc;

  // Quadrant q rotates (cos, sin) by q * pi/2: swap for odd q, negate x
  // for q in {1, 2} and y for q in {2, 3}.
  const unsigned q = static_cast<unsigned>(angle_bits >> 62);
  double x = (q & 1u) != 0 ? sin_phi : cos_phi;
  double y = (q & 1u) != 0 ? cos_phi : sin_phi;
  if (q == 1u || q == 2u) x = -x;
  if (q >= 2u) y = -y;
  return {r * x, r * y};
}

/// The Philox counter of read `read` of output row `row`.
inline std::array<std::uint32_t, 4> read_counter(const ReadNoiseKey& key,
                                                 std::uint32_t row,
                                                 std::uint32_t read) {
  return {read | (key.tile << kReadIndexBits), row, key.column,
          static_cast<std::uint32_t>(key.call)};
}

/// The Philox key words: the seed, with the call count's high half folded
/// in (its low half sits in the counter).
inline std::array<std::uint32_t, 2> read_key(const ReadNoiseKey& key) {
  return {static_cast<std::uint32_t>(key.seed),
          static_cast<std::uint32_t>(key.seed >> 32) ^
              static_cast<std::uint32_t>(key.call >> 32)};
}

}  // namespace keyed

/// The normals of read `read` (in (b, t, group) order) of output row
/// `row` under `key`.
inline NormalPair read_normals(const ReadNoiseKey& key, std::uint32_t row,
                               std::uint32_t read) {
  const std::array<std::uint32_t, 2> k = keyed::read_key(key);
  return keyed::box_muller(
      keyed::philox4x32(keyed::read_counter(key, row, read), k[0], k[1]));
}

}  // namespace yoloc

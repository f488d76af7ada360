// Differential coverage of the exact-cost tile's GEMM variants
// (macro/packed_kernels.hpp): every variant this build has, run directly
// against the plain gemm_s8u8_accumulate (common/int_gemm.hpp) and a
// scalar popcount. Shapes cover row counts that are not a multiple of the
// AVX2 body's 4-row tile, odd k (the zero tail row of its k-pairs),
// column counts that are not a multiple of its 16-column strip, strides
// wider than the data, and the extreme operands of the int16 pair sums.
// The variant a host never selects is still run here when the CPU can.
// `ctest -L macro` selects this suite.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/int_gemm.hpp"
#include "common/rng.hpp"
#include "macro/packed_kernels.hpp"

namespace yoloc {
namespace {

std::vector<const detail::ExactTileKernels*> built_variants() {
  static const bool printed = [] {
    std::printf("[ kernels  ] the exact-cost tile runs the %s GEMM variant; "
                "AVX2 variant: %s\n",
                detail::exact_tile_kernels().gemm,
                detail::avx2_exact_tile_kernels() != nullptr
                    ? "tested"
                    : "skipped (not built, or the CPU lacks AVX2)");
    return true;
  }();
  (void)printed;
  std::vector<const detail::ExactTileKernels*> variants{
      &detail::plain_exact_tile_kernels()};
  if (const detail::ExactTileKernels* avx2 =
          detail::avx2_exact_tile_kernels()) {
    variants.push_back(avx2);
  }
  return variants;
}

struct Case {
  int m, k, p;
  std::size_t ldw, ldx, ldy;
};

/// Runs every variant on one case and compares y (padding included) with
/// the plain GEMM and the pulse counts with a scalar popcount.
void check_case(const Case& cs, const std::vector<std::int8_t>& w,
                const std::vector<std::uint8_t>& x, std::uint8_t window,
                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int32_t> y0(static_cast<std::size_t>(cs.m) * cs.ldy);
  for (auto& v : y0) v = rng.uniform_int(-100000, 100000);

  std::vector<std::int32_t> expect = y0;
  gemm_s8u8_accumulate(w.data(), cs.ldw, cs.m, cs.k, x.data(), cs.ldx, cs.p,
                       expect.data(), cs.ldy);
  std::vector<std::uint32_t> expect_pulses(static_cast<std::size_t>(cs.p));
  for (int c = 0; c < cs.p; ++c) {
    std::uint32_t sum = 0;
    for (int i = 0; i < cs.k; ++i) {
      sum += static_cast<std::uint32_t>(
          std::popcount(static_cast<unsigned>(
              x[static_cast<std::size_t>(i) * cs.ldx + c] & window)));
    }
    expect_pulses[static_cast<std::size_t>(c)] = sum;
  }

  for (const detail::ExactTileKernels* variant : built_variants()) {
    SCOPED_TRACE(::testing::Message()
                 << "gemm=" << variant->gemm << " m=" << cs.m << " k=" << cs.k
                 << " p=" << cs.p << " ldw=" << cs.ldw << " ldx=" << cs.ldx
                 << " ldy=" << cs.ldy << " window=" << int{window});
    std::vector<std::int32_t> y = y0;
    // One sentinel past the last column: the kernel must not write it.
    std::vector<std::uint32_t> pulses(static_cast<std::size_t>(cs.p) + 1,
                                      0xDEADBEEFu);
    detail::ExactTileArgs args;
    args.w = w.data();
    args.ldw = cs.ldw;
    args.m = cs.m;
    args.k = cs.k;
    args.x = x.data();
    args.ldx = cs.ldx;
    args.p = cs.p;
    args.y = y.data();
    args.ldy = cs.ldy;
    args.window = window;
    args.pulses = pulses.data();
    variant->gemm_pulses(args);
    EXPECT_EQ(y, expect);
    EXPECT_EQ(pulses.back(), 0xDEADBEEFu);
    pulses.pop_back();
    EXPECT_EQ(pulses, expect_pulses);
  }
}

std::vector<std::int8_t> fill_weights(const Case& cs, Rng& rng) {
  std::vector<std::int8_t> w(static_cast<std::size_t>(cs.m) * cs.ldw);
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  // A zero row: the plain body skips zero weights, the AVX2 one does not.
  if (cs.m > 2) {
    for (int i = 0; i < cs.k; ++i) w[cs.ldw + static_cast<std::size_t>(i)] = 0;
  }
  return w;
}

std::vector<std::uint8_t> fill_acts(const Case& cs, Rng& rng) {
  std::vector<std::uint8_t> x(static_cast<std::size_t>(cs.k) * cs.ldx);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return x;
}

TEST(ExactTileGemm, EveryVariantMatchesPlainGemmOnRandomShapes) {
  std::vector<Case> cases;
  // Fixed corners: m % 4 != 0, odd k, p % 16 != 0, p < 16, one full
  // 64-column block plus a partial strip, and a 1 x 1 x 1 call.
  for (const int m : {1, 2, 3, 4, 5, 7, 70}) {
    for (const int k : {1, 2, 71, 72, 127, 128}) {
      for (const int p : {1, 15, 16, 17, 64, 81, 600}) {
        cases.push_back({m, k, p, static_cast<std::size_t>(k),
                         static_cast<std::size_t>(p),
                         static_cast<std::size_t>(p)});
      }
    }
  }
  // Random shapes with strides wider than the data.
  Rng shapes(2024);
  for (int n = 0; n < 150; ++n) {
    const int m = shapes.uniform_int(1, 70);
    const int k = shapes.uniform_int(1, 128);
    const int p = shapes.uniform_int(1, 600);
    cases.push_back({m, k, p,
                     static_cast<std::size_t>(k + shapes.uniform_int(0, 9)),
                     static_cast<std::size_t>(p + shapes.uniform_int(1, 40)),
                     static_cast<std::size_t>(p + shapes.uniform_int(1, 40))});
  }
  std::uint64_t seed = 1;
  for (const Case& cs : cases) {
    Rng rng(seed);
    const std::vector<std::int8_t> w = fill_weights(cs, rng);
    const std::vector<std::uint8_t> x = fill_acts(cs, rng);
    check_case(cs, w, x, 0xFF, seed);
    ++seed;
    if (::testing::Test::HasFailure()) return;  // one shape is enough
  }
}

TEST(ExactTileGemm, ExtremeOperandsStayExact) {
  // |w * x| = 128 * 255 is the largest product and 2 * 32640 the largest
  // pair sum: int16 products and int32 pair sums must hold both exactly.
  for (const int k : {1, 127, 128}) {
    for (const std::int8_t wv : {std::int8_t{-128}, std::int8_t{127}}) {
      const Case cs{6, k, 37, static_cast<std::size_t>(k), 40, 45};
      const std::vector<std::int8_t> w(static_cast<std::size_t>(cs.m) *
                                           cs.ldw,
                                       wv);
      const std::vector<std::uint8_t> x(static_cast<std::size_t>(k) * cs.ldx,
                                        255);
      check_case(cs, w, x, 0xFF, 77);
      // And the absolute value, independent of the plain body.
      for (const detail::ExactTileKernels* variant : built_variants()) {
        std::vector<std::int32_t> y(static_cast<std::size_t>(cs.m) * cs.ldy);
        std::vector<std::uint32_t> pulses(static_cast<std::size_t>(cs.p));
        detail::ExactTileArgs args;
        args.w = w.data();
        args.ldw = cs.ldw;
        args.m = cs.m;
        args.k = k;
        args.x = x.data();
        args.ldx = cs.ldx;
        args.p = cs.p;
        args.y = y.data();
        args.ldy = cs.ldy;
        args.window = 0xFF;
        args.pulses = pulses.data();
        variant->gemm_pulses(args);
        EXPECT_EQ(y[0], k * int{wv} * 255) << variant->gemm;
        EXPECT_EQ(y[static_cast<std::size_t>(cs.m - 1) * cs.ldy + cs.p - 1],
                  k * int{wv} * 255)
            << variant->gemm;
        EXPECT_EQ(pulses[0], static_cast<std::uint32_t>(8 * k))
            << variant->gemm;
      }
    }
  }
}

TEST(ExactTileGemm, FusedPulseCountsMatchScalarPopcountPerInputWidth) {
  // The pulse window keeps the low input_bits of each activation byte;
  // bits above it (present here on purpose) must not count.
  for (int input_bits = 1; input_bits <= 8; ++input_bits) {
    const auto window = static_cast<std::uint8_t>((1u << input_bits) - 1u);
    const Case cs{5, 99, 133, 99, 150, 140};
    Rng rng(500 + static_cast<std::uint64_t>(input_bits));
    const std::vector<std::int8_t> w = fill_weights(cs, rng);
    const std::vector<std::uint8_t> x = fill_acts(cs, rng);
    check_case(cs, w, x, window, 600 + static_cast<std::uint64_t>(input_bits));
  }
}

}  // namespace
}  // namespace yoloc

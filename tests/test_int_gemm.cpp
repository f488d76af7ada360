// Differential coverage of the exact-cost tile's GEMM variants
// (macro/packed_kernels.hpp): every variant this build has, run directly
// against the plain gemm_s8u8_accumulate (common/int_gemm.hpp) and a
// scalar popcount over the dense form of its activation view. Shapes
// cover row counts that are not a multiple of the AVX2 body's 4-row
// tile, odd k (the zero tail row of its k-pairs), column counts that are
// not a multiple of its 16-column strip, strides wider than the data,
// and the extreme operands of the int16 pair sums. The views cover dense
// matrices, conv views over zero-padded maps (kernel, stride, pad, batch
// and output widths that make every strip kind: one load, runs of 8 or
// 4 bytes, byte gathers and tails) against the test-side im2col oracle
// (tests/im2col_u8.hpp), and the linear layer's view. The variant a host
// never selects is still run here when the CPU can. `ctest -L macro`
// selects this suite.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/act_view.hpp"
#include "common/int_gemm.hpp"
#include "common/rng.hpp"
#include "im2col_u8.hpp"
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

/// A view's offset tables, kept alive beside the views built on them.
struct Offsets {
  std::vector<std::size_t> row_off;
  std::vector<std::size_t> col_off;
  [[nodiscard]] ActView over(const std::uint8_t* base) const {
    return {base, row_off.data(), col_off.data()};
  }
};

/// The view of a row-major k x p matrix with row stride ld.
Offsets strided(int k, int p, std::size_t ld) {
  Offsets o;
  for (int i = 0; i < k; ++i) o.row_off.push_back(i * ld);
  for (int c = 0; c < p; ++c) o.col_off.push_back(static_cast<std::size_t>(c));
  return o;
}

/// Runs every variant on one case over the view `x` and compares y
/// (padding included) with the plain GEMM and the pulse total with a
/// scalar popcount, both over `dense`, the row-major (row stride
/// cs.ldx) form of the view.
void check_view(const Case& cs, const std::vector<std::int8_t>& w,
                const ActView& x, const std::uint8_t* dense,
                std::uint8_t window, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int32_t> y0(static_cast<std::size_t>(cs.m) * cs.ldy);
  for (auto& v : y0) v = rng.uniform_int(-100000, 100000);

  std::vector<std::int32_t> expect = y0;
  gemm_s8u8_accumulate(w.data(), cs.ldw, cs.m, cs.k, dense, cs.ldx, cs.p,
                       expect.data(), cs.ldy);
  std::uint64_t expect_pulses = 0;
  for (int c = 0; c < cs.p; ++c) {
    for (int i = 0; i < cs.k; ++i) {
      expect_pulses += static_cast<std::uint64_t>(
          std::popcount(static_cast<unsigned>(
              dense[static_cast<std::size_t>(i) * cs.ldx + c] & window)));
    }
  }

  for (const detail::ExactTileKernels* variant : built_variants()) {
    SCOPED_TRACE(::testing::Message()
                 << "gemm=" << variant->gemm << " m=" << cs.m << " k=" << cs.k
                 << " p=" << cs.p << " ldw=" << cs.ldw << " ldx=" << cs.ldx
                 << " ldy=" << cs.ldy << " window=" << int{window});
    std::vector<std::int32_t> y = y0;
    detail::ExactTileArgs args;
    args.w = w.data();
    args.ldw = cs.ldw;
    args.m = cs.m;
    args.k = cs.k;
    args.x = x;
    args.p = cs.p;
    args.y = y.data();
    args.ldy = cs.ldy;
    args.window = window;
    EXPECT_EQ(variant->gemm_pulses(args), expect_pulses);
    EXPECT_EQ(y, expect);
  }
}

/// check_view over the dense (row stride cs.ldx) matrix `x`.
void check_case(const Case& cs, const std::vector<std::int8_t>& w,
                const std::vector<std::uint8_t>& x, std::uint8_t window,
                std::uint64_t seed) {
  const Offsets o = strided(cs.k, cs.p, cs.ldx);
  check_view(cs, w, o.over(x.data()), x.data(), window, seed);
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
      const Offsets o = strided(k, cs.p, cs.ldx);
      for (const detail::ExactTileKernels* variant : built_variants()) {
        std::vector<std::int32_t> y(static_cast<std::size_t>(cs.m) * cs.ldy);
        detail::ExactTileArgs args;
        args.w = w.data();
        args.ldw = cs.ldw;
        args.m = cs.m;
        args.k = k;
        args.x = o.over(x.data());
        args.p = cs.p;
        args.y = y.data();
        args.ldy = cs.ldy;
        args.window = 0xFF;
        EXPECT_EQ(variant->gemm_pulses(args),
                  static_cast<std::uint64_t>(8 * k * cs.p))
            << variant->gemm;
        EXPECT_EQ(y[0], k * int{wv} * 255) << variant->gemm;
        EXPECT_EQ(y[static_cast<std::size_t>(cs.m - 1) * cs.ldy + cs.p - 1],
                  k * int{wv} * 255)
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

TEST(ExactTileGemm, ConvViewsMatchIm2colOracle) {
  // Every strip kind of the AVX2 gather: output widths 16 and 32 at
  // stride 1 load a strip at once, 8 and 4 in runs, 15 and 17 and every
  // stride-2 view byte by byte, and batches whose column count is not a
  // multiple of 16 end in a tail strip. Pad 1 reads the zero border of
  // the padded map.
  int cases = 0;
  for (const int kernel : {1, 3}) {
    for (const int stride : {1, 2}) {
      for (const int pad : {0, 1}) {
        for (const int ow : {4, 8, 15, 16, 17, 32}) {
          for (const int n : {1, 3}) {
            for (const int c : {3, 7}) {  // odd k: 3, 7, 27, 63
              const int oh = 3;
              const int h = (oh - 1) * stride + kernel - 2 * pad;
              const int w = (ow - 1) * stride + kernel - 2 * pad;
              if (h < 1 || w < 1) continue;
              SCOPED_TRACE(::testing::Message()
                           << "kernel " << kernel << " stride " << stride
                           << " pad " << pad << " ow " << ow << " n " << n
                           << " c " << c);
              Rng rng(static_cast<std::uint64_t>(3000 + cases++));
              std::vector<std::uint8_t> input(static_cast<std::size_t>(n) *
                                              c * h * w);
              for (auto& v : input) {
                v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
              }
              std::vector<std::uint8_t> cols;
              im2col_u8_into(input.data(), n, c, h, w, kernel, stride, pad,
                             oh, ow, cols);
              const std::vector<std::uint8_t> map =
                  pad_u8_map(input.data(), n, c, h, w, pad);
              Offsets o;
              conv_offsets(n, c, h + 2 * pad, w + 2 * pad, kernel, stride,
                           oh, ow, o.row_off, o.col_off);
              const int k = c * kernel * kernel;
              const int p = n * oh * ow;
              const Case cs{5, k, p, static_cast<std::size_t>(k),
                            static_cast<std::size_t>(p),
                            static_cast<std::size_t>(p)};
              const std::vector<std::int8_t> wts = fill_weights(cs, rng);
              check_view(cs, wts, o.over(map.data()), cols.data(), 0xFF,
                         static_cast<std::uint64_t>(cases));
              if (::testing::Test::HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

TEST(ExactTileGemm, LinearViewMatchesTransposedInput) {
  // A linear layer's operand: element (i, b) is feature i of batch row
  // b, read in place from the (batch x features) rows.
  for (const int features : {1, 37, 200}) {
    for (const int batch : {1, 5, 16, 33}) {
      Rng rng(static_cast<std::uint64_t>(features * 100 + batch));
      std::vector<std::uint8_t> rows(static_cast<std::size_t>(batch) *
                                     features);
      for (auto& v : rows) {
        v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      Offsets o;
      std::vector<std::uint8_t> dense(rows.size());
      for (int i = 0; i < features; ++i) {
        o.row_off.push_back(static_cast<std::size_t>(i));
        for (int b = 0; b < batch; ++b) {
          dense[static_cast<std::size_t>(i) * batch + b] =
              rows[static_cast<std::size_t>(b) * features + i];
        }
      }
      for (int b = 0; b < batch; ++b) {
        o.col_off.push_back(static_cast<std::size_t>(b) * features);
      }
      const Case cs{6, features, batch, static_cast<std::size_t>(features),
                    static_cast<std::size_t>(batch),
                    static_cast<std::size_t>(batch)};
      const std::vector<std::int8_t> wts = fill_weights(cs, rng);
      check_view(cs, wts, o.over(rows.data()), dense.data(), 0xFF, 9);
    }
  }
}

}  // namespace
}  // namespace yoloc

#pragma once
// The int8 x uint8 GEMM bodies of the exact-cost macro tile
// (CimMacro::mvm_packed_exact_cost_tile).
//
// gemm_s8u8_accumulate is the plain body: the reference, built for the
// build's baseline ISA on every target. Products are formed in int16 and
// summed in int32. That is exact: an int8 weight times a uint8
// activation is at most 128 * 255 = 32640 in magnitude, inside int16, so
// the compiler can vectorize the column loop with 16-bit multiplies.
//
// On x86-64 GCC/Clang builds a second body, gemm_s8u8_accumulate_avx2,
// is compiled for AVX2 whatever the baseline (a -march=native build gets
// it too, so both bodies are always there to compare). It runs on
// vpmaddwd over int16 k-pairs: a pair sum is at most 2 * 32640 = 65280
// in magnitude, inside int32, so it is exact as well and its output is
// bit-identical to the plain body's. (pmaddubsw, the uint8 x int8
// form, is not usable: its int16 pair sums saturate.) The macro tile
// picks one body per process from the CPU's feature bits
// (macro/packed_kernels.hpp).

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define YOLOC_GEMM_AVX2 1
#else
#define YOLOC_GEMM_AVX2 0
#endif

namespace yoloc {

/// y[j*ldy + c] += sum over i < k of w[j*ldw + i] * x[i*ldx + c], for
/// j < m and c < p. All operands are row-major; the columns of `x` are
/// the input vectors. Rows are walked in pairs so each activation row is
/// loaded once per two outputs; zero weights are skipped. Integer sums
/// are exact, so the result does not depend on the walk order.
inline void gemm_s8u8_accumulate(const std::int8_t* w, std::size_t ldw, int m,
                                 int k, const std::uint8_t* x,
                                 std::size_t ldx, int p, std::int32_t* y,
                                 std::size_t ldy) {
  int j = 0;
  for (; j + 2 <= m; j += 2) {
    const std::int8_t* w0 = w + static_cast<std::size_t>(j) * ldw;
    const std::int8_t* w1 = w0 + ldw;
    std::int32_t* __restrict y0 = y + static_cast<std::size_t>(j) * ldy;
    std::int32_t* __restrict y1 = y0 + ldy;
    for (int i = 0; i < k; ++i) {
      const std::int16_t a = w0[i];
      const std::int16_t b = w1[i];
      if ((a | b) == 0) continue;
      const std::uint8_t* __restrict xr = x + static_cast<std::size_t>(i) * ldx;
      for (int c = 0; c < p; ++c) {
        const std::int16_t xv = xr[c];
        y0[c] += static_cast<std::int16_t>(a * xv);
        y1[c] += static_cast<std::int16_t>(b * xv);
      }
    }
  }
  for (; j < m; ++j) {
    const std::int8_t* wr = w + static_cast<std::size_t>(j) * ldw;
    std::int32_t* __restrict yr = y + static_cast<std::size_t>(j) * ldy;
    for (int i = 0; i < k; ++i) {
      const std::int16_t a = wr[i];
      if (a == 0) continue;
      const std::uint8_t* __restrict xr = x + static_cast<std::size_t>(i) * ldx;
      for (int c = 0; c < p; ++c) {
        const std::int16_t xv = xr[c];
        yr[c] += static_cast<std::int16_t>(a * xv);
      }
    }
  }
}

#if YOLOC_GEMM_AVX2
/// The AVX2 body: the same y update as gemm_s8u8_accumulate, bit for
/// bit, plus pulses[c] = sum over i < k of popcount(x[i*ldx + c] &
/// window) for c < p (k <= 8191). Call it only on a CPU with AVX2.
///
/// For each 64 columns (one cache line of every activation row) one pass
/// widens the k rows into int16 k-pairs, laid out [i/2][c][2] per
/// 16-column strip with a zero row for odd k, and counts the window bits
/// of the same bytes. Then every run of 4 output rows multiplies each
/// strip with broadcast (w[j][i], w[j][i+1]) int32 pairs in a 4 x 16
/// register tile and adds into y once. The strip buffers and the weight
/// pairs live in per-thread scratch that grows on first use.
[[gnu::target("avx2")]] void gemm_s8u8_accumulate_avx2(
    const std::int8_t* w, std::size_t ldw, int m, int k,
    const std::uint8_t* x, std::size_t ldx, int p, std::int32_t* y,
    std::size_t ldy, std::uint8_t window, std::uint32_t* pulses);
#endif

}  // namespace yoloc

#pragma once
// The int8 x uint8 GEMM body shared by the exact integer MVM paths:
// ExactMvmEngine (the integer reference, nn/quantize.cpp) and the
// exact-cost macro tile (CimMacro::mvm_packed_exact_cost_tile).
//
// Products are formed in int16 and summed in int32. That is exact: an
// int8 weight times a uint8 activation is at most 128 * 255 = 32640 in
// magnitude, inside int16. The narrow multiply matters on the portable
// x86-64 baseline (SSE2), which has a 16-bit vector multiply but no
// 32-bit one, so the compiler can vectorize the column loop cheaply.

#include <cstddef>
#include <cstdint>

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

}  // namespace yoloc

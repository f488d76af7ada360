#pragma once
// Test-side oracle of the implicit im2col a quantized conv hands its
// engine (common/act_view.hpp conv_offsets over a zero-padded uint8
// map): the explicit uint8 patch matrix, gathered row by row from the
// unpadded map with code 0 wherever a patch reaches into the padding,
// plus the padded map the view reads. The exact-tile GEMM suite, the
// quantized-layer suite and bench_macro_mvm's conv cells compare the
// view against it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace yoloc {

/// cols = the (c*kernel*kernel) x (n*oh*ow) row-major patch matrix of the
/// uint8 NCHW map `input` (n x c x h x w).
inline void im2col_u8_into(const std::uint8_t* input, int n, int c, int h,
                           int w, int kernel, int stride, int pad, int oh,
                           int ow, std::vector<std::uint8_t>& cols) {
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  const std::size_t col_stride = static_cast<std::size_t>(n) * spatial;
  cols.resize(static_cast<std::size_t>(c) * kernel * kernel * col_stride);
  for (int ni = 0; ni < n; ++ni) {
    for (int ci = 0; ci < c; ++ci) {
      const std::uint8_t* plane =
          input + (static_cast<std::size_t>(ni) * c + ci) * h * w;
      for (int ki = 0; ki < kernel; ++ki) {
        for (int kj = 0; kj < kernel; ++kj) {
          const int prow = (ci * kernel + ki) * kernel + kj;
          std::uint8_t* dst = cols.data() +
                              static_cast<std::size_t>(prow) * col_stride +
                              static_cast<std::size_t>(ni) * spatial;
          for (int oi = 0; oi < oh; ++oi) {
            for (int oj = 0; oj < ow; ++oj, ++dst) {
              const int ii = oi * stride + ki - pad;
              const int jj = oj * stride + kj - pad;
              *dst = ii < 0 || ii >= h || jj < 0 || jj >= w
                         ? std::uint8_t{0}
                         : plane[static_cast<std::size_t>(ii) * w + jj];
            }
          }
        }
      }
    }
  }
}

/// The n x c x (h+2pad) x (w+2pad) map of `input` with a zero border.
inline std::vector<std::uint8_t> pad_u8_map(const std::uint8_t* input, int n,
                                            int c, int h, int w, int pad) {
  const int hp = h + 2 * pad;
  const int wp = w + 2 * pad;
  std::vector<std::uint8_t> map(static_cast<std::size_t>(n) * c * hp * wp);
  for (int plane = 0; plane < n * c; ++plane) {
    for (int y = 0; y < h; ++y) {
      const std::uint8_t* src =
          input + (static_cast<std::size_t>(plane) * h + y) * w;
      std::copy(src, src + w,
                map.begin() +
                    static_cast<std::ptrdiff_t>(
                        (static_cast<std::size_t>(plane) * hp + y + pad) *
                            wp +
                        pad));
    }
  }
  return map;
}

}  // namespace yoloc

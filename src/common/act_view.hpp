#pragma once
// A k x p uint8 activation matrix read in place through two offset
// tables: element (i, c) is base[row_off[i] + col_off[c]]. Row i is one
// reduction index (one wordline of the macro), column c one input
// vector. The integer MVM backends (nn/quantize.hpp's MvmEngine, the
// exact-cost tile kernels and their GEMM bodies) read activations only
// through this view, so a quantized conv hands them its zero-padded
// uint8 input map plus the offsets of its implicit im2col (conv_offsets
// below) instead of a k x p patch matrix, and a dense row-major matrix
// is the view DenseActView builds.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace yoloc {

struct ActView {
  const std::uint8_t* base = nullptr;
  const std::size_t* row_off = nullptr;  // k entries
  const std::size_t* col_off = nullptr;  // p entries

  [[nodiscard]] std::uint8_t at(int i, int c) const {
    return base[row_off[i] + col_off[c]];
  }
  /// The view of rows [i0, k) and columns [c0, p).
  [[nodiscard]] ActView from(int i0, int c0) const {
    return {base, row_off + i0, col_off + c0};
  }
};

/// A dense row-major k x p matrix as a view: row_off[i] = i * p and
/// col_off[c] = c. Owns the offset tables; converts to the ActView, so
/// `engine.mvm_batch(w, m, k, DenseActView(x, k, p), p, y, session)`
/// runs a dense operand.
class DenseActView {
 public:
  DenseActView(const std::uint8_t* x, int k, int p)
      : x_(x),
        row_off_(static_cast<std::size_t>(k)),
        col_off_(static_cast<std::size_t>(p)) {
    for (std::size_t i = 0; i < row_off_.size(); ++i) {
      row_off_[i] = i * col_off_.size();
    }
    for (std::size_t c = 0; c < col_off_.size(); ++c) col_off_[c] = c;
  }
  // NOLINTNEXTLINE(google-explicit-constructor): the wrapper is the point.
  operator ActView() const { return {x_, row_off_.data(), col_off_.data()}; }

 private:
  const std::uint8_t* x_;
  std::vector<std::size_t> row_off_;
  std::vector<std::size_t> col_off_;
};

/// The implicit im2col of a conv over a zero-padded uint8 NCHW map of
/// n x c x hp x wp (hp, wp include the padding on both sides): row
/// (ci * kernel + kh) * kernel + kw reads offset (ci * hp + kh) * wp + kw,
/// and output column ni * oh * ow + oy * ow + ox reads offset
/// ni * c * hp * wp + oy * stride * wp + ox * stride — the rows and
/// columns of the patch matrix im2col would build from the unpadded map.
inline void conv_offsets(int n, int c, int hp, int wp, int kernel,
                         int stride, int oh, int ow,
                         std::vector<std::size_t>& row_off,
                         std::vector<std::size_t>& col_off) {
  const std::size_t plane = static_cast<std::size_t>(hp) * wp;
  row_off.resize(static_cast<std::size_t>(c) * kernel * kernel);
  std::size_t* r = row_off.data();
  for (int ci = 0; ci < c; ++ci) {
    for (int kh = 0; kh < kernel; ++kh) {
      for (int kw = 0; kw < kernel; ++kw) {
        *r++ = ci * plane + static_cast<std::size_t>(kh) * wp + kw;
      }
    }
  }
  col_off.resize(static_cast<std::size_t>(n) * oh * ow);
  std::size_t* o = col_off.data();
  for (int ni = 0; ni < n; ++ni) {
    const std::size_t image = static_cast<std::size_t>(ni) * c * plane;
    for (int oy = 0; oy < oh; ++oy) {
      const std::size_t row =
          image + static_cast<std::size_t>(oy) * stride * wp;
      for (int ox = 0; ox < ow; ++ox) {
        *o++ = row + static_cast<std::size_t>(ox) * stride;
      }
    }
  }
}

}  // namespace yoloc

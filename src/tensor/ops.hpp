#pragma once
// Free-function math kernels over Tensor.
//
// Only the operations the layer zoo actually needs are provided; each has
// a reference-quality implementation with no hidden broadcasting rules
// (mismatched shapes are an error unless documented otherwise).

#include "tensor/tensor.hpp"

namespace yoloc {

/// c = a + b (same shape).
Tensor add(const Tensor& a, const Tensor& b);
/// a += b (same shape).
void add_inplace(Tensor& a, const Tensor& b);
/// a += alpha * b (same shape) — SGD/momentum building block.
void axpy_inplace(Tensor& a, float alpha, const Tensor& b);
/// c = a - b.
Tensor sub(const Tensor& a, const Tensor& b);
/// Hadamard product.
Tensor mul(const Tensor& a, const Tensor& b);
/// Scale by a scalar.
Tensor scale(const Tensor& a, float s);
void scale_inplace(Tensor& a, float s);

/// Rank-2 matrix product: (M x K) * (K x N) -> (M x N).
Tensor matmul(const Tensor& a, const Tensor& b);
/// Cache-blocked rank-2 matrix product writing into caller-provided
/// storage. `out` is reshaped/reallocated only when its shape mismatches,
/// so hot loops that reuse the same `out` tensor stop allocating per call.
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out);
/// Rank-2 transpose.
Tensor transpose2d(const Tensor& a);

/// Copy of `rows` leading-axis entries of `batch` starting at `row0`
/// (any rank >= 1). The serving layer slices fused batch outputs back
/// into per-request tensors with this.
Tensor slice_rows(const Tensor& batch, int row0, int rows);

/// Concatenate tensors along axis 0 (the inverse of slice_rows). All
/// parts must share rank and trailing extents; leading extents may
/// differ. The serving layer stacks per-request inputs into one fused
/// forward pass with this.
Tensor concat_rows(const std::vector<const Tensor*>& parts);

/// Row-wise softmax over a rank-2 (batch x classes) tensor.
Tensor softmax_rows(const Tensor& logits);
/// Row-wise argmax over a rank-2 tensor.
std::vector<int> argmax_rows(const Tensor& t);

/// Mean of all elements.
double mean(const Tensor& t);
/// Unbiased=false variance of all elements.
double variance(const Tensor& t);

/// Max elementwise |a-b|; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// im2col for NCHW input: output is rank-2 with
/// rows = C*kh*kw ("patch" dimension) and cols = N*out_h*out_w.
/// Zero padding `pad` on all sides, square stride.
Tensor im2col(const Tensor& input, int kh, int kw, int stride, int pad);
/// im2col writing into caller-provided storage (reallocated only on shape
/// mismatch) — the deploy-time hot path reuses one scratch tensor.
void im2col_into(const Tensor& input, int kh, int kw, int stride, int pad,
                 Tensor& cols);

/// Inverse scatter-add of im2col (used by conv backward-to-input).
Tensor col2im(const Tensor& cols, const std::vector<int>& input_shape, int kh,
              int kw, int stride, int pad);

/// Output spatial extent of a conv/pool window.
int conv_out_extent(int in, int kernel, int stride, int pad);

}  // namespace yoloc

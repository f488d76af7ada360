#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace yoloc {

Tensor add(const Tensor& a, const Tensor& b) {
  YOLOC_CHECK(same_shape(a, b), "add: shape mismatch");
  Tensor c = a;
  add_inplace(c, b);
  return c;
}

void add_inplace(Tensor& a, const Tensor& b) {
  YOLOC_CHECK(same_shape(a, b), "add_inplace: shape mismatch");
  float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) pa[i] += pb[i];
}

void axpy_inplace(Tensor& a, float alpha, const Tensor& b) {
  YOLOC_CHECK(same_shape(a, b), "axpy: shape mismatch");
  float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) pa[i] += alpha * pb[i];
}

Tensor sub(const Tensor& a, const Tensor& b) {
  YOLOC_CHECK(same_shape(a, b), "sub: shape mismatch");
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < c.size(); ++i) pc[i] -= pb[i];
  return c;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  YOLOC_CHECK(same_shape(a, b), "mul: shape mismatch");
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < c.size(); ++i) pc[i] *= pb[i];
  return c;
}

Tensor scale(const Tensor& a, float s) {
  Tensor c = a;
  scale_inplace(c, s);
  return c;
}

void scale_inplace(Tensor& a, float s) {
  float* pa = a.data();
  for (std::size_t i = 0; i < a.size(); ++i) pa[i] *= s;
}

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out) {
  YOLOC_CHECK(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 required");
  const int m = a.shape()[0];
  const int k = a.shape()[1];
  YOLOC_CHECK(b.shape()[0] == k, "matmul: inner dims mismatch");
  const int n = b.shape()[1];
  out.reset({m, n});  // keeps capacity across calls with varying shapes
  out.zero();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  // Blocked ikj: a row-block panel of A meets a kKc x kNc panel of B while
  // both stay cache-resident; the innermost j access is contiguous in both
  // b and c. The row-block is also the parallel grain, so shrink it when m
  // is small relative to the worker count — a tall-skinny cap of 32 would
  // otherwise serialize the conv-sized products (m = out_channels).
  constexpr int kKc = 128;
  constexpr int kNc = 256;
  const int workers = static_cast<int>(parallel_workers());
  const int mc = std::clamp(m / (4 * workers), 1, 32);
  const auto block_product = [&](std::size_t bi) {
    const int i0 = static_cast<int>(bi) * mc;
    const int i1 = std::min(m, i0 + mc);
    for (int k0 = 0; k0 < k; k0 += kKc) {
      const int k1 = std::min(k, k0 + kKc);
      for (int j0 = 0; j0 < n; j0 += kNc) {
        const int j1 = std::min(n, j0 + kNc);
        for (int i = i0; i < i1; ++i) {
          const float* arow = pa + static_cast<std::size_t>(i) * k;
          float* crow = pc + static_cast<std::size_t>(i) * n;
          for (int kk = k0; kk < k1; ++kk) {
            const float aik = arow[kk];
            if (aik == 0.0f) continue;
            const float* brow = pb + static_cast<std::size_t>(kk) * n;
            for (int j = j0; j < j1; ++j) crow[j] += aik * brow[j];
          }
        }
      }
    }
  };
  const std::size_t row_blocks =
      static_cast<std::size_t>((m + mc - 1) / mc);
  // Parallel dispatch only pays off for sizeable products.
  if (static_cast<std::size_t>(m) * k * n < (1u << 16) || row_blocks == 1) {
    for (std::size_t bi = 0; bi < row_blocks; ++bi) block_product(bi);
  } else {
    parallel_for(row_blocks, block_product);
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_into(a, b, c);
  return c;
}

Tensor slice_rows(const Tensor& batch, int row0, int rows) {
  YOLOC_CHECK(batch.rank() >= 1 && row0 >= 0 && rows >= 1 &&
                  row0 + rows <= batch.shape()[0],
              "slice_rows: row range out of bounds");
  std::vector<int> shape = batch.shape();
  const std::size_t row_size = batch.size() / static_cast<std::size_t>(shape[0]);
  shape[0] = rows;
  Tensor out(shape);
  std::memcpy(out.data(),
              batch.data() + static_cast<std::size_t>(row0) * row_size,
              static_cast<std::size_t>(rows) * row_size * sizeof(float));
  return out;
}

Tensor concat_rows(const std::vector<const Tensor*>& parts) {
  YOLOC_CHECK(!parts.empty(), "concat_rows: no inputs");
  const std::vector<int>& ref = parts[0]->shape();
  YOLOC_CHECK(parts[0]->rank() >= 1, "concat_rows: rank >= 1 required");
  int total_rows = 0;
  for (const Tensor* t : parts) {
    YOLOC_CHECK(t->rank() == parts[0]->rank(),
                "concat_rows: rank mismatch");
    for (int d = 1; d < t->rank(); ++d) {
      YOLOC_CHECK(t->shape()[d] == ref[static_cast<std::size_t>(d)],
                  "concat_rows: trailing extent mismatch");
    }
    total_rows += t->shape()[0];
  }
  std::vector<int> shape = ref;
  shape[0] = total_rows;
  Tensor out(shape);
  float* dst = out.data();
  for (const Tensor* t : parts) {
    std::memcpy(dst, t->data(), t->size() * sizeof(float));
    dst += t->size();
  }
  return out;
}

Tensor transpose2d(const Tensor& a) {
  YOLOC_CHECK(a.rank() == 2, "transpose2d: rank-2 required");
  const int m = a.shape()[0];
  const int n = a.shape()[1];
  Tensor out({n, m});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      out.data()[static_cast<std::size_t>(j) * m + i] =
          a.data()[static_cast<std::size_t>(i) * n + j];
    }
  }
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  YOLOC_CHECK(logits.rank() == 2, "softmax_rows: rank-2 required");
  const int rows = logits.shape()[0];
  const int cols = logits.shape()[1];
  Tensor out({rows, cols});
  for (int r = 0; r < rows; ++r) {
    const float* in = logits.data() + static_cast<std::size_t>(r) * cols;
    float* o = out.data() + static_cast<std::size_t>(r) * cols;
    float mx = in[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    double denom = 0.0;
    for (int c = 0; c < cols; ++c) {
      o[c] = std::exp(in[c] - mx);
      denom += o[c];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (int c = 0; c < cols; ++c) o[c] *= inv;
  }
  return out;
}

std::vector<int> argmax_rows(const Tensor& t) {
  YOLOC_CHECK(t.rank() == 2, "argmax_rows: rank-2 required");
  const int rows = t.shape()[0];
  const int cols = t.shape()[1];
  std::vector<int> idx(static_cast<std::size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    const float* row = t.data() + static_cast<std::size_t>(r) * cols;
    idx[static_cast<std::size_t>(r)] =
        static_cast<int>(std::max_element(row, row + cols) - row);
  }
  return idx;
}

double mean(const Tensor& t) {
  YOLOC_CHECK(!t.empty(), "mean of empty tensor");
  return t.sum() / static_cast<double>(t.size());
}

double variance(const Tensor& t) {
  const double mu = mean(t);
  double acc = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double d = t[i] - mu;
    acc += d * d;
  }
  return acc / static_cast<double>(t.size());
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  YOLOC_CHECK(same_shape(a, b), "max_abs_diff: shape mismatch");
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

int conv_out_extent(int in, int kernel, int stride, int pad) {
  YOLOC_CHECK(stride > 0, "stride must be positive");
  const int eff = in + 2 * pad - kernel;
  YOLOC_CHECK(eff >= 0, "kernel larger than padded input");
  return eff / stride + 1;
}

void im2col_into(const Tensor& input, int kh, int kw, int stride, int pad,
                 Tensor& cols) {
  YOLOC_CHECK(input.rank() == 4, "im2col: NCHW input required");
  const int n = input.shape()[0];
  const int c = input.shape()[1];
  const int h = input.shape()[2];
  const int w = input.shape()[3];
  const int oh = conv_out_extent(h, kh, stride, pad);
  const int ow = conv_out_extent(w, kw, stride, pad);
  const int patch = c * kh * kw;
  const int cols_n = n * oh * ow;
  // Capacity-preserving reshape: successive conv layers with different
  // geometries reuse one scratch allocation (every element, padding
  // included, is written below).
  cols.reset({patch, cols_n});
  float* pc = cols.data();
  const int col_stride = n * oh * ow;
  parallel_for(static_cast<std::size_t>(n), [&](std::size_t ni) {
    for (int ci = 0; ci < c; ++ci) {
      for (int ki = 0; ki < kh; ++ki) {
        for (int kj = 0; kj < kw; ++kj) {
          const int prow = (ci * kh + ki) * kw + kj;
          for (int oi = 0; oi < oh; ++oi) {
            const int ii = oi * stride + ki - pad;
            for (int oj = 0; oj < ow; ++oj) {
              const int jj = oj * stride + kj - pad;
              const std::size_t col =
                  (ni * static_cast<std::size_t>(oh) + oi) * ow + oj;
              float v = 0.0f;
              if (ii >= 0 && ii < h && jj >= 0 && jj < w) {
                v = input.data()[input.index4(static_cast<int>(ni), ci, ii,
                                              jj)];
              }
              pc[static_cast<std::size_t>(prow) * col_stride + col] = v;
            }
          }
        }
      }
    }
  });
}

Tensor im2col(const Tensor& input, int kh, int kw, int stride, int pad) {
  Tensor cols;
  im2col_into(input, kh, kw, stride, pad, cols);
  return cols;
}

Tensor col2im(const Tensor& cols, const std::vector<int>& input_shape, int kh,
              int kw, int stride, int pad) {
  YOLOC_CHECK(cols.rank() == 2, "col2im: rank-2 cols required");
  YOLOC_CHECK(input_shape.size() == 4, "col2im: NCHW shape required");
  const int n = input_shape[0];
  const int c = input_shape[1];
  const int h = input_shape[2];
  const int w = input_shape[3];
  const int oh = conv_out_extent(h, kh, stride, pad);
  const int ow = conv_out_extent(w, kw, stride, pad);
  YOLOC_CHECK(cols.shape()[0] == c * kh * kw &&
                  cols.shape()[1] == n * oh * ow,
              "col2im: cols shape inconsistent with conv geometry");
  Tensor img(input_shape);
  const float* pc = cols.data();
  const int col_stride = n * oh * ow;
  // Scatter-add: parallel over batch; each image is written by one thread.
  parallel_for(static_cast<std::size_t>(n), [&](std::size_t ni) {
    for (int ci = 0; ci < c; ++ci) {
      for (int ki = 0; ki < kh; ++ki) {
        for (int kj = 0; kj < kw; ++kj) {
          const int prow = (ci * kh + ki) * kw + kj;
          for (int oi = 0; oi < oh; ++oi) {
            const int ii = oi * stride + ki - pad;
            if (ii < 0 || ii >= h) continue;
            for (int oj = 0; oj < ow; ++oj) {
              const int jj = oj * stride + kj - pad;
              if (jj < 0 || jj >= w) continue;
              const std::size_t col =
                  (ni * static_cast<std::size_t>(oh) + oi) * ow + oj;
              img.data()[img.index4(static_cast<int>(ni), ci, ii, jj)] +=
                  pc[static_cast<std::size_t>(prow) * col_stride + col];
            }
          }
        }
      }
    }
  });
  return img;
}

}  // namespace yoloc

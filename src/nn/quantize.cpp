#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/trace_clock.hpp"
#include "nn/batchnorm.hpp"
#include "nn/container.hpp"
#include "tensor/ops.hpp"

namespace yoloc {

namespace {

/// Active binding for the current thread (set by MvmBinding::Scope).
thread_local const MvmBinding* t_binding = nullptr;

/// The engine and session bound to `kind` on this thread. Deploy-mode
/// forwards run only inside an ExecutionContext, whose binding carries an
/// engine and a scratch arena for both kinds.
MvmBinding::Slot resolve_engine(EngineKind kind, const std::string& layer) {
  const MvmBinding* binding = MvmBinding::current();
  YOLOC_CHECK(binding != nullptr,
              layer + ": no engine binding; run deployed layers through an "
                      "ExecutionContext");
  const MvmBinding::Slot& slot = binding->slot(kind);
  YOLOC_CHECK(slot.engine != nullptr && slot.session.scratch != nullptr,
              layer + ": the engine binding for its kind lacks an engine or "
                      "a scratch arena; run deployed layers through an "
                      "ExecutionContext");
  return slot;
}

/// The uint8 counterpart of im2col_into over a quantized NCHW input:
/// cols is (c*kernel*kernel) x (n*oh*ow) row-major, with code 0 wherever
/// a patch reaches into the padding.
void im2col_u8_into(const std::uint8_t* input, int n, int c, int h, int w,
                    int kernel, int stride, int pad, int oh, int ow,
                    std::vector<std::uint8_t>& cols) {
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  const std::size_t col_stride = static_cast<std::size_t>(n) * spatial;
  cols.resize(static_cast<std::size_t>(c) * kernel * kernel * col_stride);
  parallel_for(static_cast<std::size_t>(n), [&](std::size_t ni) {
    for (int ci = 0; ci < c; ++ci) {
      const std::uint8_t* plane =
          input + (ni * static_cast<std::size_t>(c) + ci) * h * w;
      for (int ki = 0; ki < kernel; ++ki) {
        for (int kj = 0; kj < kernel; ++kj) {
          // Output columns [lo, hi) read input columns inside [0, w).
          const int shift = kj - pad;
          const int lo =
              std::min(ow, shift < 0 ? (-shift + stride - 1) / stride : 0);
          const int hi = std::max(
              lo, std::min(ow, w - 1 - shift < 0
                                   ? 0
                                   : (w - 1 - shift) / stride + 1));
          const int prow = (ci * kernel + ki) * kernel + kj;
          std::uint8_t* dst = cols.data() +
                              static_cast<std::size_t>(prow) * col_stride +
                              ni * spatial;
          for (int oi = 0; oi < oh; ++oi, dst += ow) {
            const int ii = oi * stride + ki - pad;
            if (ii < 0 || ii >= h) {
              std::fill(dst, dst + ow, std::uint8_t{0});
              continue;
            }
            std::fill(dst, dst + lo, std::uint8_t{0});
            if (hi > lo) {
              // First input column read: 0 <= lo * stride + shift < w.
              const std::uint8_t* src = plane +
                                        static_cast<std::size_t>(ii) * w +
                                        (lo * stride + shift);
              if (stride == 1) {
                std::copy(src, src + (hi - lo), dst + lo);
              } else {
                for (int oj = lo; oj < hi; ++oj) {
                  dst[oj] = src[(oj - lo) * stride];
                }
              }
            }
            std::fill(dst + hi, dst + ow, std::uint8_t{0});
          }
        }
      }
    }
  });
}

}  // namespace

MvmBinding::Scope::Scope(const MvmBinding& binding) : prev_(t_binding) {
  t_binding = &binding;
}

MvmBinding::Scope::~Scope() { t_binding = prev_; }

const MvmBinding* MvmBinding::current() { return t_binding; }

QuantConv2d::QuantConv2d(const Conv2d& src, EngineKind kind, int weight_bits,
                         int act_bits)
    : name_(src.name() + ".q"),
      in_channels_(src.in_channels()),
      out_channels_(src.out_channels()),
      kernel_(src.kernel()),
      stride_(src.stride()),
      pad_(src.pad()),
      patch_(src.in_channels() * src.kernel() * src.kernel()),
      act_bits_(act_bits),
      kind_(kind) {
  // const_cast-free copy: Parameter accessors are non-const, so snapshot
  // through a local mutable reference.
  auto& mutable_src = const_cast<Conv2d&>(src);
  qweight_ = quantize_symmetric(mutable_src.weight().value, weight_bits);
  bias_ = src.has_bias() ? mutable_src.bias().value
                         : Tensor::zeros({out_channels_});
}

QuantConv2d::QuantConv2d(std::string layer_name, int in_channels,
                         int out_channels, int kernel, int stride, int pad,
                         int act_bits, QuantizedTensor qweight, Tensor bias,
                         EngineKind kind, float act_scale)
    : name_(std::move(layer_name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      patch_(0),  // set below, after the geometry is range-checked
      act_bits_(act_bits),
      qweight_(std::move(qweight)),
      bias_(std::move(bias)),
      kind_(kind),
      act_scale_(act_scale) {
  YOLOC_CHECK(in_channels_ > 0 && out_channels_ > 0 && kernel_ > 0 &&
                  stride_ > 0 && pad_ >= 0,
              "quant conv restore: bad geometry");
  // 64-bit guard: a hand-edited artifact must not be able to overflow
  // the int patch product before the shape checks run.
  const long long patch_wide = static_cast<long long>(in_channels_) *
                               kernel_ * kernel_;
  YOLOC_CHECK(patch_wide <= std::numeric_limits<int>::max(),
              "quant conv restore: patch size overflow");
  patch_ = static_cast<int>(patch_wide);
  YOLOC_CHECK(act_bits_ >= 1 && act_bits_ <= 8,
              "quant conv restore: bad act_bits");
  YOLOC_CHECK(qweight_.shape == (std::vector<int>{out_channels_, patch_}),
              "quant conv restore: weight shape mismatch");
  YOLOC_CHECK(qweight_.data.size() ==
                  static_cast<std::size_t>(out_channels_) * patch_,
              "quant conv restore: weight payload mismatch");
  YOLOC_CHECK(qweight_.scale > 0.0f, "quant conv restore: bad weight scale");
  YOLOC_CHECK(bias_.size() == static_cast<std::size_t>(out_channels_),
              "quant conv restore: bias size mismatch");
  YOLOC_CHECK(act_scale_ > 0.0f,
              "quant conv restore: uncalibrated activation scale");
}

Tensor QuantConv2d::forward(const Tensor& input, bool /*train*/) {
  YOLOC_CHECK(input.rank() == 4 && input.shape()[1] == in_channels_,
              "quant conv: bad input");
  const int n = input.shape()[0];
  const int oh = conv_out_extent(input.shape()[2], kernel_, stride_, pad_);
  const int ow = conv_out_extent(input.shape()[3], kernel_, stride_, pad_);

  Tensor out({n, out_channels_, oh, ow});
  const int spatial = oh * ow;

  if (calibrating_) {
    // Record range and compute the float reference with dequantized
    // weights (so calibration sees weight-quantization error too).
    for (std::size_t i = 0; i < input.size(); ++i) {
      observed_max_ = std::max(observed_max_, input[i]);
    }
    Tensor cols = im2col(input, kernel_, kernel_, stride_, pad_);
    const int p = cols.shape()[1];
    Tensor wdeq = dequantize(qweight_);
    Tensor out2d = matmul(wdeq, cols);
    for (int ni = 0; ni < n; ++ni) {
      for (int c = 0; c < out_channels_; ++c) {
        const float* src = out2d.data() +
                           static_cast<std::size_t>(c) * p +
                           static_cast<std::size_t>(ni) * spatial;
        float* dst = out.data() + out.index4(ni, c, 0, 0);
        const float b = bias_[static_cast<std::size_t>(c)];
        for (int s = 0; s < spatial; ++s) dst[s] = src[s] + b;
      }
    }
    return out;
  }

  YOLOC_CHECK(is_calibrated(), "quant conv: deploy before calibration");
  MvmBinding::Slot bound = resolve_engine(kind_, name_);
  MvmScratch* scratch = bound.session.scratch;
  LayerTraceSink* trace = bound.session.trace;
  std::uint64_t t0 = trace != nullptr ? trace_now_ns() : 0;

  // Quantize the input once (clamp negatives to zero: wordline pulses
  // are unsigned), then gather the uint8 patch matrix. The quantizer
  // works element by element and maps 0.0 to code 0, so this equals
  // quantizing the float im2col matrix, padding included.
  quantize_unsigned_with_scale_into(input, act_scale_, act_bits_,
                                    scratch->qinput);
  const int p = n * spatial;
  im2col_u8_into(scratch->qinput.data(), n, in_channels_, input.shape()[2],
                 input.shape()[3], kernel_, stride_, pad_, oh, ow,
                 scratch->qx);
  if (trace != nullptr) {
    const std::uint64_t t1 = trace_now_ns();
    trace->layer_span("im2col", name_.c_str(), kind_, t0, t1);
    t0 = t1;
  }

  scratch->acc.resize(static_cast<std::size_t>(out_channels_) * p);
  bound.engine->mvm_batch(qweight_.data.data(), out_channels_, patch_,
                          scratch->qx.data(), p, scratch->acc.data(),
                          bound.session);
  if (trace != nullptr) {
    trace->layer_span("mvm", name_.c_str(), kind_, t0, trace_now_ns());
  }

  // Fused dequantize-rescale + bias epilogue: one sequential write pass
  // over the output in memory order, source rows resolved by pointer
  // stride instead of per-element index math.
  const float rescale = qweight_.scale * act_scale_;
  const std::int32_t* acc = scratch->acc.data();
  const float* bias = bias_.data();
  float* dst = out.data();
  for (int ni = 0; ni < n; ++ni) {
    const std::size_t image_off = static_cast<std::size_t>(ni) * spatial;
    for (int c = 0; c < out_channels_; ++c) {
      const std::int32_t* src =
          acc + static_cast<std::size_t>(c) * p + image_off;
      const float b = bias[static_cast<std::size_t>(c)];
      for (int s = 0; s < spatial; ++s) {
        dst[s] = rescale * static_cast<float>(src[s]) + b;
      }
      dst += spatial;
    }
  }
  return out;
}

Tensor QuantConv2d::backward(const Tensor& /*grad_output*/) {
  YOLOC_CHECK(false, "quantized layers are inference-only");
  return {};
}

void QuantConv2d::finalize_calibration() {
  calibrating_ = false;
  const float qmax = static_cast<float>(unsigned_qmax(act_bits_));
  act_scale_ = observed_max_ > 0.0f ? observed_max_ / qmax : 1.0f;
}

QuantLinear::QuantLinear(Linear& src, EngineKind kind, int weight_bits,
                         int act_bits)
    : name_(src.name() + ".q"),
      in_features_(src.in_features()),
      out_features_(src.out_features()),
      act_bits_(act_bits),
      kind_(kind) {
  qweight_ = quantize_symmetric(src.weight().value, weight_bits);
  bias_ = src.has_bias() ? src.bias().value : Tensor::zeros({out_features_});
}

QuantLinear::QuantLinear(std::string layer_name, int in_features,
                         int out_features, int act_bits,
                         QuantizedTensor qweight, Tensor bias, EngineKind kind,
                         float act_scale)
    : name_(std::move(layer_name)),
      in_features_(in_features),
      out_features_(out_features),
      act_bits_(act_bits),
      qweight_(std::move(qweight)),
      bias_(std::move(bias)),
      kind_(kind),
      act_scale_(act_scale) {
  YOLOC_CHECK(in_features_ > 0 && out_features_ > 0,
              "quant linear restore: bad geometry");
  YOLOC_CHECK(act_bits_ >= 1 && act_bits_ <= 8,
              "quant linear restore: bad act_bits");
  YOLOC_CHECK(qweight_.shape == (std::vector<int>{out_features_, in_features_}),
              "quant linear restore: weight shape mismatch");
  YOLOC_CHECK(qweight_.data.size() ==
                  static_cast<std::size_t>(out_features_) * in_features_,
              "quant linear restore: weight payload mismatch");
  YOLOC_CHECK(qweight_.scale > 0.0f, "quant linear restore: bad weight scale");
  YOLOC_CHECK(bias_.size() == static_cast<std::size_t>(out_features_),
              "quant linear restore: bias size mismatch");
  YOLOC_CHECK(act_scale_ > 0.0f,
              "quant linear restore: uncalibrated activation scale");
}

Tensor QuantLinear::forward(const Tensor& input, bool /*train*/) {
  YOLOC_CHECK(input.rank() == 2 && input.shape()[1] == in_features_,
              "quant linear: bad input");
  const int batch = input.shape()[0];
  Tensor out({batch, out_features_});

  if (calibrating_) {
    for (std::size_t i = 0; i < input.size(); ++i) {
      observed_max_ = std::max(observed_max_, input[i]);
    }
    Tensor wdeq = dequantize(qweight_);
    Tensor ref = matmul(input, transpose2d(wdeq));
    for (int b = 0; b < batch; ++b) {
      for (int o = 0; o < out_features_; ++o) {
        out.at2(b, o) = ref.at2(b, o) + bias_[static_cast<std::size_t>(o)];
      }
    }
    return out;
  }

  YOLOC_CHECK(act_scale_ > 0.0f, "quant linear: deploy before calibration");
  MvmBinding::Slot bound = resolve_engine(kind_, name_);
  MvmScratch* scratch = bound.session.scratch;
  LayerTraceSink* trace = bound.session.trace;
  const std::uint64_t t0 = trace != nullptr ? trace_now_ns() : 0;

  // X columns = batch entries: engine wants (k x p) with k = features.
  transpose2d_into(input, scratch->xT);
  quantize_unsigned_with_scale_into(scratch->xT, act_scale_, act_bits_,
                                    scratch->qx);
  scratch->acc.resize(static_cast<std::size_t>(out_features_) * batch);
  bound.engine->mvm_batch(qweight_.data.data(), out_features_, in_features_,
                          scratch->qx.data(), batch, scratch->acc.data(),
                          bound.session);
  if (trace != nullptr) {
    trace->layer_span("mvm", name_.c_str(), kind_, t0, trace_now_ns());
  }
  // Fused rescale + bias epilogue over the (out x batch) accumulator:
  // raw-pointer transpose-write instead of per-element at2 index math.
  const float rescale = qweight_.scale * act_scale_;
  const std::int32_t* acc = scratch->acc.data();
  const float* bias = bias_.data();
  float* dst = out.data();  // (batch x out) row-major
  for (int o = 0; o < out_features_; ++o) {
    const std::int32_t* src = acc + static_cast<std::size_t>(o) * batch;
    const float b = bias[static_cast<std::size_t>(o)];
    for (int bi = 0; bi < batch; ++bi) {
      dst[static_cast<std::size_t>(bi) * out_features_ + o] =
          rescale * static_cast<float>(src[bi]) + b;
    }
  }
  return out;
}

Tensor QuantLinear::backward(const Tensor& /*grad_output*/) {
  YOLOC_CHECK(false, "quantized layers are inference-only");
  return {};
}

void QuantLinear::finalize_calibration() {
  calibrating_ = false;
  const float qmax = static_cast<float>(unsigned_qmax(act_bits_));
  act_scale_ = observed_max_ > 0.0f ? observed_max_ / qmax : 1.0f;
}

namespace {

void fold_batchnorm_into_conv(Conv2d& conv, BatchNorm2d& bn) {
  YOLOC_CHECK(conv.out_channels() == bn.channels(),
              "bn fold: channel mismatch");
  Tensor& w = conv.weight().value;
  const int out_ch = conv.out_channels();
  const int patch = w.shape()[1];
  conv.set_bias_enabled(true);
  Tensor& b = conv.bias().value;
  for (int o = 0; o < out_ch; ++o) {
    const std::size_t oi = static_cast<std::size_t>(o);
    const float g = bn.gamma().value[oi];
    const float mu = bn.running_mean()[oi];
    const float var = bn.running_var()[oi];
    const float beta = bn.beta().value[oi];
    const float scale = g / std::sqrt(var + bn.eps());
    float* wrow = w.data() + oi * static_cast<std::size_t>(patch);
    for (int kk = 0; kk < patch; ++kk) wrow[kk] *= scale;
    b[oi] = (b[oi] - mu) * scale + beta;
  }
}

int fold_batchnorm_rec(Layer& layer) {
  int folds = 0;
  if (auto* seq = dynamic_cast<Sequential*>(&layer)) {
    // Fold pairs first, then recurse into what remains.
    for (std::size_t i = 0; i + 1 < seq->size();) {
      auto* conv = dynamic_cast<Conv2d*>(&seq->at(i));
      auto* bn = dynamic_cast<BatchNorm2d*>(&seq->at(i + 1));
      if (conv != nullptr && bn != nullptr) {
        fold_batchnorm_into_conv(*conv, *bn);
        seq->remove(i + 1);
        ++folds;
      } else {
        ++i;
      }
    }
  }
  for (Layer* child : layer.children()) folds += fold_batchnorm_rec(*child);
  return folds;
}

template <typename Fn>
void for_each_quant_layer(Layer& layer, Fn&& fn) {
  if (auto* qc = dynamic_cast<QuantConv2d*>(&layer)) fn(qc, nullptr);
  if (auto* ql = dynamic_cast<QuantLinear*>(&layer)) fn(nullptr, ql);
  for (Layer* child : layer.children()) {
    for_each_quant_layer(*child, fn);
  }
}

}  // namespace

int fold_batchnorm(Layer& root) { return fold_batchnorm_rec(root); }

void for_each_quantized_layer(
    Layer& root, const std::function<void(QuantConv2d*, QuantLinear*)>& fn) {
  for_each_quant_layer(root, fn);
}

void calibrate_quantized(Layer& root, const Tensor& images) {
  for_each_quant_layer(root, [](QuantConv2d* qc, QuantLinear* ql) {
    if (qc != nullptr) qc->set_calibration_mode(true);
    if (ql != nullptr) ql->set_calibration_mode(true);
  });
  (void)root.forward(images, /*train=*/false);
  for_each_quant_layer(root, [](QuantConv2d* qc, QuantLinear* ql) {
    if (qc != nullptr) qc->finalize_calibration();
    if (ql != nullptr) ql->finalize_calibration();
  });
}

int count_quantized_layers(Layer& root) {
  int count = 0;
  for_each_quant_layer(root, [&count](QuantConv2d* qc, QuantLinear* ql) {
    if (qc != nullptr || ql != nullptr) ++count;
  });
  return count;
}

bool quantized_layers_calibrated(Layer& root) {
  bool ok = true;
  for_each_quant_layer(root, [&ok](QuantConv2d* qc, QuantLinear* ql) {
    if (qc != nullptr && !qc->is_calibrated()) ok = false;
    if (ql != nullptr && !ql->is_calibrated()) ok = false;
  });
  return ok;
}

}  // namespace yoloc

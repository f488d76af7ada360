// Network lowering tests: BatchNorm folding exactness, int8 quantized
// inference fidelity against the float reference (an exact-cost
// DeploymentPlan served through an ExecutionContext), the calibration
// workflow, and the one way a quantized layer finds its engine: the
// MvmBinding slot of its EngineKind.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/int_gemm.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/container.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/quantize.hpp"
#include "runtime/deployment_plan.hpp"
#include "runtime/execution_context.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"

namespace yoloc {
namespace {

LayerPtr small_convnet(Rng& rng, bool with_bn) {
  auto net = std::make_unique<Sequential>("net");
  net->add(std::make_unique<Conv2d>(2, 4, 3, 1, 1, !with_bn, rng, "c1"));
  if (with_bn) net->add(std::make_unique<BatchNorm2d>(4, 1e-5f, 0.1f, "bn1"));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<Conv2d>(4, 4, 3, 1, 1, !with_bn, rng, "c2"));
  if (with_bn) net->add(std::make_unique<BatchNorm2d>(4, 1e-5f, 0.1f, "bn2"));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Linear>(4, 3, true, rng, "fc"));
  return net;
}

/// Exact integer MVM for layer-level tests: the view read element by
/// element into a dense matrix, then y = w * x through the plain GEMM
/// body, no cost model and no session state.
class TestExactEngine final : public MvmEngine {
 public:
  void mvm_batch(const std::int8_t* w, int m, int k, const ActView& x, int p,
                 std::int32_t* y, MvmSession& /*session*/) const override {
    std::vector<std::uint8_t> dense(static_cast<std::size_t>(k) * p);
    for (int i = 0; i < k; ++i) {
      for (int c = 0; c < p; ++c) {
        dense[static_cast<std::size_t>(i) * p + c] = x.at(i, c);
      }
    }
    std::fill(y, y + static_cast<std::size_t>(m) * p, 0);
    gemm_s8u8_accumulate(w, static_cast<std::size_t>(k), m, k, dense.data(),
                         static_cast<std::size_t>(p), p, y,
                         static_cast<std::size_t>(p));
  }
  [[nodiscard]] std::string name() const override { return "test-exact"; }
};

/// A binding that routes both engine kinds to `engine`, staging through
/// `scratch`.
MvmBinding bind_both(const MvmEngine& engine, MvmScratch* scratch) {
  MvmBinding binding;
  binding.slot(EngineKind::kRom) = {&engine, {nullptr, nullptr, scratch}};
  binding.slot(EngineKind::kSram) = {&engine, {nullptr, nullptr, scratch}};
  return binding;
}

/// Lower `net` into an exact-cost plan calibrated on `calib`.
std::unique_ptr<DeploymentPlan> exact_cost_plan(LayerPtr net,
                                                const Tensor& calib) {
  DeploymentOptions options;
  options.mode = MacroMvmEngine::Mode::kExactCost;
  return std::make_unique<DeploymentPlan>(std::move(net), calib,
                                          std::move(options));
}

/// The message of the std::runtime_error `fn` throws ("" if none).
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(BnFold, EvalOutputUnchanged) {
  Rng rng(1);
  LayerPtr net = small_convnet(rng, /*with_bn=*/true);
  // Push a few training batches through so running stats are non-trivial.
  Tensor warm = Tensor::randn({8, 2, 6, 6}, rng);
  for (int i = 0; i < 5; ++i) (void)net->forward(warm, /*train=*/true);

  Tensor x = Tensor::randn({4, 2, 6, 6}, rng);
  Tensor before = net->forward(x, /*train=*/false);
  const int folds = fold_batchnorm(*net);
  EXPECT_EQ(folds, 2);
  Tensor after = net->forward(x, /*train=*/false);
  EXPECT_LT(max_abs_diff(before, after), 1e-4f);
}

TEST(BnFold, RemovesBnLayers) {
  Rng rng(2);
  LayerPtr net = small_convnet(rng, /*with_bn=*/true);
  auto* seq = dynamic_cast<Sequential*>(net.get());
  const std::size_t size_before = seq->size();
  fold_batchnorm(*net);
  EXPECT_EQ(seq->size(), size_before - 2);
}

TEST(BnFold, NoOpWithoutBn) {
  Rng rng(3);
  LayerPtr net = small_convnet(rng, /*with_bn=*/false);
  EXPECT_EQ(fold_batchnorm(*net), 0);
}

TEST(DeployLowering, ReplacesConvAndLinear) {
  Rng rng(4);
  LayerPtr net = small_convnet(rng, /*with_bn=*/false);
  const Tensor calib = Tensor::rand_uniform({2, 2, 6, 6}, rng, 0.0f, 1.0f);
  auto plan = exact_cost_plan(std::move(net), calib);
  EXPECT_EQ(plan->quantized_layer_count(), 3);  // two convs + one linear
}

TEST(DeployLowering, QuantizedCloseToFloatReference) {
  Rng rng(6);
  LayerPtr net = small_convnet(rng, /*with_bn=*/true);
  Tensor warm = Tensor::rand_uniform({8, 2, 6, 6}, rng, 0.0f, 1.0f);
  for (int i = 0; i < 5; ++i) (void)net->forward(warm, true);

  Tensor x = Tensor::rand_uniform({4, 2, 6, 6}, rng, 0.0f, 1.0f);
  Tensor reference = net->forward(x, false);

  auto plan = exact_cost_plan(std::move(net), warm);
  ExecutionContext ctx(*plan);
  Tensor quantized = ctx.infer(x);

  // int8 weights + uint8 activations: a few percent of the output range.
  const float ref_range = reference.max_abs();
  EXPECT_LT(max_abs_diff(reference, quantized), 0.08f * ref_range + 0.05f);
}

TEST(DeployLowering, ArgmaxAgreementOnRandomInputs) {
  Rng rng(7);
  LayerPtr net = small_convnet(rng, /*with_bn=*/true);
  Tensor warm = Tensor::rand_uniform({16, 2, 6, 6}, rng, 0.0f, 1.0f);
  for (int i = 0; i < 5; ++i) (void)net->forward(warm, true);

  Tensor x = Tensor::rand_uniform({32, 2, 6, 6}, rng, 0.0f, 1.0f);
  const auto ref_pred = argmax_rows(net->forward(x, false));

  auto plan = exact_cost_plan(std::move(net), warm);
  ExecutionContext ctx(*plan);
  const auto q_pred = argmax_rows(ctx.infer(x));

  int agree = 0;
  for (std::size_t i = 0; i < ref_pred.size(); ++i) {
    if (ref_pred[i] == q_pred[i]) ++agree;
  }
  EXPECT_GE(agree, 29);  // >= ~90% agreement
}

TEST(QuantLayers, DeployBeforeCalibrationThrows) {
  Rng rng(5);
  Conv2d conv(2, 4, 3, 1, 1, true, rng, "c");
  Linear lin(4, 3, true, rng, "fc");
  QuantConv2d qconv(conv, EngineKind::kRom);
  QuantLinear qlin(lin, EngineKind::kSram);
  const TestExactEngine engine;
  MvmScratch scratch;
  const MvmBinding binding = bind_both(engine, &scratch);
  MvmBinding::Scope scope(binding);
  const Tensor xc = Tensor::rand_uniform({1, 2, 6, 6}, rng, 0.0f, 1.0f);
  const Tensor xl = Tensor::rand_uniform({1, 4}, rng, 0.0f, 1.0f);
  // Bound, so the missing calibration is the only fault.
  const std::string conv_msg =
      thrown_message([&] { (void)qconv.forward(xc, false); });
  const std::string lin_msg =
      thrown_message([&] { (void)qlin.forward(xl, false); });
  EXPECT_NE(conv_msg.find("before calibration"), std::string::npos)
      << conv_msg;
  EXPECT_NE(lin_msg.find("before calibration"), std::string::npos) << lin_msg;
}

TEST(QuantLayers, BackwardThrows) {
  Rng rng(8);
  Conv2d conv(1, 1, 1, 1, 0, false, rng, "c");
  QuantConv2d qconv(conv, EngineKind::kRom);
  Tensor g({1, 1, 2, 2});
  EXPECT_THROW(qconv.backward(g), std::runtime_error);
}

TEST(QuantLayers, CalibrationRecordsScale) {
  Rng rng(9);
  Conv2d conv(1, 2, 3, 1, 1, false, rng, "c");
  QuantConv2d qconv(conv, EngineKind::kRom);
  EXPECT_FALSE(qconv.is_calibrated());
  qconv.set_calibration_mode(true);
  Tensor x = Tensor::rand_uniform({2, 1, 4, 4}, rng, 0.0f, 2.0f);
  (void)qconv.forward(x, false);
  qconv.finalize_calibration();
  EXPECT_TRUE(qconv.is_calibrated());
  // Scale ~ max/255 with max close to 2.
  EXPECT_NEAR(qconv.act_scale(), 2.0f / 255.0f, 0.5f / 255.0f);
}

/// Test-side oracle of QuantConv2d's deploy forward: the float im2col
/// matrix, quantized element by element with std::lround, an integer
/// GEMM, then the layer's rescale + bias epilogue.
Tensor oracle_quant_conv(const QuantConv2d& q, const Tensor& input) {
  const int n = input.shape()[0];
  const Tensor cols =
      im2col(input, q.kernel(), q.kernel(), q.stride(), q.pad());
  const int patch = cols.shape()[0];
  const int p = cols.shape()[1];
  const int qmax = unsigned_qmax(q.act_bits());
  const float inv = 1.0f / q.act_scale();
  std::vector<std::uint8_t> qx(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const int v = static_cast<int>(std::lround(std::max(0.0f, cols[i]) * inv));
    qx[i] = static_cast<std::uint8_t>(std::clamp(v, 0, qmax));
  }
  const int m = q.out_channels();
  std::vector<std::int32_t> acc(static_cast<std::size_t>(m) * p, 0);
  for (int o = 0; o < m; ++o) {
    for (int i = 0; i < patch; ++i) {
      const std::int32_t wv =
          q.weights().data[static_cast<std::size_t>(o) * patch + i];
      for (int c = 0; c < p; ++c) {
        acc[static_cast<std::size_t>(o) * p + c] +=
            wv * qx[static_cast<std::size_t>(i) * p + c];
      }
    }
  }
  const int spatial = p / n;
  const int oh = conv_out_extent(input.shape()[2], q.kernel(), q.stride(),
                                 q.pad());
  const int ow = spatial / oh;
  Tensor out({n, m, oh, ow});
  const float rescale = q.weights().scale * q.act_scale();
  for (int ni = 0; ni < n; ++ni) {
    for (int o = 0; o < m; ++o) {
      for (int s = 0; s < spatial; ++s) {
        out[(static_cast<std::size_t>(ni) * m + o) * spatial + s] =
            rescale * static_cast<float>(
                          acc[static_cast<std::size_t>(o) * p +
                              static_cast<std::size_t>(ni) * spatial + s]) +
            q.bias()[static_cast<std::size_t>(o)];
      }
    }
  }
  return out;
}

/// A conv of the given geometry, calibrated on inputs in [0, 2).
std::unique_ptr<QuantConv2d> calibrated_conv(int in_ch, int out_ch, int kernel,
                                             int stride, int pad, int n, int h,
                                             int w, Rng& rng) {
  Conv2d conv(in_ch, out_ch, kernel, stride, pad, true, rng, "c");
  auto qconv = std::make_unique<QuantConv2d>(conv, EngineKind::kRom);
  qconv->set_calibration_mode(true);
  (void)qconv->forward(
      Tensor::rand_uniform({n, in_ch, h, w}, rng, 0.0f, 2.0f), false);
  qconv->finalize_calibration();
  return qconv;
}

/// Deploy-forwards `qconv` through `binding` on an input wider than its
/// calibration range (negatives clamp to 0, values past the range
/// saturate) and expects the oracle's output bit for bit.
void expect_conv_matches_oracle(QuantConv2d& qconv, const MvmBinding& binding,
                                int n, int h, int w, Rng& rng) {
  const Tensor x =
      Tensor::rand_uniform({n, qconv.in_channels(), h, w}, rng, -1.0f, 3.0f);
  Tensor got;
  {
    MvmBinding::Scope scope(binding);
    got = qconv.forward(x, false);
  }
  const Tensor want = oracle_quant_conv(qconv, x);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "element " << i;
  }
}

TEST(QuantLayers, ConvDeployMatchesFloatIm2colOracle) {
  // The deploy path quantizes the input into a zero-padded map and reads
  // its patches through the implicit-im2col view; it must equal
  // quantizing the float patch matrix, bit for bit, padding and
  // saturation included, across kernel/stride/pad/batch geometries on
  // odd spatial sizes.
  const TestExactEngine engine;
  MvmScratch scratch;
  const MvmBinding binding = bind_both(engine, &scratch);
  struct Spatial {
    int h;
    int w;
  };
  int cases = 0;
  for (const int kernel : {1, 3}) {
    for (const int stride : {1, 2}) {
      for (const int pad : {0, 1}) {
        for (const int n : {1, 3}) {
          for (const Spatial hw : {Spatial{7, 9}, Spatial{5, 3}}) {
            SCOPED_TRACE(::testing::Message()
                         << "kernel " << kernel << " stride " << stride
                         << " pad " << pad << " n " << n << " " << hw.h
                         << "x" << hw.w);
            Rng rng(static_cast<std::uint64_t>(1000 + cases++));
            auto qconv = calibrated_conv(3, 4, kernel, stride, pad, n, hw.h,
                                         hw.w, rng);
            expect_conv_matches_oracle(*qconv, binding, n, hw.h, hw.w, rng);
          }
        }
      }
    }
  }

  // A large unpadded conv fills the shared scratch map with codes, then
  // a small padded one reuses it: every border byte of the small map must
  // be zeroed again, or its edge outputs read stale codes.
  Rng rng(999);
  auto large = calibrated_conv(8, 4, 3, 1, 0, 3, 20, 20, rng);
  auto small = calibrated_conv(3, 4, 3, 1, 1, 2, 4, 5, rng);
  expect_conv_matches_oracle(*large, binding, 3, 20, 20, rng);
  expect_conv_matches_oracle(*small, binding, 2, 4, 5, rng);
}

/// A calibrated conv and linear pair, each tagged with its own kind.
struct CalibratedPair {
  explicit CalibratedPair(Rng& rng)
      : conv(2, 4, 3, 1, 1, true, rng, "c"),
        lin(4, 3, true, rng, "fc"),
        qconv(conv, EngineKind::kRom),
        qlin(lin, EngineKind::kSram) {
    qconv.set_calibration_mode(true);
    (void)qconv.forward(Tensor::rand_uniform({2, 2, 6, 6}, rng, 0.0f, 1.0f),
                        false);
    qconv.finalize_calibration();
    qlin.set_calibration_mode(true);
    (void)qlin.forward(Tensor::rand_uniform({2, 4}, rng, 0.0f, 1.0f), false);
    qlin.finalize_calibration();
  }

  Conv2d conv;
  Linear lin;
  QuantConv2d qconv;
  QuantLinear qlin;
};

TEST(EngineLookup, UnboundForwardThrowsNamingExecutionContext) {
  Rng rng(21);
  CalibratedPair pair(rng);
  const Tensor xc = Tensor::rand_uniform({1, 2, 6, 6}, rng, 0.0f, 1.0f);
  const Tensor xl = Tensor::rand_uniform({1, 4}, rng, 0.0f, 1.0f);
  const std::string conv_msg =
      thrown_message([&] { (void)pair.qconv.forward(xc, false); });
  const std::string lin_msg =
      thrown_message([&] { (void)pair.qlin.forward(xl, false); });
  EXPECT_NE(conv_msg.find("ExecutionContext"), std::string::npos) << conv_msg;
  EXPECT_NE(conv_msg.find("c.q"), std::string::npos) << conv_msg;
  EXPECT_NE(lin_msg.find("ExecutionContext"), std::string::npos) << lin_msg;
  EXPECT_NE(lin_msg.find("fc.q"), std::string::npos) << lin_msg;

  // Bound, the same layers run.
  const TestExactEngine engine;
  MvmScratch scratch;
  const MvmBinding binding = bind_both(engine, &scratch);
  MvmBinding::Scope scope(binding);
  EXPECT_NO_THROW((void)pair.qconv.forward(xc, false));
  EXPECT_NO_THROW((void)pair.qlin.forward(xl, false));
}

TEST(EngineLookup, SlotWithoutScratchOrEngineThrows) {
  Rng rng(22);
  CalibratedPair pair(rng);
  const Tensor xc = Tensor::rand_uniform({1, 2, 6, 6}, rng, 0.0f, 1.0f);
  const Tensor xl = Tensor::rand_uniform({1, 4}, rng, 0.0f, 1.0f);
  const TestExactEngine engine;

  // Both slots bound to an engine, neither with a scratch arena.
  {
    const MvmBinding binding = bind_both(engine, nullptr);
    MvmBinding::Scope scope(binding);
    const std::string conv_msg =
        thrown_message([&] { (void)pair.qconv.forward(xc, false); });
    const std::string lin_msg =
        thrown_message([&] { (void)pair.qlin.forward(xl, false); });
    EXPECT_NE(conv_msg.find("scratch"), std::string::npos) << conv_msg;
    EXPECT_NE(lin_msg.find("scratch"), std::string::npos) << lin_msg;
  }

  // Only the ROM slot bound: the SRAM-tagged linear finds no engine and
  // does not borrow the other kind's.
  {
    MvmScratch scratch;
    MvmBinding binding;
    binding.slot(EngineKind::kRom) = {&engine, {nullptr, nullptr, &scratch}};
    MvmBinding::Scope scope(binding);
    EXPECT_NO_THROW((void)pair.qconv.forward(xc, false));
    const std::string lin_msg =
        thrown_message([&] { (void)pair.qlin.forward(xl, false); });
    EXPECT_NE(lin_msg.find("ExecutionContext"), std::string::npos) << lin_msg;
  }
}

}  // namespace
}  // namespace yoloc

#pragma once
// Lowering a trained float network onto the integer CiM datapath.
//
// Pipeline (mirrors the paper's deployment flow, Sec. 3.3; driven by
// DeploymentPlan in src/runtime/):
//   1. fold_batchnorm()       - BN folded into the preceding conv, because
//                               the macro executes a plain integer MVM.
//   2. lowering               - every Conv2d/Linear replaced by a
//                               QuantConv2d/QuantLinear holding int8
//                               weights and the EngineKind of its home:
//                               ROM, or the SRAM residual branch.
//   3. calibrate + finalize   - one forward pass over a calibration batch
//                               records per-layer activation ranges (pure
//                               float math, no engine involved).
//   4. Deploy mode            - forward() routes every MVM through the
//                               MvmEngine bound to the layer's EngineKind
//                               (the macro-backed engine that models the
//                               analog bitline + ADC, or its exact-cost
//                               mode).
//
// Execution model: engines are immutable and reentrant. All mutable
// per-request state (the keyed analog-noise state, run statistics, scratch
// buffers) travels in an MvmSession supplied by the caller. A quantized
// layer finds its engine and session in exactly one place: the slot for
// its EngineKind in the thread-local MvmBinding that the runtime's
// ExecutionContext installs for the duration of a forward pass — which is
// what lets many requests share one lowered network concurrently. A
// deploy-mode forward outside such a binding is an error.
//
// Activation convention: unsigned 8-bit, zero point 0 (wordline pulses
// encode non-negative amplitudes). Negative layer inputs clamp to zero,
// so quantized layers must follow ReLU-family activations — the trainable
// "-lite" networks use plain ReLU for this reason.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/act_view.hpp"
#include "common/keyed_noise.hpp"
#include "common/rng.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "tensor/quant.hpp"

namespace yoloc {

struct MacroRunStats;  // macro/cim_macro.hpp — sessions only hold a pointer

/// Reusable buffers for the deploy-time hot loop. Owned by the caller
/// (one per concurrent request); every field is resized on first use and
/// reused afterwards so the per-layer inner loop stops allocating.
struct MvmScratch {
  // The quantized layer input the engine reads through an ActView: a
  // conv's zero-padded NCHW map (n x C x (H+2pad) x (W+2pad)), or a
  // linear layer's (batch x features) rows.
  std::vector<std::uint8_t> qinput;
  // The view's offset tables (common/act_view.hpp): k rows, p columns.
  std::vector<std::size_t> row_off;
  std::vector<std::size_t> col_off;
  std::vector<std::int32_t> acc;  // int32 MVM accumulator
  // Packed analog MVM: one column's row-tile of activations and its m
  // partial sums.
  std::vector<std::uint8_t> x_chunk;
  std::vector<std::int32_t> y_partial;
};

class LayerTraceSink;  // defined below, after EngineKind

/// Mutable per-request state threaded through an engine call. Engines that
/// model analog noise require `noise` (its seed keys every draw, and each
/// call advances its call count), and engines that meter activity
/// require `stats`; `scratch` is always required (quantized layers stage
/// their activations and accumulator in it). `trace` is an optional
/// observer for per-layer span timing — null (the default) costs the hot
/// loop nothing.
struct MvmSession {
  AnalogNoise* noise = nullptr;
  MacroRunStats* stats = nullptr;
  MvmScratch* scratch = nullptr;
  LayerTraceSink* trace = nullptr;
};

/// Which engine a lowered layer executes on. Deployment assigns kRom/kSram
/// per the parameter residency flags. The values are the on-disk
/// residency tags of a .yolocplan (runtime/plan_serde.*).
enum class EngineKind { kRom = 1, kSram = 2 };

/// Observer for per-layer deploy-time execution phases, implemented by
/// the serving tracer (src/serve/trace.*). Quantized layers invoke it
/// only when their session carries one, so the untraced hot path pays a
/// single null check per phase. `phase` is a static string from the
/// span taxonomy ("im2col" / "mvm"); `layer` points at the layer's own
/// stable name storage (valid for the plan's lifetime); timestamps are
/// nanoseconds on the shared trace clock (common/trace_clock.hpp).
class LayerTraceSink {
 public:
  virtual ~LayerTraceSink() = default;
  virtual void layer_span(const char* phase, const char* layer,
                          EngineKind engine, std::uint64_t start_ns,
                          std::uint64_t end_ns) = 0;
};

/// Integer matrix-vector-multiply backend. Implementations are immutable
/// and safe to share across threads; per-call state lives in the session.
class MvmEngine {
 public:
  virtual ~MvmEngine() = default;
  /// Y (m x p, int32, row-major) = W (m x k, int8, row-major) * X, where
  /// X is the k x p uint8 view `x` (common/act_view.hpp): element (i, c)
  /// is x.at(i, c). A quantized conv passes its padded input map with
  /// the offsets of its implicit im2col, so engines gather patches as
  /// they read them; a dense matrix goes through DenseActView.
  /// Implementations may model analog non-idealities, in which case Y
  /// approximates the exact product.
  virtual void mvm_batch(const std::int8_t* w, int m, int k,
                         const ActView& x, int p, std::int32_t* y,
                         MvmSession& session) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Thread-local execution binding: maps EngineKind -> (engine, session)
/// for the duration of a deployed forward pass. Installed via the RAII
/// Scope by whoever drives execution (the runtime's ExecutionContext);
/// quantized layers look their engine up here first and fall back to
/// their direct binding when no scope is active.
class MvmBinding {
 public:
  struct Slot {
    const MvmEngine* engine = nullptr;
    MvmSession session;
  };

  Slot& slot(EngineKind kind) { return slots_[index(kind)]; }
  [[nodiscard]] const Slot& slot(EngineKind kind) const {
    return slots_[index(kind)];
  }

  /// Installs `binding` as this thread's active binding; restores the
  /// previous one (supporting nesting) on destruction.
  class Scope {
   public:
    explicit Scope(const MvmBinding& binding);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const MvmBinding* prev_;
  };

  [[nodiscard]] static const MvmBinding* current();

 private:
  static std::size_t index(EngineKind kind) {
    return static_cast<std::size_t>(kind) - 1;
  }

  std::array<Slot, 2> slots_{};
};

/// Inference-only quantized convolution. See file comment for the modes.
class QuantConv2d final : public Layer {
 public:
  /// Snapshot the float conv's geometry and weights; the engine is
  /// resolved per forward pass from the thread-local MvmBinding slot for
  /// `kind`.
  QuantConv2d(const Conv2d& src, EngineKind kind, int weight_bits = 8,
              int act_bits = 8);
  /// Deserialization: rebuild an already-lowered, already-calibrated layer
  /// from a saved plan image (src/runtime/plan_serde.*). `qweight` must be
  /// (out_channels x in_channels*kernel*kernel), `bias` (out_channels),
  /// `act_scale` a finalized calibration scale (> 0).
  QuantConv2d(std::string layer_name, int in_channels, int out_channels,
              int kernel, int stride, int pad, int act_bits,
              QuantizedTensor qweight, Tensor bias, EngineKind kind,
              float act_scale);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;  // throws
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] LayerKind kind() const override {
    return LayerKind::kQuantConv2d;
  }

  void set_calibration_mode(bool on) { calibrating_ = on; }
  /// Convert the recorded input range into the deployed activation scale.
  void finalize_calibration();
  [[nodiscard]] bool is_calibrated() const { return act_scale_ > 0.0f; }
  [[nodiscard]] float act_scale() const { return act_scale_; }
  [[nodiscard]] const QuantizedTensor& weights() const { return qweight_; }
  [[nodiscard]] const Tensor& bias() const { return bias_; }
  [[nodiscard]] int in_channels() const { return in_channels_; }
  [[nodiscard]] int out_channels() const { return out_channels_; }
  [[nodiscard]] int kernel() const { return kernel_; }
  [[nodiscard]] int stride() const { return stride_; }
  [[nodiscard]] int pad() const { return pad_; }
  [[nodiscard]] int act_bits() const { return act_bits_; }
  [[nodiscard]] int patch_size() const { return patch_; }
  [[nodiscard]] EngineKind engine_kind() const { return kind_; }

 private:
  std::string name_;
  int in_channels_;
  int out_channels_;
  int kernel_;
  int stride_;
  int pad_;
  int patch_;  // in_ch * k * k
  int act_bits_;
  QuantizedTensor qweight_;  // (out_ch x patch)
  Tensor bias_;              // (out_ch), float
  EngineKind kind_;
  bool calibrating_ = false;
  float observed_max_ = 0.0f;
  float act_scale_ = -1.0f;
};

/// Inference-only quantized fully-connected layer.
class QuantLinear final : public Layer {
 public:
  QuantLinear(Linear& src, EngineKind kind, int weight_bits = 8,
              int act_bits = 8);
  /// Deserialization counterpart of the QuantConv2d restore constructor:
  /// `qweight` must be (out_features x in_features), `bias`
  /// (out_features), `act_scale` finalized (> 0).
  QuantLinear(std::string layer_name, int in_features, int out_features,
              int act_bits, QuantizedTensor qweight, Tensor bias,
              EngineKind kind, float act_scale);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;  // throws
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] LayerKind kind() const override {
    return LayerKind::kQuantLinear;
  }

  void set_calibration_mode(bool on) { calibrating_ = on; }
  void finalize_calibration();
  [[nodiscard]] bool is_calibrated() const { return act_scale_ > 0.0f; }
  [[nodiscard]] float act_scale() const { return act_scale_; }
  [[nodiscard]] const QuantizedTensor& weights() const { return qweight_; }
  [[nodiscard]] const Tensor& bias() const { return bias_; }
  [[nodiscard]] int in_features() const { return in_features_; }
  [[nodiscard]] int out_features() const { return out_features_; }
  [[nodiscard]] int act_bits() const { return act_bits_; }
  [[nodiscard]] EngineKind engine_kind() const { return kind_; }

 private:
  std::string name_;
  int in_features_;
  int out_features_;
  int act_bits_;
  QuantizedTensor qweight_;  // (out x in)
  Tensor bias_;
  EngineKind kind_;
  bool calibrating_ = false;
  float observed_max_ = 0.0f;
  float act_scale_ = -1.0f;
};

/// Fold every (Conv2d, BatchNorm2d) adjacent pair inside Sequential
/// containers (recursively). Returns the number of folds performed.
int fold_batchnorm(Layer& root);

/// Run `images` through the network in calibration mode, then finalize
/// all activation scales.
void calibrate_quantized(Layer& root, const Tensor& images);

/// Invoke `fn` for every QuantConv2d / QuantLinear reachable from root
/// (root included); exactly one of the two pointers is non-null per
/// call. Used by the deployment runtime to walk lowered graphs (e.g. to
/// pre-pack every layer's ROM weight bit-planes at deploy time).
void for_each_quantized_layer(
    Layer& root, const std::function<void(QuantConv2d*, QuantLinear*)>& fn);

/// Number of QuantConv2d / QuantLinear layers reachable from root
/// (root included). Used by the deployment-plan loader as an integrity
/// check against the count recorded in a serialized plan.
int count_quantized_layers(Layer& root);

/// True when every reachable quantized layer holds a finalized
/// activation scale (act_scale > 0), i.e. the graph is servable without
/// re-running calibration.
bool quantized_layers_calibrated(Layer& root);

}  // namespace yoloc

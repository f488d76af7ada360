#include "runtime/deployment_plan.hpp"

#include "common/check.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "runtime/execution_context.hpp"

namespace yoloc {

namespace {

/// Options pass through here on the way into the member initializer
/// list, so both constructors validate before any engine is built.
DeploymentOptions validated(DeploymentOptions options) {
  options.validate();
  return options;
}

}  // namespace

DeploymentOptions::DeploymentOptions()
    : rom_macro(default_rom_macro()), sram_macro(default_sram_macro()) {}

void DeploymentOptions::validate() const {
  rom_macro.validate();
  sram_macro.validate();
  YOLOC_CHECK(rom_macro.kind == MacroKind::kRom,
              "deployment options: rom_macro must be a ROM macro");
  YOLOC_CHECK(sram_macro.kind == MacroKind::kSram,
              "deployment options: sram_macro must be an SRAM macro");
  YOLOC_CHECK(weight_bits >= 2 && weight_bits <= 8,
              "deployment options: weight_bits out of [2, 8]");
  YOLOC_CHECK(act_bits >= 1 && act_bits <= 8,
              "deployment options: act_bits out of [1, 8]");
}

DeploymentPlan::DeploymentPlan(LayerPtr trained_model,
                               const Tensor& calibration_images,
                               DeploymentOptions options)
    : options_(validated(std::move(options))),
      rom_macro_(options_.rom_macro),
      sram_macro_(options_.sram_macro),
      rom_engine_(rom_macro_, options_.mode),
      sram_engine_(sram_macro_, options_.mode),
      model_(std::move(trained_model)) {
  YOLOC_CHECK(model_ != nullptr, "deployment plan: null model");
  fold_batchnorm(*model_);
  quantized_layers_ = lower_network(*model_);
  YOLOC_CHECK(quantized_layers_ > 0, "deployment plan: nothing to quantize");
  // Calibration is pure float math (dequantized-weight reference), so it
  // runs without any engine binding and accrues no macro activity.
  calibrate_quantized(*model_, calibration_images);
  prepack_weights();
}

DeploymentPlan::DeploymentPlan(LoweredPlanImage image,
                               DeploymentOptions options)
    : options_(validated(std::move(options))),
      rom_macro_(options_.rom_macro),
      sram_macro_(options_.sram_macro),
      rom_engine_(rom_macro_, options_.mode),
      sram_engine_(sram_macro_, options_.mode),
      model_(std::move(image.model)) {
  YOLOC_CHECK(model_ != nullptr, "plan image: null model");
  quantized_layers_ = count_quantized_layers(*model_);
  YOLOC_CHECK(quantized_layers_ > 0, "plan image: no quantized layers");
  YOLOC_CHECK(quantized_layers_ == image.quantized_layers,
              "plan image: quantized layer count mismatch");
  YOLOC_CHECK(quantized_layers_calibrated(*model_),
              "plan image: uncalibrated quantized layer");
  // Packing is derived state: a cold-loaded plan rebuilds it here rather
  // than reading it from the artifact (plan-format.md).
  prepack_weights();
}

void DeploymentPlan::prepack_weights() {
  for_each_quantized_layer(*model_, [this](QuantConv2d* qc, QuantLinear* ql) {
    const QuantizedTensor& qw = qc != nullptr ? qc->weights() : ql->weights();
    const EngineKind kind =
        qc != nullptr ? qc->engine_kind() : ql->engine_kind();
    YOLOC_CHECK(qw.shape.size() == 2, "prepack: quant weight must be 2-D");
    const int m = qw.shape[0];
    const int k = qw.shape[1];
    MacroMvmEngine& engine =
        kind == EngineKind::kSram ? sram_engine_ : rom_engine_;
    (void)engine.pack(qw.data.data(), m, k);
  });
  pack_ms_ = rom_engine_.packed().total_pack_ms() +
             sram_engine_.packed().total_pack_ms();
}

std::size_t DeploymentPlan::packed_weight_bytes() const {
  return rom_engine_.packed().packed_bytes() +
         sram_engine_.packed().packed_bytes();
}

int DeploymentPlan::lower_network(Layer& node) {
  int replaced = 0;
  const auto children = node.children();
  for (std::size_t i = 0; i < children.size(); ++i) {
    Layer* child = children[i];
    if (auto* conv = dynamic_cast<Conv2d*>(child)) {
      const EngineKind kind = conv->weight().rom_resident ? EngineKind::kRom
                                                          : EngineKind::kSram;
      node.replace_child(i, std::make_unique<QuantConv2d>(
                                *conv, kind, options_.weight_bits,
                                options_.act_bits));
      ++replaced;
    } else if (auto* lin = dynamic_cast<Linear*>(child)) {
      const EngineKind kind = lin->weight().rom_resident ? EngineKind::kRom
                                                         : EngineKind::kSram;
      node.replace_child(i, std::make_unique<QuantLinear>(
                                *lin, kind, options_.weight_bits,
                                options_.act_bits));
      ++replaced;
    } else {
      replaced += lower_network(*child);
    }
  }
  return replaced;
}

void record_canaries(DeploymentPlan& plan, int count,
                     const std::vector<int>& input_shape,
                     std::uint64_t base_seed) {
  YOLOC_CHECK(count >= 1 && count <= 64,
              "record_canaries: count out of [1, 64]");
  YOLOC_CHECK(!input_shape.empty() && input_shape[0] == 1,
              "record_canaries: probe inputs must be single-image (N == 1)");
  // Goldens define "healthy": mask any injected faults for the duration
  // of the recording, then restore the caller's fault state.
  FaultModel* fm[] = {plan.rom_macro().fault_model(),
                      plan.sram_macro().fault_model()};
  bool was_active[] = {false, false};
  for (int i = 0; i < 2; ++i) {
    if (fm[i] == nullptr) continue;
    was_active[i] = fm[i]->active();
    fm[i]->set_active(false);
  }
  CanarySuite suite;
  suite.probes.reserve(static_cast<std::size_t>(count));
  for (int p = 0; p < count; ++p) {
    CanaryProbe probe;
    probe.seed = base_seed + static_cast<std::uint64_t>(p);
    Rng input_rng(probe.seed ^ 0xCA9A41ull);
    probe.input = Tensor::rand_uniform(input_shape, input_rng, 0.0f, 1.0f);
    ExecutionContext ctx(plan, probe.seed);
    probe.golden = ctx.infer(probe.input);
    suite.probes.push_back(std::move(probe));
  }
  for (int i = 0; i < 2; ++i) {
    if (fm[i] != nullptr) fm[i]->set_active(was_active[i]);
  }
  plan.set_canaries(std::move(suite));
}

Tensor DeploymentPlan::execute(const Tensor& images,
                               ExecutionContext& ctx) const {
  YOLOC_CHECK(ctx.plan_ == this, "deployment plan: foreign context");
  MvmBinding binding;
  binding.slot(EngineKind::kRom) = {
      &rom_engine_, {&ctx.rom_noise_, &ctx.rom_stats_, &ctx.scratch_,
                     ctx.trace_}};
  binding.slot(EngineKind::kSram) = {
      &sram_engine_, {&ctx.sram_noise_, &ctx.sram_stats_, &ctx.scratch_,
                      ctx.trace_}};
  MvmBinding::Scope scope(binding);
  // Layer::forward is non-const to serve the training substrate; the
  // deployed graph is logically const in eval mode (quantized layers are
  // calibrated and tape caching is train-only), which is what makes
  // concurrent execute() calls safe.
  return model_->forward(images, /*train=*/false);
}

}  // namespace yoloc

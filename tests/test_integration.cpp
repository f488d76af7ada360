// Integration tests: full pipeline from trained float model through a
// DeploymentPlan (BN fold -> int8 -> analog macro inference) served by an
// ExecutionContext, and the transfer harness end to end at miniature
// scale.

#include <gtest/gtest.h>

#include "data/classification.hpp"
#include "nn/trainer.hpp"
#include "nn/zoo.hpp"
#include "rebranch/transfer.hpp"
#include "runtime/deployment_plan.hpp"
#include "runtime/execution_context.hpp"

namespace yoloc {
namespace {

ZooConfig mini_zoo() {
  ZooConfig cfg;
  cfg.image_size = 16;
  cfg.base_width = 4;
  cfg.num_classes = 4;
  return cfg;
}

DatasetSpec mini_spec() {
  DatasetSpec spec = mnist_like_spec(16);
  spec.num_classes = 4;
  spec.recipes.resize(4);
  return spec;
}

struct TrainedModel {
  LayerPtr net;
  LabeledDataset train;
  LabeledDataset test;
  double float_acc = 0.0;
};

TrainedModel train_mini_classifier() {
  TrainedModel out;
  const DatasetSpec spec = mini_spec();
  Rng rng(11);
  out.train = generate_classification(spec, 24, rng);
  out.test = generate_classification(spec, 12, rng);
  out.net = build_vgg8_lite(mini_zoo(), plain_conv_unit);
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 16;
  cfg.sgd.lr = 0.08f;
  (void)train_classifier(*out.net, out.train.images, out.train.labels, cfg);
  out.float_acc =
      evaluate_classifier(*out.net, out.test.images, out.test.labels);
  return out;
}

/// Top-1 accuracy of the deployed (quantized, analog) model.
double deployed_accuracy(ExecutionContext& ctx, const LabeledDataset& data) {
  return evaluate_classifier(
      [&ctx](const Tensor& batch) { return ctx.infer(batch); }, data.images,
      data.labels);
}

TEST(Integration, FloatModelLearnsMiniTask) {
  const TrainedModel tm = train_mini_classifier();
  EXPECT_GT(tm.float_acc, 0.7);
}

TEST(Integration, AnalogDeploymentPreservesAccuracy) {
  TrainedModel tm = train_mini_classifier();

  // Mark backbone ROM-resident so both engines are exercised.
  for (Parameter* p : tm.net->parameters()) {
    p->rom_resident = p->name.find("backbone") != std::string::npos;
  }
  Tensor calib = gather_batch(tm.train.images,
                              {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  const DeploymentPlan plan(std::move(tm.net), calib, DeploymentOptions{});
  EXPECT_GT(plan.quantized_layer_count(), 0);

  ExecutionContext ctx(plan, /*noise_seed=*/2024);
  const double analog_acc = deployed_accuracy(ctx, tm.test);
  // Paper: almost no accuracy loss from the CiM datapath.
  EXPECT_GT(analog_acc, tm.float_acc - 0.1);
}

TEST(Integration, DeploymentMetersEnergyOnBothMacros) {
  TrainedModel tm = train_mini_classifier();
  for (Parameter* p : tm.net->parameters()) {
    p->rom_resident = p->name.find("backbone") != std::string::npos;
  }
  Tensor calib = gather_batch(tm.train.images, {0, 1, 2, 3});
  const DeploymentPlan plan(std::move(tm.net), calib, DeploymentOptions{});
  ExecutionContext ctx(plan, /*noise_seed=*/2024);
  EXPECT_DOUBLE_EQ(ctx.total_energy_pj(), 0.0);  // calibration not metered

  Tensor batch = gather_batch(tm.test.images, {0, 1});
  (void)ctx.infer(batch);
  EXPECT_GT(ctx.rom_stats().energy_pj(), 0.0);
  EXPECT_GT(ctx.sram_stats().energy_pj(), 0.0);
  EXPECT_GT(ctx.rom_stats().macs, ctx.sram_stats().macs);

  ctx.reset_stats();
  EXPECT_DOUBLE_EQ(ctx.total_energy_pj(), 0.0);
}

TEST(Integration, EnergyScalesWithBatchSize) {
  TrainedModel tm = train_mini_classifier();
  Tensor calib = gather_batch(tm.train.images, {0, 1, 2, 3});
  const DeploymentPlan plan(std::move(tm.net), calib, DeploymentOptions{});
  ExecutionContext ctx(plan, /*noise_seed=*/2024);

  (void)ctx.infer(gather_batch(tm.test.images, {0}));
  const double e1 = ctx.total_energy_pj();
  ctx.reset_stats();
  (void)ctx.infer(gather_batch(tm.test.images, {0, 1, 2}));
  const double e3 = ctx.total_energy_pj();
  EXPECT_NEAR(e3 / e1, 3.0, 0.4);
}

TEST(Integration, TransferHarnessSmoke) {
  TransferSetup setup;
  setup.backbone = BackboneKind::kVgg8;
  setup.image_size = 16;
  setup.base_width = 4;
  setup.pretrain_samples_per_class = 10;
  setup.target_train_samples_per_class = 8;
  setup.target_test_samples_per_class = 6;
  setup.pretrain_cfg.epochs = 4;
  setup.finetune_cfg.epochs = 3;
  TransferHarness harness(setup);

  const DatasetSpec target = mnist_like_spec(16);
  const TransferOutcome all_sram =
      harness.run(TransferOption::kAllSram, target);
  const TransferOutcome rebranch =
      harness.run(TransferOption::kReBranch, target);

  EXPECT_GT(all_sram.accuracy, 0.0);
  EXPECT_GT(rebranch.accuracy, 0.0);
  // ReBranch keeps the bulk of bits in ROM; All-SRAM keeps none there.
  EXPECT_GT(rebranch.split.rom_bits, rebranch.split.sram_bits);
  EXPECT_DOUBLE_EQ(all_sram.split.rom_bits, 0.0);
  EXPECT_LT(rebranch.memory_area_mm2, all_sram.memory_area_mm2);
}

TEST(Integration, AnalogNoiseSweepDegradesGracefully) {
  TrainedModel tm = train_mini_classifier();
  const double float_acc = tm.float_acc;

  // Extremely noisy cells should hurt more than nominal ones.
  DeploymentOptions noisy;
  noisy.rom_macro.bitline.sigma_cell = 0.5;
  noisy.sram_macro.bitline.sigma_cell = 0.5;
  noisy.rom_macro.adc.noise_sigma_v = 0.05;
  noisy.sram_macro.adc.noise_sigma_v = 0.05;
  Tensor calib = gather_batch(tm.train.images, {0, 1, 2, 3});
  const DeploymentPlan plan(std::move(tm.net), calib, noisy);
  ExecutionContext ctx(plan, /*noise_seed=*/2024);
  const double noisy_acc = deployed_accuracy(ctx, tm.test);
  EXPECT_LE(noisy_acc, float_acc + 0.05);
}

}  // namespace
}  // namespace yoloc

// Quickstart: train a small classifier, deploy it onto the YOLoC
// ROM-CiM + SRAM-CiM datapath, and compare float vs analog accuracy
// while metering the modeled macro energy.
//
//   build/quickstart
//
// Walks the full public API surface in ~60 lines of user code:
//   1. synthesize a dataset           (yoloc::data)
//   2. build + train a float model    (yoloc::nn)
//   3. mark ROM/SRAM residency        (parameter flags)
//   4. lower into a DeploymentPlan and run it through an
//      ExecutionContext               (yoloc::runtime)
//   5. read back accuracy + energy    (macro run stats)
//   6. serve parallel traffic with a Scheduler over the same
//      DeploymentPlan                 (yoloc::serve)

#include <cstdio>

#include "data/classification.hpp"
#include "nn/trainer.hpp"
#include "nn/zoo.hpp"
#include "runtime/deployment_plan.hpp"
#include "runtime/execution_context.hpp"
#include "serve/scheduler.hpp"

int main() {
  using namespace yoloc;

  // 1. A small synthetic 6-class image task (3x16x16 inputs).
  DatasetSpec spec = cifar10_like_spec(16);
  spec.num_classes = 6;
  spec.recipes.resize(6);
  Rng data_rng(7);
  const LabeledDataset train = generate_classification(spec, 30, data_rng);
  const LabeledDataset test = generate_classification(spec, 15, data_rng);

  // 2. A VGG-8-lite float model, trained with SGD.
  ZooConfig zoo;
  zoo.image_size = 16;
  zoo.base_width = 8;
  zoo.num_classes = 6;
  LayerPtr model = build_vgg8_lite(zoo, plain_conv_unit);

  TrainConfig cfg;
  cfg.epochs = 10;
  cfg.batch_size = 16;
  cfg.sgd.lr = 0.08f;
  cfg.verbose = true;
  std::printf("training float model...\n");
  train_classifier(*model, train.images, train.labels, cfg);
  const double float_acc =
      evaluate_classifier(*model, test.images, test.labels);
  std::printf("float accuracy: %.1f%%\n", 100.0 * float_acc);

  // 3. Deployment split: the backbone is burned into ROM-CiM, the head
  //    stays in writable SRAM-CiM.
  for (Parameter* p : model->parameters()) {
    p->rom_resident = p->name.find("backbone") != std::string::npos;
  }

  // 4. Lower onto the CiM datapath (BN fold -> int8 -> calibration) and
  //    run inference through the analog bitline/ADC model.
  std::vector<int> calib_idx;
  for (int i = 0; i < 12; ++i) calib_idx.push_back(i);
  Tensor calibration = gather_batch(train.images, calib_idx);
  const DeploymentPlan plan(std::move(model), calibration,
                            DeploymentOptions{});
  ExecutionContext context(plan, /*noise_seed=*/2024);
  const double analog_acc = evaluate_classifier(
      [&context](const Tensor& batch) { return context.infer(batch); },
      test.images, test.labels);

  // 5. Results: accuracy retention + metered macro energy.
  std::printf("analog CiM accuracy: %.1f%% (loss %.2f pts)\n",
              100.0 * analog_acc, 100.0 * (float_acc - analog_acc));
  const double images = test.size();
  std::printf("modeled macro energy: %.2f uJ/image "
              "(ROM %.1f%%, SRAM %.1f%%)\n",
              context.total_energy_pj() * 1e-6 / images,
              100.0 * context.rom_stats().energy_pj() /
                  context.total_energy_pj(),
              100.0 * context.sram_stats().energy_pj() /
                  context.total_energy_pj());
  std::printf("quantized layers: %d\n", plan.quantized_layer_count());

  // 6. The DeploymentPlan is immutable and reentrant: put a
  //    continuous-batching Scheduler in front of it to serve many
  //    requests concurrently (workers default to parallel_workers(),
  //    which honours YOLOC_THREADS).
  SchedulerOptions serve;
  serve.max_microbatch = 8;
  Scheduler scheduler(plan, serve);
  const double served_acc = evaluate_classifier(
      [&scheduler](const Tensor& batch) { return scheduler.infer(batch); },
      test.images, test.labels);
  scheduler.wait_idle();  // settle the completion accounting before reading
  const MetricsSnapshot metrics = scheduler.metrics_snapshot();
  std::printf(
      "served %llu images on %d workers in %llu micro-batches "
      "(avg fill %.1f): accuracy %.1f%%\n",
      static_cast<unsigned long long>(metrics.served_images),
      scheduler.worker_count(),
      static_cast<unsigned long long>(metrics.batches),
      metrics.avg_batch_occupancy, 100.0 * served_acc);
  return 0;
}

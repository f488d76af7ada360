// Runtime concurrency tests: the deploy/serve split must make a shared
// DeploymentPlan fully reentrant — N threads with per-context seeds
// produce bit-identical outputs and stats to serial execution — and the
// Scheduler must preserve that determinism through its queue.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/container.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "reference_macro_engine.hpp"
#include "runtime/deployment_plan.hpp"
#include "runtime/execution_context.hpp"
#include "serve/scheduler.hpp"
#include "tensor/ops.hpp"

namespace yoloc {
namespace {

// Pin the worker pool before anything in this binary touches it: the
// YOLOC_THREADS override keeps the concurrency paths exercised even on
// single-core CI boxes (and doubles as the env-override integration
// check below).
const bool g_env_pinned = [] {
  setenv("YOLOC_THREADS", "4", /*overwrite=*/1);
  return true;
}();

LayerPtr make_model(std::uint64_t seed) {
  Rng rng(seed);
  auto backbone = std::make_unique<Sequential>("backbone");
  backbone->add(std::make_unique<Conv2d>(3, 4, 3, 1, 1, true, rng, "b.c1"));
  backbone->add(std::make_unique<ReLU>());
  backbone->add(std::make_unique<MaxPool2d>(2));
  backbone->add(std::make_unique<Conv2d>(4, 6, 3, 1, 1, true, rng, "b.c2"));
  backbone->add(std::make_unique<ReLU>());
  auto net = std::make_unique<Sequential>("net");
  net->add(std::move(backbone));
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Linear>(6, 5, true, rng, "head.fc"));
  // Backbone in ROM, head in SRAM, so both engines see traffic.
  for (Parameter* p : net->parameters()) {
    p->rom_resident = p->name.find("b.c") != std::string::npos;
  }
  return net;
}

std::unique_ptr<DeploymentPlan> make_plan(MacroMvmEngine::Mode mode,
                                          std::uint64_t model_seed = 21) {
  LayerPtr net = make_model(model_seed);
  Rng data_rng(33);
  Tensor calib = Tensor::rand_uniform({8, 3, 8, 8}, data_rng, 0.0f, 1.0f);
  DeploymentOptions options;
  options.mode = mode;
  return std::make_unique<DeploymentPlan>(std::move(net), calib,
                                          std::move(options));
}

std::vector<Tensor> make_requests(int count) {
  Rng rng(55);
  std::vector<Tensor> xs;
  xs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    xs.push_back(Tensor::rand_uniform({1, 3, 8, 8}, rng, 0.0f, 1.0f));
  }
  return xs;
}

::testing::AssertionResult bit_identical(const Tensor& a, const Tensor& b) {
  if (!same_shape(a, b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    return ::testing::AssertionFailure()
           << "payload differs (max |a-b| = " << max_abs_diff(a, b) << ")";
  }
  return ::testing::AssertionSuccess();
}

TEST(ParallelWorkers, EnvOverrideApplies) {
  EXPECT_EQ(parallel_workers(), 4u);
}

TEST(ParallelWorkers, ResolutionClampsAndFallsBack) {
  EXPECT_EQ(resolve_worker_count(nullptr, 7u), 7u);
  EXPECT_EQ(resolve_worker_count("", 7u), 7u);
  EXPECT_EQ(resolve_worker_count("abc", 5u), 5u);
  EXPECT_EQ(resolve_worker_count("12abc", 5u), 5u);
  EXPECT_EQ(resolve_worker_count("3", 1u), 3u);
  EXPECT_EQ(resolve_worker_count("0", 5u), 1u);
  EXPECT_EQ(resolve_worker_count("-2", 5u), 1u);
  EXPECT_EQ(resolve_worker_count("999", 5u), 64u);
}

TEST(Runtime, ConcurrentContextsBitIdenticalToSerial) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  const int kRequests = 8;
  const auto xs = make_requests(kRequests);
  const auto seed_of = [](int i) { return 100u + static_cast<unsigned>(i); };

  // Serial reference: one fresh context per request.
  std::vector<Tensor> serial_out(kRequests);
  MacroRunStats serial_rom, serial_sram;
  for (int i = 0; i < kRequests; ++i) {
    ExecutionContext ctx(*plan, seed_of(i));
    serial_out[static_cast<std::size_t>(i)] =
        ctx.infer(xs[static_cast<std::size_t>(i)]);
    serial_rom.accumulate(ctx.rom_stats());
    serial_sram.accumulate(ctx.sram_stats());
  }
  EXPECT_GT(serial_rom.macs, 0u);
  EXPECT_GT(serial_sram.macs, 0u);

  // Concurrent: N threads share the plan, each with its own context.
  std::vector<Tensor> parallel_out(kRequests);
  std::vector<MacroRunStats> rom_stats(kRequests), sram_stats(kRequests);
  std::vector<std::thread> threads;
  threads.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    threads.emplace_back([&, i] {
      ExecutionContext ctx(*plan, seed_of(i));
      parallel_out[static_cast<std::size_t>(i)] =
          ctx.infer(xs[static_cast<std::size_t>(i)]);
      rom_stats[static_cast<std::size_t>(i)] = ctx.rom_stats();
      sram_stats[static_cast<std::size_t>(i)] = ctx.sram_stats();
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(bit_identical(serial_out[static_cast<std::size_t>(i)],
                              parallel_out[static_cast<std::size_t>(i)]))
        << "request " << i;
  }
  // Merged in request order, the stats sums are bit-identical too.
  MacroRunStats merged_rom, merged_sram;
  for (int i = 0; i < kRequests; ++i) {
    merged_rom.accumulate(rom_stats[static_cast<std::size_t>(i)]);
    merged_sram.accumulate(sram_stats[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(serial_rom, merged_rom);
  EXPECT_EQ(serial_sram, merged_sram);
}

TEST(Runtime, ScratchReuseIsDeterministic) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  const auto xs = make_requests(1);
  ExecutionContext ctx(*plan, 9001);
  Tensor first = ctx.infer(xs[0]);
  ctx.reseed(9001);
  Tensor second = ctx.infer(xs[0]);  // warm scratch, same stream
  EXPECT_TRUE(bit_identical(first, second));
}

TEST(Runtime, PackedPlanMatchesLegacyEnginesAcrossResidency) {
  // The plan executes through packed engines. Re-running the same
  // lowered graph through the per-call reference tiler — the pre-packing
  // legacy path — with identically seeded noise streams must produce
  // bit-identical outputs and stats, across mixed ROM/SRAM residency.
  for (const auto mode :
       {MacroMvmEngine::Mode::kAnalog, MacroMvmEngine::Mode::kExactCost}) {
    auto plan = make_plan(mode);
    EXPECT_GT(plan->packed_weight_bytes(), 0u);
    EXPECT_EQ(plan->rom_engine().packed().entries(), 2u);   // b.c1 / b.c2
    EXPECT_EQ(plan->sram_engine().packed().entries(), 1u);  // head.fc
    const auto xs = make_requests(1);

    const std::uint64_t seed = 7777;
    ExecutionContext ctx(*plan, seed);
    const Tensor via_packed = ctx.infer(xs[0]);

    // Reference engines over the same macros; sessions seeded exactly
    // like ExecutionContext wires them (the SRAM seed is salted with
    // 0x5A5A).
    const ReferenceMacroEngine legacy_rom(plan->rom_macro(), mode);
    const ReferenceMacroEngine legacy_sram(plan->sram_macro(), mode);
    AnalogNoise rom_noise{seed, 0};
    AnalogNoise sram_noise{seed ^ 0x5A5A, 0};
    MacroRunStats rom_stats, sram_stats;
    MvmScratch scratch;
    MvmBinding binding;
    binding.slot(EngineKind::kRom) = {&legacy_rom,
                                      {&rom_noise, &rom_stats, &scratch}};
    binding.slot(EngineKind::kSram) = {&legacy_sram,
                                       {&sram_noise, &sram_stats, &scratch}};
    Tensor via_legacy;
    {
      MvmBinding::Scope scope(binding);
      via_legacy = plan->model().forward(xs[0], /*train=*/false);
    }

    EXPECT_TRUE(bit_identical(via_packed, via_legacy));
    EXPECT_EQ(ctx.rom_stats(), rom_stats);
    EXPECT_EQ(ctx.sram_stats(), sram_stats);
  }
}

TEST(Runtime, ServerMatchesSerialAtMicrobatchOne) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  const int kRequests = 6;
  const auto xs = make_requests(kRequests);
  const std::uint64_t kSeed = 777;

  // Serial reference mirroring the server's per-request seeding rule.
  std::vector<Tensor> serial_out(kRequests);
  MacroRunStats serial_rom, serial_sram;
  for (int i = 0; i < kRequests; ++i) {
    ExecutionContext ctx(*plan, kSeed + static_cast<std::uint64_t>(i));
    serial_out[static_cast<std::size_t>(i)] =
        ctx.infer(xs[static_cast<std::size_t>(i)]);
    serial_rom.accumulate(ctx.rom_stats());
    serial_sram.accumulate(ctx.sram_stats());
  }

  SchedulerOptions options;
  options.workers = 3;
  options.max_microbatch = 1;
  options.noise_seed = kSeed;
  Scheduler scheduler(*plan, options);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(scheduler.submit(xs[static_cast<std::size_t>(i)]));
  }
  for (int i = 0; i < kRequests; ++i) {
    Tensor out = futures[static_cast<std::size_t>(i)].get();
    EXPECT_TRUE(bit_identical(serial_out[static_cast<std::size_t>(i)], out))
        << "request " << i;
  }
  scheduler.wait_idle();
  EXPECT_EQ(serial_rom, scheduler.rom_stats());
  EXPECT_EQ(serial_sram, scheduler.sram_stats());

  const MetricsSnapshot metrics = scheduler.metrics_snapshot();
  const ClassSnapshot& batch_lane =
      metrics.classes[static_cast<std::size_t>(Priority::kBatch)];
  EXPECT_EQ(batch_lane.served_requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(batch_lane.served_images, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(metrics.batches, static_cast<std::uint64_t>(kRequests));
}

TEST(Runtime, ServerMicrobatchingPreservesExactOutputs) {
  // Exact-cost mode is noise-free, so fusing requests into micro-batches
  // must not change any output bit.
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  const int kImages = 8;
  Rng rng(91);
  Tensor images = Tensor::rand_uniform({kImages, 3, 8, 8}, rng, 0.0f, 1.0f);

  ExecutionContext ctx(*plan, 1);
  Tensor reference = ctx.infer(images);

  SchedulerOptions options;
  options.workers = 2;
  options.max_microbatch = 4;
  Scheduler scheduler(*plan, options);
  Tensor served = scheduler.infer(images);
  EXPECT_TRUE(bit_identical(reference, served));

  scheduler.wait_idle();
  const MetricsSnapshot metrics = scheduler.metrics_snapshot();
  const ClassSnapshot& batch_lane =
      metrics.classes[static_cast<std::size_t>(Priority::kBatch)];
  EXPECT_EQ(batch_lane.served_images, static_cast<std::uint64_t>(kImages));
  EXPECT_LE(metrics.batches, batch_lane.served_requests);
  // Cost totals match the single-pass reference up to summation order.
  EXPECT_EQ(ctx.rom_stats().macs, scheduler.rom_stats().macs);
  EXPECT_EQ(ctx.sram_stats().macs, scheduler.sram_stats().macs);
  EXPECT_NEAR(ctx.total_energy_pj(), scheduler.total_energy_pj(),
              1e-9 * ctx.total_energy_pj());
}

TEST(Runtime, ServerRejectsMalformedRequests) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  Scheduler scheduler(*plan, {});
  Rng rng(3);
  Tensor bad = Tensor::rand_uniform({4, 4}, rng, 0.0f, 1.0f);
  EXPECT_THROW((void)scheduler.submit(bad), std::runtime_error);
  EXPECT_THROW((void)scheduler.infer(bad), std::runtime_error);

  // A request that passes admission but fails in the model (wrong channel
  // count) must surface through the future and count only as a failure —
  // served-image metrics and energy totals stay clean.
  Tensor wrong_channels = Tensor::rand_uniform({1, 5, 8, 8}, rng, 0.0f, 1.0f);
  auto future = scheduler.submit(wrong_channels);
  EXPECT_THROW((void)future.get(), std::runtime_error);
  scheduler.wait_idle();
  const MetricsSnapshot metrics = scheduler.metrics_snapshot();
  const ClassSnapshot& batch_lane =
      metrics.classes[static_cast<std::size_t>(Priority::kBatch)];
  EXPECT_EQ(batch_lane.failed_requests, 1u);
  EXPECT_EQ(batch_lane.served_requests, 0u);
  EXPECT_EQ(batch_lane.served_images, 0u);
  EXPECT_EQ(scheduler.total_energy_pj(), 0.0);
}

TEST(Runtime, SurvivingBatchNormIsEvalSafe) {
  // A BN that is not conv-adjacent survives fold_batchnorm and stays in
  // the deployed graph; its eval forward must not write layer state, so
  // concurrent contexts over the shared plan remain bit-identical.
  Rng rng(77);
  auto net = std::make_unique<Sequential>("net");
  net->add(std::make_unique<Conv2d>(3, 4, 3, 1, 1, true, rng, "c1"));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<BatchNorm2d>(4, 1e-5f, 0.1f, "bn"));
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Linear>(4, 3, true, rng, "fc"));
  Tensor calib = Tensor::rand_uniform({4, 3, 8, 8}, rng, 0.0f, 1.0f);
  DeploymentOptions options;
  options.mode = MacroMvmEngine::Mode::kExactCost;
  DeploymentPlan plan(std::move(net), calib, std::move(options));

  const auto xs = make_requests(4);
  std::vector<Tensor> serial_out(4), parallel_out(4);
  for (int i = 0; i < 4; ++i) {
    ExecutionContext ctx(plan, 5);
    serial_out[static_cast<std::size_t>(i)] =
        ctx.infer(xs[static_cast<std::size_t>(i)]);
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      ExecutionContext ctx(plan, 5);
      parallel_out[static_cast<std::size_t>(i)] =
          ctx.infer(xs[static_cast<std::size_t>(i)]);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(bit_identical(serial_out[static_cast<std::size_t>(i)],
                              parallel_out[static_cast<std::size_t>(i)]))
        << "request " << i;
  }
}

TEST(Runtime, DeployWithoutContextThrows) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  const auto xs = make_requests(1);
  // Kind-tagged quant layers have no direct engine binding: executing the
  // lowered model outside an ExecutionContext must fail loudly.
  EXPECT_THROW((void)plan->model().forward(xs[0], false),
               std::runtime_error);
}

TEST(ScratchKernels, MatmulIntoMatchesReference) {
  Rng rng(17);
  for (const auto& [m, k, n] : std::vector<std::array<int, 3>>{
           {1, 1, 1}, {3, 5, 2}, {33, 130, 257}, {64, 40, 12}}) {
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor expected({m, n});
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int kk = 0; kk < k; ++kk) {
          acc += static_cast<double>(a.at2(i, kk)) * b.at2(kk, j);
        }
        expected.at2(i, j) = static_cast<float>(acc);
      }
    }
    // Stale, wrong-shaped scratch must be handled.
    Tensor out = Tensor::full({2, 2}, 123.0f);
    matmul_into(a, b, out);
    EXPECT_LT(max_abs_diff(expected, out), 2e-3f) << m << "x" << k << "x" << n;
    // Reuse with the right shape (stale payload) must also be exact.
    out.fill(-7.0f);
    matmul_into(a, b, out);
    EXPECT_LT(max_abs_diff(expected, out), 2e-3f);
  }
}

TEST(ScratchKernels, Im2colIntoReusesStorage) {
  Rng rng(19);
  Tensor x = Tensor::rand_uniform({2, 3, 6, 6}, rng, -1.0f, 1.0f);
  Tensor expected = im2col(x, 3, 3, 1, 1);
  Tensor cols = Tensor::full({4, 4}, 55.0f);  // wrong shape, stale payload
  im2col_into(x, 3, 3, 1, 1, cols);
  EXPECT_TRUE(bit_identical(expected, cols));
  const float* before = cols.data();
  im2col_into(x, 3, 3, 1, 1, cols);  // right shape: no reallocation
  EXPECT_EQ(before, cols.data());
  EXPECT_TRUE(bit_identical(expected, cols));
}

}  // namespace
}  // namespace yoloc

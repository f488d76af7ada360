// Deployment-plan serialization round-trip suite: a saved .yolocplan
// must rebuild (in a fresh state, without the float model or calibration
// images) into a plan whose execute() outputs and merged stats are
// bit-identical to the plan that saved it — for ROM-only and mixed
// ROM+SRAM residency, serial and through the multi-threaded
// Scheduler. Every corruption path (bad magic, wrong version,
// truncation, any flipped payload byte) must fail loudly, never load
// into a silently wrong plan.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/binio.hpp"
#include "nn/activations.hpp"
#include "nn/container.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/quantize.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/plan_serde.hpp"
#include "serve/scheduler.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor_io.hpp"

namespace yoloc {
namespace {

// Keep the concurrency paths exercised even on single-core CI boxes.
const bool g_env_pinned = [] {
  setenv("YOLOC_THREADS", "4", /*overwrite=*/1);
  return true;
}();

enum class Residency { kMixed, kRomOnly };

LayerPtr make_model(std::uint64_t seed, Residency residency) {
  Rng rng(seed);
  auto backbone = std::make_unique<Sequential>("backbone");
  backbone->add(std::make_unique<Conv2d>(3, 4, 3, 1, 1, true, rng, "b.c1"));
  backbone->add(std::make_unique<ReLU>());
  backbone->add(std::make_unique<MaxPool2d>(2));
  // A residual block, so the serialized graph covers ParallelSum +
  // Identity topology.
  auto inner = std::make_unique<Sequential>("res.inner");
  inner->add(std::make_unique<Conv2d>(4, 4, 3, 1, 1, false, rng, "b.c2"));
  inner->add(std::make_unique<LeakyReLU>(0.1f));
  backbone->add(make_residual(std::move(inner), "res"));
  auto net = std::make_unique<Sequential>("net");
  net->add(std::move(backbone));
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Linear>(4, 5, true, rng, "head.fc"));
  for (Parameter* p : net->parameters()) {
    p->rom_resident = residency == Residency::kRomOnly ||
                      p->name.find("b.c") != std::string::npos;
  }
  return net;
}

std::unique_ptr<DeploymentPlan> make_plan(MacroMvmEngine::Mode mode,
                                          Residency residency) {
  LayerPtr net = make_model(21, residency);
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

std::filesystem::path temp_plan_path(const char* stem) {
  return std::filesystem::temp_directory_path() /
         (std::string(stem) + kPlanFileExtension);
}

/// Save/load through a file, then check the loaded plan is bit-identical
/// to the original across per-request seeded contexts + merged stats.
void check_round_trip(const DeploymentPlan& original, const char* stem) {
  const auto path = temp_plan_path(stem);
  save_plan(original, path.string());
  auto loaded = load_plan(path.string());
  std::filesystem::remove(path);

  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(loaded->options() == original.options());
  EXPECT_EQ(loaded->quantized_layer_count(),
            original.quantized_layer_count());

  const auto xs = make_requests(4);
  MacroRunStats orig_rom, orig_sram, load_rom, load_sram;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t seed = 100u + static_cast<std::uint64_t>(i);
    ExecutionContext orig_ctx(original, seed);
    ExecutionContext load_ctx(*loaded, seed);
    Tensor a = orig_ctx.infer(xs[static_cast<std::size_t>(i)]);
    Tensor b = load_ctx.infer(xs[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(bit_identical(a, b)) << "request " << i;
    orig_rom.accumulate(orig_ctx.rom_stats());
    orig_sram.accumulate(orig_ctx.sram_stats());
    load_rom.accumulate(load_ctx.rom_stats());
    load_sram.accumulate(load_ctx.sram_stats());
  }
  EXPECT_EQ(orig_rom, load_rom);
  EXPECT_EQ(orig_sram, load_sram);
}

TEST(PlanSerde, RoundTripBitIdenticalMixedResidencyAnalog) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog, Residency::kMixed);
  check_round_trip(*plan, "serde_mixed_analog");
}

TEST(PlanSerde, RoundTripBitIdenticalMixedResidencyExactCost) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost, Residency::kMixed);
  check_round_trip(*plan, "serde_mixed_exact");
}

TEST(PlanSerde, RoundTripBitIdenticalRomOnlyResidency) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog, Residency::kRomOnly);
  // Every parameter is ROM-resident: the SRAM engine must see no traffic
  // on either side of the round trip.
  check_round_trip(*plan, "serde_rom_only");
  ExecutionContext ctx(*plan, 1);
  (void)ctx.infer(make_requests(1)[0]);
  EXPECT_GT(ctx.rom_stats().macs, 0u);
  EXPECT_EQ(ctx.sram_stats().macs, 0u);
}

TEST(PlanSerde, LoadedPlanServesBitIdenticallyThroughServer) {
  auto original = make_plan(MacroMvmEngine::Mode::kAnalog, Residency::kMixed);
  const std::vector<std::uint8_t> bytes = serialize_plan(*original);
  auto loaded = deserialize_plan(bytes.data(), bytes.size());

  const int kRequests = 6;
  const auto xs = make_requests(kRequests);
  SchedulerOptions options;
  options.workers = 3;
  options.max_microbatch = 1;  // reproducible batch composition
  options.noise_seed = 777;

  auto serve = [&](const DeploymentPlan& plan, std::vector<Tensor>& out,
                   MacroRunStats& rom, MacroRunStats& sram) {
    Scheduler scheduler(plan, options);
    std::vector<std::future<Tensor>> futures;
    for (const Tensor& x : xs) futures.push_back(scheduler.submit(x));
    for (auto& f : futures) out.push_back(f.get());
    scheduler.wait_idle();
    rom = scheduler.rom_stats();
    sram = scheduler.sram_stats();
  };

  std::vector<Tensor> out_a, out_b;
  MacroRunStats rom_a, sram_a, rom_b, sram_b;
  serve(*original, out_a, rom_a, sram_a);
  serve(*loaded, out_b, rom_b, sram_b);
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(bit_identical(out_a[static_cast<std::size_t>(i)],
                              out_b[static_cast<std::size_t>(i)]))
        << "request " << i;
  }
  EXPECT_EQ(rom_a, rom_b);
  EXPECT_EQ(sram_a, sram_b);
}

TEST(PlanSerde, LoadedPlanServesMicrobatchedExactTraffic) {
  // Multi-threaded micro-batched serving on a loaded plan (exact mode is
  // noise-free, so batching must not move any output bit).
  auto original =
      make_plan(MacroMvmEngine::Mode::kExactCost, Residency::kMixed);
  const std::vector<std::uint8_t> bytes = serialize_plan(*original);
  auto loaded = deserialize_plan(bytes.data(), bytes.size());

  Rng rng(91);
  Tensor images = Tensor::rand_uniform({8, 3, 8, 8}, rng, 0.0f, 1.0f);
  ExecutionContext ctx(*original, 1);
  Tensor reference = ctx.infer(images);

  SchedulerOptions options;
  options.workers = 2;
  options.max_microbatch = 4;
  Scheduler scheduler(*loaded, options);
  Tensor served = scheduler.infer(images);
  EXPECT_TRUE(bit_identical(reference, served));
  scheduler.wait_idle();
  EXPECT_EQ(ctx.rom_stats().macs, scheduler.rom_stats().macs);
  EXPECT_EQ(ctx.sram_stats().macs, scheduler.sram_stats().macs);
}

TEST(PlanSerde, LoadPathNeedsNoCalibrationImages) {
  std::vector<std::uint8_t> bytes;
  {
    auto plan = make_plan(MacroMvmEngine::Mode::kAnalog, Residency::kMixed);
    bytes = serialize_plan(*plan);
    // Original plan (and with it every float weight and calibration
    // artifact) is destroyed here.
  }
  auto loaded = deserialize_plan(bytes.data(), bytes.size());
  EXPECT_GT(loaded->quantized_layer_count(), 0);
  EXPECT_TRUE(quantized_layers_calibrated(loaded->model()));
  ExecutionContext ctx(*loaded, 7);
  Tensor out = ctx.infer(make_requests(1)[0]);
  EXPECT_EQ(out.shape(), (std::vector<int>{1, 5}));
}

// ------------------------------------------------------ format versions

/// The header's version field, which follows the 8-byte magic. The
/// header is not under a section CRC, so a test can restamp it.
std::uint32_t header_version(const std::vector<std::uint8_t>& bytes) {
  return static_cast<std::uint32_t>(bytes[8]) |
         static_cast<std::uint32_t>(bytes[9]) << 8 |
         static_cast<std::uint32_t>(bytes[10]) << 16 |
         static_cast<std::uint32_t>(bytes[11]) << 24;
}

void stamp_version(std::vector<std::uint8_t>& bytes, std::uint32_t version) {
  for (int i = 0; i < 4; ++i) {
    bytes[8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(version >> (8 * i));
  }
}

TEST(PlanSerde, CanaryPlansWriteVersion3AndRoundTrip) {
  for (const auto mode :
       {MacroMvmEngine::Mode::kAnalog, MacroMvmEngine::Mode::kExactCost}) {
    SCOPED_TRACE(static_cast<int>(mode));
    auto plan = make_plan(mode, Residency::kMixed);
    EXPECT_EQ(header_version(serialize_plan(*plan)), 1u);
    record_canaries(*plan, 2, {1, 3, 8, 8});
    const std::vector<std::uint8_t> bytes = serialize_plan(*plan);
    EXPECT_EQ(header_version(bytes), 3u);
    const auto loaded = deserialize_plan(bytes.data(), bytes.size());
    ASSERT_EQ(loaded->canaries().probes.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      const CanaryProbe& a = plan->canaries().probes[i];
      const CanaryProbe& b = loaded->canaries().probes[i];
      EXPECT_EQ(a.seed, b.seed);
      EXPECT_TRUE(bit_identical(a.golden, b.golden));
      // The loaded plan reproduces its goldens under the keyed noise.
      ExecutionContext ctx(*loaded, b.seed);
      EXPECT_TRUE(bit_identical(ctx.infer(b.input), b.golden));
    }
  }
}

TEST(PlanSerde, RejectsVersion2AnalogCanaryPlanAskingToReRecord) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog, Residency::kMixed);
  record_canaries(*plan, 2, {1, 3, 8, 8});
  std::vector<std::uint8_t> bytes = serialize_plan(*plan);
  stamp_version(bytes, 2);
  try {
    (void)deserialize_plan(bytes.data(), bytes.size());
    ADD_FAILURE() << "a v2 plan with analog canaries must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("re-record the canaries"),
              std::string::npos)
        << e.what();
  }
}

TEST(PlanSerde, LoadsVersion2ExactCostCanaryAndFaultOnlyPlans) {
  // Exact-cost goldens draw no noise: a v2 canary plan still serves them.
  auto exact = make_plan(MacroMvmEngine::Mode::kExactCost, Residency::kMixed);
  record_canaries(*exact, 2, {1, 3, 8, 8});
  std::vector<std::uint8_t> bytes = serialize_plan(*exact);
  stamp_version(bytes, 2);
  const auto loaded = deserialize_plan(bytes.data(), bytes.size());
  EXPECT_EQ(loaded->canaries().probes.size(), 2u);

  // A fault config without canaries still writes, and loads, as v2.
  LayerPtr net = make_model(21, Residency::kMixed);
  Rng data_rng(33);
  Tensor calib = Tensor::rand_uniform({8, 3, 8, 8}, data_rng, 0.0f, 1.0f);
  DeploymentOptions options;
  options.mode = MacroMvmEngine::Mode::kAnalog;
  options.rom_macro.faults.seed = 3;
  options.rom_macro.faults.stuck_at_zero_rate = 0.01;
  options.rom_macro.faults.start_active = false;
  const DeploymentPlan faulted(std::move(net), calib, std::move(options));
  const std::vector<std::uint8_t> faulted_bytes = serialize_plan(faulted);
  EXPECT_EQ(header_version(faulted_bytes), 2u);
  const auto faulted_loaded =
      deserialize_plan(faulted_bytes.data(), faulted_bytes.size());
  EXPECT_EQ(faulted_loaded->options(), faulted.options());
}

// ------------------------------------------------------------ negative

TEST(PlanSerde, RejectsBadMagic) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost, Residency::kMixed);
  std::vector<std::uint8_t> bytes = serialize_plan(*plan);
  bytes[0] ^= 0xFF;
  EXPECT_THROW((void)deserialize_plan(bytes.data(), bytes.size()),
               std::runtime_error);
}

TEST(PlanSerde, RejectsWrongVersion) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost, Residency::kMixed);
  std::vector<std::uint8_t> bytes = serialize_plan(*plan);
  bytes[8] += 1;  // version field follows the 8-byte magic
  EXPECT_THROW((void)deserialize_plan(bytes.data(), bytes.size()),
               std::runtime_error);
}

TEST(PlanSerde, RejectsTruncation) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost, Residency::kMixed);
  const std::vector<std::uint8_t> bytes = serialize_plan(*plan);
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, std::size_t{8}, std::size_t{15},
        bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW((void)deserialize_plan(bytes.data(), cut),
                 std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(PlanSerde, RejectsTrailingBytes) {
  // Artifacts are canonical: appended garbage (e.g. a botched download
  // concatenation) is rejected even though every section CRC still holds.
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost, Residency::kMixed);
  std::vector<std::uint8_t> bytes = serialize_plan(*plan);
  bytes.push_back(0x00);
  EXPECT_THROW((void)deserialize_plan(bytes.data(), bytes.size()),
               std::runtime_error);
}

TEST(PlanSerde, RejectsTruncatedFile) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost, Residency::kMixed);
  const auto path = temp_plan_path("serde_truncated");
  save_plan(*plan, path.string());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_THROW((void)load_plan(path.string()), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW((void)load_plan(path.string()), std::runtime_error);
}

TEST(PlanSerde, AnySingleFlippedByteFailsLoudly) {
  // Exhaustive corruption sweep: flipping any single byte anywhere in the
  // artifact (header, section table, options, weights) must be caught by
  // the magic/version/bounds checks or a section CRC — a corrupt artifact
  // can never load into a silently wrong plan.
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost, Residency::kMixed);
  const std::vector<std::uint8_t> bytes = serialize_plan(*plan);
  ASSERT_LT(bytes.size(), 64u * 1024u) << "keep the sweep cheap";
  std::vector<std::uint8_t> corrupt = bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    corrupt[i] ^= 0x5A;
    EXPECT_THROW((void)deserialize_plan(corrupt.data(), corrupt.size()),
                 std::runtime_error)
        << "flipped byte at offset " << i;
    corrupt[i] = bytes[i];
  }
}

TEST(PlanSerde, ZeroQuantizedLayerImageRejected) {
  // A graph with no quantized layers is not a servable plan image.
  auto relu_only = std::make_unique<Sequential>("net");
  relu_only->add(std::make_unique<ReLU>());
  LoweredPlanImage image;
  image.model = std::move(relu_only);
  image.quantized_layers = 0;
  EXPECT_THROW(DeploymentPlan(std::move(image), DeploymentOptions{}),
               std::runtime_error);
}

TEST(PlanSerde, QuantizedLayerCountMismatchRejected) {
  QuantizedTensor qw;
  qw.shape = {2, 3};
  qw.data = {1, -2, 3, -4, 5, -6};
  qw.scale = 0.5f;
  auto net = std::make_unique<Sequential>("net");
  net->add(std::make_unique<QuantLinear>("fc.q", 3, 2, 8, qw,
                                         Tensor::zeros({2}), EngineKind::kRom,
                                         0.25f));
  LoweredPlanImage image;
  image.model = std::move(net);
  image.quantized_layers = 2;  // lies about the graph
  EXPECT_THROW(DeploymentPlan(std::move(image), DeploymentOptions{}),
               std::runtime_error);
}

TEST(PlanSerde, RestoredQuantLayerValidatesItsPayload) {
  QuantizedTensor qw;
  qw.shape = {2, 3};
  qw.data = {1, -2, 3, -4, 5, -6};
  qw.scale = 0.5f;
  // Uncalibrated activation scale.
  EXPECT_THROW(QuantLinear("fc.q", 3, 2, 8, qw, Tensor::zeros({2}),
                           EngineKind::kRom, -1.0f),
               std::runtime_error);
  // Weight payload that does not match the declared geometry.
  EXPECT_THROW(QuantLinear("fc.q", 4, 2, 8, qw, Tensor::zeros({2}),
                           EngineKind::kRom, 0.25f),
               std::runtime_error);
  // Bias length mismatch.
  EXPECT_THROW(QuantLinear("fc.q", 3, 2, 8, qw, Tensor::zeros({3}),
                           EngineKind::kRom, 0.25f),
               std::runtime_error);
  // Same three classes for the conv restore path.
  QuantizedTensor cw;
  cw.shape = {1, 9};
  cw.data.assign(9, 1);
  cw.scale = 0.5f;
  EXPECT_THROW(QuantConv2d("c.q", 1, 1, 3, 1, 1, 8, cw, Tensor::zeros({1}),
                           EngineKind::kSram, 0.0f),
               std::runtime_error);
  EXPECT_THROW(QuantConv2d("c.q", 2, 1, 3, 1, 1, 8, cw, Tensor::zeros({1}),
                           EngineKind::kSram, 0.25f),
               std::runtime_error);
  EXPECT_NO_THROW(QuantConv2d("c.q", 1, 1, 3, 1, 1, 8, cw,
                              Tensor::zeros({1}), EngineKind::kSram, 0.25f));
}

// ------------------------------------------- options equality/validate

TEST(PlanSerde, DeploymentOptionsEquality) {
  DeploymentOptions a, b;
  EXPECT_TRUE(a == b);
  b.act_bits = 4;
  EXPECT_FALSE(a == b);
  b = a;
  b.mode = MacroMvmEngine::Mode::kExactCost;
  EXPECT_FALSE(a == b);
  b = a;
  b.rom_macro.geometry.rows_per_activation = 64;
  EXPECT_FALSE(a == b);
  b = a;
  b.sram_macro.bitline.sigma_cell = 0.1;
  EXPECT_FALSE(a == b);
}

TEST(PlanSerde, DeploymentOptionsValidation) {
  DeploymentOptions good;
  EXPECT_NO_THROW(good.validate());

  DeploymentOptions bad = good;
  bad.weight_bits = 1;
  EXPECT_THROW(bad.validate(), std::runtime_error);

  bad = good;
  bad.act_bits = 0;
  EXPECT_THROW(bad.validate(), std::runtime_error);

  bad = good;
  bad.rom_macro.kind = MacroKind::kSram;  // wrong residency slot
  EXPECT_THROW(bad.validate(), std::runtime_error);

  bad = good;
  bad.rom_macro.geometry.rows_per_activation =
      bad.rom_macro.geometry.rows + 1;
  EXPECT_THROW(bad.validate(), std::runtime_error);

  bad = good;
  bad.sram_macro.geometry.cols = 250;  // not a multiple of weight_bits
  EXPECT_THROW(bad.validate(), std::runtime_error);

  bad = good;
  bad.sram_macro.adc.v_hi = bad.sram_macro.adc.v_lo;
  EXPECT_THROW(bad.validate(), std::runtime_error);

  bad = good;
  bad.rom_macro.bitline.t_pulse_ns = 0.0;
  EXPECT_THROW(bad.validate(), std::runtime_error);

  // The plan constructor runs the same validation.
  DeploymentOptions ctor_bad;
  ctor_bad.weight_bits = 0;
  Rng rng(1);
  auto net = std::make_unique<Sequential>("net");
  net->add(std::make_unique<Conv2d>(1, 1, 1, 1, 0, true, rng, "c"));
  Tensor calib = Tensor::rand_uniform({1, 1, 2, 2}, rng, 0.0f, 1.0f);
  EXPECT_THROW(
      DeploymentPlan(std::move(net), calib, std::move(ctor_bad)),
      std::runtime_error);
}

// ----------------------------------------------------- tensor edge I/O

TEST(PlanSerde, TensorIoRoundTripsEdgeCases) {
  // Empty (default) tensor.
  ByteWriter w;
  write_tensor(w, Tensor{});
  Rng rng(5);
  Tensor dense = Tensor::randn({2, 3, 1, 2}, rng);
  write_tensor(w, dense);
  QuantizedTensor qempty;
  write_quantized_tensor(w, qempty);
  QuantizedTensor q;
  q.shape = {3, 2};
  q.data = {-128, 127, 0, 1, -1, 64};
  q.scale = 0.031f;
  write_quantized_tensor(w, q);

  ByteReader r(w.buffer().data(), w.buffer().size());
  Tensor empty_back = read_tensor(r);
  EXPECT_TRUE(empty_back.empty());
  EXPECT_EQ(empty_back.rank(), 0);
  Tensor dense_back = read_tensor(r);
  EXPECT_TRUE(bit_identical(dense, dense_back));
  QuantizedTensor qempty_back = read_quantized_tensor(r);
  EXPECT_TRUE(qempty_back.shape.empty());
  EXPECT_TRUE(qempty_back.data.empty());
  QuantizedTensor q_back = read_quantized_tensor(r);
  EXPECT_EQ(q.shape, q_back.shape);
  EXPECT_EQ(q.data, q_back.data);
  EXPECT_EQ(q.scale, q_back.scale);
  r.expect_exhausted("tensor io test");

  // Corrupt shape prefixes fail before allocating.
  ByteWriter bad;
  bad.u32(2);
  bad.i32(1 << 20);
  bad.i32(1 << 20);  // claims 4 TiB of floats
  ByteReader bad_r(bad.buffer().data(), bad.buffer().size());
  EXPECT_THROW((void)read_tensor(bad_r), std::runtime_error);
  ByteWriter neg;
  neg.u32(1);
  neg.i32(-3);
  ByteReader neg_r(neg.buffer().data(), neg.buffer().size());
  EXPECT_THROW((void)read_tensor(neg_r), std::runtime_error);
}

// ------------------------------------------------------- golden fixture

TEST(PlanSerde, GoldenArtifactFromFixtureProcessLoads) {
  // CTest writes a golden artifact via `serve_from_plan --save` in a
  // separate process (FIXTURES_SETUP serde_golden); loading it here is a
  // true cross-process cold start. Standalone runs skip.
  const char* path = std::getenv("YOLOC_GOLDEN_PLAN");
  if (path == nullptr || !std::filesystem::exists(path)) {
    GTEST_SKIP() << "YOLOC_GOLDEN_PLAN not provided (run via ctest -L serde)";
  }
  auto plan = load_plan(path);
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->quantized_layer_count(), 0);
  ExecutionContext ctx(*plan, 2024);
  Rng rng(3);
  Tensor image = Tensor::rand_uniform({1, 3, 16, 16}, rng, 0.0f, 1.0f);
  Tensor out = ctx.infer(image);
  EXPECT_EQ(out.shape()[0], 1);
  EXPECT_GT(ctx.rom_stats().macs, 0u);
}

}  // namespace
}  // namespace yoloc

// Deterministic fault-injection coverage (macro/fault_model.*) and the
// serving resilience layer built on it (serve/resilience.*): fixed-seed
// fault patterns replay bit-exactly on the serving engine, the engine
// stays bit-identical to the per-call reference tiler under faults, dormant faults cost nothing and
// change nothing, plans round-trip fault configs + canary suites
// (format v2), and the scheduler's canary -> breaker -> shed -> recover
// pipeline works end to end. `ctest -L fault` selects this suite.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/macro_engine.hpp"
#include "nn/activations.hpp"
#include "nn/container.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "reference_macro_engine.hpp"
#include "runtime/deployment_plan.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/plan_serde.hpp"
#include "serve/request.hpp"
#include "serve/resilience.hpp"
#include "serve/scheduler.hpp"
#include "tensor/ops.hpp"

namespace yoloc {
namespace {

using std::chrono::milliseconds;

const bool g_env_pinned = [] {
  setenv("YOLOC_THREADS", "4", /*overwrite=*/1);
  return true;
}();

FaultModelConfig heavy_faults(std::uint64_t seed = 11) {
  FaultModelConfig f;
  f.seed = seed;
  f.stuck_at_zero_rate = 0.02;
  f.stuck_at_one_rate = 0.02;
  f.transient_flip_rate = 0.001;
  f.adc_offset_max = 1.5;
  f.adc_gain_max = 0.05;
  return f;
}

MacroConfig faulted_rom(const FaultModelConfig& faults) {
  MacroConfig cfg = default_rom_macro();
  cfg.bitline.sigma_cell = 0.0;
  cfg.adc.noise_sigma_v = 0.0;
  cfg.faults = faults;
  return cfg;
}

std::vector<std::int8_t> random_weights(int m, int k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return w;
}

std::vector<std::uint8_t> random_acts(int k, int p, std::uint64_t seed) {
  Rng rng(seed ^ 0x1234);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k) * p);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return x;
}

/// One run of `engine` over the (m x k) weights `w` and seeded
/// activations, noise keyed by `seed`.
std::vector<std::int32_t> run_on(const MvmEngine& engine,
                                 const std::vector<std::int8_t>& w, int m,
                                 int k, int p, std::uint64_t seed,
                                 MacroRunStats* stats_out) {
  const auto x = random_acts(k, p, seed);
  std::vector<std::int32_t> y(static_cast<std::size_t>(m) * p);
  AnalogNoise noise{seed, 0};
  MacroRunStats stats;
  MvmScratch scratch;
  MvmSession session{&noise, &stats, &scratch};
  engine.mvm_batch(w.data(), m, k, DenseActView(x.data(), k, p), p,
                   y.data(), session);
  if (stats_out != nullptr) *stats_out = stats;
  return y;
}

/// The serving engine (MacroMvmEngine, analog) over a fixed workload.
std::vector<std::int32_t> run_engine(const MacroConfig& cfg, int m, int k,
                                     int p, std::uint64_t seed,
                                     MacroRunStats* stats_out = nullptr) {
  const CimMacro macro(cfg);
  MacroMvmEngine engine(macro, MacroMvmEngine::Mode::kAnalog);
  const auto w = random_weights(m, k, seed);
  (void)engine.pack(w.data(), m, k);
  return run_on(engine, w, m, k, p, seed, stats_out);
}

/// The per-call reference tiler over the same workload.
std::vector<std::int32_t> run_reference(const MacroConfig& cfg, int m, int k,
                                        int p, std::uint64_t seed,
                                        MacroRunStats* stats_out) {
  const CimMacro macro(cfg);
  const ReferenceMacroEngine engine(macro, MacroMvmEngine::Mode::kAnalog);
  return run_on(engine, random_weights(m, k, seed), m, k, p, seed,
                stats_out);
}

// ------------------------------------------------- fault-model physics

TEST(FaultModel, FixedSeedReplaysBitExactly) {
  const MacroConfig cfg = faulted_rom(heavy_faults());
  const auto a = run_engine(cfg, 6, 96, 3, 5);
  const auto b = run_engine(cfg, 6, 96, 3, 5);
  EXPECT_EQ(a, b) << "same seed, same fault pattern, same outputs";
}

TEST(FaultModel, SeedRedrawsThePattern) {
  const auto a = run_engine(faulted_rom(heavy_faults(11)), 6, 96, 3, 5);
  const auto b = run_engine(faulted_rom(heavy_faults(12)), 6, 96, 3, 5);
  EXPECT_NE(a, b) << "a different fault seed must redraw the fault map";
}

TEST(FaultModel, LegacyAndPackedPathsIdenticalUnderFaults) {
  // The determinism contract extends to faults: the packed engine must
  // see the SAME stuck cells, drifted columns and transient flips as the
  // per-call reference tiler (fault coordinates are tile-local). Covered on
  // both packed kernels: the noise-free table path and the noisy read
  // chain (default ROM noise on top of the faults).
  MacroConfig noisy = default_rom_macro();
  noisy.faults = heavy_faults();
  for (const MacroConfig& cfg : {faulted_rom(heavy_faults()), noisy}) {
    const bool noise_free = CimMacro(cfg).noise_free();
    for (const int k : {96, 200}) {  // single-tile and multi-tile
      SCOPED_TRACE(testing::Message()
                   << (noise_free ? "noise-free" : "noisy") << " k=" << k);
      MacroRunStats stats_legacy, stats_packed;
      const auto legacy = run_reference(cfg, 6, k, 3, 5, &stats_legacy);
      const auto packed = run_engine(cfg, 6, k, 3, 5, &stats_packed);
      EXPECT_EQ(legacy, packed);
      EXPECT_EQ(stats_legacy, stats_packed);
    }
  }
}

TEST(FaultModel, DormantFaultsAreInvisible) {
  FaultModelConfig dormant = heavy_faults();
  dormant.start_active = false;
  const auto clean = run_engine(faulted_rom(FaultModelConfig{}), 6, 96, 3, 5);
  const auto faulted_off = run_engine(faulted_rom(dormant), 6, 96, 3, 5);
  EXPECT_EQ(clean, faulted_off)
      << "inactive faults must be bit-invisible, not just small";
}

TEST(FaultModel, SetActiveTogglesAtRuntime) {
  const CimMacro macro(faulted_rom(heavy_faults()));
  ASSERT_NE(macro.fault_model(), nullptr);
  MacroMvmEngine engine(macro, MacroMvmEngine::Mode::kAnalog);
  const auto w = random_weights(6, 96, 5);
  (void)engine.pack(w.data(), 6, 96);
  const auto x = random_acts(96, 2, 5);
  const auto run = [&] {
    std::vector<std::int32_t> y(12);
    AnalogNoise noise{5, 0};
    MacroRunStats stats;
    MvmScratch scratch;
    MvmSession session{&noise, &stats, &scratch};
    engine.mvm_batch(w.data(), 6, 96, DenseActView(x.data(), 96, 2), 2,
                     y.data(), session);
    return y;
  };
  const auto faulted = run();
  macro.fault_model()->set_active(false);
  const auto healthy = run();
  macro.fault_model()->set_active(true);
  EXPECT_NE(faulted, healthy) << "these rates must actually perturb reads";
  EXPECT_EQ(run(), faulted) << "re-activating restores the same pattern";
}

// --------------------------------------------- plans, serde, canaries

LayerPtr tiny_model(std::uint64_t seed) {
  Rng rng(seed);
  auto backbone = std::make_unique<Sequential>("backbone");
  backbone->add(std::make_unique<Conv2d>(3, 4, 3, 1, 1, true, rng, "b.c1"));
  backbone->add(std::make_unique<ReLU>());
  backbone->add(std::make_unique<MaxPool2d>(2));
  auto net = std::make_unique<Sequential>("net");
  net->add(std::move(backbone));
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Linear>(4, 5, true, rng, "head.fc"));
  for (Parameter* p : net->parameters()) {
    p->rom_resident = p->name.find("b.c") != std::string::npos;
  }
  return net;
}

std::unique_ptr<DeploymentPlan> tiny_plan(const FaultModelConfig& rom_faults) {
  Rng data_rng(33);
  Tensor calib = Tensor::rand_uniform({8, 3, 8, 8}, data_rng, 0.0f, 1.0f);
  DeploymentOptions options;
  options.mode = MacroMvmEngine::Mode::kAnalog;
  options.rom_macro.faults = rom_faults;
  return std::make_unique<DeploymentPlan>(tiny_model(21), calib,
                                          std::move(options));
}

TEST(PlanSerde, V2RoundTripsFaultConfigAndCanaries) {
  auto plan = tiny_plan(heavy_faults());
  record_canaries(*plan, 3, {1, 3, 8, 8});
  ASSERT_EQ(plan->canaries().probes.size(), 3u);

  const auto path =
      (std::filesystem::temp_directory_path() /
       ("test_fault_v2." + std::to_string(::getpid()) + kPlanFileExtension))
          .string();
  save_plan(*plan, path);
  auto loaded = load_plan(path);
  std::filesystem::remove(path);

  EXPECT_EQ(loaded->options().rom_macro.faults, plan->options().rom_macro.faults);
  ASSERT_EQ(loaded->canaries().probes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const CanaryProbe& orig = plan->canaries().probes[i];
    const CanaryProbe& back = loaded->canaries().probes[i];
    EXPECT_EQ(orig.seed, back.seed);
    ASSERT_TRUE(same_shape(orig.golden, back.golden));
    EXPECT_EQ(std::memcmp(orig.golden.data(), back.golden.data(),
                          orig.golden.size() * sizeof(float)),
              0);
  }

  // The loaded plan serves bit-identically — fault pattern included.
  Rng rng(42);
  const Tensor probe = Tensor::rand_uniform({2, 3, 8, 8}, rng, 0.0f, 1.0f);
  ExecutionContext a(*plan, 2024), b(*loaded, 2024);
  const Tensor ya = a.infer(probe), yb = b.infer(probe);
  ASSERT_TRUE(same_shape(ya, yb));
  EXPECT_EQ(
      std::memcmp(ya.data(), yb.data(), ya.size() * sizeof(float)), 0);
}

TEST(PlanSerde, CanaryGoldensAreRecordedHealthy) {
  // Even when the plan's faults START active, golden logits must
  // describe the healthy device — otherwise a canary would "pass" on
  // faulted hardware and the breaker would never trip.
  auto plan = tiny_plan(heavy_faults());
  ASSERT_TRUE(plan->rom_macro().fault_model()->active());
  record_canaries(*plan, 2, {1, 3, 8, 8});
  ASSERT_TRUE(plan->rom_macro().fault_model()->active())
      << "recording must restore the active flag";

  const CanaryProbe& probe = plan->canaries().probes[0];
  plan->rom_macro().fault_model()->set_active(false);
  ExecutionContext healthy_ctx(*plan, probe.seed);
  const Tensor healthy = healthy_ctx.infer(probe.input);
  EXPECT_EQ(std::memcmp(healthy.data(), probe.golden.data(),
                        healthy.size() * sizeof(float)),
            0)
      << "golden == healthy output";

  plan->rom_macro().fault_model()->set_active(true);
  ExecutionContext faulted_ctx(*plan, probe.seed);
  const Tensor faulted = faulted_ctx.infer(probe.input);
  EXPECT_NE(std::memcmp(faulted.data(), probe.golden.data(),
                        faulted.size() * sizeof(float)),
            0)
      << "these fault rates must be canary-detectable";
}

TEST(PlanSerde, CanaryCountValidated) {
  auto plan = tiny_plan(FaultModelConfig{});
  EXPECT_THROW(record_canaries(*plan, 0, {1, 3, 8, 8}), std::runtime_error);
  EXPECT_THROW(record_canaries(*plan, 65, {1, 3, 8, 8}), std::runtime_error);
  EXPECT_THROW(record_canaries(*plan, 2, {2, 3, 8, 8}), std::runtime_error);
}

// ------------------------------------------------- ResilienceManager

TEST(ResilienceManager, BreakerTripsAndRecoversOnThresholds) {
  ResilienceOptions opt;
  opt.breaker_fail_threshold = 2;
  opt.breaker_recover_threshold = 3;
  ResilienceManager res(2, opt);
  EXPECT_EQ(res.healthy_workers(), 2);

  res.record_canary(0, false);
  EXPECT_TRUE(res.worker_healthy(0)) << "one fail is below the threshold";
  res.record_canary(0, true);  // pass resets the consecutive-fail count
  res.record_canary(0, false);
  EXPECT_TRUE(res.worker_healthy(0));
  res.record_canary(0, false);
  EXPECT_FALSE(res.worker_healthy(0)) << "2 consecutive fails trip";
  EXPECT_EQ(res.healthy_workers(), 1);

  res.record_canary(0, true);
  res.record_canary(0, true);
  EXPECT_FALSE(res.worker_healthy(0));
  res.record_canary(0, false);  // resets the recovery streak
  res.record_canary(0, true);
  res.record_canary(0, true);
  res.record_canary(0, true);
  EXPECT_TRUE(res.worker_healthy(0)) << "3 consecutive passes recover";

  const ResilienceSnapshot snap = res.snapshot();
  EXPECT_EQ(snap.breaker_trips, 1u);
  EXPECT_EQ(snap.breaker_recoveries, 1u);
  EXPECT_FALSE(snap.degraded);
}

TEST(ResilienceManager, QuarantineAndShedAccounting) {
  ResilienceManager res(4, ResilienceOptions{});
  res.force_trip(1);
  res.record_watchdog_fire(2);
  EXPECT_EQ(res.healthy_workers(), 2);
  EXPECT_DOUBLE_EQ(res.healthy_fraction(), 0.5);
  res.record_shed(Priority::kBestEffort);
  res.record_shed(Priority::kBestEffort);
  res.record_shed(Priority::kBatch);

  ResilienceSnapshot snap = res.snapshot();
  EXPECT_TRUE(snap.degraded);
  EXPECT_EQ(snap.breaker_open_workers, 1);
  EXPECT_EQ(snap.quarantined_workers, 1);
  EXPECT_EQ(snap.shed_requests[static_cast<int>(Priority::kBestEffort)], 2u);
  EXPECT_EQ(snap.shed_requests[static_cast<int>(Priority::kBatch)], 1u);
  EXPECT_NE(snap.degraded_reason.find("2/4"), std::string::npos)
      << snap.degraded_reason;

  res.clear_quarantine(2);
  EXPECT_EQ(res.healthy_workers(), 3);
  snap = res.snapshot();
  EXPECT_EQ(snap.quarantined_workers, 0);
  EXPECT_TRUE(snap.degraded) << "worker 1's breaker is still open";
}

// --------------------------------------------------- scheduler chaos

/// Poll `pred` at 2 ms until it holds or ~5 s elapse.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 2500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

TEST(SchedulerChaos, CanaryTripsBreakerShedsAndRecovers) {
  auto plan = tiny_plan([] {
    FaultModelConfig f = heavy_faults();
    f.start_active = false;  // drill: healthy at start
    return f;
  }());
  record_canaries(*plan, 2, {1, 3, 8, 8});

  SchedulerOptions options;
  options.workers = 2;
  options.max_microbatch = 1;
  options.resilience.canary_period = milliseconds(5);
  options.resilience.breaker_fail_threshold = 2;
  options.resilience.breaker_recover_threshold = 2;
  options.resilience.shed_best_effort_below = 0.75;
  options.resilience.shed_batch_below = 0.25;
  Scheduler scheduler(*plan, options);

  // Healthy phase: canaries pass, traffic serves, nothing is shed.
  Rng rng(3);
  const Tensor input = Tensor::rand_uniform({1, 3, 8, 8}, rng, 0.0f, 1.0f);
  EXPECT_NO_THROW(scheduler.submit(input, {Priority::kBestEffort}).get());
  ASSERT_TRUE(eventually(
      [&] { return scheduler.resilience_snapshot().canary_pass >= 2; }));
  EXPECT_EQ(scheduler.resilience_snapshot().breaker_trips, 0u);

  // Inject the fault mid-flight: canaries diverge from the golden
  // logits, both breakers trip, healthy capacity collapses.
  plan->rom_macro().fault_model()->set_active(true);
  ASSERT_TRUE(eventually(
      [&] { return scheduler.resilience_snapshot().healthy_workers == 0; }));
  {
    const ResilienceSnapshot snap = scheduler.resilience_snapshot();
    EXPECT_GE(snap.canary_fail, 4u);
    EXPECT_GE(snap.breaker_trips, 2u);
    EXPECT_EQ(snap.breaker_open_workers, 2);
    EXPECT_TRUE(snap.degraded);
  }

  // Degraded mode: best-effort and batch admissions shed (healthy
  // fraction 0 < both thresholds); interactive is never shed — it
  // queues and waits for recovery.
  auto shed_be = scheduler.submit(input, {Priority::kBestEffort});
  EXPECT_THROW(shed_be.get(), ShedError);
  auto shed_batch = scheduler.submit(input, {Priority::kBatch});
  EXPECT_THROW(shed_batch.get(), ShedError);
  auto queued_interactive =
      scheduler.submit(input, {Priority::kInteractive});
  {
    const ResilienceSnapshot snap = scheduler.resilience_snapshot();
    EXPECT_GE(snap.shed_requests[static_cast<int>(Priority::kBestEffort)],
              1u);
    EXPECT_GE(snap.shed_requests[static_cast<int>(Priority::kBatch)], 1u);
    EXPECT_EQ(snap.shed_requests[static_cast<int>(Priority::kInteractive)],
              0u);
  }

  // Clear the fault: canaries pass again, breakers close, the queued
  // interactive request drains on a recovered worker.
  plan->rom_macro().fault_model()->set_active(false);
  ASSERT_TRUE(eventually(
      [&] { return scheduler.resilience_snapshot().healthy_workers == 2; }));
  EXPECT_GE(scheduler.resilience_snapshot().breaker_recoveries, 2u);
  EXPECT_NO_THROW(queued_interactive.get());
  EXPECT_NO_THROW(scheduler.submit(input, {Priority::kBestEffort}).get());
  EXPECT_FALSE(scheduler.resilience_snapshot().degraded);

  // Determinism through chaos: a served request is bit-identical to a
  // serial healthy run regardless of everything that just happened.
  scheduler.wait_idle();
  scheduler.shutdown();
}

TEST(SchedulerChaos, WatchdogFailsHungBatchAndRespawns) {
  auto plan = tiny_plan(FaultModelConfig{});

  std::mutex hang_mutex;
  std::condition_variable hang_cv;
  bool hang_armed = true;
  bool hung = false;  // a worker is currently blocked in the hook

  SchedulerOptions options;
  options.workers = 1;
  options.max_microbatch = 1;
  options.resilience.watchdog_timeout = milliseconds(30);
  options.worker_fault_hook = [&](int) {
    std::unique_lock lock(hang_mutex);
    if (!hang_armed) return;
    hang_armed = false;  // only the first batch hangs
    hung = true;
    hang_cv.notify_all();
    hang_cv.wait(lock, [&] { return !hung; });
  };
  Scheduler scheduler(*plan, options);

  Rng rng(3);
  const Tensor input = Tensor::rand_uniform({1, 3, 8, 8}, rng, 0.0f, 1.0f);
  auto victim = scheduler.submit(input);
  {
    std::unique_lock lock(hang_mutex);
    hang_cv.wait(lock, [&] { return hung; });
  }

  // The watchdog declares the batch hung: its future fails retriably
  // and the worker is quarantined.
  EXPECT_THROW(victim.get(), WorkerHungError);
  ASSERT_TRUE(eventually(
      [&] { return scheduler.resilience_snapshot().quarantined_workers == 1; }));
  EXPECT_GE(scheduler.resilience_snapshot().watchdog_fires, 1u);
  EXPECT_TRUE(scheduler.resilience_snapshot().degraded);

  // A request submitted while the only worker is quarantined just
  // queues (interactive is never shed and no thresholds are set).
  auto queued = scheduler.submit(input, {Priority::kInteractive});

  // Release the hook: the late worker discovers its batch was settled,
  // clears its quarantine ("respawn") and drains the queue.
  {
    std::lock_guard lock(hang_mutex);
    hung = false;
  }
  hang_cv.notify_all();
  EXPECT_NO_THROW(queued.get());
  ASSERT_TRUE(eventually(
      [&] { return scheduler.resilience_snapshot().quarantined_workers == 0; }));
  EXPECT_FALSE(scheduler.resilience_snapshot().degraded);
  const MetricsSnapshot metrics = scheduler.metrics_snapshot();
  EXPECT_GE(metrics.classes[static_cast<int>(Priority::kBatch)]
                .failed_requests,
            1u)
      << "the hung batch's request counts as failed";
  scheduler.shutdown();
}

TEST(SchedulerChaos, ResilienceMetricsExported) {
  auto plan = tiny_plan(FaultModelConfig{});
  SchedulerOptions options;
  options.workers = 2;
  Scheduler scheduler(*plan, options);
  scheduler.trip_breaker(0);

  const MetricsSnapshot snap = scheduler.metrics_snapshot();
  EXPECT_EQ(snap.resilience.healthy_workers, 1);
  EXPECT_EQ(snap.resilience.breaker_open_workers, 1);
  const std::string prom = snap.to_prometheus();
  for (const char* name :
       {"yoloc_resilience_healthy_workers",
        "yoloc_resilience_breaker_open_workers",
        "yoloc_resilience_quarantined_workers",
        "yoloc_resilience_canary_pass_total",
        "yoloc_resilience_canary_fail_total",
        "yoloc_resilience_watchdog_fires_total",
        "yoloc_resilience_breaker_trips_total",
        "yoloc_resilience_breaker_recoveries_total",
        "yoloc_resilience_shed_requests_total",
        "yoloc_resilience_degraded"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name;
  }
  EXPECT_NE(prom.find("yoloc_resilience_healthy_workers 1"),
            std::string::npos);
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"resilience\":{"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(json.find("\"degraded_reason\":\"1/2 workers unhealthy"),
            std::string::npos)
      << json;
  scheduler.shutdown();
}

}  // namespace
}  // namespace yoloc

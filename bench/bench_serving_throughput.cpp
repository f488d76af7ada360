// Serving throughput of the DeploymentPlan / ExecutionContext /
// Scheduler runtime: images/s for batch sizes {1, 8, 32} x worker
// counts {1, 4, 8}, one JSON line per configuration (the perf-trajectory
// feed for BENCH_*.json) — plus `serving_scheduler` (fifo vs priority
// mix), `serving_fairness` (strict vs deficit-weighted round-robin under
// an interactive flood) and `serving_autobatch` (SLO-derived micro-batch
// cap) rows; see docs/serving.md for how to read them.
//
//   build/bench_serving_throughput [--mode=analog|exact] [--seconds=S]
//
// Workers scale with host cores; on an H-core box the batch-32 rows are
// expected to show ~min(workers, H)x images/s over the 1-worker row.
// YOLOC_THREADS pins the default worker count for CI.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "nn/zoo.hpp"
#include "runtime/deployment_plan.hpp"
#include "runtime/plan_serde.hpp"
#include "serve/scheduler.hpp"

namespace {

using namespace yoloc;
using Clock = std::chrono::steady_clock;

constexpr int kImageSize = 16;

std::unique_ptr<DeploymentPlan> build_plan(MacroMvmEngine::Mode mode) {
  ZooConfig zoo;
  zoo.image_size = kImageSize;
  zoo.base_width = 8;
  zoo.num_classes = 10;
  LayerPtr model = build_vgg8_lite(zoo, plain_conv_unit);
  for (Parameter* p : model->parameters()) {
    p->rom_resident = p->name.find("backbone") != std::string::npos;
  }
  Rng rng(7);
  Tensor calib =
      Tensor::rand_uniform({8, 3, kImageSize, kImageSize}, rng, 0.0f, 1.0f);
  DeploymentOptions options;
  options.mode = mode;
  return std::make_unique<DeploymentPlan>(std::move(model), calib,
                                          std::move(options));
}

struct RunResult {
  std::uint64_t images = 0;
  double seconds = 0.0;
  double avg_microbatch = 0.0;
  double energy_pj_per_image = 0.0;
};

/// Serve waves of `batch` single-image requests until `min_seconds` of
/// wall clock have elapsed (at least two waves).
RunResult run_config(const DeploymentPlan& plan, int workers, int batch,
                     double min_seconds) {
  SchedulerOptions options;
  options.workers = workers;
  options.max_microbatch = 8;
  Scheduler scheduler(plan, options);

  Rng rng(123);
  Tensor wave =
      Tensor::rand_uniform({batch, 3, kImageSize, kImageSize}, rng, 0.0f,
                           1.0f);
  (void)scheduler.infer(wave);  // warmup: touches every layer + scratch
  scheduler.wait_idle();
  scheduler.reset_stats();
  scheduler.reset_metrics();  // snapshot covers the timed phase only

  const auto start = Clock::now();
  std::uint64_t images = 0;
  int waves = 0;
  for (;;) {
    (void)scheduler.infer(wave);
    images += static_cast<std::uint64_t>(batch);
    ++waves;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (waves >= 2 && elapsed >= min_seconds) break;
  }
  scheduler.wait_idle();

  RunResult r;
  r.images = images;
  r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  // Served requests per batch; avg_batch_occupancy would also count the
  // requests of failed batches.
  const MetricsSnapshot m = scheduler.metrics_snapshot();
  r.avg_microbatch =
      m.batches == 0 ? 0.0
                     : static_cast<double>(m.served_requests) /
                           static_cast<double>(m.batches);
  r.energy_pj_per_image =
      images == 0 ? 0.0
                  : scheduler.total_energy_pj() / static_cast<double>(images);
  return r;
}

struct MixResult {
  double seconds = 0.0;
  MetricsSnapshot snapshot;
};

/// Scheduler phase: a batch-class flood (4-image requests, bounded
/// in-flight window) plus a closed-loop single-image probe stream. With
/// `priority_mix` the probes ride the interactive lane; without it
/// everything shares the batch lane — the FIFO-equivalent baseline the
/// acceptance criterion compares against (probe p99 queue-wait should
/// drop hard under the priority mix at near-equal total throughput).
MixResult run_mix(const DeploymentPlan& plan, int workers, double min_seconds,
                  bool priority_mix) {
  SchedulerOptions options;
  options.workers = workers;
  options.max_microbatch = 8;
  Scheduler scheduler(plan, options);

  Rng rng(123);
  const Tensor bulk =
      Tensor::rand_uniform({4, 3, kImageSize, kImageSize}, rng, 0.0f, 1.0f);
  const Tensor probe =
      Tensor::rand_uniform({1, 3, kImageSize, kImageSize}, rng, 0.0f, 1.0f);
  (void)scheduler.submit(bulk).get();  // warmup: layers, scratch, EWMA
  scheduler.wait_idle();
  scheduler.reset_metrics();  // snapshot covers the timed phase only

  const auto start = Clock::now();
  std::atomic<bool> stop{false};
  std::thread prober([&] {
    const SubmitOptions so{
        priority_mix ? Priority::kInteractive : Priority::kBatch,
        std::chrono::nanoseconds(0)};
    while (!stop.load(std::memory_order_relaxed)) {
      (void)scheduler.submit(probe, so).get();
      // Pace the probes: interactive traffic is sparse per user. An
      // unpaced closed loop would monopolize a strict-priority worker
      // and measure starvation, not scheduling.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::deque<std::future<Tensor>> window;
  for (;;) {
    window.push_back(scheduler.submit(bulk));
    if (window.size() > 32) {
      (void)window.front().get();
      window.pop_front();
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= min_seconds) break;
  }
  stop.store(true, std::memory_order_relaxed);
  prober.join();
  for (auto& f : window) (void)f.get();
  scheduler.wait_idle();

  MixResult r;
  r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  r.snapshot = scheduler.metrics_snapshot();
  return r;
}

/// Fairness phase: a sustained closed-loop interactive flood (deep
/// enough to keep every worker busy) plus a paced best-effort stream.
/// Under strict priority the best-effort lane starves until the flood
/// stops; under weighted-fair {8, 3, 1} it keeps its proportional share,
/// so its p99 stays bounded DURING the flood at near-equal total
/// throughput — the ISSUE-4 acceptance comparison. The snapshot is taken
/// at flood end, before the drain, so starvation is visible.
MixResult run_fairness(const DeploymentPlan& plan, int workers,
                       double min_seconds, bool weighted_fair) {
  SchedulerOptions options;
  options.workers = workers;
  options.max_microbatch = 8;
  if (weighted_fair) options.lane_weights = {8.0, 3.0, 1.0};
  Scheduler scheduler(plan, options);

  Rng rng(321);
  const Tensor flood_img =
      Tensor::rand_uniform({1, 3, kImageSize, kImageSize}, rng, 0.0f, 1.0f);
  const Tensor be_img =
      Tensor::rand_uniform({1, 3, kImageSize, kImageSize}, rng, 0.0f, 1.0f);
  (void)scheduler.submit(flood_img).get();  // warmup: layers, scratch, EWMA
  scheduler.wait_idle();
  scheduler.reset_metrics();

  const auto start = Clock::now();
  std::atomic<bool> stop{false};
  std::thread best_effort([&] {
    std::deque<std::future<Tensor>> window;
    while (!stop.load(std::memory_order_relaxed)) {
      window.push_back(scheduler.submit(
          be_img, {Priority::kBestEffort, std::chrono::nanoseconds(0)}));
      // Bounded in-flight: under strict priority these sit queued (that
      // IS the starvation being measured), so don't block on .get().
      if (window.size() > 8) {
        window.pop_front();  // future destroyed; promise still fulfilled
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    window.clear();
  });

  std::deque<std::future<Tensor>> flood;
  MixResult r;
  for (;;) {
    flood.push_back(scheduler.submit(
        flood_img, {Priority::kInteractive, std::chrono::nanoseconds(0)}));
    if (flood.size() > static_cast<std::size_t>(32 * workers)) {
      (void)flood.front().get();
      flood.pop_front();
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= min_seconds) break;
  }
  // Snapshot while the flood is still live: best-effort starvation under
  // strict priority only shows before the flood drains.
  r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  r.snapshot = scheduler.metrics_snapshot();
  stop.store(true, std::memory_order_relaxed);
  best_effort.join();
  for (auto& f : flood) (void)f.get();
  scheduler.wait_idle();
  return r;
}

/// SLO-aware auto-batching phase: one deep closed-loop batch-lane stream;
/// with a lane SLO the effective micro-batch shrinks to the latency
/// budget instead of always fusing to the global cap.
MixResult run_autobatch(const DeploymentPlan& plan, double min_seconds,
                        std::chrono::nanoseconds slo) {
  SchedulerOptions options;
  options.workers = 1;
  options.max_microbatch = 8;
  options.lane_slo[static_cast<std::size_t>(Priority::kBatch)] = slo;
  Scheduler scheduler(plan, options);

  Rng rng(555);
  const Tensor img =
      Tensor::rand_uniform({1, 3, kImageSize, kImageSize}, rng, 0.0f, 1.0f);
  (void)scheduler.submit(img).get();  // warmup populates the EWMA estimate
  scheduler.wait_idle();
  scheduler.reset_metrics();

  const auto start = Clock::now();
  std::deque<std::future<Tensor>> window;
  for (;;) {
    window.push_back(scheduler.submit(img));
    if (window.size() > 48) {
      (void)window.front().get();
      window.pop_front();
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= min_seconds) break;
  }
  for (auto& f : window) (void)f.get();
  scheduler.wait_idle();

  MixResult r;
  r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  r.snapshot = scheduler.metrics_snapshot();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  MacroMvmEngine::Mode mode = MacroMvmEngine::Mode::kExactCost;
  double min_seconds = 0.4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mode=analog") == 0) {
      mode = MacroMvmEngine::Mode::kAnalog;
    } else if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      min_seconds = std::atof(argv[i] + 10);
    }
  }

  const char* mode_name =
      mode == MacroMvmEngine::Mode::kAnalog ? "analog" : "exact-cost";

  // Cold-start comparison: lowering + calibration from the float model
  // vs. rebuilding the same plan from a .yolocplan artifact. The serving
  // rows below run on the LOADED plan, so the whole trajectory exercises
  // the calibration-free startup path.
  const auto build_start = Clock::now();
  auto fresh = build_plan(mode);
  const double calibrate_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - build_start)
          .count();
  // PID-unique name: concurrent bench runs must not clobber each other's
  // artifact (mode travels inside it — a collision would mislabel rows).
  const auto plan_path =
      std::filesystem::temp_directory_path() /
      ("bench_serving." + std::to_string(::getpid()) + kPlanFileExtension);
  save_plan(*fresh, plan_path.string());
  fresh.reset();
  const auto load_start = Clock::now();
  auto plan = load_plan(plan_path.string());
  const double load_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - load_start)
          .count();
  const auto plan_bytes = std::filesystem::file_size(plan_path);
  std::filesystem::remove(plan_path);
  std::printf(
      "{\"bench\":\"serving_startup\",\"mode\":\"%s\","
      "\"startup_ms\":{\"calibrate\":%.3f,\"load_plan\":%.3f},"
      "\"plan_bytes\":%llu}\n",
      mode_name, calibrate_ms, load_ms,
      static_cast<unsigned long long>(plan_bytes));
  std::fflush(stdout);

  const unsigned host_cores = std::thread::hardware_concurrency();

  for (const int workers : {1, 4, 8}) {
    for (const int batch : {1, 8, 32}) {
      const RunResult r = run_config(*plan, workers, batch, min_seconds);
      std::printf(
          "{\"bench\":\"serving_throughput\",\"mode\":\"%s\","
          "\"workers\":%d,\"batch\":%d,\"microbatch\":8,"
          "\"host_cores\":%u,\"pool_workers\":%zu,"
          "\"images\":%llu,\"seconds\":%.4f,\"images_per_s\":%.2f,"
          "\"avg_microbatch\":%.2f,\"energy_pj_per_image\":%.1f}\n",
          mode_name, workers, batch, host_cores, parallel_workers(),
          static_cast<unsigned long long>(r.images), r.seconds,
          static_cast<double>(r.images) / r.seconds, r.avg_microbatch,
          r.energy_pj_per_image);
      std::fflush(stdout);
    }
  }

  // Priority-mix trajectory: FIFO-equivalent baseline vs. priority
  // scheduling, same synthetic load. Headline fields surface the
  // acceptance comparison (probe-class p99 queue-wait, total images/s);
  // the full MetricsRegistry snapshot (per-class p50/p95/p99 latency,
  // batch occupancy, expired/rejected counts) is embedded verbatim.
  for (const int workers : {1, 4}) {
    for (const bool priority_mix : {false, true}) {
      const MixResult r = run_mix(*plan, workers, min_seconds, priority_mix);
      const auto& probe_class =
          r.snapshot.classes[static_cast<std::size_t>(
              priority_mix ? Priority::kInteractive : Priority::kBatch)];
      const auto& bulk_class =
          r.snapshot.classes[static_cast<std::size_t>(Priority::kBatch)];
      std::printf(
          "{\"bench\":\"serving_scheduler\",\"mode\":\"%s\",\"mix\":\"%s\","
          "\"workers\":%d,\"seconds\":%.4f,\"images_per_s\":%.2f,"
          "\"probe_p99_queue_ms\":%.4f,\"bulk_p99_queue_ms\":%.4f,"
          "\"metrics\":%s}\n",
          mode_name, priority_mix ? "priority" : "fifo", workers, r.seconds,
          static_cast<double>(r.snapshot.served_images) / r.seconds,
          probe_class.queue_wait.p99_ms, bulk_class.queue_wait.p99_ms,
          r.snapshot.to_json().c_str());
      std::fflush(stdout);
    }
  }

  // Fairness trajectory: strict priority vs deficit-weighted round-robin
  // under a sustained interactive flood. The acceptance criterion reads
  // off these rows: weighted_fair keeps be_p99_e2e_ms bounded (strict
  // starves the lane: be_served ~ 0 and the p99 is the flood length)
  // while images_per_s stays within ~5% of the strict row.
  for (const int workers : {1, 4}) {
    for (const bool weighted_fair : {false, true}) {
      const MixResult r =
          run_fairness(*plan, workers, min_seconds, weighted_fair);
      const auto& be = r.snapshot.classes[static_cast<std::size_t>(
          Priority::kBestEffort)];
      const auto& inter = r.snapshot.classes[static_cast<std::size_t>(
          Priority::kInteractive)];
      std::printf(
          "{\"bench\":\"serving_fairness\",\"mode\":\"%s\","
          "\"policy\":\"%s\",\"workers\":%d,\"seconds\":%.4f,"
          "\"images_per_s\":%.2f,\"be_served\":%llu,\"be_queued\":%llu,"
          "\"be_p99_e2e_ms\":%.4f,\"interactive_p99_queue_ms\":%.4f}\n",
          mode_name, weighted_fair ? "weighted_fair" : "strict", workers,
          r.seconds,
          static_cast<double>(r.snapshot.served_images) / r.seconds,
          static_cast<unsigned long long>(be.served_requests),
          static_cast<unsigned long long>(be.queue_depth), be.e2e.p99_ms,
          inter.queue_wait.p99_ms);
      std::fflush(stdout);
    }
  }

  // SLO-aware auto-batching trajectory: the same deep batch-lane stream
  // with no SLO (fuses to the global micro-batch cap) vs a tight lane
  // SLO (the effective cap shrinks to the latency budget). Expect
  // avg_microbatch and p99 e2e to drop together on the SLO row.
  for (const double slo_ms : {0.0, 2.0}) {
    const MixResult r = run_autobatch(
        *plan, min_seconds,
        std::chrono::nanoseconds(static_cast<std::int64_t>(slo_ms * 1e6)));
    const auto& batch_class =
        r.snapshot.classes[static_cast<std::size_t>(Priority::kBatch)];
    std::printf(
        "{\"bench\":\"serving_autobatch\",\"mode\":\"%s\","
        "\"slo_ms\":%.1f,\"seconds\":%.4f,\"images_per_s\":%.2f,"
        "\"avg_microbatch\":%.2f,\"max_microbatch\":%d,"
        "\"batch_p99_e2e_ms\":%.4f}\n",
        mode_name, slo_ms, r.seconds,
        static_cast<double>(r.snapshot.served_images) / r.seconds,
        r.snapshot.avg_batch_occupancy, r.snapshot.max_batch_occupancy,
        batch_class.e2e.p99_ms);
    std::fflush(stdout);
  }
  return 0;
}

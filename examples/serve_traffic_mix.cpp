// Mixed-priority serving demo on the scheduler subsystem (src/serve/).
//
//   build/serve_traffic_mix [--plan PATH] [--seconds=S] [--strict]
//                           [--prometheus]
//
// Loads a .yolocplan artifact (or lowers a VGG-8-lite in-process when no
// --plan is given), then replays a mixed workload against one Scheduler:
//   * interactive  — single-image requests with a 100 ms deadline, a
//                    20 ms SLO budget (auto-batching cap) and one
//                    reserved worker when enough workers exist,
//   * batch        — 4-image requests, no deadline,
//   * best-effort  — single-image requests with a deliberately tight
//                    deadline so some are shed (admission/expiry).
// Lanes run under weighted-fair scheduling ({8, 3, 1}; pass --strict for
// the legacy strict-priority policy). Finishes by printing the
// MetricsRegistry JSON snapshot plus a short human-readable digest —
// or, with --prometheus, the Prometheus text exposition a /metrics
// endpoint would serve (see docs/serving.md for every metric).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "nn/zoo.hpp"
#include "runtime/plan_serde.hpp"
#include "serve/scheduler.hpp"

namespace {

using namespace yoloc;
using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;
using std::chrono::microseconds;

constexpr int kImageSize = 16;

std::unique_ptr<DeploymentPlan> build_plan() {
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
  options.mode = MacroMvmEngine::Mode::kExactCost;
  return std::make_unique<DeploymentPlan>(std::move(model), calib,
                                          std::move(options));
}

Tensor make_images(int n, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::rand_uniform({n, 3, kImageSize, kImageSize}, rng, 0.0f,
                              1.0f);
}

void drain(std::vector<std::future<Tensor>>& futures, std::uint64_t* failed) {
  for (auto& f : futures) {
    try {
      (void)f.get();
    } catch (const std::exception&) {
      if (failed) ++*failed;
    }
  }
  futures.clear();
}

void print_class_digest(const ClassSnapshot& c, const char* name) {
  std::printf(
      "  %-12s served %5llu req / %5llu img   queue-wait p50 %7.3f ms  "
      "p95 %7.3f ms  p99 %7.3f ms   expired %llu  rejected %llu\n",
      name, static_cast<unsigned long long>(c.served_requests),
      static_cast<unsigned long long>(c.served_images), c.queue_wait.quantile_ms(0.50),
      c.queue_wait.quantile_ms(0.95), c.queue_wait.quantile_ms(0.99),
      static_cast<unsigned long long>(c.expired_requests),
      static_cast<unsigned long long>(c.rejected_requests));
}

}  // namespace

int main(int argc, char** argv) {
  std::string plan_path;
  double seconds = 2.0;
  bool strict = false;
  bool prometheus = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--plan") == 0 && i + 1 < argc) {
      plan_path = argv[++i];
    } else if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      seconds = std::atof(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--prometheus") == 0) {
      prometheus = true;
    } else {
      std::fprintf(stderr,
                   "usage: serve_traffic_mix [--plan PATH] [--seconds=S] "
                   "[--strict] [--prometheus]\n");
      return 2;
    }
  }

  std::unique_ptr<DeploymentPlan> plan;
  if (!plan_path.empty()) {
    plan = load_plan(plan_path);
    std::printf("cold-loaded %s (%d quantized layers)\n", plan_path.c_str(),
                plan->quantized_layer_count());
  } else {
    plan = build_plan();
    std::printf("lowered VGG-8-lite in-process (pass --plan PATH to serve a "
                ".yolocplan artifact)\n");
  }

  SchedulerOptions options;
  options.max_microbatch = 8;
  options.max_queue_depth = 256;
  if (!strict) {
    // Weighted-fair: interactive gets the lion's share but best-effort
    // keeps a bounded slice instead of starving; the interactive lane
    // also gets a 20 ms SLO budget (auto-batching) and — when the pool
    // is big enough — one dedicated worker of headroom.
    options.lane_weights = {8.0, 3.0, 1.0};
    options.lane_slo[static_cast<std::size_t>(Priority::kInteractive)] =
        milliseconds(20);
  }
  if (!strict && parallel_workers() >= 4) {
    // Reservations must leave shared workers for the other lanes.
    options.lane_reservations[static_cast<std::size_t>(
        Priority::kInteractive)] = 1;
  }
  Scheduler scheduler(*plan, options);
  std::printf(
      "scheduler: %d workers (%d reserved interactive), microbatch <= %d, "
      "lane depth cap %llu, policy %s\n",
      scheduler.worker_count(),
      options.lane_reservations[static_cast<std::size_t>(
          Priority::kInteractive)],
      options.max_microbatch,
      static_cast<unsigned long long>(options.max_queue_depth),
      strict ? "strict-priority" : "weighted-fair {8,3,1}");

  const Tensor interactive_img = make_images(1, 11);
  const Tensor batch_img = make_images(4, 22);
  const Tensor best_effort_img = make_images(1, 33);

  SubmitOptions interactive{Priority::kInteractive, milliseconds(100)};
  SubmitOptions batch{Priority::kBatch, milliseconds(0)};
  // Tight enough that a loaded scheduler sheds some of this class.
  SubmitOptions best_effort{Priority::kBestEffort, microseconds(300)};

  std::vector<std::future<Tensor>> in_flight;
  std::uint64_t shed = 0;
  const auto start = Clock::now();
  std::uint64_t wave = 0;
  while (std::chrono::duration<double>(Clock::now() - start).count() <
         seconds) {
    // One interactive probe per wave, a burst of batch work, and some
    // best-effort stragglers. Bounded in-flight window keeps the demo
    // closed-loop.
    in_flight.push_back(scheduler.submit(interactive_img, interactive));
    for (int i = 0; i < 4; ++i) {
      in_flight.push_back(scheduler.submit(batch_img, batch));
    }
    in_flight.push_back(scheduler.submit(best_effort_img, best_effort));
    ++wave;
    if (in_flight.size() >= 96) drain(in_flight, &shed);
  }
  drain(in_flight, &shed);
  scheduler.wait_idle();

  if (prometheus) {
    // What a /metrics endpoint would serve for this run.
    std::fputs(scheduler.to_prometheus().c_str(), stdout);
    return 0;
  }

  const MetricsSnapshot snap = scheduler.metrics_snapshot();
  std::printf("\nmetrics snapshot (JSON):\n%s\n\n", snap.to_json().c_str());

  std::printf("digest after %llu waves:\n",
              static_cast<unsigned long long>(wave));
  print_class_digest(snap.classes[0], "interactive");
  print_class_digest(snap.classes[1], "batch");
  print_class_digest(snap.classes[2], "best-effort");
  std::printf(
      "  batches %llu (occupancy mean %.2f, max %d)   rolling %.1f img/s   "
      "macro energy %.1f pJ/img   %llu futures failed (shed/expired)\n",
      static_cast<unsigned long long>(snap.batches),
      snap.avg_batch_occupancy, snap.max_batch_occupancy,
      snap.rolling_images_per_s,
      snap.served_images
          ? scheduler.total_energy_pj() /
                static_cast<double>(snap.served_images)
          : 0.0,
      static_cast<unsigned long long>(shed));
  return 0;
}

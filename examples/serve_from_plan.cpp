// Deployment artifact round trip (the paper's tape-out lifecycle in
// software): lower a model ONCE into a DeploymentPlan, freeze it as a
// .yolocplan artifact, then cold-start serving from that artifact in a
// state that holds neither the float model nor any calibration images.
//
//   build/serve_from_plan                 # save -> cold-load -> serve demo
//   build/serve_from_plan --save PATH     # write an artifact and exit
//   build/serve_from_plan --load PATH     # serve from an existing artifact
//
// The --save mode doubles as the CTest fixture that provides the golden
// artifact for `ctest -L serde` (a true cross-process round trip); the
// argument-less round trip is a `serde` CTest of its own (exit 1 on a
// bit-identity mismatch).

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "nn/zoo.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/plan_serde.hpp"
#include "serve/scheduler.hpp"

namespace {

using namespace yoloc;
using Clock = std::chrono::steady_clock;

constexpr int kImageSize = 16;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Optional fault-injection / canary knobs for --save (all off by
/// default, which keeps the plain `--save PATH` fixture byte-stable at
/// format version 1).
struct ArtifactFlags {
  double stuck_rate = 0.0;  ///< stuck-at-0 AND stuck-at-1 rate (ROM macro)
  double flip_rate = 0.0;   ///< transient flip rate (SRAM macro)
  std::uint64_t fault_seed = 1;
  bool fault_inactive = false;  ///< record faults dormant (chaos drills)
  int canaries = 0;             ///< golden probes to record into the plan
};

/// Lower a VGG-8-lite (backbone in ROM, head in SRAM) through the full
/// deploy pipeline: BN fold -> int8 -> engine selection -> calibration.
std::unique_ptr<DeploymentPlan> build_plan(const ArtifactFlags& flags = {}) {
  ZooConfig zoo;
  zoo.image_size = kImageSize;
  zoo.base_width = 8;
  zoo.num_classes = 10;
  LayerPtr model = build_vgg8_lite(zoo, plain_conv_unit);
  for (Parameter* p : model->parameters()) {
    p->rom_resident = p->name.find("backbone") != std::string::npos;
  }
  DeploymentOptions options;
  if (flags.stuck_rate > 0.0) {
    options.rom_macro.faults.seed = flags.fault_seed;
    options.rom_macro.faults.stuck_at_zero_rate = flags.stuck_rate;
    options.rom_macro.faults.stuck_at_one_rate = flags.stuck_rate;
    options.rom_macro.faults.start_active = !flags.fault_inactive;
  }
  if (flags.flip_rate > 0.0) {
    options.sram_macro.faults.seed = flags.fault_seed;
    options.sram_macro.faults.transient_flip_rate = flags.flip_rate;
    options.sram_macro.faults.start_active = !flags.fault_inactive;
  }
  Rng rng(7);
  Tensor calib =
      Tensor::rand_uniform({8, 3, kImageSize, kImageSize}, rng, 0.0f, 1.0f);
  auto plan =
      std::make_unique<DeploymentPlan>(std::move(model), calib, options);
  if (flags.canaries > 0) {
    record_canaries(*plan, flags.canaries, {1, 3, kImageSize, kImageSize});
  }
  return plan;
}

void serve_demo(const DeploymentPlan& plan) {
  SchedulerOptions options;
  options.max_microbatch = 4;
  Scheduler scheduler(plan, options);
  Rng rng(99);
  Tensor traffic =
      Tensor::rand_uniform({16, 3, kImageSize, kImageSize}, rng, 0.0f, 1.0f);
  (void)scheduler.infer(traffic);
  scheduler.wait_idle();
  const MetricsSnapshot metrics = scheduler.metrics_snapshot();
  std::printf(
      "served %llu images on %d workers in %llu micro-batches, "
      "%.1f pJ/image macro energy\n",
      static_cast<unsigned long long>(metrics.served_images),
      scheduler.worker_count(),
      static_cast<unsigned long long>(metrics.batches),
      scheduler.total_energy_pj() /
          static_cast<double>(metrics.served_images));
}

int save_artifact(const std::string& path, const ArtifactFlags& flags) {
  const auto start = Clock::now();
  auto plan = build_plan(flags);
  const double build_ms = ms_since(start);
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  save_plan(*plan, path);
  std::printf("lowered + calibrated in %.1f ms; saved %llu-byte plan to %s\n",
              build_ms,
              static_cast<unsigned long long>(std::filesystem::file_size(path)),
              path.c_str());
  return 0;
}

int load_and_serve(const std::string& path) {
  const auto start = Clock::now();
  auto plan = load_plan(path);
  std::printf("cold-loaded %s in %.1f ms (%d quantized layers, "
              "no calibration run)\n",
              path.c_str(), ms_since(start), plan->quantized_layer_count());
  serve_demo(*plan);
  return 0;
}

int round_trip_demo() {
  // PID-unique name so concurrent demo runs don't clobber each other.
  const auto path =
      (std::filesystem::temp_directory_path() /
       ("serve_from_plan." + std::to_string(::getpid()) + kPlanFileExtension))
          .string();

  const auto build_start = Clock::now();
  auto original = build_plan();
  const double build_ms = ms_since(build_start);
  save_plan(*original, path);

  // Reference output before the original plan (and with it every float
  // weight and calibration artifact) is destroyed.
  Rng rng(42);
  Tensor probe =
      Tensor::rand_uniform({2, 3, kImageSize, kImageSize}, rng, 0.0f, 1.0f);
  ExecutionContext ref_ctx(*original, 2024);
  Tensor reference = ref_ctx.infer(probe);
  original.reset();

  const auto load_start = Clock::now();
  auto loaded = load_plan(path);
  const double load_ms = ms_since(load_start);
  std::printf("startup: calibrate-from-scratch %.1f ms vs load-from-plan "
              "%.1f ms (%.0fx faster cold start)\n",
              build_ms, load_ms, build_ms / load_ms);

  ExecutionContext ctx(*loaded, 2024);
  Tensor served = ctx.infer(probe);
  const bool identical =
      same_shape(reference, served) &&
      std::memcmp(reference.data(), served.data(),
                  reference.size() * sizeof(float)) == 0;
  std::printf("loaded plan output bit-identical to saver: %s\n",
              identical ? "yes" : "NO — format bug");

  serve_demo(*loaded);
  std::filesystem::remove(path);
  return identical ? 0 : 1;
}

}  // namespace

int usage() {
  std::fprintf(
      stderr,
      "usage: serve_from_plan [--save PATH | --load PATH] [save options]\n"
      "  --fault-stuck R      stuck-at-0 AND stuck-at-1 rate (ROM macro)\n"
      "  --fault-flip R       transient flip rate (SRAM macro)\n"
      "  --fault-seed S       fault-pattern seed (default 1)\n"
      "  --fault-inactive     record the faults dormant (chaos drills\n"
      "                       activate them at runtime)\n"
      "  --canaries N         record N golden canary probes in the plan\n");
  return 2;
}

int main(int argc, char** argv) {
  std::string save_path, load_path;
  ArtifactFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fault-inactive") {
      flags.fault_inactive = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--save") {
      save_path = value;
    } else if (arg == "--load") {
      load_path = value;
    } else if (arg == "--fault-stuck") {
      flags.stuck_rate = std::atof(value);
    } else if (arg == "--fault-flip") {
      flags.flip_rate = std::atof(value);
    } else if (arg == "--fault-seed") {
      flags.fault_seed = static_cast<std::uint64_t>(std::atoll(value));
    } else if (arg == "--canaries") {
      flags.canaries = std::atoi(value);
    } else {
      return usage();
    }
  }
  if (!save_path.empty()) return save_artifact(save_path, flags);
  if (!load_path.empty()) return load_and_serve(load_path);
  return round_trip_demo();
}

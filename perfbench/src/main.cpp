// Serving benchmark: deploys one of two plans from the zoo with a
// fixed seed, serves it from a live yoloc_serve over loopback HTTP, and
// drives it from this process with a seeded request stream. Every
// response is checked against an in-process ExecutionContext on the
// same plan. The last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/run.py builds this binary and runs it.
//
//   perfbench_serving --workload rebranch_batch --seed 3 --seconds 10
//       --trace 0 --serve .bench_build/yoloc/yoloc_serve
//       --work-dir .bench_build/perfbench/run --record record.json

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/base64.hpp"
#include "common/parallel.hpp"
#include "common/trace_clock.hpp"
#include "harness.hpp"
#include "loadgen.hpp"
#include "nn/zoo.hpp"
#include "rebranch/rebranch.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/plan_serde.hpp"

namespace {

using namespace perfbench;
using yoloc::DeploymentPlan;
using yoloc::EngineKind;
using yoloc::ExecutionContext;
using yoloc::MacroRunStats;
using yoloc::Tensor;
using Mode = yoloc::MacroMvmEngine::Mode;
using Clock = yoloc::TraceClock;

// ------------------------------------------------------------ workloads

enum class Net { kVgg8, kRebranchResnet18 };

struct Workload {
  const char* name;
  Net net;
  Mode mode;
  std::array<int, 3> mix;    ///< interactive:batch:best_effort requests
  int batch_images;          ///< images per batch-lane request
  int pool_images;           ///< distinct images drawn from the seed
  int max_microbatch;        ///< yoloc_serve --max-microbatch; 0 = default
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"analog_closed", Net::kVgg8, Mode::kAnalog, {2, 1, 1}, 1, 24, 0},
    // Interactive 1-image probes ride along one request in four, so the
    // batch-lane mix still reports interactive latency. With 3 connections
    // and 2 workers at most one batch request waits, so batches fuse only
    // through a wake-up race; each worker's scratch then grows by ~6 MiB
    // at a random time, and peak RSS read 17, 23 or 28 MiB from run to
    // run. Capping fusion at one request keeps the peak repeatable.
    {"rebranch_batch", Net::kRebranchResnet18, Mode::kExactCost, {1, 3, 0}, 8,
     64, 1},
};

constexpr int kServerWorkers = 2;
constexpr int kConnections = 3;
// Cold starts per run, half before the traffic and half after it, so a
// slow spell of the host during one part of the run does not set
// setup_s alone.
constexpr int kColdStartsBefore = 12;
constexpr int kColdStartsAfter = 12;
constexpr int kLoadPlanRepeats = 3;
constexpr double kWarmupSeconds = 0.5;
constexpr std::uint64_t kPlanSeed = 42;         // zoo weights
constexpr std::uint64_t kCalibrationSeed = 7;   // calibration images
constexpr std::uint64_t kReferenceNoiseSeed = 2024;
constexpr std::uint64_t kProbeSeed = 0xD5EED;  // seed-independent probe
constexpr int kNumClasses = 10;

// Analog output gate. Server noise streams differ from the reference's,
// so responses are compared statistically: top-1 agreement with the
// in-process analog reference over all served images, and the relative
// L2 logit error per image.
// Two analog runs of one image differ by ~1% (median relative error
// ~0.009, top-1 always equal on this plan), so the bounds leave 5x room.
constexpr double kAnalogMinTop1Agreement = 0.95;
constexpr double kAnalogMaxMedianRelErr = 0.05;
constexpr double kAnalogMaxRelErr = 0.25;

// Noisy-neighbour bursts on a shared VM last seconds and inflate every
// latency inside them several-fold. Latency percentiles are therefore
// taken per window of about this length (requests binned by send time)
// and the run reports the median across windows, so a burst shorter than
// half the run does not move the result. The pooled figure over all requests is printed beside it.
constexpr double kWindowSeconds = 2.0;

// A generator whose own delay (LoadResult::stall_ms) exceeds this at p99
// is flagged: that lateness is the client's, not the server's.
constexpr double kMaxGeneratorStallP99Ms = 1.0;

int image_size(Net net) { return net == Net::kVgg8 ? 16 : 32; }

std::unique_ptr<DeploymentPlan> build_plan(const Workload& w,
                                           SpanRecorder* spans,
                                           std::uint64_t parent,
                                           double& ctor_ms) {
  yoloc::ZooConfig zoo;
  zoo.image_size = image_size(w.net);
  zoo.base_width = 8;
  zoo.num_classes = kNumClasses;
  zoo.seed = kPlanSeed;
  yoloc::LayerPtr model;
  if (w.net == Net::kVgg8) {
    model = yoloc::build_vgg8_lite(zoo, yoloc::plain_conv_unit);
    for (yoloc::Parameter* p : model->parameters()) {
      p->rom_resident = p->name.find("backbone") != std::string::npos;
    }
  } else {
    model = yoloc::build_resnet18_lite(
        zoo, yoloc::make_rebranch_factory(yoloc::ReBranchConfig{}));
    yoloc::apply_transfer_policy(*model, yoloc::TransferOption::kReBranch);
  }
  yoloc::DeploymentOptions options;
  options.mode = w.mode;
  yoloc::Rng rng(kCalibrationSeed);
  const Tensor calibration = Tensor::rand_uniform(
      {8, 3, zoo.image_size, zoo.image_size}, rng, 0.0f, 1.0f);
  // The plan is built with the shared kernel pool off. On a shared
  // 4-vCPU host a parallel region waits for its slowest thread, and the
  // parallel build swung 2-3x with the neighbours' load; the serial one
  // is ~15% slower on a quiet host and moved far less.
  const yoloc::ParallelSerialGuard serial;
  const std::uint64_t t0 = yoloc::trace_now_ns();
  auto plan = std::make_unique<DeploymentPlan>(std::move(model), calibration,
                                               options);
  const std::uint64_t t1 = yoloc::trace_now_ns();
  ctor_ms = static_cast<double>(t1 - t0) / 1e6;
  if (spans != nullptr) {
    spans->add({0, parent, 0, "runtime.plan_build", w.name, t0, t1});
  }
  return plan;
}

/// `count` images of the workload's geometry, uniform in [0, 1).
Tensor draw_images(const Workload& w, int count, std::uint64_t seed) {
  yoloc::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x7F4A7C15ull);
  const int s = image_size(w.net);
  return Tensor::rand_uniform({count, 3, s, s}, rng, 0.0f, 1.0f);
}

Tensor slice(const Tensor& images, int first, int count) {
  const auto& shape = images.shape();
  const std::size_t per = images.size() / static_cast<std::size_t>(shape[0]);
  Tensor out({count, shape[1], shape[2], shape[3]});
  std::memcpy(out.data(), images.data() + per * static_cast<std::size_t>(first),
              per * static_cast<std::size_t>(count) * sizeof(float));
  return out;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

const char* kPriorityNames[3] = {"interactive", "batch", "best_effort"};

/// The seeded request stream: request index -> lane and images, with
/// every distinct JSON body built once up front.
class RequestStream {
 public:
  RequestStream(const Workload& w, const Tensor& pool, std::uint64_t seed)
      : w_(w), seed_(seed) {
    const int groups = w.pool_images / w.batch_images;
    for (int p = 0; p < 3; ++p) {
      if (w.mix[static_cast<std::size_t>(p)] == 0) continue;
      const int per = images_for(p);
      const int units = per == 1 ? w.pool_images : groups;
      for (int u = 0; u < units; ++u) {
        bodies_[static_cast<std::size_t>(p)].push_back(
            body(slice(pool, u * per, per), kPriorityNames[p]));
      }
    }
  }

  [[nodiscard]] int images_for(int priority) const {
    return priority == 1 ? w_.batch_images : 1;
  }

  [[nodiscard]] LoadRequest at(std::uint64_t index) const {
    const std::uint64_t h = mix64(seed_ ^ mix64(index));
    const int total = w_.mix[0] + w_.mix[1] + w_.mix[2];
    int pick = static_cast<int>(h % static_cast<std::uint64_t>(total));
    int priority = 0;
    while (pick >= w_.mix[static_cast<std::size_t>(priority)]) {
      pick -= w_.mix[static_cast<std::size_t>(priority)];
      ++priority;
    }
    const auto& bodies = bodies_[static_cast<std::size_t>(priority)];
    const std::size_t unit = (h >> 32) % bodies.size();
    LoadRequest request;
    request.index = index;
    request.priority = priority;
    request.images = images_for(priority);
    request.first_image = static_cast<int>(unit) * request.images;
    request.body = &bodies[unit];
    return request;
  }

  /// The 1-image interactive request for pool image `image`: every cold
  /// start's first result has this one shape, whatever the seed.
  [[nodiscard]] LoadRequest first_result(int image) const {
    const auto& bodies = bodies_[0];
    if (bodies.empty()) throw std::runtime_error("workload has no lane 0");
    LoadRequest request;
    request.images = 1;
    request.first_image = image % static_cast<int>(bodies.size());
    request.body = &bodies[static_cast<std::size_t>(request.first_image)];
    return request;
  }

 private:
  static std::string body(const Tensor& images, const char* priority) {
    const auto& s = images.shape();
    std::string out = "{\"shape\":[" + std::to_string(s[0]) + "," +
                      std::to_string(s[1]) + "," + std::to_string(s[2]) +
                      "," + std::to_string(s[3]) + "],\"priority\":\"" +
                      priority + "\",\"data_b64\":\"";
    out += yoloc::base64_encode(images.data(), images.size() * sizeof(float));
    out += "\"}";
    return out;
  }

  const Workload& w_;
  std::uint64_t seed_;
  std::array<std::vector<std::string>, 3> bodies_;
};

// ------------------------------------------------- in-process reference

/// Per-layer-phase host time accumulated by the layer-trace hook.
class LayerSpanSink final : public yoloc::LayerTraceSink {
 public:
  explicit LayerSpanSink(SpanRecorder& spans) : spans_(spans) {}

  void set_parent(std::uint64_t parent, std::uint64_t request) {
    parent_ = parent;
    request_ = request;
  }

  void layer_span(const char* phase, const char* layer, EngineKind engine,
                  std::uint64_t start_ns, std::uint64_t end_ns) override {
    const bool im2col = std::strcmp(phase, "im2col") == 0;
    spans_.add({0, parent_, request_, im2col ? "nn.im2col" : "macro.mvm",
                layer, start_ns, end_ns});
    const int e = engine == EngineKind::kSram ? 1 : 0;
    (im2col ? im2col_ns : mvm_ns)[e] += static_cast<double>(end_ns - start_ns);
  }

  std::array<double, 2> im2col_ns{};  ///< [rom, sram]
  std::array<double, 2> mvm_ns{};

 private:
  SpanRecorder& spans_;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
};

struct ReferencePass {
  std::vector<float> logits;  ///< pool_images x kNumClasses
  MacroRunStats rom;
  MacroRunStats sram;
  int images = 0;
  // Serial pass only; im2col and MVM with a span recorder only:
  double infer_ns = 0;
  std::array<double, 2> im2col_ns{};
  std::array<double, 2> mvm_ns{};
};

/// Runs `images` through `plan` in-process, in units of `unit` images
/// (the workload's request shape), the way a scheduler worker does:
/// single-threaded per unit. Analog units are reseeded per unit, so the
/// result does not depend on how units are spread over threads. `serial`
/// runs every unit on this thread, one after another; `spans` (serial
/// only) also installs the layer-trace hook and times each unit.
ReferencePass reference_pass(const DeploymentPlan& plan, const Tensor& images,
                             int unit, bool serial, SpanRecorder* spans) {
  const int count = images.shape()[0];
  const int units = count / unit;
  ReferencePass out;
  out.images = count;
  out.logits.resize(static_cast<std::size_t>(count) * kNumClasses);
  std::vector<MacroRunStats> rom(static_cast<std::size_t>(units));
  std::vector<MacroRunStats> sram(static_cast<std::size_t>(units));

  const auto run_unit = [&](ExecutionContext& ctx, int u) {
    ctx.reseed(kReferenceNoiseSeed + static_cast<std::uint64_t>(u));
    ctx.reset_stats();
    const Tensor logits = ctx.infer(slice(images, u * unit, unit));
    if (logits.size() != static_cast<std::size_t>(unit) * kNumClasses) {
      throw std::runtime_error("reference: unexpected logits shape");
    }
    std::memcpy(out.logits.data() +
                    static_cast<std::size_t>(u) * unit * kNumClasses,
                logits.data(), logits.size() * sizeof(float));
    rom[static_cast<std::size_t>(u)] = ctx.rom_stats();
    sram[static_cast<std::size_t>(u)] = ctx.sram_stats();
  };

  if (serial) {
    yoloc::ParallelSerialGuard guard;
    ExecutionContext ctx(plan);
    std::unique_ptr<LayerSpanSink> sink;
    if (spans != nullptr) {
      sink = std::make_unique<LayerSpanSink>(*spans);
      ctx.set_layer_trace(sink.get());
    }
    for (int u = 0; u < units; ++u) {
      const std::uint64_t id = spans != nullptr ? spans->next_id() : 0;
      if (sink != nullptr) sink->set_parent(id, static_cast<std::uint64_t>(u));
      const std::uint64_t t0 = yoloc::trace_now_ns();
      run_unit(ctx, u);
      const std::uint64_t t1 = yoloc::trace_now_ns();
      if (spans != nullptr) {
        spans->add({id, 0, static_cast<std::uint64_t>(u), "runtime.infer",
                    std::to_string(unit) + " images", t0, t1});
      }
      out.infer_ns += static_cast<double>(t1 - t0);
    }
    if (sink != nullptr) {
      out.im2col_ns = sink->im2col_ns;
      out.mvm_ns = sink->mvm_ns;
    }
  } else {
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(kConnections);
    for (int t = 0; t < kConnections; ++t) {
      threads.emplace_back([&, t] {
        try {
          yoloc::ParallelSerialGuard serial;
          ExecutionContext ctx(plan);
          for (int u = t; u < units; u += kConnections) run_unit(ctx, u);
        } catch (...) {
          errors[static_cast<std::size_t>(t)] = std::current_exception();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }
  // Merge in unit order: the sums do not depend on thread timing.
  for (int u = 0; u < units; ++u) {
    out.rom.accumulate(rom[static_cast<std::size_t>(u)]);
    out.sram.accumulate(sram[static_cast<std::size_t>(u)]);
  }
  return out;
}

/// Per-image modelled chip cost from a reference pass.
struct SimCost {
  double energy_uj_rom = 0, energy_uj_sram = 0;
  double latency_us_rom = 0, latency_us_sram = 0;
  double ops_rom = 0, ops_sram = 0, macs = 0;
};

SimCost sim_cost(const ReferencePass& pass) {
  const double n = pass.images;
  SimCost c;
  c.energy_uj_rom = pass.rom.energy_pj() / 1e6 / n;
  c.energy_uj_sram = pass.sram.energy_pj() / 1e6 / n;
  c.latency_us_rom = pass.rom.latency_ns / 1e3 / n;
  c.latency_us_sram = pass.sram.latency_ns / 1e3 / n;
  c.ops_rom = static_cast<double>(pass.rom.macro_ops) / n;
  c.ops_sram = static_cast<double>(pass.sram.macro_ops) / n;
  c.macs = static_cast<double>(pass.rom.macs + pass.sram.macs) / n;
  return c;
}

std::string sim_json(const SimCost& c) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"energy_uj_rom\":%.17g,\"energy_uj_sram\":%.17g,"
                "\"latency_us_rom\":%.17g,\"latency_us_sram\":%.17g,"
                "\"ops_rom\":%.17g,\"ops_sram\":%.17g,\"macs\":%.17g}",
                c.energy_uj_rom, c.energy_uj_sram, c.latency_us_rom,
                c.latency_us_sram, c.ops_rom, c.ops_sram, c.macs);
  return buf;
}

// ------------------------------------------------------------ checking

class OutputGate {
 public:
  OutputGate(const Workload& w, const ReferencePass& ref)
      : w_(w), ref_(ref) {}

  Verdict check(const LoadRequest& request, const std::string& body) const {
    Verdict v;
    const std::size_t at = body.find("\"data_b64\":\"");
    const std::size_t end =
        at == std::string::npos ? at : body.find('"', at + 12);
    std::vector<std::uint8_t> bytes;
    if (end == std::string::npos ||
        !yoloc::base64_decode(body.substr(at + 12, end - at - 12), bytes) ||
        bytes.size() != static_cast<std::size_t>(request.images) *
                            kNumClasses * sizeof(float)) {
      v.rel_err = INFINITY;
      return v;
    }
    const float* expected =
        ref_.logits.data() +
        static_cast<std::size_t>(request.first_image) * kNumClasses;
    std::vector<float> got(bytes.size() / sizeof(float));
    std::memcpy(got.data(), bytes.data(), bytes.size());
    for (int i = 0; i < request.images; ++i) {
      const float* g = got.data() + static_cast<std::size_t>(i) * kNumClasses;
      const float* e = expected + static_cast<std::size_t>(i) * kNumClasses;
      double diff = 0, norm = 0;
      for (int k = 0; k < kNumClasses; ++k) {
        diff += (static_cast<double>(g[k]) - e[k]) * (g[k] - e[k]);
        norm += static_cast<double>(e[k]) * e[k];
      }
      v.rel_err = std::max(v.rel_err, std::sqrt(diff / std::max(norm, 1e-30)));
      if (std::max_element(g, g + kNumClasses) - g ==
          std::max_element(e, e + kNumClasses) - e) {
        ++v.top1_agree;
      }
    }
    v.match = w_.mode == Mode::kAnalog
                  ? v.rel_err <= kAnalogMaxRelErr
                  : std::memcmp(got.data(), expected, bytes.size()) == 0;
    return v;
  }

  /// Whole-run verdict; `why` names the failed check.
  bool passes(const LoadResult& r, std::string& why) const {
    if (r.mismatched > 0) {
      why = std::to_string(r.mismatched) + " responses failed the gate";
      return false;
    }
    if (w_.mode != Mode::kAnalog) return true;
    const double agree = r.checked_images == 0
                             ? 0.0
                             : static_cast<double>(r.top1_agree) /
                                   static_cast<double>(r.checked_images);
    const double med = median(r.rel_err);
    if (agree < kAnalogMinTop1Agreement || med > kAnalogMaxMedianRelErr) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "analog gate: top-1 agreement %.3f (min %.2f), median "
                    "rel err %.3f (max %.2f)",
                    agree, kAnalogMinTop1Agreement, med,
                    kAnalogMaxMedianRelErr);
      why = buf;
      return false;
    }
    return true;
  }

 private:
  const Workload& w_;
  const ReferencePass& ref_;
};

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::uint64_t samples;
  std::string note = {};
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %16.6f %-8s n=%llu%s%s\n", m.name.c_str(),
                m.value, m.unit, static_cast<unsigned long long>(m.samples),
                m.note.empty() ? "" : "  ", m.note.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string serve;
  std::string work_dir;
  std::string record;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--serve") a.serve = value;
    else if (key == "--work-dir") a.work_dir = value;
    else if (key == "--record") a.record = value;
    else throw std::runtime_error("unknown argument " + key);
  }
  if (a.workload.empty() || a.serve.empty() || a.work_dir.empty() ||
      a.record.empty() || !(a.seconds > 0)) {
    throw std::runtime_error(
        "usage: perfbench_serving --workload W --seed N --seconds S "
        "--trace 0|1 --serve PATH --work-dir DIR --record PATH");
  }
  return a;
}

std::vector<std::unique_ptr<yoloc::HttpClient>> connect(int port) {
  std::vector<std::unique_ptr<yoloc::HttpClient>> clients;
  for (int i = 0; i < kConnections; ++i) {
    clients.push_back(std::make_unique<yoloc::HttpClient>(
        "127.0.0.1", port, std::chrono::milliseconds(60000)));
  }
  return clients;
}

PromSamples scrape(yoloc::HttpClient& client, SpanRecorder* spans) {
  const std::uint64_t t0 = yoloc::trace_now_ns();
  const yoloc::HttpResponse r = client.get("/metrics");
  if (spans != nullptr) {
    spans->add({0, 0, 0, "sched.scrape", "/metrics", t0,
                yoloc::trace_now_ns()});
  }
  if (r.status != 200) throw std::runtime_error("/metrics failed");
  return parse_prometheus(r.body);
}

std::vector<double> latencies(const LoadResult& r, int priority) {
  std::vector<double> out;
  for (const Sample& s : r.served) {
    if (priority < 0 || s.priority == priority) out.push_back(s.latency_ms);
  }
  return out;
}

/// Served samples of `priority` (-1: all lanes) binned into the run's
/// windows.
std::vector<std::vector<const Sample*>> windows(const LoadResult& r,
                                                double seconds, int priority) {
  const int count = std::max(1, static_cast<int>(seconds / kWindowSeconds));
  const double width = seconds / count;
  std::vector<std::vector<const Sample*>> out(static_cast<std::size_t>(count));
  for (const Sample& s : r.served) {
    if (priority >= 0 && s.priority != priority) continue;
    const int w = std::min(count - 1, static_cast<int>(s.at_s / width));
    out[static_cast<std::size_t>(w)].push_back(&s);
  }
  return out;
}

/// Median across windows of the latency percentile `p`.
double windowed_latency(const LoadResult& r, double seconds, int priority,
                        double p) {
  std::vector<double> per_window;
  for (const auto& window : windows(r, seconds, priority)) {
    std::vector<double> lat;
    for (const Sample* s : window) lat.push_back(s->latency_ms);
    if (!lat.empty()) per_window.push_back(percentile(lat, p));
  }
  return median(per_window);
}

/// Set-up: deploy to first result, over several cold starts.
struct ColdStarts {
  std::vector<double> setup_s;
  std::vector<double> plan_build_ms;
  std::vector<double> pack_ms;
  double packed_bytes = 0;
  std::vector<std::pair<LoadRequest, std::string>> first_replies;
  int unclean_exits = 0;  ///< cold-start servers that did not drain cleanly
  std::unique_ptr<ServerProcess> server;  ///< the last cold start's server
};

/// Cold starts number `first` .. `first + count - 1`. Each stops the
/// previous server; the last one's server is left running in `out`.
void cold_starts(const Args& args, const Workload& w,
                 const RequestStream& stream, const std::string& plan_path,
                 int first_index, int count, SpanRecorder* spans,
                 ColdStarts& out) {
  for (int i = first_index; i < first_index + count; ++i) {
    if (out.server != nullptr && !out.server->stop()) ++out.unclean_exits;
    out.server.reset();
    const std::uint64_t root = spans != nullptr ? spans->next_id() : 0;
    const auto t0 = Clock::now();
    double ctor_ms = 0;
    auto plan = build_plan(w, spans, root, ctor_ms);
    const std::uint64_t save0 = yoloc::trace_now_ns();
    yoloc::save_plan(*plan, plan_path);
    const std::uint64_t spawn0 = yoloc::trace_now_ns();
    std::vector<std::string> server_args = {
        "--workers", std::to_string(kServerWorkers)};
    if (w.max_microbatch > 0) {
      server_args.insert(server_args.end(),
                         {"--max-microbatch", std::to_string(w.max_microbatch)});
    }
    out.server =
        std::make_unique<ServerProcess>(args.serve, plan_path, server_args);
    const std::uint64_t first0 = yoloc::trace_now_ns();
    yoloc::HttpClient client("127.0.0.1", out.server->port(),
                             std::chrono::milliseconds(60000));
    const LoadRequest first = stream.first_result(i);
    const yoloc::HttpResponse reply = client.post("/infer", *first.body);
    const auto t1 = Clock::now();
    if (reply.status != 200) throw std::runtime_error("cold start: no 200");
    out.first_replies.emplace_back(first, reply.body);
    out.setup_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    out.plan_build_ms.push_back(ctor_ms);
    out.pack_ms.push_back(plan->pack_ms());
    out.packed_bytes = static_cast<double>(plan->packed_weight_bytes());
    const std::uint64_t end = yoloc::trace_ns_since_epoch(t1);
    std::fprintf(stderr,
                 "perfbench: cold start %d: %.2f ms = build %.2f + save %.2f "
                 "+ spawn %.2f + first request %.2f\n",
                 i, static_cast<double>(end - yoloc::trace_ns_since_epoch(t0)) / 1e6,
                 ctor_ms, static_cast<double>(spawn0 - save0) / 1e6,
                 static_cast<double>(first0 - spawn0) / 1e6,
                 static_cast<double>(end - first0) / 1e6);
    if (spans != nullptr) {
      spans->add({0, root, 0, "runtime.save_plan", plan_path, save0, spawn0});
      spans->add({0, root, 0, "serve.spawn", args.serve, spawn0, first0});
      spans->add({0, root, 0, "http.first_request", "", first0, end});
      spans->add({root, 0, 0, "runtime.cold_start", w.name,
                  yoloc::trace_ns_since_epoch(t0), end});
    }
  }
}

/// Everything one run measured, for the metric tables below.
struct Measurement {
  ColdStarts setup;
  std::vector<double> load_plan_ms;
  ReferencePass ref;
  LoadResult untraced;  ///< trace runs only: the untraced half
  LoadResult result;    ///< the window the metrics describe
  double seconds = 0;   ///< length of that window
  PromSamples before;
  PromSamples after;
  double server_cpu_ms = 0;
  double server_rss_mb = 0;
};

std::uint64_t count(std::size_t n) { return static_cast<std::uint64_t>(n); }

std::vector<Metric> end_to_end_metrics(const Measurement& m) {
  const LoadResult& r = m.result;
  const std::uint64_t images = r.images_served();
  const std::vector<double> all = latencies(r, -1);
  const std::vector<double> interactive = latencies(r, 0);
  const auto pooled = [&](double value) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "median of %zu windows; pooled %.4f",
                  windows(r, m.seconds, -1).size(), value);
    return std::string(buf);
  };
  const SimCost sim = sim_cost(m.ref);
  return {
      {"setup_s", median(m.setup.setup_s), "s", count(m.setup.setup_s.size()),
       "median of cold starts"},
      {"throughput_img_s", static_cast<double>(images) / r.window_s, "img/s",
       images, "pooled over the run"},
      {"latency_p50_ms", windowed_latency(r, m.seconds, -1, 0.5), "ms",
       count(all.size()), pooled(percentile(all, 0.5))},
      {"latency_p90_ms", windowed_latency(r, m.seconds, -1, 0.9), "ms",
       count(all.size()), pooled(percentile(all, 0.9))},
      {"interactive_p90_ms", windowed_latency(r, m.seconds, 0, 0.9), "ms",
       count(interactive.size()), pooled(percentile(interactive, 0.9))},
      {"server_cpu_ms_per_image",
       m.server_cpu_ms / static_cast<double>(images), "ms/img", images},
      {"server_rss_mb", m.server_rss_mb, "MiB", 1},
      {"sim_energy_uj_per_image", sim.energy_uj_rom + sim.energy_uj_sram,
       "uJ/img", count(static_cast<std::size_t>(m.ref.images))},
      {"sim_latency_us_per_image", sim.latency_us_rom + sim.latency_us_sram,
       "us/img", count(static_cast<std::size_t>(m.ref.images))},
  };
}

std::vector<Metric> layer_metrics(const Measurement& m,
                                  const SpanRecorder& spans) {
  const LoadResult& r = m.result;
  std::vector<double> rtt, overhead;
  for (const Sample& s : r.served) {
    rtt.push_back(s.latency_ms);
    overhead.push_back(s.latency_ms - s.server_ms);
  }
  const auto delta = [&](const char* series) {
    const auto a = m.after.find(series);
    const auto b = m.before.find(series);
    return (a == m.after.end() ? 0.0 : a->second) -
           (b == m.before.end() ? 0.0 : b->second);
  };
  const double batches = delta("yoloc_serve_batches_total");
  const double served = lane_counter_delta(
      m.before, m.after, "yoloc_serve_requests_served_total");
  const auto wait_p90 = [&](const char* lane) {
    return 1e3 * histogram_delta_quantile(m.before, m.after,
                                          "yoloc_serve_queue_wait_seconds",
                                          lane, 0.9);
  };
  const ReferencePass& ref = m.ref;
  const SimCost sim = sim_cost(ref);
  const double per_image = 1e6 * ref.images;  // ns total -> ms per image
  const double mvm_ns = ref.mvm_ns[0] + ref.mvm_ns[1];
  const double macs = static_cast<double>(ref.rom.macs + ref.sram.macs);
  const std::uint64_t n_ref = count(static_cast<std::size_t>(ref.images));
  std::vector<Metric> out = {
      {"http.rtt_p50_ms", percentile(rtt, 0.5), "ms", count(rtt.size())},
      {"http.overhead_p50_ms", percentile(overhead, 0.5), "ms",
       count(overhead.size())},
      {"sched.queue_wait_p90_ms.interactive", wait_p90("interactive"), "ms",
       count(latencies(r, 0).size())},
      {"sched.queue_wait_p90_ms.batch", wait_p90("batch"), "ms",
       count(latencies(r, 1).size())},
      {"sched.batch_occupancy_mean", batches > 0 ? served / batches : 0.0,
       "requests", static_cast<std::uint64_t>(batches)},
      {"sched.rejected",
       lane_counter_delta(m.before, m.after,
                          "yoloc_serve_requests_rejected_total"),
       "count", r.attempted},
      {"sched.expired",
       lane_counter_delta(m.before, m.after,
                          "yoloc_serve_requests_expired_total"),
       "count", r.attempted},
      {"runtime.plan_build_ms", median(m.setup.plan_build_ms), "ms",
       count(m.setup.plan_build_ms.size())},
      {"runtime.load_plan_ms", median(m.load_plan_ms), "ms",
       count(m.load_plan_ms.size())},
      {"runtime.pack_ms", median(m.setup.pack_ms), "ms",
       count(m.setup.pack_ms.size())},
      {"runtime.packed_weight_bytes", m.setup.packed_bytes, "bytes", 1},
      {"runtime.infer_ms_per_image", ref.infer_ns / per_image, "ms/img",
       n_ref},
      {"nn.im2col_ms_per_image.rom", ref.im2col_ns[0] / per_image, "ms/img",
       n_ref},
      {"nn.im2col_ms_per_image.sram", ref.im2col_ns[1] / per_image, "ms/img",
       n_ref},
      {"nn.other_ms_per_image",
       (ref.infer_ns - ref.im2col_ns[0] - ref.im2col_ns[1] - mvm_ns) /
           per_image,
       "ms/img", n_ref},
      {"macro.mvm_ms_per_image.rom", ref.mvm_ns[0] / per_image, "ms/img",
       n_ref},
      {"macro.mvm_ms_per_image.sram", ref.mvm_ns[1] / per_image, "ms/img",
       n_ref},
      {"macro.ops_per_image.rom", sim.ops_rom, "count", n_ref},
      {"macro.ops_per_image.sram", sim.ops_sram, "count", n_ref},
      {"macro.macs_per_image", sim.macs, "count", n_ref},
      {"macro.host_ns_per_mac", macs > 0 ? mvm_ns / macs : 0.0, "ns", n_ref},
      {"sim.energy_uj_per_image.rom", sim.energy_uj_rom, "uJ/img", n_ref},
      {"sim.energy_uj_per_image.sram", sim.energy_uj_sram, "uJ/img", n_ref},
      {"sim.latency_us_per_image.rom", sim.latency_us_rom, "us/img", n_ref},
      {"sim.latency_us_per_image.sram", sim.latency_us_sram, "us/img", n_ref},
      {"trace.overhead_p50_ms",
       windowed_latency(r, m.seconds, -1, 0.5) -
           windowed_latency(m.untraced, m.seconds, -1, 0.5),
       "ms", count(r.served.size())},
      {"loadgen.stall_p99_ms", percentile(r.stall_ms, 0.99), "ms",
       count(r.stall_ms.size())},
      {"loadgen.cpu_ms_per_request",
       r.generator_cpu_ms / std::max<double>(1.0, r.attempted), "ms",
       r.attempted},
  };
  const auto self = spans.mean_self_ms();
  for (const char* span :
       {"runtime.cold_start", "runtime.plan_build", "runtime.save_plan",
        "serve.spawn", "http.first_request", "runtime.load_plan",
        "runtime.infer", "nn.im2col", "macro.mvm", "http.request",
        "sched.scrape"}) {
    const auto it = self.find(span);
    if (it == self.end()) {
      throw std::runtime_error("no span " + std::string(span));
    }
    out.push_back({std::string("self_ms.") + span, it->second.first, "ms",
                   it->second.second});
  }
  return out;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) throw std::runtime_error("unknown workload");
  const Workload& w = *found;
  const std::filesystem::path work_dir(args.work_dir);
  std::filesystem::create_directories(work_dir);
  const std::string plan_path =
      (work_dir / (std::string(w.name) + ".yolocplan")).string();
  SpanRecorder recorder;
  SpanRecorder* spans = args.trace ? &recorder : nullptr;

  const Tensor pool = draw_images(w, w.pool_images, args.seed);
  const RequestStream stream(w, pool, args.seed);
  Measurement m;
  cold_starts(args, w, stream, plan_path, 0, kColdStartsBefore, spans,
              m.setup);

  // ---- in-process reference on the artifact the server loaded.
  std::unique_ptr<DeploymentPlan> plan;
  for (int i = 0; i < kLoadPlanRepeats; ++i) {
    const std::uint64_t t0 = yoloc::trace_now_ns();
    plan = yoloc::load_plan(plan_path);
    const std::uint64_t t1 = yoloc::trace_now_ns();
    m.load_plan_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    if (spans != nullptr) {
      spans->add({0, 0, 0, "runtime.load_plan", plan_path, t0, t1});
    }
  }
  m.ref = reference_pass(*plan, pool, w.batch_images, args.trace, spans);
  // Determinism self-check: the modelled counts of a seed-independent
  // probe must not depend on how its requests are spread over threads.
  const Tensor probe_images = draw_images(w, 2 * w.batch_images, kProbeSeed);
  const std::string probe_counts = sim_json(sim_cost(
      reference_pass(*plan, probe_images, w.batch_images, false, nullptr)));
  const std::string serial_counts = sim_json(sim_cost(
      reference_pass(*plan, probe_images, w.batch_images, true, nullptr)));
  if (probe_counts != serial_counts) {
    throw std::runtime_error(
        "DETERMINISM FAILURE: probe modelled counts differ between the "
        "threaded and the serial pass: " + probe_counts + " vs " +
        serial_counts);
  }
  const OutputGate gate(w, m.ref);
  const CheckFn check = [&gate](const LoadRequest& r, const std::string& b) {
    return gate.check(r, b);
  };
  const RequestFn request_of = [&stream](std::uint64_t i) {
    return stream.at(i);
  };

  // ---- traffic. Trace runs split the time: an untraced half, then a
  // traced half; the difference is the tracing overhead.
  ServerProcess& server = *m.setup.server;
  auto clients = connect(server.port());
  LoadConfig config;
  config.seconds = kWarmupSeconds;
  config.first_index = kColdStartsBefore;
  const LoadResult warmup = run_load(config, clients, request_of, check);
  m.seconds = args.trace ? args.seconds / 2 : args.seconds;
  config.seconds = m.seconds;
  config.first_index = warmup.next_index;
  if (args.trace) {
    m.untraced = run_load(config, clients, request_of, check);
    config.first_index = m.untraced.next_index;
    config.spans = spans;
  }
  m.before = scrape(*clients[0], spans);
  const double cpu0 = process_cpu_ms(server.pid());
  m.result = run_load(config, clients, request_of, check);
  m.server_cpu_ms = process_cpu_ms(server.pid()) - cpu0;
  m.after = scrape(*clients[0], spans);
  m.server_rss_mb = process_peak_rss_mb(server.pid());
  clients.clear();
  const bool clean_exit = server.stop();
  cold_starts(args, w, stream, plan_path, kColdStartsBefore, kColdStartsAfter,
              spans, m.setup);
  if (!m.setup.server->stop()) ++m.setup.unclean_exits;

  // ---- output gate over every checked response of the run.
  LoadResult checked = warmup;
  for (const LoadResult* r : {&m.untraced, &m.result}) {
    checked.mismatched += r->mismatched;
    checked.top1_agree += r->top1_agree;
    checked.checked_images += r->checked_images;
    checked.rel_err.insert(checked.rel_err.end(), r->rel_err.begin(),
                           r->rel_err.end());
  }
  for (const auto& [request, body] : m.setup.first_replies) {
    if (!gate.check(request, body).match) ++checked.mismatched;
  }
  std::string why;
  bool correct = gate.passes(checked, why);
  if (!clean_exit || m.setup.unclean_exits > 0) {
    correct = false;
    why = "yoloc_serve did not drain cleanly";
  }
  if (m.result.served.empty()) {
    correct = false;
    why = "no request was served";
  }

  // ---- run record: gate, generator validity, exact modelled counts.
  const double stall_p99 = percentile(m.result.stall_ms, 0.99);
  const bool generator_ok = stall_p99 <= kMaxGeneratorStallP99Ms;
  {
    std::ofstream rec(args.record);
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"correct\":%s,"
        "\"gate\":\"%s\",\"top1_agreement\":%.6f,\"median_rel_err\":%.6g,"
        "\"max_rel_err\":%.6g,\"loadgen\":{"
        "\"stall_p99_ms\":%.6g,\"stall_bound_ms\":%.3g,\"valid\":%s},",
        w.name, static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
        correct ? "true" : "false", why.c_str(),
        checked.checked_images == 0
            ? 0.0
            : static_cast<double>(checked.top1_agree) /
                  static_cast<double>(checked.checked_images),
        median(checked.rel_err), percentile(checked.rel_err, 1.0),
        stall_p99,
        kMaxGeneratorStallP99Ms, generator_ok ? "true" : "false");
    rec << buf << "\"probe\":" << probe_counts
        << ",\"pool\":" << sim_json(sim_cost(m.ref)) << "}\n";
    if (!rec) throw std::runtime_error("cannot write " + args.record);
  }
  if (!generator_ok) {
    std::fprintf(stderr,
                 "perfbench: WARNING generator stalled (p99 %.3f ms > %.3f "
                 "ms); latency includes client delay\n",
                 stall_p99, kMaxGeneratorStallP99Ms);
  }
  if (!correct) {
    std::fprintf(stderr, "perfbench: output gate FAILED: %s\n", why.c_str());
    print_result(false, m.result.attempted, m.result.failed(), {});
    return 1;
  }
  if (args.trace) {
    recorder.write_chrome_trace(
        (work_dir / ("trace_" + std::string(w.name) + "_" +
                     std::to_string(args.seed) + ".json"))
            .string());
  }
  print_result(true, m.result.attempted, m.result.failed(),
               args.trace ? layer_metrics(m, recorder) : end_to_end_metrics(m));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

// HTTP serving daemon: load a .yolocplan artifact and serve it over the
// scheduler's HTTP front-end until SIGTERM/SIGINT, then drain gracefully
// (stop accepting, finish queued lanes by priority, flush, exit).
//
//   build/yoloc_serve --plan model.yolocplan --port 8080
//   build/yoloc_serve --plan model.yolocplan --port 0 --port-file /tmp/port
//
// --port 0 binds an ephemeral port; --port-file writes the bound port so
// harnesses (tests, refresh_bench.sh) can find it without racing.
// --list-endpoints prints the routed paths one per line, which
// tools/docs_check.sh diffs against docs/serving.md.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "runtime/plan_serde.hpp"
#include "serve/http_server.hpp"
#include "serve/scheduler.hpp"

namespace {

using namespace yoloc;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(
      stderr,
      "usage: yoloc_serve --plan PATH [options]\n"
      "  --plan PATH             .yolocplan artifact to serve (required)\n"
      "  --bind ADDR             bind address (default 127.0.0.1)\n"
      "  --port N                TCP port; 0 = ephemeral (default 0)\n"
      "  --port-file PATH        write the bound port to PATH\n"
      "  --workers N             scheduler workers (default: hardware)\n"
      "  --max-microbatch N      batch fusion cap; 1 = deterministic\n"
      "  --max-queue-depth N     admission cap per lane; 0 = unlimited\n"
      "  --default-deadline-ms X deadline for requests without one\n"
      "  --weighted              DWRR lane weights 8:3:1 instead of strict\n"
      "  --max-connections N     concurrent connection cap (default 256)\n"
      "  --read-timeout-ms N     per-connection read deadline\n"
      "  --write-timeout-ms N    per-connection write deadline\n"
      "  --list-endpoints        print routed endpoint paths and exit\n"
      "resilience (see docs/serving.md, 'Failure modes'):\n"
      "  --canary-period-ms N    replay plan canaries per worker every N ms\n"
      "                          (0 = off; needs a plan with a canary suite)\n"
      "  --watchdog-timeout-ms N declare a batch hung after N ms (0 = off)\n"
      "  --shed-best-effort-below X  shed best-effort admissions when the\n"
      "                          healthy-worker fraction drops below X\n"
      "  --shed-batch-below X    shed batch admissions below X too\n"
      "  --trip-workers N        open the breaker on workers [0, N) at start\n"
      "chaos (deterministic fault drills):\n"
      "  --fault-after-s X       activate the plan's fault models after X s\n"
      "  --fault-clear-after-s X deactivate them again after X s\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string plan_path;
  std::string port_file;
  SchedulerOptions sched;
  HttpServerOptions http;
  int trip_workers = 0;
  double fault_after_s = -1.0;
  double fault_clear_after_s = -1.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list-endpoints") {
      for (const char* endpoint : kHttpEndpoints) {
        std::printf("%s\n", endpoint);
      }
      return 0;
    }
    if (arg == "--weighted") {
      sched.lane_weights = LaneWeights{{8.0, 3.0, 1.0}};
      continue;
    }
    const char* value = next();
    if (value == nullptr) return usage();
    if (arg == "--plan") {
      plan_path = value;
    } else if (arg == "--bind") {
      http.bind_address = value;
    } else if (arg == "--port") {
      http.port = std::atoi(value);
    } else if (arg == "--port-file") {
      port_file = value;
    } else if (arg == "--workers") {
      sched.workers = std::atoi(value);
    } else if (arg == "--max-microbatch") {
      sched.max_microbatch = std::atoi(value);
    } else if (arg == "--max-queue-depth") {
      sched.max_queue_depth =
          static_cast<std::uint64_t>(std::atoll(value));
    } else if (arg == "--default-deadline-ms") {
      sched.default_deadline = std::chrono::nanoseconds(
          static_cast<std::int64_t>(std::atof(value) * 1e6));
    } else if (arg == "--max-connections") {
      http.max_connections = std::atoi(value);
    } else if (arg == "--read-timeout-ms") {
      http.read_timeout = std::chrono::milliseconds(std::atoll(value));
    } else if (arg == "--write-timeout-ms") {
      http.write_timeout = std::chrono::milliseconds(std::atoll(value));
    } else if (arg == "--canary-period-ms") {
      sched.resilience.canary_period =
          std::chrono::milliseconds(std::atoll(value));
    } else if (arg == "--watchdog-timeout-ms") {
      sched.resilience.watchdog_timeout =
          std::chrono::milliseconds(std::atoll(value));
    } else if (arg == "--shed-best-effort-below") {
      sched.resilience.shed_best_effort_below = std::atof(value);
    } else if (arg == "--shed-batch-below") {
      sched.resilience.shed_batch_below = std::atof(value);
    } else if (arg == "--trip-workers") {
      trip_workers = std::atoi(value);
    } else if (arg == "--fault-after-s") {
      fault_after_s = std::atof(value);
    } else if (arg == "--fault-clear-after-s") {
      fault_clear_after_s = std::atof(value);
    } else {
      return usage();
    }
  }
  if (plan_path.empty()) return usage();

  try {
    auto plan = load_plan(plan_path);
    Scheduler scheduler(*plan, sched);
    HttpServer server(scheduler, *plan, http, plan_path);

    for (int w = 0; w < trip_workers && w < scheduler.worker_count(); ++w) {
      scheduler.trip_breaker(w);
    }

    // Chaos timer: flip the plan's fault models on (and optionally back
    // off) at the configured offsets — a deterministic in-process fault
    // drill the canary/breaker pipeline is expected to catch.
    std::atomic<bool> chaos_stop{false};
    std::thread chaos_thread;
    if (fault_after_s >= 0.0) {
      chaos_thread = std::thread([&plan, &chaos_stop, fault_after_s,
                                  fault_clear_after_s] {
        const auto set_faults = [&plan](bool active) {
          if (FaultModel* f = plan->rom_macro().fault_model()) {
            f->set_active(active);
          }
          if (FaultModel* f = plan->sram_macro().fault_model()) {
            f->set_active(active);
          }
        };
        const auto start = std::chrono::steady_clock::now();
        const auto elapsed_s = [&start] {
          return std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
              .count();
        };
        while (!chaos_stop.load() && elapsed_s() < fault_after_s) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (chaos_stop.load()) return;
        set_faults(true);
        std::printf("{\"event\":\"chaos\",\"faults\":\"active\"}\n");
        std::fflush(stdout);
        if (fault_clear_after_s < 0.0) return;
        while (!chaos_stop.load() && elapsed_s() < fault_clear_after_s) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (chaos_stop.load()) return;
        set_faults(false);
        std::printf("{\"event\":\"chaos\",\"faults\":\"cleared\"}\n");
        std::fflush(stdout);
      });
    }

    if (!port_file.empty()) {
      // Write-then-rename so a reader never sees a half-written port.
      const std::string tmp = port_file + ".tmp";
      std::ofstream out(tmp);
      out << server.port() << "\n";
      out.close();
      if (!out || std::rename(tmp.c_str(), port_file.c_str()) != 0) {
        std::fprintf(stderr, "yoloc_serve: cannot write port file %s\n",
                     port_file.c_str());
        return 1;
      }
    }
    std::printf("yoloc_serve: %s on %s:%d (%d workers, %d quantized layers)\n",
                plan_path.c_str(), http.bind_address.c_str(), server.port(),
                scheduler.worker_count(), plan->quantized_layer_count());
    std::fflush(stdout);

    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    std::printf("yoloc_serve: draining...\n");
    std::fflush(stdout);
    chaos_stop.store(true);
    if (chaos_thread.joinable()) chaos_thread.join();
    server.drain();
    scheduler.shutdown();
    const ResilienceSnapshot res = scheduler.resilience_snapshot();
    if (res.canary_pass + res.canary_fail + res.watchdog_fires +
            res.breaker_trips >
        0) {
      std::printf(
          "{\"event\":\"resilience\",\"canary_pass\":%llu,"
          "\"canary_fail\":%llu,\"breaker_trips\":%llu,"
          "\"breaker_recoveries\":%llu,\"watchdog_fires\":%llu}\n",
          static_cast<unsigned long long>(res.canary_pass),
          static_cast<unsigned long long>(res.canary_fail),
          static_cast<unsigned long long>(res.breaker_trips),
          static_cast<unsigned long long>(res.breaker_recoveries),
          static_cast<unsigned long long>(res.watchdog_fires));
    }
    const HttpServerStats stats = server.stats();
    std::printf(
        "{\"event\":\"shutdown\",\"connections\":%llu,\"requests\":%llu,"
        "\"responses_2xx\":%llu,\"responses_4xx\":%llu,"
        "\"responses_5xx\":%llu,\"read_timeouts\":%llu}\n",
        static_cast<unsigned long long>(stats.connections_accepted),
        static_cast<unsigned long long>(stats.requests),
        static_cast<unsigned long long>(stats.responses_2xx),
        static_cast<unsigned long long>(stats.responses_4xx),
        static_cast<unsigned long long>(stats.responses_5xx),
        static_cast<unsigned long long>(stats.read_timeouts));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "yoloc_serve: %s\n", e.what());
    return 1;
  }
}

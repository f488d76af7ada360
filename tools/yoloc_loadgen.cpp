// HTTP load generator for yoloc_serve: closed-loop (fixed concurrency,
// back-to-back) and open-loop (Poisson arrivals at a target rate —
// latency measured from the SCHEDULED arrival, so server-side queueing
// is charged to the server, not hidden by a slow client).
//
//   build/yoloc_loadgen --port-file /tmp/port --mode closed --concurrency 4
//   build/yoloc_loadgen --port 8080 --mode open --rate 200 --duration-s 10
//
// Emits one JSON summary line on stdout (grep '^{'): requests / ok /
// err_429 / err_503 / err_other / error_rate / images_per_s / p50_ms /
// p99_ms.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/base64.hpp"
#include "serve/http_client.hpp"

namespace {

using namespace yoloc;
using Clock = std::chrono::steady_clock;

struct Config {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string port_file;
  std::string mode = "closed";  // closed | open
  int concurrency = 4;          // closed-loop threads / open-loop senders
  double rate = 100.0;          // open-loop arrivals per second
  double duration_s = 5.0;
  int max_requests = 0;  // 0 = duration-bound
  int n = 1, c = 3, h = 16, w = 16;
  std::string priority_mix = "1,1,0";  // interactive:batch:best_effort
  double deadline_ms = 0.0;            // 0 = none
  std::uint64_t seed = 42;
  int warmup = 8;
  /// Max retries per request on 429/503/transport errors (0 = off).
  int retries = 0;
};

struct Counters {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> err_429{0};
  std::atomic<std::uint64_t> err_503{0};
  std::atomic<std::uint64_t> err_other{0};
  std::atomic<std::uint64_t> err_transport{0};
  std::atomic<std::uint64_t> retries{0};
  std::mutex latency_mutex;
  std::vector<double> latencies_ms;  // successful requests only
};

void record(Counters& counters, int status, double latency_ms) {
  if (status == 200) {
    counters.ok.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(counters.latency_mutex);
    counters.latencies_ms.push_back(latency_ms);
  } else if (status == 429) {
    counters.err_429.fetch_add(1, std::memory_order_relaxed);
  } else if (status == 503) {
    counters.err_503.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters.err_other.fetch_add(1, std::memory_order_relaxed);
  }
}

/// One /infer request body per priority class, built once (the tensor
/// payload is identical; only the scheduling hints differ).
std::vector<std::string> build_bodies(const Config& config,
                                      const std::vector<std::string>& prios) {
  std::mt19937_64 rng(config.seed);
  const std::size_t elements = static_cast<std::size_t>(config.n) *
                               static_cast<std::size_t>(config.c) *
                               static_cast<std::size_t>(config.h) *
                               static_cast<std::size_t>(config.w);
  std::vector<float> image(elements);
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  for (float& v : image) v = dist(rng);
  const std::string data_b64 =
      base64_encode(image.data(), image.size() * sizeof(float));

  std::vector<std::string> bodies;
  bodies.reserve(prios.size());
  for (const std::string& priority : prios) {
    std::string body = "{\"shape\":[" + std::to_string(config.n) + "," +
                       std::to_string(config.c) + "," +
                       std::to_string(config.h) + "," +
                       std::to_string(config.w) + "],\"priority\":\"" +
                       priority + "\"";
    if (config.deadline_ms > 0) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), ",\"deadline_ms\":%.3f",
                    config.deadline_ms);
      body += buf;
    }
    body += ",\"data_b64\":\"" + data_b64 + "\"}";
    bodies.push_back(std::move(body));
  }
  return bodies;
}

/// "4,2,1" -> per-request priority index stream (deterministic).
std::vector<int> mix_weights(const std::string& text) {
  std::vector<int> weights;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    weights.push_back(std::atoi(
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start)
            .c_str()));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  while (weights.size() < 3) weights.push_back(0);
  return weights;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: yoloc_loadgen (--port N | --port-file PATH) [options]\n"
      "  --host ADDR          server address (default 127.0.0.1)\n"
      "  --mode closed|open   closed loop (default) or open loop\n"
      "  --concurrency N      client threads (default 4)\n"
      "  --rate R             open-loop arrivals/s (default 100)\n"
      "  --duration-s S       run length (default 5)\n"
      "  --requests N         stop after N requests (0 = duration-bound)\n"
      "  --shape N,C,H,W      request tensor shape (default 1,3,16,16)\n"
      "  --priority-mix A,B,C interactive:batch:best_effort weights\n"
      "  --deadline-ms X      per-request deadline (0 = none)\n"
      "  --warmup N           untimed warmup requests (default 8)\n"
      "  --seed S             payload + arrival rng seed\n"
      "  --retry N            retry 429/503/transport errors up to N times\n"
      "                       (exponential backoff + jitter, honors\n"
      "                       Retry-After, gives up at the run/request\n"
      "                       deadline)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[++i] : nullptr;
    if (value == nullptr) return usage();
    if (arg == "--host") {
      config.host = value;
    } else if (arg == "--port") {
      config.port = std::atoi(value);
    } else if (arg == "--port-file") {
      config.port_file = value;
    } else if (arg == "--mode") {
      config.mode = value;
    } else if (arg == "--concurrency") {
      config.concurrency = std::atoi(value);
    } else if (arg == "--rate") {
      config.rate = std::atof(value);
    } else if (arg == "--duration-s") {
      config.duration_s = std::atof(value);
    } else if (arg == "--requests") {
      config.max_requests = std::atoi(value);
    } else if (arg == "--shape") {
      if (std::sscanf(value, "%d,%d,%d,%d", &config.n, &config.c, &config.h,
                      &config.w) != 4) {
        return usage();
      }
    } else if (arg == "--priority-mix") {
      config.priority_mix = value;
    } else if (arg == "--deadline-ms") {
      config.deadline_ms = std::atof(value);
    } else if (arg == "--warmup") {
      config.warmup = std::atoi(value);
    } else if (arg == "--seed") {
      config.seed = static_cast<std::uint64_t>(std::atoll(value));
    } else if (arg == "--retry") {
      config.retries = std::atoi(value);
    } else {
      return usage();
    }
  }
  if (!config.port_file.empty()) {
    // The server writes the file atomically after binding; poll briefly
    // so "start server & start loadgen" scripts don't need a sleep.
    for (int attempt = 0; attempt < 100 && config.port == 0; ++attempt) {
      std::ifstream in(config.port_file);
      if (in >> config.port) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (config.port <= 0 || (config.mode != "closed" && config.mode != "open") ||
      config.concurrency < 1) {
    return usage();
  }

  const std::vector<std::string> kPriorities = {"interactive", "batch",
                                                "best_effort"};
  const std::vector<std::string> bodies = build_bodies(config, kPriorities);
  const std::vector<int> weights = mix_weights(config.priority_mix);
  const int weight_sum = weights[0] + weights[1] + weights[2];
  if (weight_sum <= 0) return usage();

  // Deterministic per-request priority stream shared by both modes.
  auto priority_of = [&](std::uint64_t request_index) {
    std::mt19937_64 rng(config.seed * 1315423911u + request_index);
    const int pick =
        static_cast<int>(rng() % static_cast<std::uint64_t>(weight_sum));
    if (pick < weights[0]) return 0;
    if (pick < weights[0] + weights[1]) return 1;
    return 2;
  };

  try {
    // Warmup: settle the scheduler's per-image service estimate (and
    // fault in lazy buffers) outside the measured window.
    {
      HttpClient warm(config.host, config.port);
      for (int i = 0; i < config.warmup; ++i) {
        (void)warm.post("/infer", bodies[1]);
      }
    }

    Counters counters;
    std::atomic<std::uint64_t> issued{0};
    const auto start = Clock::now();
    const auto stop_at =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(config.duration_s));

    // POST with bounded retries on retriable failures (429, 503,
    // transport). Exponential backoff with multiplicative jitter,
    // raised to the server's Retry-After hint when present; gives up —
    // returning the last failure — once the next attempt could not land
    // before the run deadline (or the request's own deadline budget,
    // measured from the first attempt). The final transport failure is
    // rethrown so callers count it as before.
    auto post_with_retry = [&](HttpClient& client, const std::string& body,
                               std::uint64_t rng_salt) -> HttpResponse {
      const auto first_attempt = Clock::now();
      std::mt19937_64 rng(config.seed ^ (rng_salt * 0x9e3779b97f4a7c15ull));
      auto backoff = std::chrono::milliseconds(50);
      for (int attempt = 0;; ++attempt) {
        bool transport_error = false;
        HttpResponse resp;
        try {
          resp = client.post("/infer", body);
        } catch (const std::exception&) {
          transport_error = true;
        }
        const bool retriable =
            transport_error || resp.status == 429 || resp.status == 503;
        if (!retriable || attempt >= config.retries) {
          if (transport_error) throw std::runtime_error("transport error");
          return resp;
        }
        auto wait = backoff;
        if (!transport_error) {
          const auto hint = resp.headers.find("retry-after");
          if (hint != resp.headers.end()) {
            wait = std::max(
                wait, std::chrono::milliseconds(
                          std::atoll(hint->second.c_str()) * 1000));
          }
        }
        // Jitter in [0.75, 1.25): decorrelates clients that were all
        // refused by the same capacity dip.
        wait = std::chrono::milliseconds(static_cast<long long>(
            static_cast<double>(wait.count()) *
            (0.75 + 0.5 * static_cast<double>(rng() % 1024) / 1024.0)));
        const auto resume = Clock::now() + wait;
        if (resume >= stop_at ||
            (config.deadline_ms > 0.0 &&
             std::chrono::duration<double, std::milli>(resume - first_attempt)
                     .count() > config.deadline_ms)) {
          if (transport_error) throw std::runtime_error("transport error");
          return resp;  // no budget left for another attempt
        }
        counters.retries.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(wait);
        backoff *= 2;
      }
    };
    const std::uint64_t request_cap =
        config.max_requests > 0
            ? static_cast<std::uint64_t>(config.max_requests)
            : UINT64_MAX;

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(config.concurrency));

    if (config.mode == "closed") {
      for (int t = 0; t < config.concurrency; ++t) {
        threads.emplace_back([&, t] {
          HttpClient client(config.host, config.port);
          (void)t;
          for (;;) {
            const std::uint64_t id =
                issued.fetch_add(1, std::memory_order_relaxed);
            if (id >= request_cap || Clock::now() >= stop_at) return;
            const auto begin = Clock::now();
            try {
              const HttpResponse resp = post_with_retry(
                  client, bodies[static_cast<std::size_t>(priority_of(id))],
                  id);
              record(counters, resp.status,
                     std::chrono::duration<double, std::milli>(Clock::now() -
                                                               begin)
                         .count());
            } catch (const std::exception&) {
              counters.err_transport.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
      }
    } else {
      // Open loop: pre-draw the Poisson arrival schedule, stripe it over
      // the sender threads; each sender sleeps to its own arrivals.
      std::mt19937_64 arrival_rng(config.seed ^ 0x9e3779b97f4a7c15ull);
      std::exponential_distribution<double> gap(config.rate);
      std::vector<double> arrivals_s;
      double t = 0.0;
      while (t < config.duration_s &&
             arrivals_s.size() < request_cap) {
        t += gap(arrival_rng);
        if (t >= config.duration_s) break;
        arrivals_s.push_back(t);
      }
      for (int worker = 0; worker < config.concurrency; ++worker) {
        threads.emplace_back([&, worker] {
          HttpClient client(config.host, config.port);
          for (std::size_t i = static_cast<std::size_t>(worker);
               i < arrivals_s.size();
               i += static_cast<std::size_t>(config.concurrency)) {
            const auto scheduled =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(arrivals_s[i]));
            std::this_thread::sleep_until(scheduled);
            issued.fetch_add(1, std::memory_order_relaxed);
            try {
              const HttpResponse resp = post_with_retry(
                  client, bodies[static_cast<std::size_t>(priority_of(i))],
                  i);
              // Latency from the scheduled arrival: client-side send
              // delay and server queueing both count.
              record(counters, resp.status,
                     std::chrono::duration<double, std::milli>(Clock::now() -
                                                               scheduled)
                         .count());
            } catch (const std::exception&) {
              counters.err_transport.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
      }
    }
    for (std::thread& thread : threads) thread.join();
    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();

    std::vector<double> latencies;
    {
      std::lock_guard lock(counters.latency_mutex);
      latencies = counters.latencies_ms;
    }
    std::sort(latencies.begin(), latencies.end());
    const std::uint64_t ok = counters.ok.load();
    const std::uint64_t e429 = counters.err_429.load();
    const std::uint64_t e503 = counters.err_503.load();
    const std::uint64_t eother = counters.err_other.load();
    const std::uint64_t etrans = counters.err_transport.load();
    const std::uint64_t total = ok + e429 + e503 + eother + etrans;
    const double images_per_s =
        elapsed_s > 0 ? static_cast<double>(ok * static_cast<std::uint64_t>(
                                                     config.n)) /
                            elapsed_s
                      : 0.0;

    std::printf(
        "{\"bench\":\"http_serving\",\"mode\":\"%s\",\"concurrency\":%d,"
        "\"rate\":%.1f,\"priority_mix\":\"%s\",\"requests\":%llu,"
        "\"ok\":%llu,\"err_429\":%llu,\"err_503\":%llu,\"err_other\":%llu,"
        "\"err_transport\":%llu,\"retries\":%llu,\"error_rate\":%.4f,"
        "\"images_per_s\":%.1f,"
        "\"p50_ms\":%.2f,\"p99_ms\":%.2f,\"elapsed_s\":%.2f}\n",
        config.mode.c_str(), config.concurrency,
        config.mode == "open" ? config.rate : 0.0,
        config.priority_mix.c_str(), static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(ok),
        static_cast<unsigned long long>(e429),
        static_cast<unsigned long long>(e503),
        static_cast<unsigned long long>(eother),
        static_cast<unsigned long long>(etrans),
        static_cast<unsigned long long>(counters.retries.load()),
        total > 0 ? static_cast<double>(total - ok) /
                        static_cast<double>(total)
                  : 0.0,
        images_per_s, percentile(latencies, 0.50),
        percentile(latencies, 0.99), elapsed_s);
    return ok > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "yoloc_loadgen: %s\n", e.what());
    return 1;
  }
}

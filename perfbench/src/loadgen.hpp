#pragma once
// Loopback HTTP load generator for one benchmark window: a closed loop
// in which each connection sends its next request when the previous one
// returns. One client thread per keep-alive connection; every response
// is checked.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "serve/http_client.hpp"

namespace perfbench {

/// One /infer request of the workload's seeded request stream.
struct LoadRequest {
  std::uint64_t index = 0;
  int priority = 0;  ///< 0 interactive, 1 batch, 2 best_effort
  int images = 0;
  int first_image = 0;  ///< pool index of the first image carried
  const std::string* body = nullptr;  ///< JSON body, owned by the caller
};

/// Result of checking one 200 response against the in-process reference.
struct Verdict {
  bool match = false;   ///< passes this workload's output gate
  int top1_agree = 0;   ///< images whose argmax equals the reference's
  double rel_err = 0;   ///< worst per-image relative L2 logit error
};

using RequestFn = std::function<LoadRequest(std::uint64_t index)>;
using CheckFn =
    std::function<Verdict(const LoadRequest&, const std::string& body)>;

struct LoadConfig {
  double seconds = 1.0;            ///< window length
  std::uint64_t first_index = 0;   ///< index of the first request sent
  SpanRecorder* spans = nullptr;   ///< non-null: one span per request
};

struct Sample {
  int priority = 0;
  int images = 0;
  double latency_ms = 0;  ///< send to reply
  double server_ms = 0;   ///< the server's own latency_ms field
  double at_s = 0;        ///< send time, seconds into the window
};

struct LoadResult {
  std::vector<Sample> served;
  std::uint64_t attempted = 0;
  std::uint64_t http_429 = 0;
  std::uint64_t http_503 = 0;
  std::uint64_t http_other = 0;
  std::uint64_t transport = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t top1_agree = 0;
  std::uint64_t checked_images = 0;
  std::vector<double> rel_err;
  double window_s = 0;  ///< first send to last reply
  /// The generator's own delay, not the server's: on one connection,
  /// the time from a reply's arrival to the next send, which covers
  /// checking the reply and picking the next request.
  std::vector<double> stall_ms;
  double generator_cpu_ms = 0;
  std::uint64_t next_index = 0;

  [[nodiscard]] std::uint64_t failed() const {
    return http_429 + http_503 + http_other + transport + mismatched;
  }
  [[nodiscard]] std::uint64_t images_served() const;
};

LoadResult run_load(const LoadConfig& config,
                    std::vector<std::unique_ptr<yoloc::HttpClient>>& clients,
                    const RequestFn& request_of, const CheckFn& check);

}  // namespace perfbench

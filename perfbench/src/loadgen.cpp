#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/trace_clock.hpp"

namespace perfbench {

namespace {

using Clock = yoloc::TraceClock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double server_latency_ms(const std::string& body) {
  const std::size_t at = body.find("\"latency_ms\":");
  return at == std::string::npos ? 0.0
                                 : std::strtod(body.c_str() + at + 13, nullptr);
}

/// Per-thread tallies, merged after join.
struct Tally {
  LoadResult part;
  Clock::time_point last_reply{};  ///< when the last reply arrived
};

/// Send one request and book its outcome.
void send_one(yoloc::HttpClient& client, const LoadRequest& request,
              Clock::time_point start, const LoadConfig& config,
              const CheckFn& check, Tally& tally) {
  LoadResult& out = tally.part;
  const std::uint64_t span_id =
      config.spans != nullptr ? config.spans->next_id() : 0;
  const auto sent = Clock::now();
  if (out.attempted > 0) {
    out.stall_ms.push_back(ms_between(tally.last_reply, sent));
  }
  ++out.attempted;
  yoloc::HttpResponse response;
  try {
    response = client.post("/infer", *request.body);
  } catch (const std::exception&) {
    ++out.transport;
    tally.last_reply = Clock::now();
    return;
  }
  const auto replied = Clock::now();
  tally.last_reply = replied;
  if (config.spans != nullptr) {
    config.spans->add({span_id, 0, request.index, "http.request",
                       request.priority == 0   ? "interactive"
                       : request.priority == 1 ? "batch"
                                               : "best_effort",
                       yoloc::trace_ns_since_epoch(sent),
                       yoloc::trace_ns_since_epoch(replied)});
  }
  if (response.status == 429) {
    ++out.http_429;
  } else if (response.status == 503) {
    ++out.http_503;
  } else if (response.status != 200) {
    ++out.http_other;
  } else {
    const Verdict verdict = check(request, response.body);
    out.top1_agree += static_cast<std::uint64_t>(verdict.top1_agree);
    out.checked_images += static_cast<std::uint64_t>(request.images);
    out.rel_err.push_back(verdict.rel_err);
    if (!verdict.match) {
      ++out.mismatched;
      return;
    }
    out.served.push_back({request.priority, request.images,
                          ms_between(sent, replied),
                          server_latency_ms(response.body),
                          ms_between(start, sent) / 1e3});
  }
}

void merge(LoadResult& into, LoadResult& from) {
  into.served.insert(into.served.end(), from.served.begin(),
                     from.served.end());
  into.attempted += from.attempted;
  into.http_429 += from.http_429;
  into.http_503 += from.http_503;
  into.http_other += from.http_other;
  into.transport += from.transport;
  into.mismatched += from.mismatched;
  into.top1_agree += from.top1_agree;
  into.checked_images += from.checked_images;
  into.rel_err.insert(into.rel_err.end(), from.rel_err.begin(),
                      from.rel_err.end());
  into.stall_ms.insert(into.stall_ms.end(), from.stall_ms.begin(),
                       from.stall_ms.end());
}

}  // namespace

std::uint64_t LoadResult::images_served() const {
  std::uint64_t images = 0;
  for (const Sample& s : served) images += static_cast<std::uint64_t>(s.images);
  return images;
}

LoadResult run_load(const LoadConfig& config,
                    std::vector<std::unique_ptr<yoloc::HttpClient>>& clients,
                    const RequestFn& request_of, const CheckFn& check) {
  std::vector<Tally> tallies(clients.size());
  std::atomic<std::uint64_t> next{0};
  const double cpu_before = self_cpu_ms();
  const auto start = Clock::now();
  const auto stop_at = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(config.seconds));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients.size(); ++t) {
    threads.emplace_back([&, t] {
      Tally& tally = tallies[t];
      while (Clock::now() < stop_at) {
        const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        send_one(*clients[t], request_of(config.first_index + i), start,
                 config, check, tally);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  LoadResult result;
  Clock::time_point last_reply = start;
  for (Tally& tally : tallies) {
    merge(result, tally.part);
    last_reply = std::max(last_reply, tally.last_reply);
  }
  result.generator_cpu_ms = self_cpu_ms() - cpu_before;
  result.window_s = ms_between(start, last_reply) / 1e3;
  result.next_index = config.first_index + result.attempted;
  return result;
}

}  // namespace perfbench

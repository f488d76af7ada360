#pragma once
// Request vocabulary of the serving scheduler (src/serve/).
//
// Every request entering the scheduler carries a priority class and an
// optional deadline. The three classes model the traffic mix a deployed
// CiM chip actually sees: latency-sensitive interactive queries, bulk
// batch jobs, and best-effort background work that may be shed under
// load. Deadlines are RELATIVE to submission; the scheduler converts
// them to absolute steady-clock time points at admission so queued
// requests can be expired without consulting the submitter again.

#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/trace_clock.hpp"
#include "tensor/tensor.hpp"

namespace yoloc {

/// Scheduling class, strongest first. Lower numeric value = served first
/// under strict priority; under weighted-fair scheduling the class only
/// selects the lane (and its weight / reservation / SLO configuration).
enum class Priority : int {
  kInteractive = 0,  ///< latency-sensitive; always scheduled first
  kBatch = 1,        ///< default bulk class
  kBestEffort = 2,   ///< sheddable background work
};

inline constexpr int kPriorityClassCount = 3;

/// Bitmask over priority lanes: bit i = lane i is eligible. Workers with
/// a per-lane reservation pop with a single-lane mask; shared workers pop
/// with kAllLanes.
using LaneMask = unsigned;

inline constexpr LaneMask kAllLanes = (1u << kPriorityClassCount) - 1u;

inline constexpr LaneMask lane_bit(Priority p) {
  return 1u << static_cast<unsigned>(p);
}

/// Per-lane service shares for the deficit-weighted round-robin queue.
/// Semantics of one weight:
///   * +infinity — strict tier: always served first (priority order
///     among infinite lanes),
///   * finite > 0 — weighted tier: deficit round-robin, long-run service
///     proportional to the weight while backlogged,
///   * 0 — idle tier: served only when every other tier is empty.
using LaneWeights = std::array<double, kPriorityClassCount>;

/// The {inf, 1, 0} configuration that reproduces the legacy strict
/// priority policy exactly: interactive preempts, batch is the only
/// weighted lane (so it always wins the weighted tier), best-effort runs
/// only when both are empty. This is the default, so existing callers
/// see unchanged scheduling.
inline LaneWeights strict_lane_weights() {
  return {std::numeric_limits<double>::infinity(), 1.0, 0.0};
}

/// Stable lowercase name ("interactive" / "batch" / "best_effort") used
/// in metrics JSON and log lines.
const char* priority_name(Priority p);

/// Clock every scheduler timestamp lives on — an alias of the process
/// trace clock (common/trace_clock.hpp), so scheduler deadlines, metric
/// latencies and trace spans all share one steady base and one epoch.
using ServeClock = TraceClock;

/// Per-submit scheduling hints.
struct SubmitOptions {
  Priority priority = Priority::kBatch;
  /// Relative deadline from the moment of submission. Zero means no
  /// deadline; a non-positive (already elapsed) deadline is rejected at
  /// admission. Expired queued requests fail fast with
  /// DeadlineExpiredError instead of occupying a worker.
  std::chrono::nanoseconds deadline{0};
};

/// Request refused at admission (queue depth cap or infeasible deadline).
class AdmissionError : public std::runtime_error {
 public:
  explicit AdmissionError(const std::string& what)
      : std::runtime_error("admission: " + what) {}
};

/// Refused because the lane sits at its depth cap — transient overload,
/// safe to retry once the queue drains. Network front-ends map this to
/// HTTP 429 Too Many Requests.
class QueueDepthError : public AdmissionError {
 public:
  explicit QueueDepthError(const std::string& what) : AdmissionError(what) {}
};

/// Refused because the requested deadline is tighter than the rolling
/// service estimate — the scheduler cannot meet it no matter how empty
/// the queue is. Network front-ends map this to HTTP 503 with a
/// Retry-After hint.
class InfeasibleDeadlineError : public AdmissionError {
 public:
  explicit InfeasibleDeadlineError(const std::string& what)
      : AdmissionError(what) {}
};

/// Refused because the scheduler is in degraded mode: healthy capacity
/// fell below the lane's shed threshold (see ResilienceOptions), so
/// sheddable lanes are turned away until capacity recovers. Transient —
/// network front-ends map this to HTTP 503 with a Retry-After hint.
/// Interactive traffic is never shed.
class ShedError : public AdmissionError {
 public:
  explicit ShedError(const std::string& what) : AdmissionError(what) {}
};

/// An accepted request died because its worker was declared hung by the
/// watchdog (or abandoned mid-execution at shutdown). The request itself
/// was fine — retrying on a healthy worker is expected to succeed, so
/// front-ends map this to a retriable HTTP 503.
class WorkerHungError : public std::runtime_error {
 public:
  explicit WorkerHungError(const std::string& what)
      : std::runtime_error("worker hung: " + what) {}
};

/// Request canceled because its deadline passed before (or at) admission
/// or while it was still queued.
class DeadlineExpiredError : public std::runtime_error {
 public:
  explicit DeadlineExpiredError(const std::string& what)
      : std::runtime_error("deadline expired: " + what) {}
};

/// Settles one request: `output` when it was served, otherwise `error`
/// (non-null) and an empty tensor. See Scheduler::submit for when and on
/// which thread it runs.
using ServeCallback =
    std::function<void(Tensor output, std::exception_ptr error)>;

/// Internal queue entry. Owned by RequestQueue / Scheduler; callers only
/// ever see the outcome, through `on_done`.
struct ServeRequest {
  Tensor input;
  ServeCallback on_done;
  /// Settle with `error` (the callback gets an empty tensor).
  void fail(std::exception_ptr error) { on_done(Tensor{}, std::move(error)); }
  /// Admission-order id; also the per-request noise-stream offset that
  /// backs the max_microbatch = 1 determinism contract.
  std::uint64_t id = 0;
  Priority priority = Priority::kBatch;
  ServeClock::time_point submit_time{};
  /// Absolute expiry; time_point::max() = no deadline.
  ServeClock::time_point deadline = ServeClock::time_point::max();

  [[nodiscard]] bool has_deadline() const {
    return deadline != ServeClock::time_point::max();
  }
  [[nodiscard]] bool expired(ServeClock::time_point now) const {
    return has_deadline() && deadline <= now;
  }
};

}  // namespace yoloc

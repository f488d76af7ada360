#pragma once
// Serving telemetry: lock-cheap per-worker counters merged on read.
//
// Every scheduler worker owns one WorkerSlot guarded by its own mutex —
// uncontended in steady state, so the per-batch recording cost is a
// handful of uncontended lock/unlock pairs and array increments, never a
// global lock on the hot path. Submit-side events (admission rejections,
// enqueue counts) land in a separate ingress slot. snapshot() takes each
// slot's lock in turn and merges everything into one immutable
// MetricsSnapshot, exportable as a JSON object.
//
// Latencies are recorded into log2-bucketed histograms (bucket b holds
// [2^(b-1), 2^b) nanoseconds): constant memory, O(1) record, and
// quantiles with bounded relative error — the standard shape for serving
// p50/p95/p99 without keeping raw samples.

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request.hpp"
#include "serve/resilience.hpp"

namespace yoloc {

/// Fixed-memory log2 latency histogram over nanoseconds.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::uint64_t ns);
  void merge(const LatencyHistogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t max_ns() const { return max_ns_; }
  [[nodiscard]] std::uint64_t sum_ns() const { return sum_ns_; }
  /// Raw occupancy of bucket `b` in [0, kBuckets); bucket b holds
  /// latencies in [2^(b-1), 2^b) ns (zero lands in bucket 0).
  [[nodiscard]] std::uint64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)];
  }
  /// Inclusive upper bound of bucket `b` in nanoseconds (2^b): every
  /// observation in buckets [0, b] is <= this. Feeds Prometheus `le`.
  [[nodiscard]] static double bucket_upper_ns(int b) {
    return static_cast<double>(1ull << std::min(b, 62));
  }
  [[nodiscard]] double mean_ns() const;
  /// q in [0, 1]; linear interpolation inside the containing bucket,
  /// clamped to the observed maximum. Returns 0 when empty.
  [[nodiscard]] double quantile_ns(double q) const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
  std::uint64_t max_ns_ = 0;
};

/// Escape a Prometheus label value per the text exposition format
/// (version 0.0.4): backslash, double quote and newline are escaped.
[[nodiscard]] std::string prometheus_escape_label(const std::string& value);

/// Escape `s` for the inside of a JSON string literal: double quote,
/// backslash, \n, \r and \t get their short escapes, other control
/// bytes below 0x20 become \u00XX, and every other byte (UTF-8
/// included) passes through unchanged. The one JSON escaper of the
/// serving layer (HTTP bodies, metrics JSON, trace export).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Quantile digest of one histogram, in milliseconds (JSON-friendly).
struct LatencySummary {
  std::uint64_t count = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
};

/// Per-priority-class slice of a snapshot.
struct ClassSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t served_requests = 0;
  std::uint64_t served_images = 0;
  std::uint64_t failed_requests = 0;   // execution raised
  std::uint64_t expired_requests = 0;  // deadline passed while queued
  std::uint64_t rejected_requests = 0; // refused at admission
  std::uint64_t queue_depth = 0;       // gauge at snapshot time
  LatencySummary queue_wait;    // submit -> batch pickup (served only)
  LatencySummary e2e;           // submit -> future fulfilled (served only)
  LatencySummary expired_wait;  // submit -> cancellation (expired only)
  // The merged histograms behind the three summaries above; carried so
  // the Prometheus exposition can emit real cumulative buckets.
  LatencyHistogram queue_wait_hist;
  LatencyHistogram e2e_hist;
  LatencyHistogram expired_wait_hist;
};

/// Immutable merged view of the registry at one instant.
struct MetricsSnapshot {
  double uptime_s = 0.0;
  int workers = 0;
  std::uint64_t batches = 0;
  std::uint64_t served_requests = 0;
  std::uint64_t served_images = 0;
  double avg_batch_occupancy = 0.0;  // requests per executed batch
  int max_batch_occupancy = 0;
  double rolling_images_per_s = 0.0;  // images/s over the trailing window
  std::array<ClassSnapshot, kPriorityClassCount> classes{};
  /// Resilience state at snapshot time (filled by the scheduler; all
  /// zeros / fully healthy when the resilience layer is disabled).
  ResilienceSnapshot resilience;

  /// One JSON object (single line, no trailing newline) with the schema
  /// documented in docs/serving.md.
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition (version 0.0.4): `# HELP` / `# TYPE`
  /// per family, counters (`*_total`), gauges, and cumulative
  /// `_bucket`/`_sum`/`_count` histogram series per lane. Every metric
  /// name is documented in docs/serving.md; tools/docs_check.sh keeps
  /// the two in sync (CTest label `docs`).
  [[nodiscard]] std::string to_prometheus() const;
};

/// What one worker observed executing one batch. All requests in a batch
/// share a priority class by construction.
struct BatchObservation {
  Priority priority = Priority::kBatch;
  int requests = 0;
  int images = 0;
  bool failed = false;  // execution threw: requests count as failed
  std::vector<std::uint64_t> queue_wait_ns;  // per served request
  std::vector<std::uint64_t> e2e_ns;         // per served request
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(int workers);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // ------------------------------------------------ worker-side events
  /// Record one executed batch into worker `worker`'s slot.
  void record_batch(int worker, const BatchObservation& obs);

  // ------------------------------------------------ submit-side events
  void record_submitted(Priority p);
  void record_rejected(Priority p);
  /// `waited_ns`: how long the request sat queued before expiring.
  void record_expired(Priority p, std::uint64_t waited_ns);

  /// Merge every slot under its own lock. `queue_depths` are the live
  /// per-class queue gauges (the registry does not own the queue).
  [[nodiscard]] MetricsSnapshot snapshot(
      const std::array<std::uint64_t, kPriorityClassCount>& queue_depths)
      const;

  /// Zero every counter, histogram and throughput slot (each under its
  /// own lock; safe concurrently with recording, though a snapshot
  /// racing a reset may see partially cleared state). The registry
  /// epoch (uptime_s) is NOT reset. Benches use this to scope a
  /// snapshot to a measurement phase, excluding warmup.
  void reset();

  [[nodiscard]] int worker_slots() const {
    return static_cast<int>(workers_.size());
  }

 private:
  struct ClassCounters {
    std::uint64_t served_requests = 0;
    std::uint64_t served_images = 0;
    std::uint64_t failed_requests = 0;
    LatencyHistogram queue_wait;
    LatencyHistogram e2e;
  };
  struct WorkerSlot {
    mutable std::mutex mutex;
    std::array<ClassCounters, kPriorityClassCount> classes{};
    std::uint64_t batches = 0;
    std::uint64_t batched_requests = 0;
    int max_batch_occupancy = 0;
  };
  struct IngressSlot {
    mutable std::mutex mutex;
    std::array<std::uint64_t, kPriorityClassCount> submitted{};
    std::array<std::uint64_t, kPriorityClassCount> rejected{};
    std::array<std::uint64_t, kPriorityClassCount> expired{};
    std::array<LatencyHistogram, kPriorityClassCount> expired_wait{};
  };
  /// Trailing-window throughput: a ring of one-second buckets.
  struct RollingRate {
    static constexpr int kSlots = 16;
    static constexpr int kWindowSeconds = 10;
    struct Slot {
      std::int64_t second = -1;
      std::uint64_t images = 0;
    };
    std::array<Slot, kSlots> slots{};
  };

  std::vector<std::unique_ptr<WorkerSlot>> workers_;
  IngressSlot ingress_;
  mutable std::mutex rate_mutex_;
  RollingRate rate_;
  /// Registry creation time as ns since trace_epoch() — the SAME base
  /// trace spans are stamped on, so uptime, rolling-rate seconds and
  /// trace timestamps can be compared directly.
  std::uint64_t start_ns_;
};

}  // namespace yoloc

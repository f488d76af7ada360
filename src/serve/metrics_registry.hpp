#pragma once
// Serving telemetry: one plain ledger that its owner synchronises.
//
// MetricsRegistry holds the per-lane request counters, latency
// histograms, batch occupancy and a rolling-throughput ring. It has no
// lock of its own: the Scheduler records into it and reads it only
// inside critical sections of its own mutex that it enters anyway (batch
// pop and finish, submit, expiry, shutdown), so one snapshot() is one
// instant — a request can never show up both as queued and as served.
// snapshot() returns an immutable MetricsSnapshot, exportable as a JSON
// object or as Prometheus text.
//
// Latencies are recorded into log2-bucketed histograms (bucket b holds
// [2^(b-1), 2^b) nanoseconds): constant memory, O(1) record, and
// quantiles with bounded relative error — the standard shape for serving
// p50/p95/p99 without keeping raw samples.

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <string_view>

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
  [[nodiscard]] double quantile_ms(double q) const {
    return quantile_ns(q) / 1e6;
  }

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

/// Per-priority-class slice of a snapshot.
struct ClassSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t served_requests = 0;
  std::uint64_t served_images = 0;
  std::uint64_t failed_requests = 0;   // execution raised
  std::uint64_t expired_requests = 0;  // deadline passed while queued
  std::uint64_t rejected_requests = 0; // refused at admission
  std::uint64_t queue_depth = 0;       // gauge at snapshot time
  // Latency histograms: to_json() digests each into count, p50,
  // p95, p99, mean and max in ms; to_prometheus() emits its buckets.
  LatencyHistogram queue_wait;    // submit -> batch pickup (served only)
  LatencyHistogram e2e;           // submit -> callback ran (served only)
  LatencyHistogram expired_wait;  // submit -> cancellation (expired only)
};

/// Immutable view of the registry at one instant.
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

/// The serving ledger. Not thread-safe: every call must be serialised by
/// the caller (the Scheduler holds its mutex around each one).
class MetricsRegistry {
 public:
  explicit MetricsRegistry(int workers);

  // ------------------------------------------------ worker-side events
  /// One served request of lane `p`: submit -> batch pickup and submit ->
  /// callback ran.
  void record_served(Priority p, std::uint64_t queue_wait_ns,
                     std::uint64_t e2e_ns);
  /// One served batch of `requests` requests (each also recorded through
  /// record_served) and `images` images: occupancy and throughput.
  void record_batch(Priority p, int requests, int images);
  /// `requests` requests of a batch that raised or hung: they count as
  /// failed and nothing else (no batch, no latency, no throughput).
  void record_failed(Priority p, std::size_t requests);

  // ------------------------------------------------ submit-side events
  void record_submitted(Priority p);
  void record_rejected(Priority p);
  /// `waited_ns`: how long the request sat queued before expiring.
  void record_expired(Priority p, std::uint64_t waited_ns);

  /// The ledger plus its derived gauges at this instant. `queue_depths`
  /// are the live per-class queue gauges (the registry does not own the
  /// queue).
  [[nodiscard]] MetricsSnapshot snapshot(
      const std::array<std::uint64_t, kPriorityClassCount>& queue_depths)
      const;

  /// Zero every counter, histogram and throughput slot, except that a
  /// lane's requests not yet settled (submitted minus served, failed,
  /// expired and rejected) stay submitted. The registry epoch (uptime_s)
  /// is NOT reset. Benches use this to scope a snapshot to a measurement
  /// phase, excluding warmup.
  void reset();

 private:
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

  /// Per-lane counters and histograms; queue_depth is filled by snapshot().
  std::array<ClassSnapshot, kPriorityClassCount> classes_{};
  std::uint64_t batches_ = 0;
  std::uint64_t batched_requests_ = 0;
  int max_batch_occupancy_ = 0;
  RollingRate rate_;
  int workers_;
  /// Registry creation time as ns since trace_epoch() — the SAME base
  /// trace spans are stamped on, so uptime, rolling-rate seconds and
  /// trace timestamps can be compared directly.
  std::uint64_t start_ns_;
};

}  // namespace yoloc

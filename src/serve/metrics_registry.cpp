#include "serve/metrics_registry.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/check.hpp"

namespace yoloc {

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBatch:
      return "batch";
    case Priority::kBestEffort:
      return "best_effort";
  }
  return "unknown";
}

// ---------------------------------------------------- LatencyHistogram

namespace {

int bucket_of(std::uint64_t ns) {
  // Bucket b holds [2^(b-1), 2^b); zero lands in bucket 0.
  return ns == 0 ? 0 : std::bit_width(ns);
}

double bucket_lo(int b) {
  return b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
}

double bucket_hi(int b) {
  return b >= 63 ? static_cast<double>(~0ull)
                 : static_cast<double>(1ull << b);
}

constexpr double kNsPerMs = 1e6;
constexpr std::uint64_t kNsPerSecondU64 = 1000000000ull;

LatencySummary summarize(const LatencyHistogram& h) {
  LatencySummary s;
  s.count = h.count();
  s.p50_ms = h.quantile_ns(0.50) / kNsPerMs;
  s.p95_ms = h.quantile_ns(0.95) / kNsPerMs;
  s.p99_ms = h.quantile_ns(0.99) / kNsPerMs;
  s.mean_ms = h.mean_ns() / kNsPerMs;
  s.max_ms = static_cast<double>(h.max_ns()) / kNsPerMs;
  return s;
}

}  // namespace

void LatencyHistogram::record(std::uint64_t ns) {
  buckets_[static_cast<std::size_t>(
      std::min(bucket_of(ns), kBuckets - 1))] += 1;
  count_ += 1;
  sum_ns_ += ns;
  max_ns_ = std::max(max_ns_, ns);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[static_cast<std::size_t>(b)] +=
        other.buckets_[static_cast<std::size_t>(b)];
  }
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
  max_ns_ = std::max(max_ns_, other.max_ns_);
}

double LatencyHistogram::mean_ns() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_ns_) /
                           static_cast<double>(count_);
}

double LatencyHistogram::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_ - 1) + 1.0;
  std::uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket = buckets_[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= rank) {
      // Linear interpolation across the bucket's nanosecond span.
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(in_bucket);
      const double v = bucket_lo(b) + frac * (bucket_hi(b) - bucket_lo(b));
      return std::min(v, static_cast<double>(max_ns_));
    }
    cum += in_bucket;
  }
  return static_cast<double>(max_ns_);
}

// ---------------------------------------------------- MetricsSnapshot

namespace {

void append_latency_json(std::string& out, const char* key,
                         const LatencySummary& s) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"count\":%llu,\"p50_ms\":%.4f,\"p95_ms\":%.4f,"
                "\"p99_ms\":%.4f,\"mean_ms\":%.4f,\"max_ms\":%.4f}",
                key, static_cast<unsigned long long>(s.count), s.p50_ms,
                s.p95_ms, s.p99_ms, s.mean_ms, s.max_ms);
  out += buf;
}

}  // namespace

std::string prometheus_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Emitted `le` thresholds: every even log2 exponent from 2^10 ns
/// (~1 us) to 2^40 ns (~18 min). Cumulative counts stay exact at any
/// subset of thresholds; observations outside the span land in the
/// first bucket / the +Inf bucket.
constexpr int kPromLeLo = 10;
constexpr int kPromLeHi = 40;
constexpr int kPromLeStep = 2;
constexpr double kNsPerSecond = 1e9;

void append_prom_header(std::string& out, const char* name, const char* type,
                        const char* help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

/// Integer series (counters, depth gauges) are emitted as integers:
/// rendering them through %g would silently round past 10 significant
/// digits and freeze rate() on long-lived servers.
void append_prom_lane_counter(std::string& out, const char* name,
                              const char* lane, std::uint64_t value) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s{lane=\"%s\"} %llu\n", name,
                prometheus_escape_label(lane).c_str(),
                static_cast<unsigned long long>(value));
  out += buf;
}

void append_prom_counter(std::string& out, const char* name,
                         std::uint64_t value) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s %llu\n", name,
                static_cast<unsigned long long>(value));
  out += buf;
}

void append_prom_value(std::string& out, const char* name, double value) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s %.10g\n", name, value);
  out += buf;
}

/// One lane's cumulative `_bucket` series plus its `_sum` and `_count`.
void append_prom_histogram_lane(std::string& out, const char* name,
                                const char* lane,
                                const LatencyHistogram& hist) {
  const std::string esc = prometheus_escape_label(lane);
  char buf[192];
  std::uint64_t cumulative = 0;
  int next_bucket = 0;
  for (int b = kPromLeLo; b <= kPromLeHi; b += kPromLeStep) {
    for (; next_bucket <= b && next_bucket < LatencyHistogram::kBuckets;
         ++next_bucket) {
      cumulative += hist.bucket(next_bucket);
    }
    std::snprintf(buf, sizeof(buf), "%s_bucket{lane=\"%s\",le=\"%.10g\"} %llu\n",
                  name, esc.c_str(),
                  LatencyHistogram::bucket_upper_ns(b) / kNsPerSecond,
                  static_cast<unsigned long long>(cumulative));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%s_bucket{lane=\"%s\",le=\"+Inf\"} %llu\n",
                name, esc.c_str(),
                static_cast<unsigned long long>(hist.count()));
  out += buf;
  std::snprintf(buf, sizeof(buf), "%s_sum{lane=\"%s\"} %.10g\n", name,
                esc.c_str(),
                static_cast<double>(hist.sum_ns()) / kNsPerSecond);
  out += buf;
  std::snprintf(buf, sizeof(buf), "%s_count{lane=\"%s\"} %llu\n", name,
                esc.c_str(), static_cast<unsigned long long>(hist.count()));
  out += buf;
}

}  // namespace

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  out.reserve(16384);

  append_prom_header(out, "yoloc_serve_uptime_seconds", "gauge",
                     "Seconds since the metrics registry was created.");
  append_prom_value(out, "yoloc_serve_uptime_seconds", uptime_s);

  append_prom_header(out, "yoloc_serve_workers", "gauge",
                     "Scheduler worker threads.");
  append_prom_value(out, "yoloc_serve_workers", workers);

  append_prom_header(out, "yoloc_serve_batches_total", "counter",
                     "Forward passes executed (continuous batches).");
  append_prom_counter(out, "yoloc_serve_batches_total", batches);

  append_prom_header(out, "yoloc_serve_batch_occupancy_mean", "gauge",
                     "Mean requests fused per executed batch.");
  append_prom_value(out, "yoloc_serve_batch_occupancy_mean",
                    avg_batch_occupancy);

  append_prom_header(out, "yoloc_serve_batch_occupancy_max", "gauge",
                     "Largest request count fused into one batch.");
  append_prom_value(out, "yoloc_serve_batch_occupancy_max",
                    max_batch_occupancy);

  append_prom_header(out, "yoloc_serve_rolling_images_per_second", "gauge",
                     "Images served per second over the trailing window.");
  append_prom_value(out, "yoloc_serve_rolling_images_per_second",
                    rolling_images_per_s);

  struct LaneCounter {
    const char* name;
    const char* help;
    std::uint64_t ClassSnapshot::* field;
  };
  static constexpr LaneCounter kCounters[] = {
      {"yoloc_serve_requests_submitted_total",
       "Requests submitted per lane (accepted or not).",
       &ClassSnapshot::submitted},
      {"yoloc_serve_requests_served_total",
       "Requests served to completion per lane.",
       &ClassSnapshot::served_requests},
      {"yoloc_serve_images_served_total", "Images served per lane.",
       &ClassSnapshot::served_images},
      {"yoloc_serve_requests_failed_total",
       "Requests whose execution raised per lane.",
       &ClassSnapshot::failed_requests},
      {"yoloc_serve_requests_expired_total",
       "Requests canceled while queued (deadline passed) per lane.",
       &ClassSnapshot::expired_requests},
      {"yoloc_serve_requests_rejected_total",
       "Requests refused at admission per lane.",
       &ClassSnapshot::rejected_requests},
  };
  for (const LaneCounter& counter : kCounters) {
    append_prom_header(out, counter.name, "counter", counter.help);
    for (int c = 0; c < kPriorityClassCount; ++c) {
      append_prom_lane_counter(
          out, counter.name, priority_name(static_cast<Priority>(c)),
          classes[static_cast<std::size_t>(c)].*counter.field);
    }
  }

  append_prom_header(out, "yoloc_serve_queue_depth", "gauge",
                     "Requests queued per lane at scrape time.");
  for (int c = 0; c < kPriorityClassCount; ++c) {
    append_prom_lane_counter(
        out, "yoloc_serve_queue_depth",
        priority_name(static_cast<Priority>(c)),
        classes[static_cast<std::size_t>(c)].queue_depth);
  }

  struct LaneHistogram {
    const char* name;
    const char* help;
    LatencyHistogram ClassSnapshot::* field;
  };
  static constexpr LaneHistogram kHistograms[] = {
      {"yoloc_serve_queue_wait_seconds",
       "Submit to batch pickup, served requests only.",
       &ClassSnapshot::queue_wait_hist},
      {"yoloc_serve_e2e_latency_seconds",
       "Submit to future fulfilled, served requests only.",
       &ClassSnapshot::e2e_hist},
      {"yoloc_serve_expired_wait_seconds",
       "Submit to cancellation for requests that expired while queued.",
       &ClassSnapshot::expired_wait_hist},
  };
  for (const LaneHistogram& hist : kHistograms) {
    append_prom_header(out, hist.name, "histogram", hist.help);
    for (int c = 0; c < kPriorityClassCount; ++c) {
      append_prom_histogram_lane(
          out, hist.name, priority_name(static_cast<Priority>(c)),
          classes[static_cast<std::size_t>(c)].*hist.field);
    }
  }

  // Resilience families: always exported (zeros / fully-healthy when the
  // resilience layer is disabled) so dashboards never see a family
  // appear mid-flight.
  append_prom_header(out, "yoloc_resilience_healthy_workers", "gauge",
                     "Workers currently taking traffic (breaker closed, "
                     "not quarantined).");
  append_prom_value(out, "yoloc_resilience_healthy_workers",
                    resilience.healthy_workers);

  append_prom_header(out, "yoloc_resilience_breaker_open_workers", "gauge",
                     "Workers with an open canary circuit breaker.");
  append_prom_value(out, "yoloc_resilience_breaker_open_workers",
                    resilience.breaker_open_workers);

  append_prom_header(out, "yoloc_resilience_quarantined_workers", "gauge",
                     "Workers quarantined by the watchdog.");
  append_prom_value(out, "yoloc_resilience_quarantined_workers",
                    resilience.quarantined_workers);

  struct ResilienceCounter {
    const char* name;
    const char* help;
    std::uint64_t ResilienceSnapshot::* field;
  };
  static constexpr ResilienceCounter kResilienceCounters[] = {
      {"yoloc_resilience_canary_pass_total",
       "Canary probes whose output matched the golden logits.",
       &ResilienceSnapshot::canary_pass},
      {"yoloc_resilience_canary_fail_total",
       "Canary probes whose output diverged from the golden logits.",
       &ResilienceSnapshot::canary_fail},
      {"yoloc_resilience_watchdog_fires_total",
       "Batches declared hung by the watchdog (requests failed, worker "
       "quarantined).",
       &ResilienceSnapshot::watchdog_fires},
      {"yoloc_resilience_breaker_trips_total",
       "Circuit-breaker open transitions across all workers.",
       &ResilienceSnapshot::breaker_trips},
      {"yoloc_resilience_breaker_recoveries_total",
       "Circuit-breaker close transitions across all workers.",
       &ResilienceSnapshot::breaker_recoveries},
  };
  for (const ResilienceCounter& counter : kResilienceCounters) {
    append_prom_header(out, counter.name, "counter", counter.help);
    append_prom_counter(out, counter.name, resilience.*counter.field);
  }

  append_prom_header(out, "yoloc_resilience_shed_requests_total", "counter",
                     "Admissions refused by degraded-mode load shedding "
                     "per lane.");
  for (int c = 0; c < kPriorityClassCount; ++c) {
    append_prom_lane_counter(
        out, "yoloc_resilience_shed_requests_total",
        priority_name(static_cast<Priority>(c)),
        resilience.shed_requests[static_cast<std::size_t>(c)]);
  }

  append_prom_header(out, "yoloc_resilience_degraded", "gauge",
                     "1 when any worker is unhealthy (see /healthz for "
                     "the reason).");
  append_prom_value(out, "yoloc_resilience_degraded",
                    resilience.degraded ? 1.0 : 0.0);
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out;
  out.reserve(1024);
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"uptime_s\":%.3f,\"workers\":%d,\"batches\":%llu,"
      "\"served_requests\":%llu,\"served_images\":%llu,"
      "\"batch_occupancy\":{\"mean\":%.3f,\"max\":%d},"
      "\"rolling_images_per_s\":%.2f,\"classes\":{",
      uptime_s, workers, static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(served_requests),
      static_cast<unsigned long long>(served_images), avg_batch_occupancy,
      max_batch_occupancy, rolling_images_per_s);
  out += buf;
  for (int c = 0; c < kPriorityClassCount; ++c) {
    const ClassSnapshot& cs = classes[static_cast<std::size_t>(c)];
    std::snprintf(
        buf, sizeof(buf),
        "%s\"%s\":{\"submitted\":%llu,\"served_requests\":%llu,"
        "\"served_images\":%llu,\"failed\":%llu,\"expired\":%llu,"
        "\"rejected\":%llu,\"queue_depth\":%llu,",
        c == 0 ? "" : ",", priority_name(static_cast<Priority>(c)),
        static_cast<unsigned long long>(cs.submitted),
        static_cast<unsigned long long>(cs.served_requests),
        static_cast<unsigned long long>(cs.served_images),
        static_cast<unsigned long long>(cs.failed_requests),
        static_cast<unsigned long long>(cs.expired_requests),
        static_cast<unsigned long long>(cs.rejected_requests),
        static_cast<unsigned long long>(cs.queue_depth));
    out += buf;
    append_latency_json(out, "queue_wait_ms", cs.queue_wait);
    out += ',';
    append_latency_json(out, "e2e_ms", cs.e2e);
    out += ',';
    append_latency_json(out, "expired_wait_ms", cs.expired_wait);
    out += '}';
  }
  out += "},\"resilience\":{";
  std::snprintf(
      buf, sizeof(buf),
      "\"healthy_workers\":%d,\"breaker_open_workers\":%d,"
      "\"quarantined_workers\":%d,\"canary_pass\":%llu,"
      "\"canary_fail\":%llu,\"watchdog_fires\":%llu,"
      "\"breaker_trips\":%llu,\"breaker_recoveries\":%llu,"
      "\"shed\":{\"interactive\":%llu,\"batch\":%llu,\"best_effort\":%llu},"
      "\"degraded\":%s",
      resilience.healthy_workers, resilience.breaker_open_workers,
      resilience.quarantined_workers,
      static_cast<unsigned long long>(resilience.canary_pass),
      static_cast<unsigned long long>(resilience.canary_fail),
      static_cast<unsigned long long>(resilience.watchdog_fires),
      static_cast<unsigned long long>(resilience.breaker_trips),
      static_cast<unsigned long long>(resilience.breaker_recoveries),
      static_cast<unsigned long long>(resilience.shed_requests[0]),
      static_cast<unsigned long long>(resilience.shed_requests[1]),
      static_cast<unsigned long long>(resilience.shed_requests[2]),
      resilience.degraded ? "true" : "false");
  out += buf;
  if (resilience.degraded) {
    // The reason is generated internally (no quotes/backslashes), but
    // escape anyway so the object can never be malformed.
    out += ",\"degraded_reason\":\"";
    out += json_escape(resilience.degraded_reason);
    out += '"';
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------- MetricsRegistry

MetricsRegistry::MetricsRegistry(int workers) : start_ns_(trace_now_ns()) {
  YOLOC_CHECK(workers >= 1, "metrics registry: at least one worker slot");
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<WorkerSlot>());
  }
}

void MetricsRegistry::record_batch(int worker, const BatchObservation& obs) {
  YOLOC_CHECK(worker >= 0 && worker < worker_slots(),
              "metrics registry: bad worker index");
  WorkerSlot& slot = *workers_[static_cast<std::size_t>(worker)];
  const auto cls = static_cast<std::size_t>(obs.priority);
  {
    std::lock_guard lock(slot.mutex);
    ClassCounters& c = slot.classes[cls];
    if (obs.failed) {
      c.failed_requests += static_cast<std::uint64_t>(obs.requests);
    } else {
      c.served_requests += static_cast<std::uint64_t>(obs.requests);
      c.served_images += static_cast<std::uint64_t>(obs.images);
      for (const std::uint64_t ns : obs.queue_wait_ns) c.queue_wait.record(ns);
      for (const std::uint64_t ns : obs.e2e_ns) c.e2e.record(ns);
      slot.batches += 1;
      slot.batched_requests += static_cast<std::uint64_t>(obs.requests);
      slot.max_batch_occupancy =
          std::max(slot.max_batch_occupancy, obs.requests);
    }
  }
  if (!obs.failed && obs.images > 0) {
    const std::int64_t second = static_cast<std::int64_t>(
        (trace_now_ns() - start_ns_) / kNsPerSecondU64);
    std::lock_guard lock(rate_mutex_);
    auto& s = rate_.slots[static_cast<std::size_t>(second) %
                          RollingRate::kSlots];
    if (s.second != second) {
      s.second = second;
      s.images = 0;
    }
    s.images += static_cast<std::uint64_t>(obs.images);
  }
}

void MetricsRegistry::record_submitted(Priority p) {
  std::lock_guard lock(ingress_.mutex);
  ingress_.submitted[static_cast<std::size_t>(p)] += 1;
}

void MetricsRegistry::record_rejected(Priority p) {
  std::lock_guard lock(ingress_.mutex);
  ingress_.rejected[static_cast<std::size_t>(p)] += 1;
}

void MetricsRegistry::record_expired(Priority p, std::uint64_t waited_ns) {
  std::lock_guard lock(ingress_.mutex);
  ingress_.expired[static_cast<std::size_t>(p)] += 1;
  ingress_.expired_wait[static_cast<std::size_t>(p)].record(waited_ns);
}

void MetricsRegistry::reset() {
  for (auto& worker : workers_) {
    std::lock_guard lock(worker->mutex);
    worker->classes = {};
    worker->batches = 0;
    worker->batched_requests = 0;
    worker->max_batch_occupancy = 0;
  }
  {
    std::lock_guard lock(ingress_.mutex);
    ingress_.submitted = {};
    ingress_.rejected = {};
    ingress_.expired = {};
    ingress_.expired_wait = {};
  }
  {
    std::lock_guard lock(rate_mutex_);
    rate_.slots = {};
  }
}

MetricsSnapshot MetricsRegistry::snapshot(
    const std::array<std::uint64_t, kPriorityClassCount>& queue_depths)
    const {
  MetricsSnapshot snap;
  const std::uint64_t now_ns = trace_now_ns();
  const std::uint64_t uptime_ns = now_ns - start_ns_;
  snap.uptime_s = static_cast<double>(uptime_ns) / 1e9;
  snap.workers = worker_slots();

  std::array<LatencyHistogram, kPriorityClassCount> queue_wait{};
  std::array<LatencyHistogram, kPriorityClassCount> e2e{};
  std::uint64_t batched_requests = 0;
  for (const auto& worker : workers_) {
    std::lock_guard lock(worker->mutex);
    for (int c = 0; c < kPriorityClassCount; ++c) {
      const ClassCounters& src = worker->classes[static_cast<std::size_t>(c)];
      ClassSnapshot& dst = snap.classes[static_cast<std::size_t>(c)];
      dst.served_requests += src.served_requests;
      dst.served_images += src.served_images;
      dst.failed_requests += src.failed_requests;
      queue_wait[static_cast<std::size_t>(c)].merge(src.queue_wait);
      e2e[static_cast<std::size_t>(c)].merge(src.e2e);
    }
    snap.batches += worker->batches;
    batched_requests += worker->batched_requests;
    snap.max_batch_occupancy =
        std::max(snap.max_batch_occupancy, worker->max_batch_occupancy);
  }
  {
    std::lock_guard lock(ingress_.mutex);
    for (int c = 0; c < kPriorityClassCount; ++c) {
      ClassSnapshot& dst = snap.classes[static_cast<std::size_t>(c)];
      dst.submitted = ingress_.submitted[static_cast<std::size_t>(c)];
      dst.rejected_requests = ingress_.rejected[static_cast<std::size_t>(c)];
      dst.expired_requests = ingress_.expired[static_cast<std::size_t>(c)];
      dst.expired_wait =
          summarize(ingress_.expired_wait[static_cast<std::size_t>(c)]);
      dst.expired_wait_hist =
          ingress_.expired_wait[static_cast<std::size_t>(c)];
    }
  }
  for (int c = 0; c < kPriorityClassCount; ++c) {
    ClassSnapshot& dst = snap.classes[static_cast<std::size_t>(c)];
    dst.queue_depth = queue_depths[static_cast<std::size_t>(c)];
    dst.queue_wait = summarize(queue_wait[static_cast<std::size_t>(c)]);
    dst.e2e = summarize(e2e[static_cast<std::size_t>(c)]);
    dst.queue_wait_hist = queue_wait[static_cast<std::size_t>(c)];
    dst.e2e_hist = e2e[static_cast<std::size_t>(c)];
    snap.served_requests += dst.served_requests;
    snap.served_images += dst.served_images;
  }
  snap.avg_batch_occupancy =
      snap.batches == 0 ? 0.0
                        : static_cast<double>(batched_requests) /
                              static_cast<double>(snap.batches);

  // Trailing-window throughput: sum the ring slots still inside the
  // window, divide by the span those slots actually cover — the current
  // second is only partially elapsed, so the divisor is (full seconds
  // included - 1) plus that fraction, clamped to uptime for short-lived
  // servers. Dividing by the nominal window would understate a steady
  // rate by up to one second's worth.
  {
    const std::int64_t now_second =
        static_cast<std::int64_t>(uptime_ns / kNsPerSecondU64);
    std::uint64_t images = 0;
    std::lock_guard lock(rate_mutex_);
    for (const auto& s : rate_.slots) {
      if (s.second >= 0 && now_second - s.second < RollingRate::kWindowSeconds) {
        images += s.images;
      }
    }
    const double current_second_frac =
        snap.uptime_s - static_cast<double>(now_second);
    const double window = std::clamp(
        snap.uptime_s, 1e-3,
        static_cast<double>(RollingRate::kWindowSeconds - 1) +
            current_second_frac);
    snap.rolling_images_per_s = static_cast<double>(images) / window;
  }
  return snap;
}

}  // namespace yoloc

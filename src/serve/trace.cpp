#include "serve/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/check.hpp"
#include "serve/metrics_registry.hpp"

namespace yoloc {

namespace {

/// SplitMix64 finalizer: a high-quality 64-bit mix with no state, so the
/// sampling decision for an id is a pure function (deterministic across
/// runs, replicas and replays).
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

TraceCollector::TraceCollector(int workers, double sampling,
                               std::size_t capacity_per_worker)
    : sampling_(std::clamp(sampling, 0.0, 1.0)) {
  YOLOC_CHECK(workers >= 1, "trace collector: at least one worker buffer");
  YOLOC_CHECK(capacity_per_worker >= 1,
              "trace collector: capacity must be >= 1");
  rings_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    auto ring = std::make_unique<WorkerRing>();
    // Pre-size once: emit() only overwrites slots, so a drain can safely
    // read the published prefix while a writer fills later slots.
    if (enabled()) ring->events.resize(capacity_per_worker);
    rings_.push_back(std::move(ring));
  }
}

bool TraceCollector::sampled(std::uint64_t request_id) const {
  if (sampling_ <= 0.0) return false;
  if (sampling_ >= 1.0) return true;
  // Top 53 bits of the mix as a uniform double in [0, 1).
  const double u =
      static_cast<double>(mix64(request_id) >> 11) * 0x1.0p-53;
  return u < sampling_;
}

void TraceCollector::emit(int worker, const TraceEvent& event) {
  if (!enabled()) return;
  YOLOC_CHECK(worker >= 0 && worker < worker_buffers(),
              "trace collector: bad worker index");
  WorkerRing& ring = *rings_[static_cast<std::size_t>(worker)];
  const std::size_t n = ring.count.load(std::memory_order_relaxed);
  if (n >= ring.events.size()) {
    ring.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring.events[n] = event;
  // Publish: a drain that acquires `count` sees the fully written slot.
  ring.count.store(n + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceCollector::drain_events() const {
  std::vector<TraceEvent> merged;
  for (const auto& ring : rings_) {
    const std::size_t n = ring->count.load(std::memory_order_acquire);
    merged.insert(merged.end(), ring->events.begin(),
                  ring->events.begin() + static_cast<std::ptrdiff_t>(n));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return merged;
}

std::uint64_t TraceCollector::dropped_events() const {
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::string TraceCollector::to_chrome_json() const {
  const std::vector<TraceEvent> events = drain_events();
  std::string out;
  out.reserve(256 + events.size() * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // Metadata: name the process and each worker thread so Perfetto's
  // track labels read "worker N" instead of bare tids.
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"yoloc-serve\"}}";
  for (int w = 0; w < worker_buffers(); ++w) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"worker %d\"}}",
                  w, w);
    out += buf;
  }
  char buf[256];
  for (const TraceEvent& ev : events) {
    out += ",{\"name\":\"";
    out += json_escape(ev.name);
    // ts/dur are MICROseconds in the trace-event format; fractional
    // values keep the ns resolution.
    std::snprintf(buf, sizeof(buf),
                  "\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                  ev.layer != nullptr ? "layer" : "serve", ev.tid,
                  static_cast<double>(ev.start_ns) / 1e3,
                  static_cast<double>(ev.dur_ns) / 1e3);
    out += buf;
    bool first = true;
    const auto arg_u64 = [&](const char* key, std::uint64_t v) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",", key,
                    static_cast<unsigned long long>(v));
      out += buf;
      first = false;
    };
    if (ev.request_id != kTraceNoId) arg_u64("request_id", ev.request_id);
    if (ev.batch_id != kTraceNoId) arg_u64("batch_id", ev.batch_id);
    if (ev.requests > 0) {
      arg_u64("requests", static_cast<std::uint64_t>(ev.requests));
    }
    if (ev.images > 0) {
      arg_u64("images", static_cast<std::uint64_t>(ev.images));
    }
    if (ev.layer != nullptr) {
      out += first ? "\"layer\":\"" : ",\"layer\":\"";
      out += json_escape(ev.layer);
      out += '"';
      first = false;
    }
    if (ev.engine != nullptr) {
      out += first ? "\"engine\":\"" : ",\"engine\":\"";
      out += json_escape(ev.engine);
      out += '"';
      first = false;
    }
    out += "}}";
  }
  std::snprintf(buf, sizeof(buf), "],\"yolocDroppedEvents\":%llu}",
                static_cast<unsigned long long>(dropped_events()));
  out += buf;
  return out;
}

void TraceCollector::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    throw std::runtime_error("trace: cannot open '" + path + "' for write");
  }
  const std::string json = to_chrome_json();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.flush();
  if (!out.good()) {
    throw std::runtime_error("trace: short write to '" + path + "'");
  }
}

void BatchTraceSink::layer_span(const char* phase, const char* layer,
                                EngineKind engine, std::uint64_t start_ns,
                                std::uint64_t end_ns) {
  TraceEvent ev;
  ev.name = phase;
  ev.layer = layer;
  switch (engine) {
    case EngineKind::kRom:
      ev.engine = "rom";
      break;
    case EngineKind::kSram:
      ev.engine = "sram";
      break;
  }
  ev.request_id = request_id_;
  ev.batch_id = batch_id_;
  ev.start_ns = start_ns;
  ev.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  ev.tid = worker_;
  collector_->emit(worker_, ev);
}

}  // namespace yoloc

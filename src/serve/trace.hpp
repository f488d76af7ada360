#pragma once
// Per-request tracing for the serving scheduler: sampled requests emit
// chrome://tracing "complete" (ph = "X") spans covering every stage of
// their life — queue-wait, batch formation, execute, per-layer
// im2col/MVM, epilogue, and the end-to-end envelope — correlated by
// request id and batch id, loadable in Perfetto or chrome://tracing.
//
// Hot-path design: each scheduler worker owns one fixed-capacity event
// buffer it alone writes (single-writer, no CAS loop); publication is a
// release store of the element count, and drains read the published
// prefix with an acquire load — lock-free on the record path and
// TSAN-clean. A full buffer drops further
// events (counted, surfaced in the JSON) rather than stalling a worker.
//
// Sampling: `SchedulerOptions::trace_sampling` in [0, 1]. The decision
// is a pure hash of the request's admission id, so it is deterministic
// across runs and replicas — the same recorded workload samples the
// same requests every time — and 0.0 (the default) short-circuits
// before any clock read, so untraced deployments pay nothing.
//
// Tracing is OBSERVER-ONLY: it never influences scheduling, batching,
// noise streams or outputs. The `trace`-labeled tests pin outputs and
// stat sums bit-identical between sampling 0.0 and 1.0.
//
// Event name lifetime: `TraceEvent::name` / `layer` hold pointers to
// static string literals (the span taxonomy below) or to layer-name
// storage owned by the DeploymentPlan — both outlive the collector, so
// events never allocate.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/trace_clock.hpp"
#include "nn/quantize.hpp"

namespace yoloc {

// ------------------------------------------------------ span taxonomy
// Every span name the collector can emit. docs/serving.md documents each
// one; tools/docs_check.sh fails the build when a name here is missing
// from the docs (the same contract the Prometheus metric names live
// under). Per-request spans carry the exact request id; batch-scoped
// spans carry the batch id plus the FIRST member's request id.
inline constexpr const char* kSpanQueueWait = "queue_wait";
inline constexpr const char* kSpanBatchFormation = "batch_formation";
inline constexpr const char* kSpanExecute = "execute";
inline constexpr const char* kSpanEpilogue = "epilogue";
inline constexpr const char* kSpanE2e = "e2e";
inline constexpr const char* kSpanIm2col = "im2col";
inline constexpr const char* kSpanMvm = "mvm";

inline constexpr const char* kTraceSpanNames[] = {
    kSpanQueueWait, kSpanBatchFormation, kSpanExecute, kSpanEpilogue,
    kSpanE2e,       kSpanIm2col,         kSpanMvm,
};

/// "No id" sentinel for TraceEvent::request_id / batch_id.
inline constexpr std::uint64_t kTraceNoId = ~0ull;

/// One completed span. Timestamps are nanoseconds since trace_epoch()
/// (common/trace_clock.hpp) — the same base the metrics registry uses.
struct TraceEvent {
  const char* name = nullptr;   ///< span taxonomy entry (never null)
  const char* layer = nullptr;  ///< plan-owned layer name (layer spans)
  const char* engine = nullptr; ///< "rom"/"sram" (layer spans)
  std::uint64_t request_id = kTraceNoId;
  std::uint64_t batch_id = kTraceNoId;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::int32_t requests = 0;  ///< batch-scoped spans: requests fused
  std::int32_t images = 0;    ///< batch-scoped spans: images in the pass
  int tid = 0;                ///< worker index (chrome tid)
};

/// Per-worker lock-free trace event sink; see file comment for the
/// concurrency contract (one writer per worker index, drains see a
/// consistent published prefix).
class TraceCollector {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// `workers` buffers of `capacity_per_worker` events each; `sampling`
  /// in [0, 1] (clamped). 0 disables collection entirely.
  TraceCollector(int workers, double sampling,
                 std::size_t capacity_per_worker = kDefaultCapacity);

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  [[nodiscard]] bool enabled() const { return sampling_ > 0.0; }
  [[nodiscard]] double sampling() const { return sampling_; }

  /// Deterministic sampling decision for an admission id: a pure hash of
  /// the id against the sampling rate — no RNG state, so the same id
  /// samples identically across runs, replicas and replays.
  [[nodiscard]] bool sampled(std::uint64_t request_id) const;

  /// Record one completed span into `worker`'s buffer. Only the thread
  /// owning that worker index may call this. Never blocks; drops (and
  /// counts) when the buffer is full.
  void emit(int worker, const TraceEvent& event);

  /// Merged copy of every published event, ordered by start time.
  /// Safe concurrently with emits (sees a consistent prefix per worker).
  [[nodiscard]] std::vector<TraceEvent> drain_events() const;

  /// Events dropped across all workers because a buffer was full.
  [[nodiscard]] std::uint64_t dropped_events() const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}): complete ("X")
  /// events with pid = server, tid = worker, microsecond timestamps on
  /// the shared trace epoch, request/batch correlation args, plus
  /// process/thread name metadata. Loads in Perfetto (ui.perfetto.dev)
  /// and chrome://tracing as-is.
  [[nodiscard]] std::string to_chrome_json() const;

  /// to_chrome_json() written to `path`. Throws std::runtime_error on
  /// I/O failure.
  void write_chrome_json(const std::string& path) const;

  [[nodiscard]] int worker_buffers() const {
    return static_cast<int>(rings_.size());
  }

 private:
  struct WorkerRing {
    std::vector<TraceEvent> events;  // sized once, slots overwritten
    std::atomic<std::size_t> count{0};
    std::atomic<std::uint64_t> dropped{0};
  };

  double sampling_;
  std::vector<std::unique_ptr<WorkerRing>> rings_;
};

/// LayerTraceSink adapter a worker installs on its ExecutionContext for
/// the duration of one SAMPLED batch: forwards per-layer im2col/MVM
/// phase timings into the collector, stamped with the batch's ids.
class BatchTraceSink final : public LayerTraceSink {
 public:
  BatchTraceSink(TraceCollector* collector, int worker,
                 std::uint64_t request_id, std::uint64_t batch_id)
      : collector_(collector),
        worker_(worker),
        request_id_(request_id),
        batch_id_(batch_id) {}

  void layer_span(const char* phase, const char* layer, EngineKind engine,
                  std::uint64_t start_ns, std::uint64_t end_ns) override;

 private:
  TraceCollector* collector_;
  int worker_;
  std::uint64_t request_id_;
  std::uint64_t batch_id_;
};

}  // namespace yoloc

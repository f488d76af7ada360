#pragma once
// Continuous-batching serving scheduler over a shared DeploymentPlan.
//
// The scheduling layer between callers and the plan (the software
// counterpart of keeping a mixed ROM+SRAM CiM array pipeline full under
// bursty load): requests enter a three-lane queue (interactive / batch /
// best-effort) with optional deadlines; lanes are scheduled by
// deficit-weighted round-robin (strict priority is the {inf, 1, 0}
// default weight configuration — see LaneWeights), optionally with
// per-lane worker reservations so interactive traffic always has
// headroom; idle workers greedily pull compatible requests (same lane,
// same image geometry) into a forming batch — capped per decision by
// the lane's SLO-derived effective micro-batch — and execute ONE
// forward pass: continuous batching, no fixed batch boundaries, workers
// never idle while compatible work is queued.
//
// Admission control refuses work that cannot be served: lanes have an
// optional depth cap, and a deadline tighter than the rolling per-image
// service estimate is refused up front. A queued request whose deadline
// passes is canceled — it fails with DeadlineExpiredError and
// no worker ever executes it. Expiry is harvested at every scheduling
// point (batch formation and each submission); since an idle worker
// drains a non-empty queue immediately, a request can only sit past
// its deadline while ALL workers are busy, so cancellation lands no
// later than the end of the shortest in-flight batch (or the next
// submission, whichever comes first).
//
// Determinism contract: each batch executes on a context reseeded with
// noise_seed + id of its FIRST request (ids are admission-ordered), and
// per-batch stats merge in batch-formation order. With max_microbatch=1
// and a single priority class, formation order equals admission order,
// so request i is bit-identical — outputs AND merged stat sums — to a
// serial ExecutionContext run seeded noise_seed + i, independent of
// worker count. With mixed classes or max_microbatch > 1, batch
// COMPOSITION (and with it the noise-stream alignment and double
// summation order) depends on scheduling; exact-cost outputs stay
// bit-exact per request regardless.
//
// Telemetry: every worker records into its own MetricsRegistry slot —
// queue-wait and end-to-end latency histograms (p50/p95/p99), per-class
// served/failed/expired/rejected counters, batch occupancy and rolling
// throughput — merged on read into a JSON-exportable MetricsSnapshot.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/execution_context.hpp"
#include "serve/metrics_registry.hpp"
#include "serve/request_queue.hpp"
#include "serve/resilience.hpp"
#include "serve/trace.hpp"
#include "serve/workload_trace.hpp"

namespace yoloc {

struct CanaryProbe;  // runtime/deployment_plan.hpp

struct SchedulerOptions {
  /// Worker threads. 0 = parallel_workers() (which honours YOLOC_THREADS).
  int workers = 0;
  /// Max requests fused into one forward pass. 1 = deterministic mode.
  /// Per scheduling decision each lane derives an EFFECTIVE cap from its
  /// SLO budget (see lane_slo); this is the global ceiling.
  int max_microbatch = 8;
  /// Base noise seed; batches derive their stream from it.
  std::uint64_t noise_seed = 2024;
  /// Admission cap per priority lane. 0 = unlimited.
  std::uint64_t max_queue_depth = 0;
  /// Deadline applied to requests submitted without one. Zero = none.
  std::chrono::nanoseconds default_deadline{0};
  /// Per-lane DWRR service shares (see LaneWeights). The default,
  /// strict_lane_weights() = {inf, 1, 0}, reproduces the legacy strict
  /// priority policy exactly; finite weights (e.g. {8, 3, 1}) bound
  /// best-effort starvation to its proportional share.
  LaneWeights lane_weights = strict_lane_weights();
  /// Workers dedicated to one lane (carved out of `workers`): the first
  /// lane_reservations[0] workers serve ONLY interactive, the next
  /// [1] only batch, and so on; the rest are shared. Guarantees
  /// headroom: a reserved lane never waits behind another lane's batch.
  /// Sum must leave at least one shared worker.
  std::array<int, kPriorityClassCount> lane_reservations{};
  /// Per-lane latency budget (SLO) driving auto-batching: each
  /// scheduling decision caps the lane's micro-batch at
  /// clamp(slo / ewma_image_estimate, 1, max_microbatch), so a lane
  /// with a tight budget stops fusing large batches as soon as the
  /// rolling estimate says they would overrun it. Zero = no budget
  /// (global max_microbatch applies).
  std::array<std::chrono::nanoseconds, kPriorityClassCount> lane_slo{};
  /// Fraction of requests traced, in [0, 1]. The decision is a pure hash
  /// of the admission id (deterministic across runs and replays); 0.0
  /// (default) disables collection entirely — no buffers, no clock
  /// reads on the hot path. Tracing is observer-only: outputs, stats
  /// and scheduling are bit-identical at any sampling rate.
  double trace_sampling = 0.0;
  /// Record every submission (accepted or not) into an in-memory
  /// admission trace — arrival offset, class, relative deadline, input
  /// geometry — retrievable via recorded_trace() and replayable with
  /// replay_trace() / tools/yoloc_replay.
  bool record_admissions = false;
  /// Resilience layer: canary probes / circuit breakers (requires the
  /// plan to carry a canary suite), worker watchdog, degraded-mode load
  /// shedding. Everything defaults to off — the scheduler then behaves
  /// (and schedules) exactly as before this layer existed.
  ResilienceOptions resilience;
  /// TEST-ONLY fault hook: when set, every worker calls it with its
  /// index right before executing a picked batch. Chaos tests use it to
  /// simulate a hung worker (block inside the hook) and exercise the
  /// watchdog / shutdown-abandonment paths.
  std::function<void(int)> worker_fault_hook;
};

class Scheduler {
 public:
  explicit Scheduler(const DeploymentPlan& plan, SchedulerOptions options = {});
  /// Graceful: drains the queue by priority, then joins the workers.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueue one request (rank-4 NCHW, any leading batch extent >= 1)
  /// and settle it exactly once through `on_done`: with the model output
  /// for exactly that input, or with AdmissionError (refused at
  /// admission), DeadlineExpiredError (canceled while queued),
  /// WorkerHungError (watchdog, or unserved at shutdown) or the execution
  /// error. Rejections settle inline and do NOT consume a request id;
  /// accepted requests settle before wait_idle() returns.
  ///
  /// Callback contract: `on_done` runs on a worker or watchdog thread, or
  /// inline in submit() (rejection, expiry) or shutdown(), possibly
  /// under scheduler-internal locks. It must not block, throw, or call
  /// back into this Scheduler. If submit() throws (bad input, or after
  /// shutdown), `on_done` never runs.
  void submit(Tensor images, SubmitOptions options, ServeCallback on_done);

  /// The same, with the outcome delivered through a future (a thin
  /// adapter over the callback form).
  std::future<Tensor> submit(Tensor images, SubmitOptions options = {});

  /// Synchronous convenience: split `images` (rank-4 NCHW) into
  /// per-image batch-lane requests, serve them all, and re-stack the
  /// outputs in submission order. Rethrows the first failed request.
  Tensor infer(const Tensor& images);

  /// Block until every accepted request has resolved (served, failed,
  /// or expired) — callbacks run AND metrics/stats accounting settled.
  void wait_idle();

  /// Stop admission, serve everything still queued (highest priority
  /// first; expired requests are canceled, not served), join workers.
  /// Idempotent; the destructor calls it.
  void shutdown();
  /// True until shutdown() starts: the one "is this scheduler taking
  /// work" fact (GET /healthz reads it; submit() refuses once false).
  [[nodiscard]] bool accepting() const;

  /// Merged telemetry; see MetricsSnapshot::to_json() for the schema.
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const;
  /// Prometheus text exposition (version 0.0.4) of the same snapshot;
  /// every metric name is documented in docs/serving.md (enforced by
  /// the `docs`-labeled CTest).
  [[nodiscard]] std::string to_prometheus() const {
    return metrics_snapshot().to_prometheus();
  }
  /// Zero the telemetry counters/histograms (macro stats are separate —
  /// see reset_stats()). Call after wait_idle() to scope a later
  /// snapshot to a measurement phase, excluding warmup traffic.
  void reset_metrics() { metrics_.reset(); }

  /// Merged macro activity across completed batches (deterministic
  /// batch-formation-order merge).
  [[nodiscard]] MacroRunStats rom_stats() const;
  [[nodiscard]] MacroRunStats sram_stats() const;
  [[nodiscard]] double total_energy_pj() const;
  void reset_stats();

  [[nodiscard]] int worker_count() const {
    return static_cast<int>(threads_.size());
  }
  [[nodiscard]] const SchedulerOptions& options() const { return options_; }

  /// The trace collector (always constructed; empty when
  /// trace_sampling == 0). Safe to read concurrently with serving.
  [[nodiscard]] const TraceCollector& trace() const { return trace_; }
  /// Chrome trace-event JSON of everything collected so far; load in
  /// Perfetto (ui.perfetto.dev) or chrome://tracing.
  [[nodiscard]] std::string trace_json() const {
    return trace_.to_chrome_json();
  }
  /// trace_json() written to `path` (throws std::runtime_error on I/O
  /// failure).
  void write_trace(const std::string& path) const {
    trace_.write_chrome_json(path);
  }

  /// Admission trace recorded so far (requires record_admissions).
  /// Counter fields are filled from the live metrics, so after
  /// wait_idle() they reflect the final outcome of every recorded
  /// submission.
  [[nodiscard]] WorkloadTrace recorded_trace() const;

  /// Point-in-time resilience state (also embedded in
  /// metrics_snapshot().resilience).
  [[nodiscard]] ResilienceSnapshot resilience_snapshot() const {
    return resilience_.snapshot();
  }
  /// Force-trip worker `w`'s circuit breaker (operator action; bench
  /// degraded-mode scenarios). Recovery requires consecutive canary
  /// passes as usual.
  void trip_breaker(int w);

 private:
  struct BatchStats {
    MacroRunStats rom;
    MacroRunStats sram;
  };

  /// One batch (or canary probe) in flight on one worker. The settle
  /// protocol: exactly ONE of {the worker, the watchdog, shutdown}
  /// settles the batch's requests — whoever flips `settled` under `m`
  /// wins; the others skip fulfillment AND its accounting. The requests
  /// pointer targets the worker's stack-local batch, valid until the
  /// worker observes `settled` and moves on (which it can only do after
  /// the settler releases `m`). Lock order: `m` before Scheduler::mutex_
  /// (never the reverse).
  struct InFlightBatch {
    std::mutex m;
    bool settled = false;
    std::uint64_t batch_id = 0;
    int worker = -1;
    ServeClock::time_point start{};
    std::vector<ServeRequest>* requests = nullptr;
  };

  /// Shutdown-vs-hung-worker handshake, one per worker. A worker flags
  /// `in_hook` around the fault hook; shutdown() joins workers normally
  /// but DETACHES one stuck inside the hook (`abandoned`), settles its
  /// batch, and returns — graceful shutdown must not wait forever on a
  /// hung worker. A heap control block (not a Scheduler member) so the
  /// detached thread can consult it after the Scheduler is gone.
  struct WorkerAbandon {
    std::mutex m;
    bool in_hook = false;
    bool shutting_down = false;
    bool abandoned = false;
  };

  void worker_loop(int worker_index);
  /// Periodically enqueue the plan's canary probes to every worker.
  void canary_loop();
  /// Periodically declare overdue in-flight batches hung.
  void watchdog_loop();
  /// Settle `ifb` with WorkerHungError (watchdog fire or shutdown
  /// abandonment) and run its completion accounting. No-op if already
  /// settled. `quarantine` marks the worker unhealthy afterwards.
  void fail_hung_batch(const std::shared_ptr<InFlightBatch>& ifb,
                       bool quarantine);
  /// Fail `expired` fast (DeadlineExpiredError) and settle accounting.
  /// Caller must have added them to in_flight_ under the queue lock.
  void cancel_expired(std::vector<ServeRequest> expired);
  /// Completion accounting for batch `batch_id` of `requests` requests,
  /// under mutex_: park its stats (zeros for a failed or hung batch, which
  /// still holds its slot), merge every parked batch that is next in
  /// formation order, and wake wait_idle() once nothing is queued or in
  /// flight.
  void finish_batch_locked(std::uint64_t batch_id, std::size_t requests,
                           BatchStats stats);

  /// Effective per-lane micro-batch caps for one scheduling decision:
  /// the SLO-aware auto-batch rule described at SchedulerOptions::
  /// lane_slo, evaluated against the current service estimate `est`.
  [[nodiscard]] std::array<int, kPriorityClassCount> lane_batch_caps(
      std::uint64_t est_image_ns) const;

  const DeploymentPlan* plan_;
  SchedulerOptions options_;
  MetricsRegistry metrics_;
  TraceCollector trace_;
  ResilienceManager resilience_;
  std::vector<std::thread> threads_;
  std::thread canary_thread_;
  std::thread watchdog_thread_;
  /// Lane eligibility per worker (reserved workers get one lane).
  std::vector<LaneMask> worker_masks_;
  bool has_reservations_ = false;

  /// Rolling per-image service-time estimate [ns] feeding admission
  /// feasibility and the deadline-aware batching window. Monotonic
  /// loads only; 0 until the first batch completes.
  std::atomic<std::uint64_t> ewma_image_ns_{0};

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  /// Paces the canary/watchdog threads (signaled only at shutdown).
  std::condition_variable aux_cv_;
  RequestQueue queue_;
  bool stop_ = false;
  /// Per-worker pending canary probes (guarded by mutex_). Probes are
  /// checked FIRST in the worker wait loop — even a breaker-open worker
  /// runs them (half-open probing is what closes the breaker again).
  std::vector<std::deque<const CanaryProbe*>> probe_slots_;
  /// Per-worker in-flight batch (guarded by mutex_; null when idle).
  /// Maintained only when the watchdog or the fault hook is active.
  std::vector<std::shared_ptr<InFlightBatch>> inflight_batches_;
  /// Per-worker shutdown handshake blocks (see WorkerAbandon).
  std::vector<std::shared_ptr<WorkerAbandon>> abandon_;
  std::uint64_t next_request_id_ = 0;
  std::uint64_t next_batch_id_ = 0;
  std::uint64_t next_merge_id_ = 0;
  int in_flight_ = 0;
  std::map<std::uint64_t, BatchStats> pending_stats_;
  MacroRunStats rom_total_;
  MacroRunStats sram_total_;

  /// Admission recording (record_admissions only); guarded by mutex_.
  /// Offsets are relative to the FIRST recorded submission, so a replay
  /// reproduces inter-arrival gaps without an absolute clock.
  std::vector<AdmissionRecord> records_;
  bool record_epoch_set_ = false;
  ServeClock::time_point record_epoch_{};
};

}  // namespace yoloc

#include "serve/scheduler.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "runtime/deployment_plan.hpp"
#include "tensor/ops.hpp"

namespace yoloc {

namespace {

/// Copy request inputs into one stacked batch along axis 0.
Tensor stack_inputs(const std::vector<ServeRequest>& batch) {
  std::vector<const Tensor*> inputs;
  inputs.reserve(batch.size());
  for (const ServeRequest& r : batch) inputs.push_back(&r.input);
  return concat_rows(inputs);
}

/// `options` with `workers` = 0 resolved to parallel_workers().
SchedulerOptions with_resolved_workers(SchedulerOptions options) {
  if (options.workers <= 0) {
    options.workers = static_cast<int>(parallel_workers());
  }
  return options;
}

}  // namespace

Scheduler::Scheduler(const DeploymentPlan& plan, SchedulerOptions options)
    : plan_(&plan),
      options_(with_resolved_workers(std::move(options))),
      metrics_(options_.workers),
      trace_(options_.workers, options_.trace_sampling),
      resilience_(options_.workers, options_.resilience) {
  YOLOC_CHECK(options_.max_microbatch >= 1, "scheduler: max_microbatch >= 1");
  int reserved = 0;
  for (int c = 0; c < kPriorityClassCount; ++c) {
    const auto i = static_cast<std::size_t>(c);
    YOLOC_CHECK(options_.lane_reservations[i] >= 0,
                "scheduler: lane reservation must be >= 0");
    YOLOC_CHECK(options_.lane_slo[i].count() >= 0,
                "scheduler: lane SLO must be >= 0");
    reserved += options_.lane_reservations[i];
  }
  // Every lane must stay reachable: lanes without a reservation are only
  // served by shared workers, so at least one must remain.
  YOLOC_CHECK(reserved < options_.workers,
              "scheduler: lane reservations must leave a shared worker");
  has_reservations_ = reserved > 0;
  queue_.set_weights(options_.lane_weights);  // validates the weights

  worker_masks_.reserve(static_cast<std::size_t>(options_.workers));
  for (int c = 0; c < kPriorityClassCount; ++c) {
    const int n = options_.lane_reservations[static_cast<std::size_t>(c)];
    for (int i = 0; i < n; ++i) {
      worker_masks_.push_back(lane_bit(static_cast<Priority>(c)));
    }
  }
  while (static_cast<int>(worker_masks_.size()) < options_.workers) {
    worker_masks_.push_back(kAllLanes);
  }

  probe_slots_.resize(static_cast<std::size_t>(options_.workers));
  inflight_batches_.resize(static_cast<std::size_t>(options_.workers));
  abandon_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    abandon_.push_back(std::make_shared<WorkerAbandon>());
  }

  threads_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
  // Canaries need probes to replay; a period without a recorded suite is
  // a no-op (the plan defines what "healthy output" means).
  if (options_.resilience.canary_period.count() > 0 &&
      !plan.canaries().empty()) {
    canary_thread_ = std::thread([this] { canary_loop(); });
  }
  if (options_.resilience.watchdog_timeout.count() > 0) {
    watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  }
}

std::array<int, kPriorityClassCount> Scheduler::lane_batch_caps(
    std::uint64_t est_image_ns) const {
  std::array<int, kPriorityClassCount> caps;
  caps.fill(options_.max_microbatch);
  if (est_image_ns == 0) return caps;  // no estimate yet: global cap
  for (int c = 0; c < kPriorityClassCount; ++c) {
    const auto i = static_cast<std::size_t>(c);
    const std::int64_t slo_ns = options_.lane_slo[i].count();
    if (slo_ns <= 0) continue;
    const auto budget = static_cast<std::uint64_t>(slo_ns) / est_image_ns;
    caps[i] = std::clamp(static_cast<int>(std::min<std::uint64_t>(
                             budget, static_cast<std::uint64_t>(
                                         options_.max_microbatch))),
                         1, options_.max_microbatch);
  }
  return caps;
}

Scheduler::~Scheduler() { shutdown(); }

void Scheduler::shutdown() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  aux_cv_.notify_all();
  if (canary_thread_.joinable()) canary_thread_.join();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  for (std::size_t w = 0; w < threads_.size(); ++w) {
    std::thread& t = threads_[w];
    if (!t.joinable()) continue;
    const std::shared_ptr<WorkerAbandon> ab = abandon_[w];
    bool stuck = false;
    {
      std::lock_guard g(ab->m);
      ab->shutting_down = true;
      if (ab->in_hook) {
        ab->abandoned = true;
        stuck = true;
      }
    }
    if (!stuck) {
      t.join();
      continue;
    }
    // The worker is wedged inside the fault hook. Graceful shutdown must
    // not wait forever on a hung worker: settle its batch (its requests
    // fail with WorkerHungError) and detach the thread — it
    // exits on its own the moment the hook releases it.
    std::shared_ptr<InFlightBatch> ifb;
    {
      std::lock_guard lock(mutex_);
      ifb = inflight_batches_[w];
      inflight_batches_[w].reset();
    }
    if (ifb != nullptr) fail_hung_batch(ifb, /*quarantine=*/false);
    t.detach();
  }
  // Workers drain the queue before honoring stop_, so residual work only
  // exists when no surviving healthy worker could pop it (abandoned or
  // breaker-open workers). Nothing will ever serve it now — fail it.
  std::vector<ServeRequest> residual;
  {
    std::lock_guard lock(mutex_);
    residual = queue_.take_all();
    // In flight until settled, so wait_idle() cannot return first.
    in_flight_ += static_cast<int>(residual.size());
  }
  if (residual.empty()) return;
  for (ServeRequest& r : residual) {
    // Its own statement, for the reason given in cancel_expired().
    std::exception_ptr error = std::make_exception_ptr(WorkerHungError(
        "request " + std::to_string(r.id) +
        " unserved at shutdown (no healthy worker drained it)"));
    r.fail(std::move(error));
  }
  std::lock_guard lock(mutex_);
  for (const ServeRequest& r : residual) metrics_.record_rejected(r.priority);
  in_flight_ -= static_cast<int>(residual.size());
  if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
}

bool Scheduler::accepting() const {
  std::lock_guard lock(mutex_);
  return !stop_;
}

void Scheduler::trip_breaker(int w) {
  YOLOC_CHECK(w >= 0 && w < worker_count(), "scheduler: bad worker index");
  resilience_.force_trip(w);
}

std::future<Tensor> Scheduler::submit(Tensor images, SubmitOptions options) {
  auto promise = std::make_shared<std::promise<Tensor>>();
  std::future<Tensor> future = promise->get_future();
  submit(std::move(images), options,
         [promise](Tensor output, std::exception_ptr error) {
           if (error) {
             promise->set_exception(std::move(error));
           } else {
             promise->set_value(std::move(output));
           }
         });
  return future;
}

void Scheduler::submit(Tensor images, SubmitOptions options,
                       ServeCallback on_done) {
  YOLOC_CHECK(images.rank() == 4 && images.shape()[0] >= 1,
              "scheduler: rank-4 NCHW request required");
  const int cls = static_cast<int>(options.priority);
  YOLOC_CHECK(cls >= 0 && cls < kPriorityClassCount,
              "scheduler: bad priority class");

  ServeRequest req;
  req.input = std::move(images);
  req.priority = options.priority;
  req.on_done = std::move(on_done);
  const auto now = ServeClock::now();
  req.submit_time = now;
  const auto relative_deadline = options.deadline.count() != 0
                                     ? options.deadline
                                     : options_.default_deadline;
  if (relative_deadline.count() != 0) req.deadline = now + relative_deadline;

  std::exception_ptr rejection;
  std::vector<ServeRequest> newly_expired;
  {
    std::lock_guard lock(mutex_);
    YOLOC_CHECK(!stop_, "scheduler: submit after shutdown");
    // Count the submission before the request becomes poppable (and not
    // at all when the shutdown check above throws): snapshots must never
    // show served > submitted for a class.
    metrics_.record_submitted(options.priority);
    if (options_.record_admissions) {
      // Record EVERY submission — accepted or not — so a replay
      // reproduces admission pressure, not just the accepted subset.
      if (!record_epoch_set_) {
        record_epoch_ = now;
        record_epoch_set_ = true;
      }
      AdmissionRecord rec;
      rec.offset_ns = ns_between(record_epoch_, now);
      rec.priority = options.priority;
      rec.deadline_ns = relative_deadline.count() > 0
                            ? static_cast<std::uint64_t>(
                                  relative_deadline.count())
                            : 0;
      const auto& shape = req.input.shape();
      for (int a = 0; a < 4; ++a) {
        rec.shape[static_cast<std::size_t>(a)] = shape[static_cast<std::size_t>(a)];
      }
      records_.push_back(rec);
    }
    // Harvest dead deadlines before the depth check: every submission is
    // a scheduling point, so queued-expired requests fail fast even
    // while all workers are busy — and they stop holding lane slots
    // against the admission cap.
    newly_expired = queue_.take_expired(now);
    in_flight_ += static_cast<int>(newly_expired.size());
    // Degraded-mode shedding: when healthy capacity drops below a lane's
    // threshold, turn the lane away up front (healthy_fraction() is a
    // lock-free mirror). Interactive is NEVER shed — it queues through
    // the outage and drains on recovery.
    const auto& res = options_.resilience;
    const double healthy = resilience_.healthy_fraction();
    const bool shed =
        (options.priority == Priority::kBestEffort &&
         res.shed_best_effort_below > 0.0 &&
         healthy < res.shed_best_effort_below) ||
        (options.priority == Priority::kBatch &&
         res.shed_batch_below > 0.0 && healthy < res.shed_batch_below);
    if (shed) {
      resilience_.record_shed(options.priority);
      rejection = std::make_exception_ptr(ShedError(
          std::string(priority_name(options.priority)) + " lane shed: " +
          std::to_string(resilience_.healthy_workers()) + "/" +
          std::to_string(worker_count()) + " workers healthy"));
    } else
    switch (queue_.admit(options.priority, now, req.deadline,
                         req.input.shape()[0], options_.max_queue_depth,
                         ewma_image_ns_.load(std::memory_order_relaxed))) {
      case RequestQueue::Admission::kAccept:
        // Ids are admission-ordered: the id doubles as the request's
        // noise-stream offset, so rejections must not consume one.
        req.id = next_request_id_++;
        queue_.push(std::move(req));
        break;
      case RequestQueue::Admission::kQueueFull:
        rejection = std::make_exception_ptr(QueueDepthError(
            std::string(priority_name(options.priority)) +
            " lane at depth cap " +
            std::to_string(options_.max_queue_depth)));
        break;
      case RequestQueue::Admission::kAlreadyExpired:
        rejection = std::make_exception_ptr(
            DeadlineExpiredError("deadline not in the future at submit"));
        break;
      case RequestQueue::Admission::kInfeasible:
        rejection = std::make_exception_ptr(InfeasibleDeadlineError(
            "deadline tighter than the estimated service time"));
        break;
    }
    if (rejection) metrics_.record_rejected(options.priority);
  }
  if (rejection) {
    req.fail(std::move(rejection));
  } else if (has_reservations_ ||
             resilience_.healthy_workers() < worker_count()) {
    // notify_one could wake a worker whose lane mask excludes this
    // request — or an unhealthy worker that refuses to pop — and it
    // would go straight back to sleep with nobody else woken (a lost
    // wakeup). With reservations or degraded capacity, wake everyone.
    work_cv_.notify_all();
  } else {
    work_cv_.notify_one();
  }
  if (!newly_expired.empty()) cancel_expired(std::move(newly_expired));
}

Tensor Scheduler::infer(const Tensor& images) {
  YOLOC_CHECK(images.rank() == 4 && images.shape()[0] >= 1,
              "scheduler: rank-4 NCHW input required");
  const int n = images.shape()[0];
  std::vector<std::future<Tensor>> futures;
  futures.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    futures.push_back(submit(slice_rows(images, i, 1)));
  }
  std::vector<Tensor> outputs;
  outputs.reserve(futures.size());
  for (auto& f : futures) outputs.push_back(f.get());
  std::vector<const Tensor*> rows;
  rows.reserve(outputs.size());
  for (const Tensor& t : outputs) {
    YOLOC_CHECK(t.shape()[0] == 1, "scheduler: unexpected output row");
    rows.push_back(&t);
  }
  return concat_rows(rows);
}

void Scheduler::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

MetricsSnapshot Scheduler::metrics_snapshot() const {
  std::unique_lock lock(mutex_);
  MetricsSnapshot snap = metrics_.snapshot(queue_.depths());
  lock.unlock();
  snap.resilience = resilience_.snapshot();
  return snap;
}

void Scheduler::reset_metrics() {
  std::lock_guard lock(mutex_);
  metrics_.reset();
}

WorkloadTrace Scheduler::recorded_trace() const {
  WorkloadTrace trace;
  trace.workers = worker_count();
  trace.max_microbatch = options_.max_microbatch;
  std::lock_guard lock(mutex_);
  trace.records = records_;
  const MetricsSnapshot snap = metrics_.snapshot(queue_.depths());
  for (int c = 0; c < kPriorityClassCount; ++c) {
    const auto i = static_cast<std::size_t>(c);
    trace.submitted[i] = snap.classes[i].submitted;
    trace.served[i] = snap.classes[i].served_requests;
    trace.expired[i] = snap.classes[i].expired_requests;
    trace.rejected[i] = snap.classes[i].rejected_requests;
  }
  return trace;
}

MacroRunStats Scheduler::rom_stats() const {
  std::lock_guard lock(mutex_);
  return rom_total_;
}

MacroRunStats Scheduler::sram_stats() const {
  std::lock_guard lock(mutex_);
  return sram_total_;
}

double Scheduler::total_energy_pj() const {
  std::lock_guard lock(mutex_);
  return rom_total_.energy_pj() + sram_total_.energy_pj();
}

void Scheduler::reset_stats() {
  std::lock_guard lock(mutex_);
  rom_total_ = MacroRunStats{};
  sram_total_ = MacroRunStats{};
}

void Scheduler::cancel_expired(std::vector<ServeRequest> expired) {
  const auto now = ServeClock::now();
  for (ServeRequest& r : expired) {
    // Built in its own statement so the error temporary is destroyed
    // before fail() runs the callback: libstdc++'s copy in the
    // exception_ptr shares the temporary's message buffer through a count
    // ThreadSanitizer does not see, so a release after the callback
    // handed the error to another thread is reported as a race.
    std::exception_ptr error = std::make_exception_ptr(DeadlineExpiredError(
        "request " + std::to_string(r.id) + " (" +
        priority_name(r.priority) + ") canceled while queued"));
    r.fail(std::move(error));
  }
  std::lock_guard lock(mutex_);
  for (const ServeRequest& r : expired) {
    metrics_.record_expired(r.priority, ns_between(r.submit_time, now));
  }
  in_flight_ -= static_cast<int>(expired.size());
  if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
}

void Scheduler::worker_loop(int worker_index) {
  // Request-level parallelism: inner tensor kernels run inline rather
  // than re-entering the shared parallel_for pool.
  ParallelSerialGuard serial_guard;
  ExecutionContext ctx(*plan_, options_.noise_seed);
  const auto widx = static_cast<std::size_t>(worker_index);
  const LaneMask mask = worker_masks_[widx];
  // Local copies survive Scheduler destruction — all a detached
  // (abandoned) worker may touch on its way out.
  const std::shared_ptr<WorkerAbandon> ab = abandon_[widx];

  bool last_was_probe = false;
  for (;;) {
    std::vector<ServeRequest> batch;
    std::vector<ServeRequest> expired;
    const CanaryProbe* probe = nullptr;
    std::uint64_t batch_id = 0;
    ServeClock::time_point pickup{};
    auto ifb = std::make_shared<InFlightBatch>();
    ifb->worker = worker_index;
    ifb->requests = &batch;
    {
      std::unique_lock lock(mutex_);
      for (;;) {
        // Canary probes ahead of traffic — and regardless of breaker
        // state: a tripped worker keeps probing (half-open), which is
        // the only way its breaker ever closes again. One exception:
        // right after running a probe, waiting traffic goes first, so
        // even a canary period shorter than one inference can claim at
        // most every other slot of a saturated healthy worker.
        const bool traffic_waiting =
            resilience_.worker_healthy(worker_index) &&
            queue_.has_work(mask);
        if (!probe_slots_[widx].empty() &&
            !(last_was_probe && traffic_waiting)) {
          probe = probe_slots_[widx].front();
          probe_slots_[widx].pop_front();
          break;
        }
        const auto now = ServeClock::now();
        // Expiry first: a dead deadline must never occupy a worker or
        // ride along in a batch. Workers harvest ALL lanes regardless
        // of their mask — cancellation is cheap and lane-agnostic.
        expired = queue_.take_expired(now);
        if (!expired.empty()) {
          // Count canceled requests as in-flight until their callbacks
          // ran, so wait_idle() cannot return with one still pending.
          in_flight_ += static_cast<int>(expired.size());
          break;
        }
        // An unhealthy worker (breaker open or quarantined) takes no
        // traffic; it sleeps until a probe (or recovery) arrives.
        if (traffic_waiting) {
          const std::uint64_t est =
              ewma_image_ns_.load(std::memory_order_relaxed);
          batch = queue_.pop_batch(lane_batch_caps(est), now, est, mask);
          batch_id = next_batch_id_++;
          in_flight_ += static_cast<int>(batch.size());
          pickup = now;
          // Published before the fault hook and the forward pass, so
          // the watchdog sees a hang anywhere inside.
          ifb->start = now;
          inflight_batches_[widx] = ifb;
          break;
        }
        if (stop_) return;
        // A worker only sleeps when no lane in its mask has work
        // (pop_batch always serves some eligible non-empty lane), so
        // there is never a queued deadline to time out against here:
        // expiry is harvested at the scheduling points — batch
        // formation above and every submit().
        work_cv_.wait(lock);
      }
    }

    if (probe != nullptr) {
      // Replay the probe on this worker's own context: fixed seed,
      // fresh stats, result compared bit-exactly against the golden
      // logits. Probe stats are never merged and no request id is
      // consumed — canaries are invisible to the determinism contract.
      ctx.reseed(probe->seed);
      ctx.reset_stats();
      bool pass = false;
      try {
        const Tensor out = ctx.infer(probe->input);
        pass = out.shape() == probe->golden.shape() &&
               std::memcmp(out.data(), probe->golden.data(),
                           out.size() * sizeof(float)) == 0;
      } catch (...) {
        pass = false;
      }
      resilience_.record_canary(worker_index, pass);
      last_was_probe = true;
      continue;
    }

    if (!expired.empty()) {
      cancel_expired(std::move(expired));
      continue;
    }
    last_was_probe = false;

    // Tracing (observer-only): a batch is traced when ANY member's
    // admission id samples in. Batch-scoped spans carry the batch id
    // plus the FIRST member's request id; per-request spans carry the
    // exact id of each sampled member.
    const bool batch_traced = [&] {
      if (!trace_.enabled()) return false;
      for (const ServeRequest& r : batch) {
        if (trace_.sampled(r.id)) return true;
      }
      return false;
    }();
    const auto emit_span = [&](const char* name, std::uint64_t request_id,
                               std::uint64_t start_ns, std::uint64_t end_ns,
                               std::int32_t requests, std::int32_t images) {
      TraceEvent ev;
      ev.name = name;
      ev.request_id = request_id;
      ev.batch_id = batch_id;
      ev.start_ns = start_ns;
      ev.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
      ev.requests = requests;
      ev.images = images;
      ev.tid = worker_index;
      trace_.emit(worker_index, ev);
    };
    const std::uint64_t pickup_ns =
        batch_traced ? trace_ns_since_epoch(pickup) : 0;
    if (batch_traced) {
      for (const ServeRequest& r : batch) {
        if (!trace_.sampled(r.id)) continue;
        emit_span(kSpanQueueWait, r.id, trace_ns_since_epoch(r.submit_time),
                  pickup_ns, 0, 0);
      }
    }

    // Derive this batch's noise stream from its first request so results
    // do not depend on which worker picked the batch up.
    ctx.reseed(options_.noise_seed + batch.front().id);
    ctx.reset_stats();

    BatchTraceSink layer_sink(&trace_, worker_index, batch.front().id,
                              batch_id);
    if (batch_traced) {
      // Batch formation: pickup (queue pop under the lock) until the
      // context is staged for execution.
      emit_span(kSpanBatchFormation, batch.front().id, pickup_ns,
                trace_now_ns(), static_cast<std::int32_t>(batch.size()), 0);
      ctx.set_layer_trace(&layer_sink);
    }

    if (options_.worker_fault_hook) {
      bool run_hook = false;
      {
        std::lock_guard g(ab->m);
        if (!ab->shutting_down) {
          ab->in_hook = true;
          run_hook = true;
        }
      }
      if (run_hook) {
        options_.worker_fault_hook(worker_index);
        std::lock_guard g(ab->m);
        ab->in_hook = false;
        // Shutdown detached this thread while it was wedged in the hook
        // and already settled the batch: the Scheduler may be destroyed
        // by now, so leave without touching any member.
        if (ab->abandoned) return;
      }
    }

    Tensor output;
    std::exception_ptr error;
    int total_images = 0;
    const auto exec_start = ServeClock::now();
    try {
      if (batch.size() == 1) {
        total_images = batch[0].input.shape()[0];
        output = ctx.infer(batch[0].input);
      } else {
        Tensor stacked = stack_inputs(batch);
        total_images = stacked.shape()[0];
        output = ctx.infer(stacked);
      }
    } catch (...) {
      error = std::current_exception();
    }
    const bool failed = error != nullptr;
    const auto exec_end = ServeClock::now();
    if (batch_traced) {
      ctx.set_layer_trace(nullptr);
      emit_span(kSpanExecute, batch.front().id,
                trace_ns_since_epoch(exec_start),
                trace_ns_since_epoch(exec_end),
                static_cast<std::int32_t>(batch.size()),
                std::max(total_images, 0));
    }

    // Settle requests BEFORE the completion accounting below: wait_idle()
    // promises that every accepted request has completed, so callbacks
    // must have run by the time in_flight_ reaches zero.
    const auto fulfill = [&] {
      if (failed) {
        // The first request takes the worker's own reference: exception_ptr
        // counts in libstdc++, which ThreadSanitizer does not see, so a
        // later release here would look like a race with the reader.
        for (std::size_t i = 1; i < batch.size(); ++i) batch[i].fail(error);
        batch.front().fail(std::move(error));
        return;
      }
      int row = 0;
      for (ServeRequest& r : batch) {
        const int rows = r.input.shape()[0];
        // Scatter failures (e.g. bad_alloc slicing a fused batch) fail
        // the affected request instead of escaping the worker thread.
        Tensor part;
        std::exception_ptr scatter_error;
        try {
          part = batch.size() == 1 ? std::move(output)
                                   : slice_rows(output, row, rows);
        } catch (...) {
          scatter_error = std::current_exception();
        }
        r.on_done(std::move(part), std::move(scatter_error));
        row += rows;
      }
    };
    bool already_settled = false;
    {
      std::lock_guard g(ifb->m);
      already_settled = ifb->settled;
      if (!already_settled) {
        fulfill();
        ifb->settled = true;
      }
    }
    if (already_settled) {
      // The watchdog declared us hung: it took the batch off
      // inflight_batches_, failed its requests and ran its accounting.
      // We were merely slow, not dead — coming back IS the respawn:
      // clear the quarantine and rejoin.
      resilience_.clear_quarantine(worker_index);
      continue;
    }

    const auto done = ServeClock::now();
    if (batch_traced) {
      // Epilogue: scatter/settle work between the forward pass ending
      // and the batch's last callback returning.
      emit_span(kSpanEpilogue, batch.front().id,
                trace_ns_since_epoch(exec_end), trace_ns_since_epoch(done),
                static_cast<std::int32_t>(batch.size()), 0);
      for (const ServeRequest& r : batch) {
        if (!trace_.sampled(r.id)) continue;
        emit_span(kSpanE2e, r.id, trace_ns_since_epoch(r.submit_time),
                  trace_ns_since_epoch(done), 0, 0);
      }
    }
    if (!failed && total_images > 0) {
      // Racy blend across workers is fine: the estimate only steers
      // admission feasibility and the batching window.
      const std::uint64_t sample = ns_between(exec_start, exec_end) /
                                   static_cast<std::uint64_t>(total_images);
      const std::uint64_t old = ewma_image_ns_.load(std::memory_order_relaxed);
      ewma_image_ns_.store(old == 0 ? sample : (3 * old + sample) / 4,
                           std::memory_order_relaxed);
    }

    std::lock_guard lock(mutex_);
    inflight_batches_[widx].reset();
    const Priority lane = batch.front().priority;
    if (!failed) {
      for (const ServeRequest& r : batch) {
        metrics_.record_served(lane, ns_between(r.submit_time, pickup),
                               ns_between(r.submit_time, done));
      }
      metrics_.record_batch(lane, static_cast<int>(batch.size()),
                            std::max(total_images, 0));
    }
    // A failed batch adds nothing: its partial activity produced no
    // output.
    finish_batch_locked(lane, batch.size(), failed ? nullptr : &ctx);
  }
}

void Scheduler::canary_loop() {
  const auto period = options_.resilience.canary_period;
  const CanarySuite& suite = plan_->canaries();
  std::size_t next = 0;
  std::unique_lock lock(mutex_);
  while (!aux_cv_.wait_for(lock, period, [&] { return stop_; })) {
    // ONE pending probe per worker, cycling through the suite. Probes
    // are popped ahead of traffic, so the backlog cap of one is what
    // bounds probe duty below half a worker's time even when the period
    // is shorter than an inference — probing samples worker health, it
    // must never starve traffic (nor pile up on a hung worker).
    const CanaryProbe& p = suite.probes[next % suite.probes.size()];
    next += 1;
    for (auto& slot : probe_slots_) {
      if (slot.empty()) slot.push_back(&p);
    }
    work_cv_.notify_all();
  }
}

void Scheduler::watchdog_loop() {
  const auto timeout = options_.resilience.watchdog_timeout;
  const auto poll =
      std::max(std::chrono::milliseconds(1),
               std::chrono::milliseconds(timeout.count() / 4));
  std::unique_lock lock(mutex_);
  for (;;) {
    if (aux_cv_.wait_for(lock, poll, [&] { return stop_; })) return;
    const auto now = ServeClock::now();
    std::vector<std::shared_ptr<InFlightBatch>> hung;
    for (auto& slot : inflight_batches_) {
      if (slot != nullptr && now - slot->start >= timeout) {
        hung.push_back(slot);
        slot.reset();
      }
    }
    if (hung.empty()) continue;
    lock.unlock();
    for (const auto& ifb : hung) {
      fail_hung_batch(ifb, /*quarantine=*/true);
    }
    lock.lock();
  }
}

void Scheduler::fail_hung_batch(const std::shared_ptr<InFlightBatch>& ifb,
                                bool quarantine) {
  std::size_t n = 0;
  Priority lane = Priority::kBatch;
  {
    std::lock_guard g(ifb->m);
    if (ifb->settled) return;
    ifb->settled = true;
    n = ifb->requests->size();
    lane = ifb->requests->front().priority;
    for (ServeRequest& r : *ifb->requests) {
      // Its own statement, for the reason given in cancel_expired().
      std::exception_ptr error = std::make_exception_ptr(WorkerHungError(
          "request " + std::to_string(r.id) + " abandoned on worker " +
          std::to_string(ifb->worker) + "; retry on a healthy worker"));
      r.fail(std::move(error));
    }
  }
  if (quarantine) resilience_.record_watchdog_fire(ifb->worker);
  std::lock_guard lock(mutex_);
  // The hung batch adds nothing, exactly like an execution failure.
  finish_batch_locked(lane, n, nullptr);
}

void Scheduler::finish_batch_locked(Priority lane, std::size_t requests,
                                    const ExecutionContext* served) {
  // The stats are integer counts, so the totals do not depend on the
  // order in which batches finish.
  if (served != nullptr) {
    rom_total_.accumulate(served->rom_stats());
    sram_total_.accumulate(served->sram_stats());
  } else {
    metrics_.record_failed(lane, requests);
  }
  in_flight_ -= static_cast<int>(requests);
  if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
}

}  // namespace yoloc

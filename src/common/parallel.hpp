#pragma once
// Minimal data-parallel helper for CPU-bound tensor kernels.
//
// parallel_for(n, fn) splits [0, n) into contiguous chunks across a small
// thread pool. The convolution forward/backward kernels parallelize over
// the batch (or output-channel) dimension with it. Falls back to serial
// execution for small n, where thread spawn cost dominates.
//
// Concurrency model: parallel_for may be entered from any thread; the
// underlying pool serializes top-level regions. Code that already runs on
// its own worker thread (e.g. a Scheduler worker, which parallelizes
// across requests instead of within kernels) wraps itself in a
// ParallelSerialGuard so nested kernels execute inline.

#include <cstddef>
#include <functional>

namespace yoloc {

/// Number of worker threads used by parallel_for. Defaults to
/// hardware_concurrency clamped to [1, 16]; the YOLOC_THREADS environment
/// variable overrides it (clamped to [1, 64]) so benches and CI can pin
/// concurrency. Cached on first use.
std::size_t parallel_workers();

/// Pure resolution rule behind parallel_workers(): parse an override
/// string (YOLOC_THREADS) against a fallback. Non-numeric or empty
/// overrides yield the fallback; numeric values clamp to [1, 64].
/// Exposed separately so the clamping is unit-testable without mutating
/// process-wide environment state.
std::size_t resolve_worker_count(const char* override_value,
                                 std::size_t fallback);

/// Invoke fn(i) for every i in [0, n), potentially concurrently.
/// fn must be safe to call concurrently for distinct i.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// While alive, parallel_for calls issued from this thread run inline
/// (serially) instead of dispatching to the shared pool. Used by request-
/// level workers that provide their own parallelism.
class ParallelSerialGuard {
 public:
  ParallelSerialGuard();
  ~ParallelSerialGuard();
  ParallelSerialGuard(const ParallelSerialGuard&) = delete;
  ParallelSerialGuard& operator=(const ParallelSerialGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace yoloc

#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace yoloc {
namespace {

/// True while the current thread is executing inside a pool task (or under
/// a ParallelSerialGuard); nested parallel_for calls then run serially
/// instead of deadlocking.
thread_local bool t_inside_pool = false;

/// Persistent worker pool. Kernels issue thousands of small parallel
/// regions per training step; spawning threads per region costs more
/// than the work itself, so workers are long-lived and pick up chunks
/// via an atomic cursor.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(std::size_t n, const std::function<void(std::size_t)>& fn) {
    // Top-level regions may arrive from several threads at once (each
    // driving its own ExecutionContext); serialize them so one region's
    // fn_/n_ cannot be overwritten while workers are still draining it.
    std::lock_guard submit_lock(submit_mutex_);
    std::unique_lock lock(mutex_);
    fn_ = &fn;
    n_ = n;
    cursor_.store(0, std::memory_order_relaxed);
    done_ = 0;
    ++generation_;
    start_cv_.notify_all();
    done_cv_.wait(lock, [&] { return done_ == workers_.size(); });
    fn_ = nullptr;
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

 private:
  Pool() {
    const std::size_t count = parallel_workers();
    workers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
      start_cv_.notify_all();
    }
    for (auto& w : workers_) w.join();
  }

  void worker_loop() {
    t_inside_pool = true;
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      std::size_t n = 0;
      {
        std::unique_lock lock(mutex_);
        start_cv_.wait(lock,
                       [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        fn = fn_;
        n = n_;
      }
      const std::size_t block =
          std::max<std::size_t>(1, n / (4 * workers_.size()));
      for (;;) {
        const std::size_t begin =
            cursor_.fetch_add(block, std::memory_order_relaxed);
        if (begin >= n) break;
        const std::size_t end = std::min(n, begin + block);
        for (std::size_t i = begin; i < end; ++i) (*fn)(i);
      }
      {
        std::lock_guard lock(mutex_);
        if (++done_ == workers_.size()) done_cv_.notify_one();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::mutex submit_mutex_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> cursor_{0};
  std::size_t done_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace

std::size_t resolve_worker_count(const char* override_value,
                                 std::size_t fallback) {
  if (override_value == nullptr || *override_value == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(override_value, &end, 10);
  if (end == override_value || *end != '\0') return fallback;
  return static_cast<std::size_t>(std::clamp(parsed, 1l, 64l));
}

std::size_t parallel_workers() {
  static const std::size_t n = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t fallback =
        static_cast<std::size_t>(std::clamp(hw, 1u, 16u));
    return resolve_worker_count(std::getenv("YOLOC_THREADS"), fallback);
  }();
  return n;
}

ParallelSerialGuard::ParallelSerialGuard() : prev_(t_inside_pool) {
  t_inside_pool = true;
}

ParallelSerialGuard::~ParallelSerialGuard() { t_inside_pool = prev_; }

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n < 4 || parallel_workers() <= 1 || t_inside_pool) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Pool::instance().run(n, fn);
}

}  // namespace yoloc

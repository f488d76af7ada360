#pragma once
// Test fixture for wedging exactly one scheduler worker inside the
// TEST-ONLY SchedulerOptions::worker_fault_hook, shared by the serving
// suites. While armed, the next batch picked anywhere blocks in the hook
// until release_and_wait_exit(); every other pick runs normally. Tests
// use it to simulate a hung worker, and to hold a worker busy for
// exactly as long as a scenario needs instead of relying on how long an
// inference takes (which shrinks whenever the MVM kernels get faster).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

namespace yoloc::testing_support {

struct HangOnce {
  explicit HangOnce(bool start_armed = true) : armed(start_armed) {}

  std::mutex m;
  std::condition_variable cv;
  bool armed;
  bool hung = false;
  /// Flips only after the blocked thread has left the hook body, so
  /// tests can wait for it before the Scheduler (which owns the hook
  /// closure) dies.
  std::atomic<bool> exited{false};

  std::function<void(int)> hook() {
    return [this](int) {
      std::unique_lock lock(m);
      if (!armed) return;
      armed = false;
      hung = true;
      cv.notify_all();
      cv.wait(lock, [this] { return !hung; });
      exited.store(true);
    };
  }
  /// Arms a gate constructed disarmed: the next batch picked blocks.
  void arm() {
    std::lock_guard lock(m);
    armed = true;
  }
  void wait_hung() {
    std::unique_lock lock(m);
    cv.wait(lock, [this] { return hung; });
  }
  void release_and_wait_exit() {
    {
      std::lock_guard lock(m);
      hung = false;
    }
    cv.notify_all();
    for (int i = 0; i < 2500 && !exited.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(exited.load()) << "hung worker never left the fault hook";
    // Give the released thread a beat to finish unwinding out of the
    // hook call frame before the closure's owner is destroyed.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
};

}  // namespace yoloc::testing_support

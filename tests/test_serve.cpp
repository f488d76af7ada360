// Serving-scheduler semantics (src/serve/): priority ordering under
// contention, deadline expiry failing fast without skewing served-work
// metrics, admission control, graceful shutdown draining by priority,
// telemetry plumbing — and the determinism contract the scheduler
// inherits from the FIFO server: max_microbatch = 1 stays bit-identical
// to serial ExecutionContext runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <mutex>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "hang_once.hpp"
#include "nn/activations.hpp"
#include "nn/container.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "runtime/deployment_plan.hpp"
#include "runtime/execution_context.hpp"
#include "serve/metrics_registry.hpp"
#include "serve/request_queue.hpp"
#include "serve/scheduler.hpp"
#include "tensor/ops.hpp"

namespace yoloc {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

// Keep the concurrency paths exercised even on single-core CI boxes.
const bool g_env_pinned = [] {
  setenv("YOLOC_THREADS", "4", /*overwrite=*/1);
  return true;
}();

LayerPtr make_model(std::uint64_t seed) {
  Rng rng(seed);
  auto backbone = std::make_unique<Sequential>("backbone");
  backbone->add(std::make_unique<Conv2d>(3, 4, 3, 1, 1, true, rng, "b.c1"));
  backbone->add(std::make_unique<ReLU>());
  backbone->add(std::make_unique<MaxPool2d>(2));
  backbone->add(std::make_unique<Conv2d>(4, 6, 3, 1, 1, true, rng, "b.c2"));
  backbone->add(std::make_unique<ReLU>());
  auto net = std::make_unique<Sequential>("net");
  net->add(std::move(backbone));
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Linear>(6, 5, true, rng, "head.fc"));
  for (Parameter* p : net->parameters()) {
    p->rom_resident = p->name.find("b.c") != std::string::npos;
  }
  return net;
}

std::unique_ptr<DeploymentPlan> make_plan(MacroMvmEngine::Mode mode) {
  LayerPtr net = make_model(21);
  Rng data_rng(33);
  Tensor calib = Tensor::rand_uniform({8, 3, 8, 8}, data_rng, 0.0f, 1.0f);
  DeploymentOptions options;
  options.mode = mode;
  return std::make_unique<DeploymentPlan>(std::move(net), calib,
                                          std::move(options));
}

Tensor make_input(std::uint64_t seed, std::vector<int> shape) {
  Rng rng(seed);
  return Tensor::rand_uniform(shape, rng, 0.0f, 1.0f);
}

/// ~50+ ms of work for one analog-mode worker on this model: the
/// "blocker" that keeps a single-worker scheduler busy while the queue
/// builds up. All deadline margins below assume the blocker outlasts
/// them by an order of magnitude.
Tensor make_blocker_input() { return make_input(7, {32, 3, 8, 8}); }

ServeRequest make_queued(std::uint64_t id, Priority p, std::vector<int> shape,
                         ServeClock::time_point deadline =
                             ServeClock::time_point::max()) {
  ServeRequest r;
  r.input = make_input(id + 1, std::move(shape));
  r.id = id;
  r.priority = p;
  r.submit_time = ServeClock::now();
  r.deadline = deadline;
  return r;
}

::testing::AssertionResult bit_identical(const Tensor& a, const Tensor& b) {
  if (!same_shape(a, b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    return ::testing::AssertionFailure()
           << "payload differs (max |a-b| = " << max_abs_diff(a, b) << ")";
  }
  return ::testing::AssertionSuccess();
}

// ------------------------------------------------------- RequestQueue

TEST(RequestQueue, StrictPriorityThenFifoWithinLane) {
  RequestQueue q;
  const auto now = ServeClock::now();
  q.push(make_queued(0, Priority::kBestEffort, {1, 3, 8, 8}));
  q.push(make_queued(1, Priority::kBatch, {1, 3, 8, 8}));
  q.push(make_queued(2, Priority::kInteractive, {1, 3, 8, 8}));
  q.push(make_queued(3, Priority::kBatch, {1, 3, 8, 8}));

  auto b = q.pop_batch(1, now, 0);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].id, 2u);  // interactive first
  b = q.pop_batch(1, now, 0);
  EXPECT_EQ(b[0].id, 1u);  // batch lane, FIFO
  b = q.pop_batch(1, now, 0);
  EXPECT_EQ(b[0].id, 3u);
  b = q.pop_batch(1, now, 0);
  EXPECT_EQ(b[0].id, 0u);  // best-effort last
  EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, BatchesOnlyCompatibleGeometryFromOneLane) {
  RequestQueue q;
  const auto now = ServeClock::now();
  q.push(make_queued(0, Priority::kBatch, {1, 3, 8, 8}));
  q.push(make_queued(1, Priority::kBatch, {1, 3, 12, 12}));  // incompatible
  q.push(make_queued(2, Priority::kBatch, {2, 3, 8, 8}));    // N may differ
  q.push(make_queued(3, Priority::kInteractive, {1, 3, 8, 8}));  // other lane
  q.push(make_queued(4, Priority::kBatch, {1, 3, 8, 8}));

  // Interactive head pops alone first (nothing else in its lane).
  auto b = q.pop_batch(8, now, 0);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].id, 3u);

  // Batch lane: greedy same-geometry pulls skip over the 12x12 request.
  b = q.pop_batch(8, now, 0);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0].id, 0u);
  EXPECT_EQ(b[1].id, 2u);
  EXPECT_EQ(b[2].id, 4u);
  EXPECT_EQ(q.depth(Priority::kBatch), 1u);  // the 12x12 request remains

  b = q.pop_batch(8, now, 0);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].id, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, MaxBatchCapsGreedyPulls) {
  RequestQueue q;
  const auto now = ServeClock::now();
  for (std::uint64_t i = 0; i < 5; ++i) {
    q.push(make_queued(i, Priority::kBatch, {1, 3, 8, 8}));
  }
  auto b = q.pop_batch(3, now, 0);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(q.depth(Priority::kBatch), 2u);
}

TEST(RequestQueue, DeadlineAwareWindowStopsBatchGrowth) {
  RequestQueue q;
  const auto now = ServeClock::now();
  // Five 1-image requests, each with 3 ms of slack. At an estimated
  // 1 ms/image, a 4-image batch would blow the tightest deadline, so
  // growth must stop at 3 requests.
  for (std::uint64_t i = 0; i < 5; ++i) {
    q.push(make_queued(i, Priority::kBatch, {1, 3, 8, 8},
                       now + milliseconds(3)));
  }
  constexpr std::uint64_t kMsPerImage = 1'000'000;
  auto b = q.pop_batch(8, now, kMsPerImage);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(q.depth(Priority::kBatch), 2u);
  // With no estimate the window is disabled and the cap is max_batch.
  b = q.pop_batch(8, now, 0);
  EXPECT_EQ(b.size(), 2u);

  // A candidate that blows the window is skipped, not a hard stop: a
  // later, smaller request can still fit. Head (1 img, 3 ms slack) +
  // 4-img candidate would need 5 ms — skip — but the trailing 1-img
  // request (2 img total = 2 ms) fits.
  q.push(make_queued(10, Priority::kBatch, {1, 3, 8, 8},
                     now + milliseconds(3)));
  q.push(make_queued(11, Priority::kBatch, {4, 3, 8, 8}));
  q.push(make_queued(12, Priority::kBatch, {1, 3, 8, 8}));
  b = q.pop_batch(8, now, kMsPerImage);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0].id, 10u);
  EXPECT_EQ(b[1].id, 12u);
  EXPECT_EQ(q.depth(Priority::kBatch), 1u);  // the 4-image request waits
}

TEST(RequestQueue, TakeExpiredHarvestsAcrossLanes) {
  RequestQueue q;
  const auto now = ServeClock::now();
  q.push(make_queued(0, Priority::kInteractive, {1, 3, 8, 8},
                     now - milliseconds(1)));
  q.push(make_queued(1, Priority::kBatch, {1, 3, 8, 8}));
  q.push(make_queued(2, Priority::kBestEffort, {1, 3, 8, 8},
                     now - milliseconds(2)));

  auto expired = q.take_expired(now);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].id, 0u);
  EXPECT_EQ(expired[1].id, 2u);
  EXPECT_EQ(q.depth(Priority::kBatch), 1u);
  EXPECT_TRUE(q.take_expired(now).empty());
}

TEST(RequestQueue, AdmissionDecisions) {
  RequestQueue q;
  const auto now = ServeClock::now();
  const auto no_deadline = ServeClock::time_point::max();
  q.push(make_queued(0, Priority::kInteractive, {1, 3, 8, 8}));
  q.push(make_queued(1, Priority::kInteractive, {1, 3, 8, 8}));

  EXPECT_EQ(q.admit(Priority::kInteractive, now, no_deadline, 1, 2, 0),
            RequestQueue::Admission::kQueueFull);
  EXPECT_EQ(q.admit(Priority::kInteractive, now, no_deadline, 1, 0, 0),
            RequestQueue::Admission::kAccept);  // 0 = unlimited
  EXPECT_EQ(q.admit(Priority::kBatch, now, no_deadline, 1, 2, 0),
            RequestQueue::Admission::kAccept);  // caps are per lane
  EXPECT_EQ(q.admit(Priority::kBatch, now, now, 1, 0, 0),
            RequestQueue::Admission::kAlreadyExpired);
  // 1 ms of slack cannot fit 1 image at an estimated 2 ms/image.
  EXPECT_EQ(q.admit(Priority::kBatch, now, now + milliseconds(1), 1, 0,
                    2'000'000),
            RequestQueue::Admission::kInfeasible);
  EXPECT_EQ(q.admit(Priority::kBatch, now, now + milliseconds(10), 1, 0,
                    2'000'000),
            RequestQueue::Admission::kAccept);
}

// ------------------------------------------- weighted-fair lane policy

/// Pop `n` single-request batches and return the lane sequence.
std::vector<Priority> pop_sequence(RequestQueue& q, int n) {
  const auto now = ServeClock::now();
  std::vector<Priority> seq;
  for (int i = 0; i < n; ++i) {
    auto b = q.pop_batch(1, now, 0);
    if (b.empty()) break;
    seq.push_back(b[0].priority);
  }
  return seq;
}

TEST(RequestQueueWeighted, DeficitRoundRobinHonorsShares) {
  RequestQueue q;
  q.set_weights({4.0, 2.0, 1.0});
  std::uint64_t id = 0;
  for (int i = 0; i < 8; ++i) {
    q.push(make_queued(id++, Priority::kInteractive, {1, 3, 8, 8}));
    q.push(make_queued(id++, Priority::kBatch, {1, 3, 8, 8}));
    q.push(make_queued(id++, Priority::kBestEffort, {1, 3, 8, 8}));
  }
  // One full DWRR rotation serves 4 interactive, 2 batch, 1 best-effort:
  // proportional shares while every lane is backlogged, and best-effort
  // is served at least once per rotation — the starvation bound.
  const auto seq = pop_sequence(q, 14);
  const std::vector<Priority> expected = {
      Priority::kInteractive, Priority::kInteractive, Priority::kInteractive,
      Priority::kInteractive, Priority::kBatch,       Priority::kBatch,
      Priority::kBestEffort,  Priority::kInteractive, Priority::kInteractive,
      Priority::kInteractive, Priority::kInteractive, Priority::kBatch,
      Priority::kBatch,       Priority::kBestEffort};
  EXPECT_EQ(seq, expected);
}

TEST(RequestQueueWeighted, StarvationGapBoundedUnderFlood) {
  RequestQueue q;
  q.set_weights({6.0, 1.0, 1.0});
  for (std::uint64_t i = 0; i < 60; ++i) {
    q.push(make_queued(i, Priority::kInteractive, {1, 3, 8, 8}));
  }
  q.push(make_queued(100, Priority::kBestEffort, {1, 3, 8, 8}));
  q.push(make_queued(101, Priority::kBestEffort, {1, 3, 8, 8}));
  // Deficit round-robin bound: with weights {6, _, 1} a backlogged
  // best-effort lane is served at least once every 7 pops — the flood
  // cannot push it past one rotation.
  const auto seq = pop_sequence(q, 16);
  int first_be = -1;
  int second_be = -1;
  for (int i = 0; i < static_cast<int>(seq.size()); ++i) {
    if (seq[static_cast<std::size_t>(i)] != Priority::kBestEffort) continue;
    (first_be < 0 ? first_be : second_be) = i;
    if (second_be >= 0) break;
  }
  ASSERT_GE(first_be, 0);
  ASSERT_GE(second_be, 0);
  EXPECT_LE(first_be, 6);
  EXPECT_LE(second_be - first_be, 7);
}

TEST(RequestQueueWeighted, InfiniteAndZeroWeightTiers) {
  RequestQueue q;
  q.set_weights(strict_lane_weights());  // {inf, 1, 0}
  q.push(make_queued(0, Priority::kBestEffort, {1, 3, 8, 8}));
  q.push(make_queued(1, Priority::kBatch, {1, 3, 8, 8}));
  q.push(make_queued(2, Priority::kInteractive, {1, 3, 8, 8}));
  q.push(make_queued(3, Priority::kInteractive, {1, 3, 8, 8}));
  // Strict tier drains fully first, then the weighted lane, and the
  // weight-0 lane only when everything else is empty — the legacy
  // strict-priority order.
  const auto seq = pop_sequence(q, 4);
  const std::vector<Priority> expected = {
      Priority::kInteractive, Priority::kInteractive, Priority::kBatch,
      Priority::kBestEffort};
  EXPECT_EQ(seq, expected);

  // Weights must be sane.
  RequestQueue bad;
  EXPECT_THROW(bad.set_weights({-1.0, 1.0, 0.0}), std::runtime_error);
}

TEST(RequestQueueWeighted, HeavyHeadAccumulatesCreditAcrossRotations) {
  RequestQueue q;
  q.set_weights({0.0, 3.0, 1.0});
  // Best-effort head carries 4 images: with weight 1 it must accumulate
  // credit over several rotations while batch (weight 3) keeps serving.
  for (std::uint64_t i = 0; i < 12; ++i) {
    q.push(make_queued(i, Priority::kBatch, {1, 3, 8, 8}));
  }
  q.push(make_queued(50, Priority::kBestEffort, {4, 3, 8, 8}));
  const auto seq = pop_sequence(q, 14);
  int be_index = -1;
  for (int i = 0; i < static_cast<int>(seq.size()); ++i) {
    if (seq[static_cast<std::size_t>(i)] == Priority::kBestEffort) {
      be_index = i;
      break;
    }
  }
  // Needs 4 credits at 1/rotation, each rotation serving 3 batch pops:
  // served on the 4th rotation, i.e. after 9-12 batch pops, not before
  // (proportionality holds in image units, not request counts).
  ASSERT_GE(be_index, 0);
  EXPECT_GE(be_index, 9);
  EXPECT_LE(be_index, 13);
}

TEST(RequestQueueWeighted, LaneMaskRestrictsAndBypassesWeights) {
  RequestQueue q;
  q.set_weights({4.0, 2.0, 1.0});
  q.push(make_queued(0, Priority::kInteractive, {1, 3, 8, 8}));
  q.push(make_queued(1, Priority::kBatch, {1, 3, 8, 8}));
  q.push(make_queued(2, Priority::kBestEffort, {1, 3, 8, 8}));

  EXPECT_TRUE(q.has_work(kAllLanes));
  EXPECT_TRUE(q.has_work(lane_bit(Priority::kBestEffort)));

  // A reserved worker's single-lane mask serves its lane directly, even
  // though DWRR would have picked interactive first.
  const auto now = ServeClock::now();
  std::array<int, kPriorityClassCount> caps;
  caps.fill(8);
  auto b = q.pop_batch(caps, now, 0, lane_bit(Priority::kBestEffort));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].id, 2u);
  EXPECT_FALSE(q.has_work(lane_bit(Priority::kBestEffort)));

  // Mask with no matching work yields an empty batch.
  EXPECT_TRUE(q.pop_batch(caps, now, 0, lane_bit(Priority::kBestEffort))
                  .empty());

  // Masked pops did not disturb the weighted tier: interactive (weight
  // 4) still wins the next full-mask pop.
  b = q.pop_batch(caps, now, 0, kAllLanes);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].id, 0u);
}

TEST(RequestQueueWeighted, PerLaneCapsBoundGreedyPulls) {
  RequestQueue q;
  q.set_weights({4.0, 2.0, 1.0});
  for (std::uint64_t i = 0; i < 6; ++i) {
    q.push(make_queued(i, Priority::kInteractive, {1, 3, 8, 8}));
  }
  const auto now = ServeClock::now();
  std::array<int, kPriorityClassCount> caps = {2, 8, 8};
  // The interactive lane's effective cap (2) binds even though the
  // global cap would allow all six — SLO-aware auto-batching plumbing.
  auto b = q.pop_batch(caps, now, 0, kAllLanes);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(q.depth(Priority::kInteractive), 4u);
}

TEST(TensorRows, SliceAndConcatRoundTrip) {
  Tensor batch = make_input(3, {5, 2, 3, 3});
  Tensor a = slice_rows(batch, 0, 2);
  Tensor b = slice_rows(batch, 2, 3);
  EXPECT_TRUE(bit_identical(batch, concat_rows({&a, &b})));
  EXPECT_THROW((void)slice_rows(batch, 4, 2), std::runtime_error);
  EXPECT_THROW((void)concat_rows({}), std::runtime_error);
  Tensor other = make_input(4, {1, 2, 4, 4});
  EXPECT_THROW((void)concat_rows({&a, &other}), std::runtime_error);
}

// --------------------------------------------------- LatencyHistogram

TEST(LatencyHistogram, QuantilesAndMerge) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile_ns(0.5), 0.0);
  for (int i = 0; i < 100; ++i) h.record(1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.max_ns(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 1000.0);
  // All mass in the [512, 1024) bucket: quantiles interpolate inside it
  // and clamp to the observed maximum.
  EXPECT_GE(h.quantile_ns(0.5), 512.0);
  EXPECT_LE(h.quantile_ns(0.5), 1000.0);
  EXPECT_LE(h.quantile_ns(0.99), 1000.0);

  LatencyHistogram outlier;
  outlier.record(5000);
  h.merge(outlier);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_EQ(h.max_ns(), 5000u);
  EXPECT_EQ(h.quantile_ns(1.0), 5000.0);  // clamped to max, not bucket edge
  EXPECT_LE(h.quantile_ns(0.5), 1000.0);  // median unmoved by one outlier
}

// ----------------------------------------------------- Scheduler core

TEST(Scheduler, MixedPriorityMicrobatchOneBitIdenticalToSerial) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  const int kRequests = 9;
  const std::uint64_t kSeed = 777;
  std::vector<Tensor> inputs;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(make_input(100 + static_cast<unsigned>(i), {1, 3, 8, 8}));
  }

  // Serial reference mirroring the scheduler's admission-order seeding.
  std::vector<Tensor> serial_out(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ExecutionContext ctx(*plan, kSeed + static_cast<std::uint64_t>(i));
    serial_out[static_cast<std::size_t>(i)] =
        ctx.infer(inputs[static_cast<std::size_t>(i)]);
  }

  SchedulerOptions options;
  options.workers = 3;
  options.max_microbatch = 1;
  options.noise_seed = kSeed;
  Scheduler scheduler(*plan, options);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < kRequests; ++i) {
    // Classes cycle: execution ORDER varies with priority, but each
    // request's noise stream is pinned to its admission id, so every
    // output must still be bit-identical to the serial reference.
    SubmitOptions so;
    so.priority = static_cast<Priority>(i % kPriorityClassCount);
    futures.push_back(
        scheduler.submit(inputs[static_cast<std::size_t>(i)], so));
  }
  for (int i = 0; i < kRequests; ++i) {
    Tensor out = futures[static_cast<std::size_t>(i)].get();
    EXPECT_TRUE(bit_identical(serial_out[static_cast<std::size_t>(i)], out))
        << "request " << i;
  }
  scheduler.wait_idle();
  const MetricsSnapshot snap = scheduler.metrics_snapshot();
  EXPECT_EQ(snap.served_requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(snap.batches, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(snap.max_batch_occupancy, 1);
  for (int c = 0; c < kPriorityClassCount; ++c) {
    EXPECT_EQ(snap.classes[static_cast<std::size_t>(c)].served_requests, 3u);
    EXPECT_EQ(snap.classes[static_cast<std::size_t>(c)].queue_wait.count, 3u);
    EXPECT_EQ(snap.classes[static_cast<std::size_t>(c)].e2e.count, 3u);
  }
}

TEST(Scheduler, PriorityOrderingUnderContention) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  SchedulerOptions options;
  options.workers = 1;
  Scheduler scheduler(*plan, options);

  // Occupy the single worker, then queue best-effort BEFORE interactive:
  // the scheduler must serve interactive first anyway.
  auto blocker = scheduler.submit(make_blocker_input(),
                                  {Priority::kInteractive, milliseconds(0)});
  std::vector<std::shared_future<Tensor>> best_effort, interactive;
  for (int i = 0; i < 3; ++i) {
    best_effort.push_back(
        scheduler
            .submit(make_input(200 + static_cast<unsigned>(i), {1, 3, 8, 8}),
                    {Priority::kBestEffort, milliseconds(0)})
            .share());
  }
  for (int i = 0; i < 3; ++i) {
    interactive.push_back(
        scheduler
            .submit(make_input(300 + static_cast<unsigned>(i), {1, 3, 8, 8}),
                    {Priority::kInteractive, milliseconds(0)})
            .share());
  }

  best_effort[0].wait();
  // The moment any best-effort output exists, every interactive request
  // must already be done (single worker, strict priority).
  for (const auto& f : interactive) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  (void)blocker.get();
  for (auto& f : best_effort) (void)f.get();
  scheduler.wait_idle();

  const MetricsSnapshot snap = scheduler.metrics_snapshot();
  const auto& inter =
      snap.classes[static_cast<std::size_t>(Priority::kInteractive)];
  const auto& be =
      snap.classes[static_cast<std::size_t>(Priority::kBestEffort)];
  EXPECT_EQ(inter.served_requests, 4u);  // blocker + 3
  EXPECT_EQ(be.served_requests, 3u);
  EXPECT_EQ(snap.served_images, 38u);  // 32 + 6
}

TEST(Scheduler, QueuedDeadlineExpiryFailsFastWithoutSkewingMetrics) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  const std::uint64_t kSeed = 2024;

  // Reference: what serving ONLY the blocker (admission id 0) looks like.
  Tensor blocker_input = make_blocker_input();
  ExecutionContext ref_ctx(*plan, kSeed + 0);
  Tensor reference = ref_ctx.infer(blocker_input);

  SchedulerOptions options;
  options.workers = 1;
  options.max_microbatch = 1;
  options.noise_seed = kSeed;
  Scheduler scheduler(*plan, options);
  auto blocker = scheduler.submit(std::move(blocker_input),
                                  {Priority::kInteractive, milliseconds(0)});
  // The victim's 3 ms deadline passes long before the ~50 ms blocker
  // finishes: it must be canceled, never executed.
  auto victim = scheduler.submit(make_input(9, {1, 3, 8, 8}),
                                 {Priority::kBestEffort, milliseconds(3)});
  EXPECT_THROW((void)victim.get(), DeadlineExpiredError);
  EXPECT_TRUE(bit_identical(reference, blocker.get()));
  scheduler.wait_idle();

  // Served-work metrics and macro stats reflect the blocker ONLY.
  const MetricsSnapshot snap = scheduler.metrics_snapshot();
  const auto& be =
      snap.classes[static_cast<std::size_t>(Priority::kBestEffort)];
  EXPECT_EQ(be.expired_requests, 1u);
  EXPECT_EQ(be.served_requests, 0u);
  EXPECT_EQ(be.queue_wait.count, 0u);
  EXPECT_EQ(be.expired_wait.count, 1u);  // waited >= its 3 ms deadline
  EXPECT_GE(be.expired_wait.max_ms, 3.0);
  EXPECT_EQ(snap.served_images, 32u);
  EXPECT_EQ(scheduler.rom_stats().macs, ref_ctx.rom_stats().macs);
  EXPECT_EQ(scheduler.total_energy_pj(), ref_ctx.total_energy_pj());
}

TEST(Scheduler, AdmissionRejectsDeadAndInfeasibleDeadlinesWithoutBurningIds) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  const std::uint64_t kSeed = 55;
  SchedulerOptions options;
  options.workers = 2;
  options.max_microbatch = 1;
  options.noise_seed = kSeed;
  Scheduler scheduler(*plan, options);

  // A deadline that is already in the past fails fast at admission.
  auto dead = scheduler.submit(make_input(1, {1, 3, 8, 8}),
                               {Priority::kInteractive, -milliseconds(1)});
  EXPECT_THROW((void)dead.get(), DeadlineExpiredError);

  // The rejection must NOT have consumed an admission id: the next
  // accepted request is id 0 and stays bit-identical to a serial run
  // seeded noise_seed + 0.
  Tensor input = make_input(2, {1, 3, 8, 8});
  ExecutionContext ref_ctx(*plan, kSeed + 0);
  Tensor reference = ref_ctx.infer(input);
  EXPECT_TRUE(bit_identical(reference, scheduler.submit(input).get()));
  scheduler.wait_idle();

  const MetricsSnapshot snap = scheduler.metrics_snapshot();
  const auto& inter =
      snap.classes[static_cast<std::size_t>(Priority::kInteractive)];
  EXPECT_EQ(inter.rejected_requests, 1u);
  EXPECT_EQ(inter.submitted, 1u);
  EXPECT_EQ(inter.served_requests, 0u);
  EXPECT_EQ(snap.classes[static_cast<std::size_t>(Priority::kBatch)]
                .served_requests,
            1u);
}

TEST(Scheduler, AdmissionEnforcesPerLaneDepthCap) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  SchedulerOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  Scheduler scheduler(*plan, options);

  // Blocker occupies the single worker for ~50 ms; the batch lane then
  // holds one queued request, so the next submission overflows the cap.
  auto blocker = scheduler.submit(make_blocker_input(),
                                  {Priority::kInteractive, milliseconds(0)});
  auto queued = scheduler.submit(make_input(1, {1, 3, 8, 8}),
                                 {Priority::kBatch, milliseconds(0)});
  auto overflow = scheduler.submit(make_input(2, {1, 3, 8, 8}),
                                   {Priority::kBatch, milliseconds(0)});
  EXPECT_THROW((void)overflow.get(), AdmissionError);
  (void)blocker.get();
  (void)queued.get();
  scheduler.wait_idle();

  const MetricsSnapshot snap = scheduler.metrics_snapshot();
  const auto& batch = snap.classes[static_cast<std::size_t>(Priority::kBatch)];
  EXPECT_EQ(batch.rejected_requests, 1u);
  EXPECT_EQ(batch.served_requests, 1u);
}

TEST(Scheduler, GracefulShutdownDrainsByPriority) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  SchedulerOptions options;
  options.workers = 1;
  Scheduler scheduler(*plan, options);

  auto blocker = scheduler.submit(make_blocker_input(),
                                  {Priority::kInteractive, milliseconds(0)})
                     .share();
  std::vector<std::shared_future<Tensor>> best_effort, interactive;
  for (int i = 0; i < 3; ++i) {
    best_effort.push_back(
        scheduler
            .submit(make_input(400 + static_cast<unsigned>(i), {1, 3, 8, 8}),
                    {Priority::kBestEffort, milliseconds(0)})
            .share());
  }
  for (int i = 0; i < 3; ++i) {
    interactive.push_back(
        scheduler
            .submit(make_input(500 + static_cast<unsigned>(i), {1, 3, 8, 8}),
                    {Priority::kInteractive, milliseconds(0)})
            .share());
  }

  // Watch the drain from outside: when the first best-effort output
  // appears, the interactive lane must already be fully served.
  std::atomic<bool> interactive_served_first{false};
  std::thread observer([&] {
    best_effort[0].wait();
    bool all_ready = true;
    for (const auto& f : interactive) {
      all_ready = all_ready && f.wait_for(std::chrono::seconds(0)) ==
                                   std::future_status::ready;
    }
    interactive_served_first.store(all_ready);
  });

  scheduler.shutdown();  // graceful: drains everything queued, by priority
  observer.join();
  EXPECT_TRUE(interactive_served_first.load());
  for (const auto& f : interactive) EXPECT_NO_THROW((void)f.get());
  for (const auto& f : best_effort) EXPECT_NO_THROW((void)f.get());
  EXPECT_NO_THROW((void)blocker.get());

  // Admission is closed after shutdown.
  EXPECT_THROW((void)scheduler.submit(make_input(1, {1, 3, 8, 8})),
               std::runtime_error);

  const MetricsSnapshot snap = scheduler.metrics_snapshot();
  EXPECT_EQ(snap.served_requests, 7u);
  EXPECT_EQ(
      snap.classes[static_cast<std::size_t>(Priority::kBestEffort)]
          .served_requests,
      3u);
}

// --------------------------------------- shutdown races a hung worker

using testing_support::HangOnce;

TEST(SchedulerShutdownRace, AbandonsHungWorkerAndFailsResidualQueue) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  HangOnce hang;

  SchedulerOptions options;
  options.workers = 1;
  options.max_microbatch = 1;
  // Deliberately NO watchdog: shutdown() itself must be the thing that
  // refuses to wait forever on the wedged worker.
  options.worker_fault_hook = hang.hook();

  {
    Scheduler scheduler(*plan, options);
    auto victim = scheduler.submit(make_input(61, {1, 3, 8, 8}));
    hang.wait_hung();

    // Requests now stuck behind the only (wedged) worker.
    std::vector<std::future<Tensor>> residual;
    residual.push_back(scheduler.submit(make_input(62, {1, 3, 8, 8}),
                                        {Priority::kInteractive}));
    residual.push_back(
        scheduler.submit(make_input(63, {1, 3, 8, 8}), {Priority::kBatch}));
    residual.push_back(scheduler.submit(make_input(64, {1, 3, 8, 8}),
                                        {Priority::kBestEffort}));

    const auto start = std::chrono::steady_clock::now();
    scheduler.shutdown();
    // Graceful shutdown abandoned the hung thread instead of joining it.
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));

    // Everyone resolved retriably: the in-flight victim was settled by
    // the abandonment, the residual queue by the post-join drain.
    EXPECT_THROW(victim.get(), WorkerHungError);
    for (auto& f : residual) EXPECT_THROW(f.get(), WorkerHungError);
    scheduler.wait_idle();  // accounting settled too — must not block

    const MetricsSnapshot snap = scheduler.metrics_snapshot();
    EXPECT_EQ(snap.served_requests, 0u);
    EXPECT_GE(snap.classes[static_cast<std::size_t>(Priority::kBatch)]
                  .failed_requests,
              1u);
    std::uint64_t rejected = 0;
    for (const ClassSnapshot& c : snap.classes) rejected += c.rejected_requests;
    EXPECT_EQ(rejected, 3u)
        << "residual requests count as rejected, not served";

    hang.release_and_wait_exit();
  }
}

TEST(SchedulerShutdownRace, HealthyWorkerStillDrainsPastHungPeer) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  HangOnce hang;

  SchedulerOptions options;
  options.workers = 2;
  options.max_microbatch = 1;
  options.worker_fault_hook = hang.hook();

  {
    Scheduler scheduler(*plan, options);
    constexpr int kRequests = 6;
    const Priority kLanes[] = {Priority::kInteractive, Priority::kBatch,
                               Priority::kBestEffort};
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(
          scheduler.submit(make_input(80 + static_cast<unsigned>(i),
                                      {1, 3, 8, 8}),
                           {kLanes[i % 3]}));
    }
    hang.wait_hung();  // exactly one worker wedged on one request

    scheduler.shutdown();

    // The surviving healthy worker drained everything except the one
    // request trapped in the wedged worker's batch.
    int served = 0, hung_failures = 0;
    for (auto& f : futures) {
      try {
        (void)f.get();
        ++served;
      } catch (const WorkerHungError&) {
        ++hung_failures;
      }
    }
    EXPECT_EQ(hung_failures, 1);
    EXPECT_EQ(served, kRequests - 1);

    hang.release_and_wait_exit();
  }
}

// ------------------------------------------------- completion callback

/// Records every call of one request's completion callback.
struct Outcome {
  std::atomic<int> calls{0};
  bool served = false;
  std::exception_ptr error;

  ServeCallback callback() {
    return [this](Tensor output, std::exception_ptr e) {
      served = e == nullptr && output.size() > 0;
      error = std::move(e);
      calls.fetch_add(1);
    };
  }
  template <class E>
  [[nodiscard]] bool failed_with() const {
    if (!error) return false;
    try {
      std::rethrow_exception(error);
    } catch (const E&) {
      return true;
    } catch (...) {
      return false;
    }
  }
};

TEST(SchedulerCallback, RunsExactlyOncePerOutcome) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  const auto input = [](unsigned seed) {
    return make_input(seed, {1, 3, 8, 8});
  };
  Outcome served, queue_full, dead, expired, served_late, failed;
  {
    HangOnce gate;
    SchedulerOptions options;
    options.workers = 1;
    options.max_microbatch = 1;
    options.max_queue_depth = 1;
    options.worker_fault_hook = gate.hook();
    Scheduler scheduler(*plan, options);

    scheduler.submit(input(1), {Priority::kBatch}, served.callback());
    gate.wait_hung();  // the worker holds `served`
    // Fills the interactive lane (depth cap 1) and outlives its deadline.
    scheduler.submit(input(2), {Priority::kInteractive, milliseconds(100)},
                     expired.callback());

    // Rejections settle inline, before submit() returns.
    scheduler.submit(input(3), {Priority::kInteractive},
                     queue_full.callback());
    EXPECT_EQ(queue_full.calls.load(), 1);
    EXPECT_TRUE(queue_full.failed_with<QueueDepthError>());
    scheduler.submit(input(4), {Priority::kBatch, -milliseconds(1)},
                     dead.callback());
    EXPECT_EQ(dead.calls.load(), 1);
    EXPECT_TRUE(dead.failed_with<DeadlineExpiredError>());

    // Every submission is a scheduling point: this one harvests the
    // request whose deadline passed while it sat in the queue.
    std::this_thread::sleep_for(milliseconds(150));
    scheduler.submit(input(5), {Priority::kBatch}, served_late.callback());
    EXPECT_EQ(expired.calls.load(), 1);
    EXPECT_TRUE(expired.failed_with<DeadlineExpiredError>());
    EXPECT_EQ(served.calls.load(), 0);

    gate.release_and_wait_exit();
    // 5 channels: the forward pass throws on the worker.
    scheduler.submit(make_input(6, {1, 5, 8, 8}), {}, failed.callback());
    scheduler.wait_idle();
    EXPECT_EQ(served.calls.load(), 1);
    EXPECT_TRUE(served.served);
    EXPECT_EQ(served_late.calls.load(), 1);
    EXPECT_TRUE(served_late.served);
    EXPECT_EQ(failed.calls.load(), 1);
    EXPECT_TRUE(failed.failed_with<std::runtime_error>());
  }

  // Failed at shutdown: the batch on a wedged worker is abandoned and the
  // request queued behind it is left unserved. A wait_idle() racing the
  // shutdown returns only after both callbacks ran.
  Outcome abandoned, residual;
  {
    HangOnce hang;
    SchedulerOptions options;
    options.workers = 1;
    options.max_microbatch = 1;
    options.worker_fault_hook = hang.hook();
    Scheduler scheduler(*plan, options);
    scheduler.submit(input(7), {}, abandoned.callback());
    hang.wait_hung();
    scheduler.submit(input(8), {}, residual.callback());

    std::atomic<int> calls_at_idle{-1};
    std::thread waiter([&] {
      scheduler.wait_idle();
      calls_at_idle.store(abandoned.calls.load() + residual.calls.load());
    });
    scheduler.shutdown();
    waiter.join();
    EXPECT_EQ(calls_at_idle.load(), 2);
    EXPECT_EQ(abandoned.calls.load(), 1);
    EXPECT_TRUE(abandoned.failed_with<WorkerHungError>());
    EXPECT_EQ(residual.calls.load(), 1);
    EXPECT_TRUE(residual.failed_with<WorkerHungError>());
    hang.release_and_wait_exit();
  }

  // Nothing settles twice, not even on the way out of the destructors.
  for (const Outcome* o : {&served, &queue_full, &dead, &expired,
                           &served_late, &failed, &abandoned, &residual}) {
    EXPECT_EQ(o->calls.load(), 1);
  }
}

// ------------------------------------------- weighted-fair scheduling

TEST(SchedulerWeighted, BestEffortBoundedUnderInteractiveFlood) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  SchedulerOptions options;
  options.workers = 1;
  options.max_microbatch = 1;
  options.lane_weights = {4.0, 2.0, 1.0};
  Scheduler scheduler(*plan, options);

  // Occupy the single worker, then queue an interactive flood AND two
  // best-effort requests. Under strict priority the flood would starve
  // them until it fully drains; under DWRR each best-effort request is
  // served within one rotation. Flood requests carry 4 images (~6 ms of
  // analog work each) so the backlog still holds many tens of ms of
  // work when we sample below — the assertions tolerate a heavily
  // descheduled test thread.
  auto blocker = scheduler.submit(make_blocker_input(),
                                  {Priority::kInteractive, milliseconds(0)});
  std::vector<std::shared_future<Tensor>> flood;
  for (int i = 0; i < 20; ++i) {
    flood.push_back(
        scheduler
            .submit(make_input(600 + static_cast<unsigned>(i), {4, 3, 8, 8}),
                    {Priority::kInteractive, milliseconds(0)})
            .share());
  }
  std::vector<std::shared_future<Tensor>> best_effort;
  for (int i = 0; i < 2; ++i) {
    best_effort.push_back(
        scheduler
            .submit(make_input(700 + static_cast<unsigned>(i), {1, 3, 8, 8}),
                    {Priority::kBestEffort, milliseconds(0)})
            .share());
  }

  // Weights {4, _, 1} in image units with 4-image flood requests means
  // one flood request per rotation: both best-effort singles are served
  // within the first ~3 services after the blocker, leaving >= 17 flood
  // requests (~100 ms of work) still queued when this returns.
  best_effort[1].wait();
  EXPECT_EQ(flood[19].wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "best-effort should be served while the flood is still backlogged";
  int flood_done = 0;
  for (const auto& f : flood) {
    flood_done += f.wait_for(std::chrono::seconds(0)) ==
                          std::future_status::ready
                      ? 1
                      : 0;
  }
  // ~3 flood requests precede the 2nd best-effort service; tolerate the
  // worker draining several more while this thread is descheduled.
  EXPECT_LE(flood_done, 10);

  for (auto& f : flood) (void)f.get();
  for (auto& f : best_effort) (void)f.get();
  (void)blocker.get();
  scheduler.wait_idle();
  const MetricsSnapshot snap = scheduler.metrics_snapshot();
  EXPECT_EQ(snap.served_requests, 23u);
}

TEST(SchedulerWeighted, MicrobatchOneStaysBitIdenticalToSerial) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  const int kRequests = 6;
  const std::uint64_t kSeed = 4242;
  std::vector<Tensor> inputs;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(make_input(800 + static_cast<unsigned>(i), {1, 3, 8, 8}));
  }
  std::vector<Tensor> serial_out(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ExecutionContext ctx(*plan, kSeed + static_cast<std::uint64_t>(i));
    serial_out[static_cast<std::size_t>(i)] =
        ctx.infer(inputs[static_cast<std::size_t>(i)]);
  }

  // Weighted-fair reorders SERVICE, not noise streams: admission ids
  // still pin each request's stream, so outputs stay bit-identical.
  SchedulerOptions options;
  options.workers = 2;
  options.max_microbatch = 1;
  options.noise_seed = kSeed;
  options.lane_weights = {3.0, 2.0, 1.0};
  Scheduler scheduler(*plan, options);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < kRequests; ++i) {
    SubmitOptions so;
    so.priority = static_cast<Priority>(i % kPriorityClassCount);
    futures.push_back(
        scheduler.submit(inputs[static_cast<std::size_t>(i)], so));
  }
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(bit_identical(serial_out[static_cast<std::size_t>(i)],
                              futures[static_cast<std::size_t>(i)].get()))
        << "request " << i;
  }
}

TEST(SchedulerWeighted, ReservedWorkerKeepsInteractiveHeadroom) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  SchedulerOptions options;
  options.workers = 2;
  options.max_microbatch = 1;  // keep the three blockers as three batches
  options.lane_reservations = {1, 0, 0};  // 1 interactive-only + 1 shared
  Scheduler scheduler(*plan, options);

  // Three ~50 ms batch blockers: the shared worker takes the first; the
  // reserved worker must leave the other two queued.
  std::vector<std::shared_future<Tensor>> blockers;
  for (int i = 0; i < 3; ++i) {
    blockers.push_back(scheduler
                           .submit(make_blocker_input(),
                                   {Priority::kBatch, milliseconds(0)})
                           .share());
  }
  std::this_thread::sleep_for(milliseconds(10));
  const MetricsSnapshot mid = scheduler.metrics_snapshot();
  EXPECT_EQ(
      mid.classes[static_cast<std::size_t>(Priority::kBatch)].queue_depth, 2u)
      << "reserved worker must not pick up batch-lane work";

  // Interactive arrives late yet is served immediately by the reserved
  // worker — long before the second blocker could even start.
  auto interactive = scheduler.submit(make_input(9, {1, 3, 8, 8}),
                                      {Priority::kInteractive,
                                       milliseconds(0)});
  (void)interactive.get();
  EXPECT_EQ(blockers[1].wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "interactive should complete before the queued batch work";

  for (auto& f : blockers) (void)f.get();
  scheduler.wait_idle();
  EXPECT_EQ(scheduler.metrics_snapshot().served_requests, 4u);

  // Reservations must leave a shared worker for the other lanes.
  SchedulerOptions bad;
  bad.workers = 2;
  bad.lane_reservations = {2, 0, 0};
  EXPECT_THROW((Scheduler{*plan, bad}), std::runtime_error);
}

TEST(SchedulerWeighted, SloAutoBatchingCapsLaneOccupancy) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  for (const bool tight_slo : {false, true}) {
    SchedulerOptions options;
    options.workers = 1;
    options.max_microbatch = 8;
    if (tight_slo) {
      // A 1 ns budget forces clamp(slo / est, 1, 8) = 1 once the EWMA
      // estimate exists: the batch lane stops fusing entirely.
      options.lane_slo[static_cast<std::size_t>(Priority::kBatch)] =
          std::chrono::nanoseconds(1);
    }
    Scheduler scheduler(*plan, options);
    // Warmup populates the EWMA per-image estimate the SLO cap divides.
    (void)scheduler.submit(make_input(1, {1, 3, 8, 8})).get();
    // Blocker pins the worker while six batch requests queue up.
    auto blocker = scheduler.submit(make_blocker_input(),
                                    {Priority::kInteractive,
                                     milliseconds(0)});
    std::vector<std::future<Tensor>> queued;
    for (int i = 0; i < 6; ++i) {
      queued.push_back(scheduler.submit(
          make_input(900 + static_cast<unsigned>(i), {1, 3, 8, 8})));
    }
    (void)blocker.get();
    for (auto& f : queued) (void)f.get();
    scheduler.wait_idle();

    const MetricsSnapshot snap = scheduler.metrics_snapshot();
    if (tight_slo) {
      EXPECT_EQ(snap.max_batch_occupancy, 1)
          << "SLO budget must stop micro-batch fusion";
      EXPECT_EQ(snap.batches, 8u);  // warmup + blocker + 6 singles
    } else {
      EXPECT_EQ(snap.max_batch_occupancy, 6)
          << "without an SLO the queued lane fuses into one batch";
      EXPECT_EQ(snap.batches, 3u);  // warmup + blocker + 1 fused batch
    }
  }
}

// -------------------------------------------------- telemetry surface

TEST(Scheduler, SnapshotJsonCarriesTheDocumentedSchema) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  SchedulerOptions options;
  options.workers = 2;
  Scheduler scheduler(*plan, options);
  (void)scheduler.submit(make_input(1, {2, 3, 8, 8})).get();
  scheduler.wait_idle();

  const MetricsSnapshot snap = scheduler.metrics_snapshot();
  EXPECT_EQ(snap.served_requests, 1u);
  EXPECT_EQ(snap.served_images, 2u);
  EXPECT_GT(snap.rolling_images_per_s, 0.0);
  EXPECT_DOUBLE_EQ(snap.avg_batch_occupancy, 1.0);

  const std::string json = snap.to_json();
  for (const char* key :
       {"\"uptime_s\"", "\"workers\"", "\"batches\"", "\"served_images\"",
        "\"batch_occupancy\"", "\"rolling_images_per_s\"", "\"classes\"",
        "\"interactive\"", "\"batch\"", "\"best_effort\"",
        "\"queue_wait_ms\"", "\"e2e_ms\"", "\"expired_wait_ms\"",
        "\"p50_ms\"", "\"p95_ms\"", "\"p99_ms\"", "\"queue_depth\"",
        "\"expired\"", "\"rejected\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // Balanced braces => structurally plausible JSON.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  // reset_metrics() zeroes the telemetry so a later snapshot covers
  // only post-reset traffic (benches scope out warmup this way).
  scheduler.reset_metrics();
  const MetricsSnapshot cleared = scheduler.metrics_snapshot();
  EXPECT_EQ(cleared.served_requests, 0u);
  EXPECT_EQ(cleared.batches, 0u);
  EXPECT_EQ(cleared.classes[1].submitted, 0u);
  EXPECT_EQ(cleared.classes[1].e2e.count, 0u);
  EXPECT_EQ(cleared.rolling_images_per_s, 0.0);
  (void)scheduler.submit(make_input(5, {1, 3, 8, 8})).get();
  scheduler.wait_idle();
  EXPECT_EQ(scheduler.metrics_snapshot().served_requests, 1u);
}

TEST(Prometheus, LabelEscaping) {
  EXPECT_EQ(prometheus_escape_label("interactive"), "interactive");
  EXPECT_EQ(prometheus_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(prometheus_escape_label(""), "");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(json_escape("x\x01y\x1f"), "x\\u0001y\\u001f");
  // Bytes >= 0x80 (UTF-8 sequences) pass through unchanged.
  EXPECT_EQ(json_escape("\xc3\xa9\xff"), "\xc3\xa9\xff");
}

TEST(Prometheus, ExpositionParsesAndBucketsAreMonotone) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  // Holds the interactive blocker's batch on the only worker until the
  // best-effort victim's deadline has passed in queue — independent of
  // how fast the analog MVM runs.
  HangOnce gate(/*start_armed=*/false);
  SchedulerOptions options;
  options.workers = 1;
  options.max_microbatch = 4;
  options.worker_fault_hook = gate.hook();
  Scheduler scheduler(*plan, options);

  // Serve work on two lanes and expire a queued request so the served,
  // expired AND histogram families all carry non-zero samples.
  (void)scheduler.submit(make_input(1, {1, 3, 8, 8})).get();
  gate.arm();
  auto blocker = scheduler.submit(make_blocker_input(),
                                  {Priority::kInteractive, milliseconds(0)});
  gate.wait_hung();  // the blocker occupies the worker
  // The victim's deadline must clear the admission feasibility check
  // (rolling per-image estimate, a few ms — more under sanitizers) yet
  // die while the blocker holds the worker, so it expires IN QUEUE
  // rather than being rejected up front.
  auto victim = scheduler.submit(make_input(2, {1, 3, 8, 8}),
                                 {Priority::kBestEffort, milliseconds(25)});
  std::this_thread::sleep_for(milliseconds(50));
  gate.release_and_wait_exit();
  EXPECT_THROW((void)victim.get(), DeadlineExpiredError);
  (void)blocker.get();
  scheduler.wait_idle();

  const std::string text = scheduler.to_prometheus();

  // Every non-comment line must be `name[{labels}] value` with a
  // parseable value; comment lines must be # HELP / # TYPE.
  std::map<std::string, std::vector<std::uint64_t>> bucket_series;
  std::map<std::string, std::uint64_t> count_series;
  std::istringstream lines(text);
  std::string line;
  int samples = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    EXPECT_TRUE(end && *end == '\0') << "unparseable value in: " << line;
    EXPECT_GE(v, 0.0) << line;
    ++samples;

    // Collect histogram series keyed by family+lane, in emission order.
    const auto brace = series.find('{');
    const std::string name =
        brace == std::string::npos ? series : series.substr(0, brace);
    const auto lane_pos = series.find("lane=\"");
    std::string lane;
    if (lane_pos != std::string::npos) {
      lane = series.substr(lane_pos + 6,
                           series.find('"', lane_pos + 6) - lane_pos - 6);
    }
    if (name.size() > 7 && name.rfind("_bucket") == name.size() - 7) {
      bucket_series[name.substr(0, name.size() - 7) + "/" + lane].push_back(
          static_cast<std::uint64_t>(v));
    } else if (name.size() > 6 && name.rfind("_count") == name.size() - 6) {
      count_series[name.substr(0, name.size() - 6) + "/" + lane] =
          static_cast<std::uint64_t>(v);
    }
  }
  EXPECT_GT(samples, 50);

  // Cumulative bucket counts must be monotone and end at _count (+Inf).
  ASSERT_EQ(bucket_series.size(), 9u);  // 3 histogram families x 3 lanes
  for (const auto& [key, buckets] : bucket_series) {
    ASSERT_FALSE(buckets.empty()) << key;
    for (std::size_t i = 1; i < buckets.size(); ++i) {
      EXPECT_LE(buckets[i - 1], buckets[i]) << key << " bucket " << i;
    }
    ASSERT_TRUE(count_series.count(key)) << key;
    EXPECT_EQ(buckets.back(), count_series[key]) << key;
  }

  // Served and expired traffic from this run is visible.
  EXPECT_NE(text.find("yoloc_serve_requests_served_total{lane=\"batch\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("yoloc_serve_requests_expired_total{lane=\"best_effort\"} 1"),
      std::string::npos);
  const std::string be_e2e_count =
      "yoloc_serve_e2e_latency_seconds_count{lane=\"best_effort\"} 0";
  EXPECT_NE(text.find(be_e2e_count), std::string::npos)
      << "expired work must not pollute served-latency histograms";
  EXPECT_NE(
      text.find("yoloc_serve_expired_wait_seconds_count{lane=\"best_effort\"} "
                "1"),
      std::string::npos);
}

TEST(Prometheus, ConcurrentScrapesUnderTrafficStayWellFormed) {
  // The /metrics endpoint scrapes a LIVE scheduler: exposition must be
  // readable from many threads while workers are mutating the
  // registries. Every scrape has to parse, and every histogram in every
  // scrape must be internally consistent (monotone cumulative buckets
  // capped by its _count) — a torn read would break one of the two.
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  SchedulerOptions options;
  options.workers = 2;
  options.max_microbatch = 2;
  Scheduler scheduler(*plan, options);

  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    std::uint64_t seed = 1;
    while (!stop.load(std::memory_order_acquire)) {
      SubmitOptions so;
      so.priority = static_cast<Priority>(seed % kPriorityClassCount);
      (void)scheduler.submit(make_input(seed++, {1, 3, 8, 8}), so).get();
    }
  });

  constexpr int kScrapers = 4;
  constexpr int kScrapesEach = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([&] {
      for (int i = 0; i < kScrapesEach; ++i) {
        const std::string text = scheduler.to_prometheus();
        // Parse: lines are comments or `series value`; group histogram
        // bucket series per family+lane in emission order.
        std::map<std::string, std::vector<double>> buckets;
        std::map<std::string, double> counts;
        std::istringstream lines(text);
        std::string line;
        bool parsed = true;
        while (std::getline(lines, line)) {
          if (line.empty() || line[0] == '#') continue;
          const auto space = line.rfind(' ');
          char* end = nullptr;
          const double v =
              std::strtod(line.c_str() + space + 1, &end);
          if (space == std::string::npos || end == nullptr || *end != '\0' ||
              v < 0.0) {
            parsed = false;
            break;
          }
          const std::string series = line.substr(0, space);
          const auto brace = series.find('{');
          const std::string name =
              brace == std::string::npos ? series : series.substr(0, brace);
          const auto lane_pos = series.find("lane=\"");
          const std::string lane =
              lane_pos == std::string::npos
                  ? std::string{}
                  : series.substr(
                        lane_pos + 6,
                        series.find('"', lane_pos + 6) - lane_pos - 6);
          if (name.size() > 7 && name.rfind("_bucket") == name.size() - 7) {
            buckets[name.substr(0, name.size() - 7) + "/" + lane].push_back(
                v);
          } else if (name.size() > 6 &&
                     name.rfind("_count") == name.size() - 6) {
            counts[name.substr(0, name.size() - 6) + "/" + lane] = v;
          }
        }
        if (!parsed || buckets.empty()) {
          failures.fetch_add(1);
          continue;
        }
        for (const auto& [key, series] : buckets) {
          for (std::size_t b = 1; b < series.size(); ++b) {
            if (series[b - 1] > series[b]) failures.fetch_add(1);
          }
          // Cumulative +Inf bucket equals the family count.
          const auto count = counts.find(key);
          if (count == counts.end() || series.back() != count->second) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : scrapers) t.join();
  stop.store(true, std::memory_order_release);
  traffic.join();
  scheduler.wait_idle();

  EXPECT_EQ(failures.load(), 0);
  // The run did both things at once: traffic flowed AND scrapes read it.
  EXPECT_GT(scheduler.metrics_snapshot().served_requests, 0u);
}

}  // namespace
}  // namespace yoloc

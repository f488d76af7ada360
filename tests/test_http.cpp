// HTTP front-end (src/serve/http_server.*, http_client.*): loopback
// round trips for every endpoint, the admission-control status mapping
// (queue-full 429, dead/infeasible deadline 503 + Retry-After),
// connection hygiene negatives (malformed request lines, bad versions,
// oversized headers/bodies, slow-loris read timeouts), graceful drain
// (in-flight requests finish, new connections are refused), and the
// determinism contract carried across the wire: an /infer response is
// bit-identical to a direct ExecutionContext run with the same
// admission-id-derived seed.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/base64.hpp"
#include "hang_once.hpp"
#include "macro/packed_kernels.hpp"
#include "nn/activations.hpp"
#include "nn/container.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/plan_serde.hpp"
#include "serve/http_client.hpp"
#include "serve/http_server.hpp"
#include "tensor/ops.hpp"

namespace yoloc {
namespace {

using std::chrono::milliseconds;
using testing_support::HangOnce;

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

std::string infer_body(const Tensor& t, const std::string& priority = {},
                       double deadline_ms = 0.0) {
  std::string body = "{\"shape\":[";
  for (std::size_t i = 0; i < t.shape().size(); ++i) {
    if (i != 0) body += ',';
    body += std::to_string(t.shape()[i]);
  }
  body += "]";
  if (!priority.empty()) body += ",\"priority\":\"" + priority + "\"";
  if (deadline_ms != 0.0) {
    body += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  }
  body +=
      ",\"data_b64\":\"" + base64_encode(t.data(), t.size() * sizeof(float)) +
      "\"}";
  return body;
}

std::string json_str_field(const std::string& body, const std::string& key) {
  const std::string pattern = "\"" + key + "\":\"";
  const std::size_t pos = body.find(pattern);
  if (pos == std::string::npos) return {};
  const std::size_t start = pos + pattern.size();
  return body.substr(start, body.find('"', start) - start);
}

/// Decode an /infer 200 response back into a Tensor.
Tensor tensor_from_response(const std::string& body) {
  const std::string marker = "\"shape\":[";
  const std::size_t pos = body.find(marker);
  EXPECT_NE(pos, std::string::npos) << body;
  std::vector<int> shape;
  std::size_t cursor = pos + marker.size();
  while (cursor < body.size() && body[cursor] != ']') {
    shape.push_back(std::atoi(body.c_str() + cursor));
    cursor = body.find_first_of(",]", cursor);
    if (body[cursor] == ',') ++cursor;
  }
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(base64_decode(json_str_field(body, "data_b64"), bytes));
  Tensor t(shape);
  EXPECT_EQ(bytes.size(), t.size() * sizeof(float));
  std::memcpy(t.data(), bytes.data(), bytes.size());
  return t;
}

/// A loopback TCP socket connected to `port`. A 3 s receive timeout
/// turns a hung server into a test failure, not a hung suite.
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{3, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void send_all(int fd, const std::string& wire) {
  EXPECT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
}

/// Append received bytes to `response` until it contains `until`, or
/// (empty `until`) until the server closes.
void recv_into(int fd, std::string& response, const std::string& until = {}) {
  char buf[4096];
  while (until.empty() || response.find(until) == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
}

/// Raw-socket exchange: send `wire` verbatim, read until the server
/// closes (every negative below sets Connection: close).
std::string raw_exchange(int port, const std::string& wire) {
  const int fd = connect_loopback(port);
  send_all(fd, wire);
  std::string response;
  recv_into(fd, response);
  ::close(fd);
  return response;
}

int status_of(const std::string& raw) {
  return raw.rfind("HTTP/1.1 ", 0) == 0 ? std::atoi(raw.c_str() + 9) : -1;
}

// ---------------------------------------------------------- endpoints

TEST(HttpEndpoints, AllFourRoundTripOverLoopback) {
  // Serve from a saved artifact so GET /plan has a section table to
  // report (the path-less constructor is exercised elsewhere).
  const std::string plan_path =
      (std::filesystem::temp_directory_path() /
       ("test_http." + std::to_string(::getpid()) + kPlanFileExtension))
          .string();
  {
    auto built = make_plan(MacroMvmEngine::Mode::kAnalog);
    save_plan(*built, plan_path);
  }
  auto plan = load_plan(plan_path);
  SchedulerOptions sched;
  sched.workers = 2;
  Scheduler scheduler(*plan, sched);
  HttpServer server(scheduler, *plan, {}, plan_path);
  ASSERT_GT(server.port(), 0);
  HttpClient client("127.0.0.1", server.port());

  // /healthz: ready (plan loaded, workers up).
  HttpResponse health = client.get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("\"workers\":2"), std::string::npos);

  // /plan: options summary + section table with CRC verdicts.
  HttpResponse plan_resp = client.get("/plan");
  EXPECT_EQ(plan_resp.status, 200);
  EXPECT_EQ(plan_resp.headers["content-type"], "application/json");
  EXPECT_NE(plan_resp.body.find("\"name\":\"OPTIONS\""), std::string::npos);
  EXPECT_NE(plan_resp.body.find("\"name\":\"GRAPH\""), std::string::npos);
  EXPECT_NE(plan_resp.body.find("\"crc_ok\":true"), std::string::npos);
  EXPECT_EQ(plan_resp.body.find("\"crc_ok\":false"), std::string::npos);
  EXPECT_NE(plan_resp.body.find(
                "\"quantized_layers\":" +
                std::to_string(plan->quantized_layer_count())),
            std::string::npos);
  EXPECT_NE(plan_resp.body.find("\"packed_weight_bytes\":" +
                                std::to_string(plan->packed_weight_bytes())),
            std::string::npos);
  EXPECT_NE(plan_resp.body.find(
                std::string("\"kernels\":{\"popcount\":\"") +
                detail::packed_kernels().popcount + "\",\"chain\":\"" +
                detail::packed_kernels().chain + "\",\"gemm\":\"" +
                detail::exact_tile_kernels().gemm + "\"}"),
            std::string::npos);

  // /metrics: Prometheus exposition straight off the live scheduler.
  HttpResponse metrics = client.get("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.headers["content-type"].find("text/plain"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE yoloc_serve_requests_served_total"),
            std::string::npos);

  // /infer: one request through the full stack.
  HttpResponse infer =
      client.post("/infer", infer_body(make_input(5, {1, 3, 8, 8})));
  ASSERT_EQ(infer.status, 200);
  EXPECT_NE(infer.body.find("\"latency_ms\":"), std::string::npos);
  const Tensor logits = tensor_from_response(infer.body);
  EXPECT_EQ(logits.shape(), (std::vector<int>{1, 5}));

  // The /metrics view must reflect the served request (accounting
  // settles asynchronously after the future resolves; wait_idle pins
  // it).
  scheduler.wait_idle();
  EXPECT_NE(client.get("/metrics").body.find(
                "yoloc_serve_requests_served_total{lane=\"batch\"} 1"),
            std::string::npos);

  // Keep-alive: the whole conversation above rode ONE connection.
  EXPECT_EQ(server.stats().connections_accepted, 1u);

  // Routing negatives: unknown path and wrong methods.
  EXPECT_EQ(client.get("/nope").status, 404);
  EXPECT_EQ(client.post("/healthz", "{}").status, 405);
  EXPECT_EQ(client.request("PUT", "/infer", "{}").status, 405);

  std::filesystem::remove(plan_path);
}

// -------------------------------------------- determinism across wire

TEST(HttpInfer, BitIdenticalToDirectExecutionAcrossBothEncodings) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  constexpr std::uint64_t kSeed = 777;
  constexpr int kRequests = 6;

  // Serial reference: request i (admission id i) must execute with the
  // noise stream seeded kSeed + i — the scheduler determinism contract,
  // now carried through HTTP parse -> base64 -> submit -> base64.
  std::vector<Tensor> inputs, reference;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(make_input(100 + static_cast<unsigned>(i), {1, 3, 8, 8}));
    ExecutionContext ctx(*plan, kSeed + static_cast<std::uint64_t>(i));
    reference.push_back(ctx.infer(inputs.back()));
  }

  SchedulerOptions sched;
  sched.workers = 2;
  sched.max_microbatch = 1;  // deterministic mode
  sched.noise_seed = kSeed;
  Scheduler scheduler(*plan, sched);
  HttpServer server(scheduler, *plan);
  HttpClient client("127.0.0.1", server.port());

  const char* kPriorities[] = {"interactive", "batch", "best_effort"};
  for (int i = 0; i < kRequests; ++i) {
    const Tensor& input = inputs[static_cast<std::size_t>(i)];
    HttpResponse resp;
    if (i % 2 == 0) {
      resp = client.post("/infer", infer_body(input, kPriorities[i % 3]));
    } else {
      // Raw little-endian f32 body; geometry and scheduling hints ride
      // the query string.
      std::string raw(reinterpret_cast<const char*>(input.data()),
                      input.size() * sizeof(float));
      resp = client.request(
          "POST",
          std::string("/infer?shape=1,3,8,8&priority=") + kPriorities[i % 3],
          raw, {{"Content-Type", "application/octet-stream"}});
    }
    ASSERT_EQ(resp.status, 200) << "request " << i << ": " << resp.body;
    EXPECT_TRUE(bit_identical(reference[static_cast<std::size_t>(i)],
                              tensor_from_response(resp.body)))
        << "request " << i;
  }
}

TEST(HttpInfer, ExecutionFailureAnswers500WithoutInternals) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  SchedulerOptions sched;
  sched.workers = 1;
  Scheduler scheduler(*plan, sched);
  HttpServer server(scheduler, *plan);
  HttpClient client("127.0.0.1", server.port());

  // A well-formed tensor the model cannot take (5 channels, not 3) fails
  // a library check inside the forward pass. The client learns that it
  // failed, not the check expression or the source path behind it.
  const auto expect_opaque_500 = [](const HttpResponse& resp) {
    EXPECT_EQ(resp.status, 500) << resp.body;
    EXPECT_NE(resp.body.find("\"kind\":\"execution\""), std::string::npos)
        << resp.body;
    EXPECT_EQ(resp.body.find("YOLOC_CHECK"), std::string::npos) << resp.body;
    EXPECT_EQ(resp.body.find("src/"), std::string::npos) << resp.body;
  };
  expect_opaque_500(
      client.post("/infer", infer_body(make_input(12, {1, 5, 8, 8}))));
  EXPECT_EQ(
      client.post("/infer", infer_body(make_input(13, {1, 3, 8, 8}))).status,
      200);

  // submit() throwing on the loop thread (here: after the scheduler shut
  // down) maps to the same response instead of escaping the loop.
  scheduler.shutdown();
  expect_opaque_500(
      client.post("/infer", infer_body(make_input(14, {1, 3, 8, 8}))));
  EXPECT_EQ(client.get("/metrics").status, 200);
}

// ------------------------------------------- admission status mapping

TEST(HttpAdmission, QueueFullMapsTo429WithRetryAfter) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  HangOnce gate;  // holds the first blocker's batch on the worker
  SchedulerOptions sched;
  sched.workers = 1;
  sched.max_queue_depth = 1;
  sched.worker_fault_hook = gate.hook();
  Scheduler scheduler(*plan, sched);
  HttpServer server(scheduler, *plan);

  // Occupy the single worker directly for the full sequence below: the
  // first interactive blocker is held inside the test hook (so the
  // outcome does not depend on how long an inference takes) and is
  // picked up before the second is submitted, so the second sits in the
  // interactive QUEUE (strict weights outrank the batch lane) — the
  // depth cap is per lane, so the batch lane still has its own 1-slot
  // budget.
  auto blocker = scheduler.submit(make_input(7, {128, 3, 8, 8}),
                                  {Priority::kInteractive, milliseconds(0)});
  gate.wait_hung();  // worker picked the blocker up
  auto blocker2 = scheduler.submit(make_input(6, {128, 3, 8, 8}),
                                   {Priority::kInteractive, milliseconds(0)});

  // This one is admitted into the batch lane (depth 1/1) and parks.
  auto queued = std::async(std::launch::async, [&] {
    HttpClient c("127.0.0.1", server.port(), milliseconds(30000));
    return c.post("/infer", infer_body(make_input(8, {1, 3, 8, 8}), "batch"));
  });
  std::this_thread::sleep_for(milliseconds(150));  // admitted before overflow

  HttpClient client("127.0.0.1", server.port());
  HttpResponse overflow =
      client.post("/infer", infer_body(make_input(9, {1, 3, 8, 8}), "batch"));
  EXPECT_EQ(overflow.status, 429) << overflow.body;
  EXPECT_NE(overflow.body.find("\"kind\":\"queue_full\""), std::string::npos);
  EXPECT_FALSE(overflow.headers["retry-after"].empty());

  gate.release_and_wait_exit();
  (void)blocker.get();
  (void)blocker2.get();
  EXPECT_EQ(queued.get().status, 200);
  EXPECT_GE(server.stats().responses_4xx, 1u);
}

TEST(HttpAdmission, DeadDeadlineMapsTo503WithRetryAfter) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  SchedulerOptions sched;
  sched.workers = 1;
  Scheduler scheduler(*plan, sched);
  HttpServer server(scheduler, *plan);
  HttpClient client("127.0.0.1", server.port());

  // A deadline that has already elapsed at submission is refused at
  // admission — the canonical "cannot be served in time" 503.
  HttpResponse dead = client.post(
      "/infer", infer_body(make_input(3, {1, 3, 8, 8}), "interactive", -5.0));
  EXPECT_EQ(dead.status, 503) << dead.body;
  EXPECT_FALSE(dead.headers["retry-after"].empty());
  EXPECT_NE(dead.body.find("deadline"), std::string::npos);

  // Warm the rolling per-image estimate, then ask for far less than one
  // image's service time: refused as infeasible (also 503).
  ASSERT_EQ(
      client.post("/infer", infer_body(make_input(4, {1, 3, 8, 8}))).status,
      200);
  HttpResponse infeasible = client.post(
      "/infer",
      infer_body(make_input(5, {1, 3, 8, 8}), "interactive", 0.0001));
  EXPECT_EQ(infeasible.status, 503) << infeasible.body;
  EXPECT_FALSE(infeasible.headers["retry-after"].empty());

  // The server survives all of it: healthy and still serving.
  EXPECT_EQ(client.get("/healthz").status, 200);
}

TEST(HttpAdmission, LanesApplyToRequestsInFlightOverTheWire) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  HangOnce gate;  // holds the first batch request on the only worker
  const auto hold = gate.hook();
  // Interactive requests served so far, sampled as each batch is picked.
  std::mutex picks_mutex;
  std::vector<std::uint64_t> interactive_served_at_pick;
  const Scheduler* observed = nullptr;
  SchedulerOptions sched;
  sched.workers = 1;
  sched.max_microbatch = 1;
  sched.worker_fault_hook = [&](int worker) {
    const std::uint64_t served =
        observed->metrics_snapshot()
            .classes[static_cast<std::size_t>(Priority::kInteractive)]
            .served_requests;
    {
      std::lock_guard lock(picks_mutex);
      interactive_served_at_pick.push_back(served);
    }
    hold(worker);
  };
  Scheduler scheduler(*plan, sched);
  observed = &scheduler;  // before any submit, so before any pick
  HttpServer server(scheduler, *plan);

  const auto post = [&](unsigned seed, const char* priority) {
    return std::async(std::launch::async, [&, seed, priority] {
      HttpClient c("127.0.0.1", server.port(), milliseconds(30000));
      return c.post("/infer",
                    infer_body(make_input(seed, {1, 3, 8, 8}), priority));
    });
  };
  const auto wait_received = [&](std::uint64_t n) {
    for (int spin = 0; spin < 500 && server.stats().requests < n; ++spin) {
      std::this_thread::sleep_for(milliseconds(5));
    }
    ASSERT_EQ(server.stats().requests, n);
  };

  // Five batch requests on five connections — the first one held on the
  // worker, four queued — then one interactive request.
  std::vector<std::future<HttpResponse>> responses;
  responses.push_back(post(90, "batch"));
  gate.wait_hung();
  for (unsigned i = 1; i < 5; ++i) responses.push_back(post(90 + i, "batch"));
  wait_received(5);
  responses.push_back(post(99, "interactive"));
  wait_received(6);

  // Parsed means submitted: the interactive request is in the
  // scheduler's lanes (admission, deadline, /metrics) while the worker
  // is still held, not parked in front of them.
  const auto lane = [&](Priority p) {
    return scheduler.metrics_snapshot()
        .classes[static_cast<std::size_t>(p)];
  };
  for (int spin = 0;
       spin < 400 && lane(Priority::kInteractive).submitted < 1; ++spin) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_EQ(lane(Priority::kInteractive).submitted, 1u);
  EXPECT_EQ(lane(Priority::kBatch).submitted, 5u);

  gate.release_and_wait_exit();
  for (auto& f : responses) EXPECT_EQ(f.get().status, 200);
  scheduler.wait_idle();

  // Picks: the held batch, then the interactive request, then the four
  // queued batch requests — so from the third pick on, the interactive
  // one has been served.
  std::lock_guard lock(picks_mutex);
  ASSERT_EQ(interactive_served_at_pick.size(), 6u);
  EXPECT_EQ(interactive_served_at_pick[1], 0u);
  EXPECT_EQ(interactive_served_at_pick[2], 1u);
}

// -------------------------------------------------- connection hygiene

TEST(HttpHygiene, MalformedRequestsAreRejectedWithoutCrashing) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  SchedulerOptions sched;
  sched.workers = 1;
  Scheduler scheduler(*plan, sched);
  HttpServerOptions options;
  options.max_header_bytes = 512;
  options.max_body_bytes = 1024;
  HttpServer server(scheduler, *plan, options);
  const int port = server.port();

  // Garbage request line.
  EXPECT_EQ(status_of(raw_exchange(port, "GARBAGE\r\n\r\n")), 400);
  // Unsupported HTTP version.
  EXPECT_EQ(status_of(raw_exchange(port, "GET /healthz HTTP/9.9\r\n\r\n")),
            400);
  // Malformed header line (no colon).
  EXPECT_EQ(status_of(raw_exchange(
                port, "GET /healthz HTTP/1.1\r\nbroken header\r\n\r\n")),
            400);
  // Non-numeric Content-Length.
  EXPECT_EQ(status_of(raw_exchange(
                port,
                "POST /infer HTTP/1.1\r\nContent-Length: banana\r\n\r\n")),
            400);
  // Chunked transfer encoding is not implemented, and says so.
  EXPECT_EQ(
      status_of(raw_exchange(
          port,
          "POST /infer HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")),
      501);
  // Declared body over the cap is refused from the header alone.
  EXPECT_EQ(status_of(raw_exchange(
                port, "POST /infer HTTP/1.1\r\nContent-Length: 4096\r\n\r\n")),
            413);
  // Header block over the cap.
  EXPECT_EQ(status_of(raw_exchange(
                port, "GET /healthz HTTP/1.1\r\nX-Pad: " +
                          std::string(1024, 'x') + "\r\n\r\n")),
            431);
  // Valid JSON, invalid tensor: shape/payload mismatch.
  EXPECT_EQ(
      status_of(raw_exchange(
          port,
          "POST /infer HTTP/1.1\r\nContent-Length: 37\r\n"
          "Connection: close\r\n\r\n"
          "{\"shape\":[1,3,8,8],\"data_b64\":\"AAAA\"}")),
      400);
  // Conflicting duplicates of a singleton header are a request-smuggling
  // vector behind a proxy that honors the other copy: rejected outright.
  EXPECT_EQ(status_of(raw_exchange(
                port,
                "POST /infer HTTP/1.1\r\nContent-Length: 2\r\n"
                "Content-Length: 0\r\n\r\n{}")),
            400);

  HttpClient client("127.0.0.1", port);
  // JSON /infer bodies: each is answered with `status`, and the response
  // body contains `says`. The string edge cases pin the parser's
  // run-at-once copy: escapes at a string's start or end, control bytes
  // inside a run, and \u escapes between plain runs.
  // 4x4 images keep every body under this server's 1 KiB cap.
  const Tensor image = make_input(12, {1, 3, 4, 4});
  const std::string data = base64_encode(image.data(),
                                         image.size() * sizeof(float));
  const auto u_escape = [](char ch) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(ch));
    return std::string(buf);
  };
  const std::string shape = R"("shape":[1,3,4,4])";
  const std::string not_json = "body is not a JSON object";
  const std::string bad_priority = "priority must be";
  struct BodyCase {
    const char* what;
    std::string body;
    int status;
    std::string says;
  };
  const BodyCase cases[] = {
      {"bad base64",
       R"({"shape":[1,1,1,1],"data_b64":"!!!not-base64!!!"})", 400,
       "not valid base64"},
      {"unknown priority",
       R"({"shape":[1,1,1,1],"data_b64":"AAAAAA==","priority":"vip"})", 400,
       bad_priority},
      // A shape whose element product wraps a 64-bit size_t back to 0
      // (the extents pass the per-extent cap; 3 * 2^64 ≡ 0) paired with
      // an empty payload: rejected, not allocated tiny and indexed huge.
      {"size_t-wrapping shape",
       R"({"shape":[4194304,3,2097152,2097152],"data_b64":""})", 400,
       "elements"},
      // deadline_ms outside int64 nanoseconds range: 400, not UB at the
      // cast.
      {"deadline out of range",
       R"({"shape":[1,1,1,1],"data_b64":"AAAAAA==","deadline_ms":1e308})",
       400, "out of range"},
      // JSON number overflow (strtod -> inf) must fail the parse.
      {"number overflow",
       R"({"shape":[1,1,1,1],"data_b64":"AAAAAA==","deadline_ms":1e999})",
       400, not_json},
      {"escapes at a string's start and end",
       "{" + shape + R"(,"priority":"\u0062atc\u0068","data_b64":")" + data +
           "\"}",
       200, "\"latency_ms\":"},
      {"escapes at both ends of a long run",
       "{" + shape + R"(,"data_b64":")" + u_escape(data.front()) +
           data.substr(1, data.size() - 2) + u_escape(data.back()) + "\"}",
       200, "\"latency_ms\":"},
      {"\\u escape between plain runs of a key",
       R"({"sh\u0061pe":[1,3,4,4],"data_b64":")" + data + "\"}", 200,
       "\"latency_ms\":"},
      {"escaped backslash right before the closing quote",
       "{" + shape + R"(,"priority":"batch\\","data_b64":")" + data + "\"}",
       400, bad_priority},
      {"escaped quote at a string's start",
       "{" + shape + R"(,"priority":"\"batch","data_b64":")" + data + "\"}",
       400, bad_priority},
      {"raw control byte inside a short run",
       "{" + shape + ",\"priority\":\"bat\x01" "ch\",\"data_b64\":\"" +
           data + "\"}",
       400, not_json},
      {"raw control byte inside a long run",
       "{" + shape + R"(,"data_b64":")" + data.substr(0, 100) + "\t" +
           data.substr(100) + "\"}",
       400, not_json},
      {"unpaired surrogate escape",
       "{" + shape + R"(,"priority":"\ud800batch","data_b64":")" + data +
           "\"}",
       400, not_json},
      {"body ends inside an escape", "{" + shape + R"(,"data_b64":"AAAA\)",
       400, not_json},
  };
  for (const BodyCase& c : cases) {
    const HttpResponse resp = client.post("/infer", c.body);
    EXPECT_EQ(resp.status, c.status) << c.what << ": " << resp.body;
    EXPECT_NE(resp.body.find(c.says), std::string::npos)
        << c.what << ": " << resp.body;
  }
  // Same overflow via the octet-stream query string.
  HttpResponse inf_q = client.request(
      "POST", "/infer?shape=1,1,1,1&deadline_ms=1e999", std::string(4, '\0'),
      {{"Content-Type", "application/octet-stream"}});
  EXPECT_EQ(inf_q.status, 400) << inf_q.body;

  // After all that abuse the server still serves real traffic, and the
  // only 5xx it ever sent was the deliberate 501 above — nothing
  // crashed into a 500.
  EXPECT_EQ(client.get("/healthz").status, 200);
  EXPECT_EQ(server.stats().responses_5xx, 1u);
}

TEST(HttpHygiene, SlowLorisReaderTimesOutWith408) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  SchedulerOptions sched;
  sched.workers = 1;
  Scheduler scheduler(*plan, sched);
  HttpServerOptions options;
  options.read_timeout = milliseconds(150);
  HttpServer server(scheduler, *plan, options);

  // Send a request prefix, then stall: the read deadline must fire, the
  // server must answer 408 and close (raw_exchange reads until close).
  const auto start = std::chrono::steady_clock::now();
  const std::string raw =
      raw_exchange(server.port(), "POST /infer HTTP/1.1\r\nContent-Le");
  EXPECT_EQ(status_of(raw), 408) << raw;
  // ...and it fired on the configured clock, not the 3 s socket guard.
  EXPECT_LT(std::chrono::steady_clock::now() - start, milliseconds(2500));
  EXPECT_GE(server.stats().read_timeouts, 1u);

  // An idle connection past the deadline is closed silently (no 408).
  EXPECT_TRUE(raw_exchange(server.port(), "").empty());
}

TEST(HttpHygiene, PipelinedBurstIsServedWithBoundedStack) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  SchedulerOptions sched;
  sched.workers = 1;
  Scheduler scheduler(*plan, sched);
  HttpServer server(scheduler, *plan);

  // Hundreds of tiny requests in one write. The respond/parse cycle is
  // driven by a loop (not queue_response -> on_writable recursion), so
  // the burst costs O(1) event-loop stack and every request is answered
  // in order on the one connection.
  constexpr int kBurst = 500;
  std::string wire;
  for (int i = 0; i < kBurst - 1; ++i) wire += "GET /healthz HTTP/1.1\r\n\r\n";
  wire += "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
  const std::string raw = raw_exchange(server.port(), wire);
  std::size_t answered = 0;
  for (std::size_t pos = raw.find("HTTP/1.1 200"); pos != std::string::npos;
       pos = raw.find("HTTP/1.1 200", pos + 1)) {
    ++answered;
  }
  EXPECT_EQ(answered, static_cast<std::size_t>(kBurst));
  EXPECT_EQ(server.stats().connections_accepted, 1u);

  // A request pipelined behind an /infer body gets no socket event of
  // its own — the completion path must re-pump the parser after queueing
  // the inference response.
  const std::string body = infer_body(make_input(11, {1, 3, 8, 8}));
  const std::string mixed = raw_exchange(
      server.port(),
      "POST /infer HTTP/1.1\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body +
          "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  std::size_t mixed_answered = 0;
  for (std::size_t pos = mixed.find("HTTP/1.1 200"); pos != std::string::npos;
       pos = mixed.find("HTTP/1.1 200", pos + 1)) {
    ++mixed_answered;
  }
  EXPECT_EQ(mixed_answered, 2u) << mixed.substr(0, 200);
  EXPECT_NE(mixed.find("\"latency_ms\":"), std::string::npos);
}

// ------------------------------------------------------ graceful drain

TEST(HttpDrain, FinishesInFlightThenRefusesNewConnections) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  SchedulerOptions sched;
  sched.workers = 1;
  sched.max_microbatch = 1;
  Scheduler scheduler(*plan, sched);
  auto server = std::make_unique<HttpServer>(scheduler, *plan);
  const int port = server->port();

  // Several requests across lanes, enough work that some are still
  // queued when the drain starts.
  constexpr int kInFlight = 4;
  const char* kPriorities[] = {"interactive", "batch", "best_effort",
                               "batch"};
  std::vector<std::future<HttpResponse>> responses;
  for (int i = 0; i < kInFlight; ++i) {
    responses.push_back(std::async(std::launch::async, [&, i] {
      HttpClient c("127.0.0.1", port, milliseconds(30000));
      return c.post("/infer",
                    infer_body(make_input(static_cast<unsigned>(40 + i),
                                          {2, 3, 8, 8}),
                               kPriorities[i]));
    }));
  }
  // Wait until the server has received all of them (each is queued in
  // the scheduler or executing).
  for (int spin = 0; spin < 200 && server->stats().requests <
                                       static_cast<std::uint64_t>(kInFlight);
       ++spin) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  ASSERT_EQ(server->stats().requests, static_cast<std::uint64_t>(kInFlight));

  server->drain();
  EXPECT_TRUE(server->draining());

  // Every request received before the drain completed with a real
  // response — none dropped, none errored.
  for (auto& f : responses) {
    EXPECT_EQ(f.get().status, 200);
  }
  EXPECT_EQ(server->stats().responses_2xx,
            static_cast<std::uint64_t>(kInFlight));

  // New connections are refused at the socket.
  HttpClient late("127.0.0.1", port, milliseconds(500));
  EXPECT_THROW((void)late.get("/healthz"), std::runtime_error);

  server.reset();  // double-drain via destructor must be a no-op
  scheduler.wait_idle();
}

// ------------------------------------------------------------ readiness

TEST(HttpHealth, UnavailableOnceTheSchedulerShutsDown) {
  // /healthz reads the scheduler's own accepting() fact: after
  // shutdown() every /infer would fail, so readiness must say so too.
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  SchedulerOptions sched;
  sched.workers = 1;
  Scheduler scheduler(*plan, sched);
  HttpServer server(scheduler, *plan);
  HttpClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.get("/healthz").status, 200);

  scheduler.shutdown();
  const HttpResponse health = client.get("/healthz");
  EXPECT_EQ(health.status, 503);
  EXPECT_EQ(health.body, "{\"status\":\"unavailable\"}");
  EXPECT_EQ(client.get("/metrics").status, 200);
}

TEST(HttpHealth, DrainingWhileARequestIsStillArriving) {
  // The second request's head is half read when the drain begins, so the
  // connection stays open; once it completes it answers 503 draining.
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  SchedulerOptions sched;
  sched.workers = 1;
  Scheduler scheduler(*plan, sched);
  HttpServer server(scheduler, *plan);

  const int fd = connect_loopback(server.port());
  // One send: the loop reads both pieces before it parses the first.
  send_all(fd, "GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n");
  std::string wire;
  recv_into(fd, wire, "\"workers\":1}");
  EXPECT_EQ(status_of(wire), 200) << wire;

  auto drained = std::async(std::launch::async, [&] { server.drain(); });
  while (!server.draining()) std::this_thread::sleep_for(milliseconds(1));
  send_all(fd, "\r\n");
  wire.clear();
  recv_into(fd, wire);
  ::close(fd);
  drained.get();
  EXPECT_EQ(status_of(wire), 503) << wire;
  EXPECT_NE(wire.find("{\"status\":\"draining\"}"), std::string::npos)
      << wire;
}

// ------------------------------------- resilience over the wire

TEST(HttpResilience, HungWorkerMapsTo503AndDrainStaysPrompt) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);

  // Wedge the only worker inside the TEST-ONLY fault hook on its first
  // batch; the watchdog is what must settle the HTTP request.
  std::mutex hang_mutex;
  std::condition_variable hang_cv;
  bool hang_armed = true;
  bool hung = false;
  std::atomic<bool> hook_exited{false};

  SchedulerOptions sched;
  sched.workers = 1;
  sched.max_microbatch = 1;
  sched.resilience.watchdog_timeout = milliseconds(40);
  sched.worker_fault_hook = [&](int) {
    std::unique_lock lock(hang_mutex);
    if (!hang_armed) return;
    hang_armed = false;
    hung = true;
    hang_cv.notify_all();
    hang_cv.wait(lock, [&] { return !hung; });
    hook_exited.store(true);
  };
  Scheduler scheduler(*plan, sched);
  auto server = std::make_unique<HttpServer>(scheduler, *plan);
  const int port = server->port();

  auto pending = std::async(std::launch::async, [&] {
    HttpClient c("127.0.0.1", port, milliseconds(30000));
    return c.post("/infer", infer_body(make_input(70, {1, 3, 8, 8})));
  });
  {
    std::unique_lock lock(hang_mutex);
    hang_cv.wait(lock, [&] { return hung; });
  }

  // The watchdog fails the hung batch: the client gets a retriable 503
  // instead of hanging for the full connection timeout.
  const HttpResponse resp = pending.get();
  EXPECT_EQ(resp.status, 503);
  EXPECT_NE(resp.body.find("worker_hung"), std::string::npos) << resp.body;
  EXPECT_NE(resp.headers.find("retry-after"), resp.headers.end());

  // The quarantined worker shows up as degraded on /healthz (still 200:
  // the server is up, just impaired).
  std::string health;
  for (int spin = 0; spin < 200; ++spin) {
    HttpClient probe("127.0.0.1", port, milliseconds(2000));
    const HttpResponse hz = probe.get("/healthz");
    EXPECT_EQ(hz.status, 200);
    health = hz.body;
    if (health.find("\"status\":\"degraded\"") != std::string::npos) break;
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_NE(health.find("\"status\":\"degraded\""), std::string::npos)
      << health;
  EXPECT_NE(health.find("\"healthy_workers\":0"), std::string::npos) << health;

  // Drain while the worker is STILL wedged in the hook: it must return
  // promptly — the watchdog already settled the only in-flight request,
  // so the loop has no completion left to wait for.
  const auto start = std::chrono::steady_clock::now();
  server->drain();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
  server.reset();

  // Release the hook before the Scheduler (which owns the closure) dies;
  // the late worker discovers its batch was settled and exits cleanly
  // through the normal graceful shutdown.
  {
    std::lock_guard lock(hang_mutex);
    hung = false;
  }
  hang_cv.notify_all();
  for (int i = 0; i < 2500 && !hook_exited.load(); ++i) {
    std::this_thread::sleep_for(milliseconds(2));
  }
  ASSERT_TRUE(hook_exited.load()) << "hung worker never left the fault hook";
  std::this_thread::sleep_for(milliseconds(5));
  scheduler.shutdown();
}

}  // namespace
}  // namespace yoloc

#pragma once
// HTTP/1.1 serving front-end over the scheduler — the network edge of
// the serving stack (no external dependencies; poll(2)-based reactor).
//
// Architecture: one event-loop thread — the server's only thread — owns
// every socket (accept, read, parse, write, timeouts) with non-blocking
// I/O under poll(2) and serves GET endpoints inline (snapshot reads).
// POST /infer is decoded on the loop too and submitted to the scheduler
// with a callback that only pushes the outcome onto a self-pipe-notified
// completion queue; the loop builds the response from it. Nothing blocks
// on a forward pass, and a parsed /infer request is in the scheduler's
// priority lanes (admission, deadline, /metrics) at once.
//
// Endpoints (every path is documented in docs/serving.md; the
// `docs`-labeled CTest fails when one is missing):
//   POST /infer    rank-4 NCHW tensor in (JSON `data_b64` or raw f32
//                  body), logits + latency out as JSON
//   GET  /metrics  Prometheus text exposition of the live scheduler
//   GET  /healthz  readiness: 200 while the scheduler accepts work, 503
//                  on drain or once the scheduler has shut down
//   GET  /plan     loaded .yolocplan summary: options, packed-weight
//                  footprint, section table with CRC verdicts
//
// Overload maps onto the scheduler's admission control instead of
// unbounded queueing: a lane at its depth cap answers 429
// (QueueDepthError), an infeasible or already-dead deadline answers 503
// with a Retry-After hint (InfeasibleDeadlineError /
// DeadlineExpiredError), and execution failures answer 500. Connection
// hygiene is bounded everywhere: header and body byte caps (431/413),
// per-connection read and write deadlines (slow-loris readers get 408
// and the socket closed), and a connection cap at accept time.
//
// Graceful drain (`drain()`, typically wired to SIGTERM): stop
// accepting, close idle keep-alive connections, finish every request
// already received — queued inference drains through the scheduler's
// priority lanes as usual — flush the responses, then stop the loop.
// In-flight work is never abandoned; new work is refused at the socket.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/scheduler.hpp"

namespace yoloc {

/// Endpoint paths the server routes, for the docs gate and CLIs
/// (mirrors kTraceSpanNames for span names).
inline constexpr const char* kHttpEndpoints[] = {"/infer", "/metrics",
                                                 "/healthz", "/plan"};

struct HttpServerOptions {
  /// Bind address; loopback by default (put a real LB in front for
  /// anything public).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  int listen_backlog = 64;
  /// Accept cap: connections beyond this are accepted and immediately
  /// answered 503 + closed, so a connection flood cannot starve the fds
  /// of connections already being served.
  int max_connections = 256;
  /// Request-line + headers byte cap (431 above it).
  std::size_t max_header_bytes = 8192;
  /// Body byte cap (413 above it) — bounds in-flight request memory.
  std::size_t max_body_bytes = 8u << 20;
  /// A connection that stalls mid-request longer than this is answered
  /// 408 (when headers were partially received) and closed. Idle
  /// keep-alive connections are closed silently on the same clock.
  std::chrono::milliseconds read_timeout{5000};
  /// A connection that cannot absorb its response bytes within this is
  /// closed.
  std::chrono::milliseconds write_timeout{5000};
  /// Retry-After hint [s] on 429/503 responses.
  int retry_after_s = 1;
};

/// Monotonic counters for tests and ops; snapshot via stats().
struct HttpServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;  ///< over max_connections
  std::uint64_t requests = 0;             ///< fully parsed requests routed
  std::uint64_t responses_2xx = 0;
  std::uint64_t responses_4xx = 0;
  std::uint64_t responses_5xx = 0;
  std::uint64_t read_timeouts = 0;
  std::uint64_t write_timeouts = 0;
  /// Self-pipe wakeups coalesced because the pipe was already full — a
  /// pending wakeup covers them, so this counts pressure, not loss.
  std::uint64_t wake_overflows = 0;
};

class HttpServer {
 public:
  /// Binds, listens and starts serving immediately. `plan` must be the
  /// same plan `scheduler` serves (readiness + /plan summary);
  /// `plan_path` (optional) names the .yolocplan artifact backing it so
  /// GET /plan can report the container section table. Throws
  /// std::runtime_error when the socket cannot be bound.
  HttpServer(Scheduler& scheduler, const DeploymentPlan& plan,
             HttpServerOptions options = {}, std::string plan_path = {});
  /// Graceful: drain() then join.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound TCP port (the chosen one when options.port was 0).
  [[nodiscard]] int port() const { return port_; }

  /// Graceful shutdown: stop accepting, serve everything already
  /// received (queued lanes drain by priority inside the scheduler),
  /// flush responses, stop the loop thread. Blocks until fully stopped:
  /// it takes a mutex and joins, so call it from a thread, never from a
  /// signal handler. Idempotent; concurrent callers serialize.
  void drain();

  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  [[nodiscard]] HttpServerStats stats() const;

 private:
  struct Connection;
  struct ParsedRequest;
  struct Completion;

  void loop();
  void wake();

  // Loop-side helpers (all called on the loop thread).
  void accept_new_connections();
  void on_readable(Connection& c);
  void on_writable(Connection& c);
  /// Write buffered response bytes; on full flush either closes or
  /// re-arms the parser. Never re-enters the parser itself — that keeps
  /// the respond/parse cycle iterative (see on_writable).
  void flush_out(Connection& c);
  bool try_parse_and_route(Connection& c);
  void route(Connection& c, ParsedRequest req);
  /// Decode + validate one /infer body and submit it (400 on bad input);
  /// the response is queued once its completion reaches the loop.
  void run_infer(Connection& c, const ParsedRequest& req);
  /// Queue the response for a settled /infer request.
  void respond_infer(Connection& c, const Completion& done);
  /// 429 and 503 responses carry Retry-After.
  void queue_response(Connection& c, int status, const std::string& body,
                      const char* content_type, bool close_after);
  void drain_completions();
  void close_connection(Connection& c);

  std::string plan_json();  // built lazily, cached (plans are immutable)

  Scheduler& scheduler_;
  const DeploymentPlan& plan_;
  HttpServerOptions options_;
  std::string plan_path_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  int port_ = 0;

  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t next_generation_ = 1;
  /// Submitted /infer requests whose completion the loop has not taken
  /// yet; each holds a callback that points at this server (gates drain).
  int inflight_infers_ = 0;

  std::mutex completion_mutex_;
  std::deque<Completion> completions_;

  std::mutex plan_json_mutex_;
  std::string plan_json_cache_;

  mutable std::mutex stats_mutex_;
  HttpServerStats stats_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::mutex drain_mutex_;  // serializes drain() callers
  std::thread loop_thread_;
};

}  // namespace yoloc

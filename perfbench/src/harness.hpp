#pragma once
// Process, /proc and text helpers shared by the serving benchmark: a
// spawned yoloc_serve child, per-process CPU and peak-RSS readings, the
// Prometheus text the server exposes on /metrics, and an in-memory span
// recorder for the traced run.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// A yoloc_serve child process bound to an ephemeral loopback port.
/// The constructor returns once the server has printed its ready line
/// (it prints it after binding), so the port is live. The destructor
/// sends SIGTERM and reaps the child.
class ServerProcess {
 public:
  /// `options` are passed to yoloc_serve after the plan and bind flags.
  ServerProcess(const std::string& exe, const std::string& plan_path,
                const std::vector<std::string>& options);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Graceful drain: SIGTERM, wait for exit. Returns true when the server
  /// exited 0. Idempotent.
  bool stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
  bool exited_ok_ = false;
};

/// utime + stime of a process, in milliseconds.
double process_cpu_ms(pid_t pid);
/// Peak resident set (VmHWM) of a process, in MiB.
double process_peak_rss_mb(pid_t pid);
/// CPU time of this process (all threads), in milliseconds.
double self_cpu_ms();

/// Parsed Prometheus text exposition: "series{labels}" -> value.
using PromSamples = std::map<std::string, double>;
PromSamples parse_prometheus(const std::string& text);

/// Quantile `q` of the delta of one histogram family for one lane
/// between two scrapes, interpolated linearly inside the bucket as
/// Prometheus' histogram_quantile does. Returns seconds; 0 when the lane
/// saw no observations in between.
double histogram_delta_quantile(const PromSamples& before,
                                const PromSamples& after,
                                const std::string& family,
                                const std::string& lane, double q);
/// Sum over lanes of the delta of a per-lane counter family.
double lane_counter_delta(const PromSamples& before, const PromSamples& after,
                          const std::string& family);

/// Linear-interpolated percentile of an unsorted sample (p in [0, 1]).
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// One traced interval. Ids are unique within a recorder; parent 0 means
/// a root span. `request` ties the spans of one request together.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  std::string detail;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Thread-safe in-memory span store, written out once at the end.
class SpanRecorder {
 public:
  /// Reserve an id for a span whose children are recorded before it
  /// closes.
  std::uint64_t next_id();
  void add(Span span);
  /// Mean self time (duration minus the time covered by direct
  /// children) per span name, in milliseconds, with the span count.
  [[nodiscard]] std::map<std::string, std::pair<double, std::uint64_t>>
  mean_self_ms() const;
  /// chrome://tracing JSON ("traceEvents" complete events).
  void write_chrome_trace(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<Span> spans() const;

  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

}  // namespace perfbench

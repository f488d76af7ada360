#include "harness.hpp"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Read one '\n'-terminated line from `fd`, waiting at most `timeout`.
std::string read_line(int fd, std::chrono::milliseconds timeout) {
  std::string line;
  const auto give_up = Clock::now() + timeout;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        give_up - Clock::now());
    if (left.count() <= 0) throw std::runtime_error("server: no ready line");
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char c = 0;
    const ssize_t n = ::read(fd, &c, 1);
    if (n == 0) throw std::runtime_error("server exited before ready");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("server: read failed");
    }
    if (c == '\n') return line;
    line.push_back(c);
  }
}

/// Fields of /proc/<pid>/stat after the parenthesised command name.
std::vector<std::string> stat_fields(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("cannot read /proc/<pid>/stat");
  }
  std::istringstream rest(text.substr(close + 1));
  std::vector<std::string> fields;
  for (std::string field; rest >> field;) fields.push_back(field);
  return fields;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& exe,
                             const std::string& plan_path,
                             const std::vector<std::string>& options) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> args = {exe,      "--plan", plan_path, "--bind",
                                   "127.0.0.1", "--port", "0"};
  args.insert(args.end(), options.begin(), options.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  stdout_fd_ = fds[0];
  if (rc != 0) {
    ::close(stdout_fd_);
    throw std::runtime_error("cannot spawn " + exe);
  }
  try {
    // "yoloc_serve: PLAN on ADDR:PORT (N workers, ...)" follows bind().
    const std::string line =
        read_line(stdout_fd_, std::chrono::milliseconds(30000));
    const std::size_t open = line.find(" (");
    const std::size_t colon = line.rfind(':', open);
    if (open == std::string::npos || colon == std::string::npos) {
      throw std::runtime_error("unexpected server banner: " + line);
    }
    port_ = std::atoi(line.substr(colon + 1, open - colon - 1).c_str());
    if (port_ <= 0) throw std::runtime_error("bad port in: " + line);
  } catch (...) {
    stop();
    throw;
  }
}

ServerProcess::~ServerProcess() { stop(); }

bool ServerProcess::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto give_up = Clock::now() + std::chrono::seconds(20);
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0) {
      // Keep the pipe drained so the drain summary cannot block on it.
      char buf[4096];
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 5) > 0) (void)!::read(stdout_fd_, buf, sizeof(buf));
      if (Clock::now() > give_up) {
        ::kill(pid_, SIGKILL);
        done = ::waitpid(pid_, &status, 0);
        break;
      }
    }
    exited_ok_ = done == pid_ && WIFEXITED(status) &&
                 WEXITSTATUS(status) == 0;
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return exited_ok_;
}

double process_cpu_ms(pid_t pid) {
  const std::vector<std::string> f = stat_fields(pid);
  // Fields 14 (utime) and 15 (stime) of proc(5); f[0] is field 3.
  if (f.size() < 13) throw std::runtime_error("short /proc/<pid>/stat");
  const double ticks = std::strtod(f[11].c_str(), nullptr) +
                       std::strtod(f[12].c_str(), nullptr);
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/<pid>/status");
}

double self_cpu_ms() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

PromSamples parse_prometheus(const std::string& text) {
  PromSamples samples;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    samples[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return samples;
}

double histogram_delta_quantile(const PromSamples& before,
                                const PromSamples& after,
                                const std::string& family,
                                const std::string& lane, double q) {
  const std::string prefix = family + "_bucket{lane=\"" + lane + "\",le=\"";
  std::vector<std::pair<double, double>> buckets;  // (upper bound, count)
  for (auto it = after.lower_bound(prefix);
       it != after.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    const std::string le = it->first.substr(prefix.size());
    const double bound = le.rfind("+Inf", 0) == 0
                             ? std::numeric_limits<double>::infinity()
                             : std::strtod(le.c_str(), nullptr);
    const auto old = before.find(it->first);
    buckets.emplace_back(bound,
                         it->second - (old == before.end() ? 0.0 : old->second));
  }
  std::sort(buckets.begin(), buckets.end());
  if (buckets.empty() || buckets.back().second <= 0.0) return 0.0;
  const double rank = q * buckets.back().second;
  double lower = 0.0;
  double below = 0.0;
  for (const auto& [upper, cumulative] : buckets) {
    if (cumulative >= rank) {
      if (std::isinf(upper)) return lower;
      const double in_bucket = cumulative - below;
      return in_bucket > 0.0
                 ? lower + (upper - lower) * (rank - below) / in_bucket
                 : upper;
    }
    lower = upper;
    below = cumulative;
  }
  return lower;
}

double lane_counter_delta(const PromSamples& before, const PromSamples& after,
                          const std::string& family) {
  const std::string prefix = family + "{";
  double total = 0.0;
  for (auto it = after.lower_bound(prefix);
       it != after.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    const auto old = before.find(it->first);
    total += it->second - (old == before.end() ? 0.0 : old->second);
  }
  return total;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (idx - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

std::uint64_t SpanRecorder::next_id() {
  std::lock_guard lock(mutex_);
  return next_id_++;
}

void SpanRecorder::add(Span span) {
  std::lock_guard lock(mutex_);
  if (span.id == 0) span.id = next_id_++;
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::map<std::string, std::pair<double, std::uint64_t>>
SpanRecorder::mean_self_ms() const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, double> child_ns;
  for (const Span& s : all) {
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, std::pair<double, std::uint64_t>> totals;
  for (const Span& s : all) {
    const auto children = child_ns.find(s.id);
    const double self =
        static_cast<double>(s.end_ns - s.start_ns) -
        (children == child_ns.end() ? 0.0 : children->second);
    auto& [sum, count] = totals[s.name];
    sum += std::max(0.0, self);
    ++count;
  }
  for (auto& [name, total] : totals) {
    total.first /= 1e6 * static_cast<double>(total.second);
  }
  return totals;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  const auto quoted = [](const std::string& text) {
    std::string out = "\"";
    for (char c : text) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out + "\"";
  };
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans()) {
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << (first ? "\n" : ",\n") << "{\"name\":" << quoted(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1," << times
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"detail\":" << quoted(s.detail)
        << "}}";
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench

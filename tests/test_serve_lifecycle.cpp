// yoloc_serve as a process (tools/yoloc_serve.cpp): the lifecycle its
// main thread owns. SIGTERM and SIGINT are blocked from the first
// statement of main and taken by sigwait after the ready banner, so a
// stop sent the moment the banner is read still drains cleanly; the
// chaos drill's fault toggles run on the same thread and never delay a
// stop. The build compiles in the server's path (YOLOC_SERVE_BIN); CTest
// names the golden plan the serde fixture writes (YOLOC_GOLDEN_PLAN).

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

std::string golden_plan() {
  const char* path = std::getenv("YOLOC_GOLDEN_PLAN");
  if (path == nullptr) {
    ADD_FAILURE() << "YOLOC_GOLDEN_PLAN is not set; run this suite via ctest";
    return {};
  }
  return path;
}

/// One yoloc_serve child with its stdout on a pipe. The destructor kills
/// and reaps a child that is still running, so a failed assertion never
/// leaves a server behind.
class ServeProcess {
 public:
  explicit ServeProcess(const std::vector<std::string>& extra_args) {
    std::vector<std::string> args = {YOLOC_SERVE_BIN, "--plan", golden_plan(),
                                     "--workers", "2"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe(fds) != 0) {
      ADD_FAILURE() << "pipe failed";
      return;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      ADD_FAILURE() << "cannot spawn " << args[0];
    }
  }

  ~ServeProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (out_ >= 0) ::close(out_);
  }

  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  /// The next stdout line without its '\n'; empty when the child closed
  /// stdout or nothing arrived within `timeout`.
  std::string read_line(milliseconds timeout = milliseconds(30000)) {
    const auto give_up = Clock::now() + timeout;
    for (;;) {
      const std::size_t eol = buffered_.find('\n');
      if (eol != std::string::npos) {
        std::string line = buffered_.substr(0, eol);
        buffered_.erase(0, eol + 1);
        return line;
      }
      if (!fill(give_up)) return {};
    }
  }

  /// Send SIGTERM now and reap the child. Returns its wait status; every
  /// stdout byte not yet read lands in `rest`, the time from the signal
  /// to the reap in `took`. A child still running after 20 s is killed.
  int stop(std::string& rest, Clock::duration& took) {
    if (pid_ <= 0) {
      ADD_FAILURE() << "no yoloc_serve child to stop";
      return -1;
    }
    const auto sent = Clock::now();
    const auto give_up = sent + std::chrono::seconds(20);
    ::kill(pid_, SIGTERM);
    while (fill(give_up)) {
    }
    rest = buffered_;
    buffered_.clear();
    // stdout closes a moment before the exit status is ready to reap.
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > give_up) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        ADD_FAILURE() << "yoloc_serve ignored SIGTERM for 20 s";
        break;
      }
      ::usleep(1000);
    }
    took = Clock::now() - sent;
    pid_ = -1;
    return status;
  }

 private:
  /// Read what stdout has before `give_up`; false on EOF or timeout.
  bool fill(Clock::time_point give_up) {
    for (;;) {
      const auto left =
          std::chrono::duration_cast<milliseconds>(give_up - Clock::now());
      if (out_ < 0 || left.count() <= 0) return false;
      pollfd pfd{out_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;
      char buf[4096];
      const ssize_t n = ::read(out_, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffered_.append(buf, static_cast<std::size_t>(n));
      return true;
    }
  }

  pid_t pid_ = -1;
  int out_ = -1;
  std::string buffered_;
};

bool exited_zero(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string describe(int status) {
  if (WIFEXITED(status)) return "exit " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) return "signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

constexpr const char* kShutdownEvent = "{\"event\":\"shutdown\"";

TEST(ServeLifecycle, SigtermTheMomentTheBannerIsReadDrainsCleanly) {
  // Before the stop signals were blocked up front, a SIGTERM sent right
  // after the banner could land before the handler was installed and
  // kill the server by the default action.
  constexpr int kRuns = 100;
  for (int run = 0; run < kRuns; ++run) {
    ServeProcess server({});
    const std::string banner = server.read_line();
    ASSERT_EQ(banner.rfind("yoloc_serve: ", 0), 0u)
        << "run " << run << ": " << banner;
    std::string rest;
    Clock::duration took{};
    const int status = server.stop(rest, took);
    ASSERT_TRUE(exited_zero(status))
        << "run " << run << ": " << describe(status) << "\n" << rest;
    ASSERT_NE(rest.find(kShutdownEvent), std::string::npos)
        << "run " << run << ":\n" << rest;
  }
}

TEST(ServeLifecycle, ChaosDrillTogglesInOrderThenStops) {
  ServeProcess server({"--fault-after-s", "0", "--fault-clear-after-s", "0.1"});
  ASSERT_EQ(server.read_line().rfind("yoloc_serve: ", 0), 0u);
  EXPECT_EQ(server.read_line(), "{\"event\":\"chaos\",\"faults\":\"active\"}");
  EXPECT_EQ(server.read_line(),
            "{\"event\":\"chaos\",\"faults\":\"cleared\"}");
  std::string rest;
  Clock::duration took{};
  const int status = server.stop(rest, took);
  EXPECT_TRUE(exited_zero(status)) << describe(status) << "\n" << rest;
  EXPECT_EQ(rest.rfind("yoloc_serve: draining...\n", 0), 0u) << rest;
  EXPECT_NE(rest.find(kShutdownEvent), std::string::npos) << rest;
}

TEST(ServeLifecycle, PendingFaultStepDoesNotDelayTheStop) {
  ServeProcess server({"--fault-after-s", "30"});
  ASSERT_EQ(server.read_line().rfind("yoloc_serve: ", 0), 0u);
  std::string rest;
  Clock::duration took{};
  const int status = server.stop(rest, took);
  EXPECT_TRUE(exited_zero(status)) << describe(status) << "\n" << rest;
  EXPECT_LT(took, std::chrono::seconds(1));
  EXPECT_EQ(rest.find("chaos"), std::string::npos) << rest;
  EXPECT_NE(rest.find(kShutdownEvent), std::string::npos) << rest;
}

}  // namespace

#include "serve/http_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/base64.hpp"
#include "common/check.hpp"
#include "macro/packed_kernels.hpp"
#include "runtime/plan_serde.hpp"

namespace yoloc {

namespace {

// ------------------------------------------------------- tiny JSON in
// Just enough strict JSON to accept the /infer request body. Anything
// malformed parses to failure and maps to 400 — never to a guess.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 16;

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[nodiscard]] bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool value(JsonValue& out, int depth) {
    if (depth > kMaxDepth || pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    switch (c) {
      case '{':
        return object(out, depth);
      case '[':
        return array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return string(out.string);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return literal("null");
      default:
        out.kind = JsonValue::Kind::kNumber;
        return number(out.number);
    }
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool number(double& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    char* end = nullptr;
    const std::string token = s_.substr(start, pos_ - start);
    out = std::strtod(token.c_str(), &end);
    // Overflow ("1e999") yields ±HUGE_VAL with a clean end pointer;
    // non-finite numbers are not JSON and must fail the parse.
    return end != nullptr && *end == '\0' && std::isfinite(out);
  }

  bool string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos_ < s_.size()) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control byte with one append (base64 payloads are one long run).
      std::size_t end = pos_;
      while (end < s_.size()) {
        const unsigned char b = static_cast<unsigned char>(s_[end]);
        if (b == '"' || b == '\\' || b < 0x20) break;
        ++end;
      }
      out.append(s_, pos_, end - pos_);
      pos_ = end;
      if (pos_ == s_.size()) break;
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char esc = s_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            unsigned code = 0;
            if (!hex4(code)) return false;
            // Tensor payloads ride base64; non-ASCII escapes are decoded
            // as UTF-8 for completeness, unpaired surrogates rejected.
            if (code >= 0xd800 && code <= 0xdbff) {
              if (pos_ + 1 >= s_.size() || s_[pos_] != '\\' ||
                  s_[pos_ + 1] != 'u') {
                return false;
              }
              pos_ += 2;
              unsigned low = 0;
              if (!hex4(low) || low < 0xdc00 || low > 0xdfff) return false;
              code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            } else if (code >= 0xdc00 && code <= 0xdfff) {
              return false;
            }
            append_utf8(out, code);
            break;
          }
          default:
            return false;
        }
        continue;
      }
      return false;  // raw control characters are invalid
    }
    return false;  // unterminated
  }

  bool hex4(unsigned& out) {
    if (pos_ + 4 > s_.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_ + static_cast<std::size_t>(i)];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    pos_ += 4;
    return true;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  bool object(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      JsonValue v;
      if (!value(v, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (eat(',')) continue;
      return eat('}');
    }
  }

  bool array(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    for (;;) {
      skip_ws();
      JsonValue v;
      if (!value(v, depth + 1)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (eat(',')) continue;
      return eat(']');
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------------- HTTP basics

const char* status_text(int status) {
  switch (status) {
    case 100:
      return "Continue";
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

std::string error_body(const char* kind, const std::string& message) {
  return std::string("{\"error\":\"") + json_escape(message) +
         "\",\"kind\":\"" + kind + "\"}";
}

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

bool parse_priority(const std::string& name, Priority& out) {
  if (name == "interactive") {
    out = Priority::kInteractive;
  } else if (name == "batch") {
    out = Priority::kBatch;
  } else if (name == "best_effort") {
    out = Priority::kBestEffort;
  } else {
    return false;
  }
  return true;
}

/// Headers whose semantics break when repeated — a request carrying two
/// copies (even identical ones) is rejected outright rather than letting
/// map insertion pick a winner.
bool is_singleton_header(const std::string& lowercase_name) {
  static constexpr const char* kSingletons[] = {
      "content-length", "transfer-encoding", "host", "connection", "expect",
      "content-type"};
  return std::any_of(std::begin(kSingletons), std::end(kSingletons),
                     [&](const char* h) { return lowercase_name == h; });
}

/// "1,3,16,16" -> four positive extents.
bool parse_shape_csv(const std::string& text, std::vector<int>& out) {
  out.clear();
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string token =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (token.empty() ||
        token.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    const long v = std::strtol(token.c_str(), nullptr, 10);
    if (v < 1 || v > (1 << 24)) return false;
    out.push_back(static_cast<int>(v));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out.size() == 4;
}

std::map<std::string, std::string> parse_query(const std::string& query) {
  std::map<std::string, std::string> out;
  std::size_t start = 0;
  while (start < query.size()) {
    std::size_t amp = query.find('&', start);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(start, amp - start);
    const std::size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      out[pair.substr(0, eq)] = pair.substr(eq + 1);
    } else if (!pair.empty()) {
      out[pair] = "";
    }
    start = amp + 1;
  }
  return out;
}

}  // namespace

// ----------------------------------------------------- internal structs

struct HttpServer::ParsedRequest {
  std::string method;
  std::string path;
  std::string query;
  std::map<std::string, std::string> headers;  // lowercased keys
  std::string body;
  bool keep_alive = true;
};

struct HttpServer::Connection {
  int fd = -1;
  std::uint64_t generation = 0;
  enum class State { kReadHeaders, kReadBody, kHandling, kWrite } state =
      State::kReadHeaders;
  std::string in;
  std::string out;
  std::size_t out_written = 0;
  bool close_after_write = false;
  bool keep_alive = true;
  std::size_t body_needed = 0;
  ParsedRequest request;
  /// Absolute phase deadline; max() = none (handling phase).
  ServeClock::time_point deadline = ServeClock::time_point::max();
};

/// One settled /infer request, pushed by its scheduler callback.
struct HttpServer::Completion {
  std::uint64_t generation = 0;
  int images = 0;
  ServeClock::time_point start{};
  Tensor output;
  std::exception_ptr error;  ///< null when served
};

// ----------------------------------------------------------- lifecycle

HttpServer::HttpServer(Scheduler& scheduler, const DeploymentPlan& plan,
                       HttpServerOptions options, std::string plan_path)
    : scheduler_(scheduler),
      plan_(plan),
      options_(std::move(options)),
      plan_path_(std::move(plan_path)) {
  YOLOC_CHECK(options_.max_connections >= 1,
              "http: max_connections must be >= 1");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  YOLOC_CHECK(listen_fd_ >= 0, "http: socket() failed");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    YOLOC_CHECK(false, "http: bad bind address '" + options_.bind_address +
                           "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, options_.listen_backlog) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    YOLOC_CHECK(false, std::string("http: cannot bind/listen on ") +
                           options_.bind_address + ":" +
                           std::to_string(options_.port) + " (" +
                           std::strerror(err) + ")");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  YOLOC_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                            &bound_len) == 0,
              "http: getsockname() failed");
  port_ = static_cast<int>(ntohs(bound.sin_port));
  set_nonblocking(listen_fd_);

  int pipe_fds[2];
  YOLOC_CHECK(::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) == 0,
              "http: pipe2() failed");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];

  loop_thread_ = std::thread([this] { loop(); });
}

HttpServer::~HttpServer() { drain(); }

void HttpServer::wake() {
  const char b = 1;
  for (;;) {
    const ssize_t n = ::write(wake_write_fd_, &b, 1);
    if (n == 1) return;
    if (n < 0 && errno == EINTR) continue;  // signal landed mid-write
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Pipe full: a wakeup is already pending, so nothing is lost —
      // but count it, a climbing rate means the loop is falling behind.
      std::lock_guard lock(stats_mutex_);
      stats_.wake_overflows += 1;
    }
    return;
  }
}

void HttpServer::drain() {
  std::lock_guard drain_lock(drain_mutex_);
  if (!stopped_.load(std::memory_order_acquire)) {
    draining_.store(true, std::memory_order_release);
    wake();
    if (loop_thread_.joinable()) loop_thread_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    ::close(wake_read_fd_);
    ::close(wake_write_fd_);
    wake_read_fd_ = wake_write_fd_ = -1;
    stopped_.store(true, std::memory_order_release);
  }
}

HttpServerStats HttpServer::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

// ---------------------------------------------------------- event loop

void HttpServer::loop() {
  bool listen_closed = false;
  std::vector<pollfd> fds;
  for (;;) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining) {
      if (!listen_closed && listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        listen_closed = true;
      }
      // Idle keep-alive connections hold no work; close them now so the
      // drain only waits on requests actually in flight.
      for (auto& c : connections_) {
        if (c->state == Connection::State::kReadHeaders && c->in.empty() &&
            c->out.empty()) {
          close_connection(*c);
        }
      }
      std::erase_if(connections_,
                    [](const auto& c) { return c->fd < 0; });
      if (connections_.empty() && inflight_infers_ == 0) break;
    }

    fds.clear();
    const std::size_t listen_slot = fds.size();
    if (!draining && listen_fd_ >= 0) {
      fds.push_back({listen_fd_, POLLIN, 0});
    }
    const std::size_t wake_slot = fds.size();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    const std::size_t conn_base = fds.size();
    auto next_deadline = ServeClock::time_point::max();
    for (const auto& c : connections_) {
      short events = 0;
      if (c->state == Connection::State::kReadHeaders ||
          c->state == Connection::State::kReadBody) {
        events |= POLLIN;
      }
      if (!c->out.empty() || c->state == Connection::State::kWrite) {
        events |= POLLOUT;
      }
      fds.push_back({c->fd, events, 0});
      next_deadline = std::min(next_deadline, c->deadline);
    }

    int timeout_ms = 1000;
    const auto now = ServeClock::now();
    if (next_deadline != ServeClock::time_point::max()) {
      const auto wait =
          std::chrono::duration_cast<std::chrono::milliseconds>(next_deadline -
                                                                now)
              .count();
      timeout_ms = static_cast<int>(std::clamp<long long>(wait, 0, 1000));
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      // Unrecoverable for the sockets: drop them all and drain. The loop
      // still runs until every submitted /infer has reported — each
      // callback points at this server.
      for (auto& c : connections_) close_connection(*c);
      draining_.store(true, std::memory_order_release);
      continue;
    }

    if (fds[wake_slot].revents & POLLIN) {
      char buf[256];
      for (;;) {
        const ssize_t n = ::read(wake_read_fd_, buf, sizeof(buf));
        if (n > 0) continue;
        if (n < 0 && errno == EINTR) continue;  // retry, keep draining
        break;  // EAGAIN: fully drained (the pipe is non-blocking)
      }
    }
    drain_completions();

    if (!draining && listen_fd_ >= 0 &&
        (fds[listen_slot].revents & POLLIN) != 0) {
      accept_new_connections();
    }

    const auto check = ServeClock::now();
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      Connection& c = *connections_[i];
      if (c.fd < 0) continue;
      const short revents = conn_base + i < fds.size()
                                ? fds[conn_base + i].revents
                                : static_cast<short>(0);
      if (revents & (POLLERR | POLLNVAL)) {
        close_connection(c);
        continue;
      }
      // POLLHUP while handling: the client hung up before its response
      // was computed; keep the slot so the completion can be dropped
      // cleanly rather than matched against a recycled descriptor.
      if ((revents & POLLHUP) != 0 &&
          c.state != Connection::State::kHandling && c.in.empty()) {
        close_connection(c);
        continue;
      }
      if (revents & POLLOUT) on_writable(c);
      if (c.fd >= 0 && (revents & POLLIN) != 0) on_readable(c);
      if (c.fd >= 0 && c.deadline != ServeClock::time_point::max() &&
          check >= c.deadline) {
        if (c.state == Connection::State::kReadHeaders ||
            c.state == Connection::State::kReadBody) {
          {
            std::lock_guard lock(stats_mutex_);
            ++stats_.read_timeouts;
          }
          if (!c.in.empty()) {
            // A request was underway (slow-loris or stalled body):
            // tell the client before closing. queue_response makes one
            // best-effort flush; the write deadline bounds the rest.
            queue_response(c, 408,
                           error_body("timeout", "request read timed out"),
                           "application/json", /*close_after=*/true);
          } else {
            close_connection(c);  // silent: idle keep-alive expiry
          }
        } else if (c.state == Connection::State::kWrite) {
          std::lock_guard lock(stats_mutex_);
          ++stats_.write_timeouts;
          close_connection(c);
        }
      }
    }
    std::erase_if(connections_, [](const auto& c) { return c->fd < 0; });
  }
}

void HttpServer::accept_new_connections() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      // Refuse above the cap without occupying a slot: best-effort 503.
      static const char kBusy[] =
          "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n"
          "Connection: close\r\n\r\n";
      (void)::send(fd, kBusy, sizeof(kBusy) - 1, MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      std::lock_guard lock(stats_mutex_);
      ++stats_.connections_refused;
      continue;
    }
    set_nonblocking(fd);
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->generation = next_generation_++;
    conn->deadline = ServeClock::now() + options_.read_timeout;
    connections_.push_back(std::move(conn));
    std::lock_guard lock(stats_mutex_);
    ++stats_.connections_accepted;
  }
}

void HttpServer::close_connection(Connection& c) {
  if (c.fd >= 0) {
    ::close(c.fd);
    c.fd = -1;
  }
}

void HttpServer::on_readable(Connection& c) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
      // Oversized bodies are refused from the declared Content-Length
      // before any body byte arrives; this cap catches clients that
      // stream unannounced extra bytes anyway.
      if (c.in.size() >
          options_.max_body_bytes + options_.max_header_bytes + sizeof(buf)) {
        queue_response(c, 413, error_body("too_large", "request too large"),
                       "application/json", true);
        return;
      }
      continue;
    }
    if (n == 0) {
      // Peer closed. Nothing can be answered on a half-parsed request.
      if (c.state != Connection::State::kHandling) close_connection(c);
      return;
    }
    break;  // EAGAIN (or transient error — poll will surface POLLERR)
  }
  if (c.state == Connection::State::kReadHeaders ||
      c.state == Connection::State::kReadBody) {
    while (try_parse_and_route(c)) {
    }
  }
}

void HttpServer::flush_out(Connection& c) {
  while (c.out_written < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_written,
                             c.out.size() - c.out_written, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close_connection(c);
    return;
  }
  if (c.state != Connection::State::kWrite) return;  // flushed a 100-continue
  // Response fully flushed.
  if (c.close_after_write) {
    close_connection(c);
    return;
  }
  c.out.clear();
  c.out_written = 0;
  c.state = Connection::State::kReadHeaders;
  c.request = ParsedRequest{};
  c.body_needed = 0;
  c.deadline = ServeClock::now() + options_.read_timeout;
}

void HttpServer::on_writable(Connection& c) {
  flush_out(c);
  // Pipelined bytes may already be buffered. This loop (not recursion
  // through queue_response) is the only thing that advances the parser
  // after a flush, so a burst of tiny pipelined requests costs O(1)
  // stack no matter how many are buffered.
  while (try_parse_and_route(c)) {
  }
}

/// Advance the connection's parser one step. Returns true when progress
/// was made and another step may be possible (pipelining).
bool HttpServer::try_parse_and_route(Connection& c) {
  if (c.fd < 0) return false;
  if (c.state == Connection::State::kReadHeaders) {
    const std::size_t header_end = c.in.find("\r\n\r\n");
    if (header_end == std::string::npos) {
      if (c.in.size() > options_.max_header_bytes) {
        queue_response(c, 431,
                       error_body("headers_too_large", "header block exceeds " +
                                      std::to_string(options_.max_header_bytes) +
                                      " bytes"),
                       "application/json", true);
      }
      return false;
    }
    if (header_end > options_.max_header_bytes) {
      queue_response(c, 431,
                     error_body("headers_too_large", "header block too large"),
                     "application/json", true);
      return false;
    }

    // ---- request line
    const std::string head = c.in.substr(0, header_end);
    c.in.erase(0, header_end + 4);
    const std::size_t line_end = head.find("\r\n");
    const std::string request_line =
        line_end == std::string::npos ? head : head.substr(0, line_end);
    const std::size_t sp1 = request_line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      queue_response(c, 400, error_body("bad_request", "malformed request line"),
                     "application/json", true);
      return false;
    }
    ParsedRequest req;
    req.method = request_line.substr(0, sp1);
    std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string version = request_line.substr(sp2 + 1);
    if (version != "HTTP/1.1" && version != "HTTP/1.0") {
      queue_response(c, 400,
                     error_body("bad_request", "unsupported HTTP version"),
                     "application/json", true);
      return false;
    }
    const std::size_t qpos = target.find('?');
    if (qpos != std::string::npos) {
      req.query = target.substr(qpos + 1);
      target.erase(qpos);
    }
    req.path = std::move(target);
    if (req.path.empty() || req.path[0] != '/') {
      queue_response(c, 400, error_body("bad_request", "malformed target"),
                     "application/json", true);
      return false;
    }

    // ---- headers
    std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
    while (pos < head.size()) {
      std::size_t eol = head.find("\r\n", pos);
      if (eol == std::string::npos) eol = head.size();
      const std::string line = head.substr(pos, eol - pos);
      pos = eol + 2;
      if (line.empty()) continue;
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos || colon == 0) {
        queue_response(c, 400, error_body("bad_request", "malformed header"),
                       "application/json", true);
        return false;
      }
      std::string value = line.substr(colon + 1);
      const std::size_t first = value.find_first_not_of(" \t");
      const std::size_t last = value.find_last_not_of(" \t");
      value = first == std::string::npos
                  ? std::string{}
                  : value.substr(first, last - first + 1);
      std::string name = lowercase(line.substr(0, colon));
      const auto it = req.headers.find(name);
      if (it == req.headers.end()) {
        req.headers.emplace(std::move(name), std::move(value));
      } else if (is_singleton_header(name)) {
        // Singleton headers must not repeat: behind a proxy that honors
        // the first value while we honor the last, conflicting copies
        // become a request-smuggling vector.
        queue_response(c, 400,
                       error_body("bad_request", "duplicate header: " + name),
                       "application/json", true);
        return false;
      } else {
        // List-valued headers combine per RFC 9110 §5.2.
        it->second += ", " + value;
      }
    }

    req.keep_alive = version == "HTTP/1.1";
    const auto connection = req.headers.find("connection");
    if (connection != req.headers.end()) {
      const std::string v = lowercase(connection->second);
      if (v == "close") req.keep_alive = false;
      if (v == "keep-alive") req.keep_alive = true;
    }

    if (req.headers.count("transfer-encoding") != 0) {
      queue_response(c, 501,
                     error_body("not_implemented",
                                "chunked transfer encoding not supported"),
                     "application/json", true);
      return false;
    }
    std::size_t content_length = 0;
    const auto cl = req.headers.find("content-length");
    if (cl != req.headers.end()) {
      const std::string& v = cl->second;
      if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
        queue_response(c, 400,
                       error_body("bad_request", "malformed Content-Length"),
                       "application/json", true);
        return false;
      }
      content_length = static_cast<std::size_t>(
          std::strtoull(v.c_str(), nullptr, 10));
    }
    if (content_length > options_.max_body_bytes) {
      queue_response(c, 413,
                     error_body("too_large",
                                "body exceeds " +
                                    std::to_string(options_.max_body_bytes) +
                                    " bytes"),
                     "application/json", true);
      return false;
    }
    const auto expect = req.headers.find("expect");
    if (expect != req.headers.end() &&
        lowercase(expect->second) == "100-continue") {
      c.out += "HTTP/1.1 100 Continue\r\n\r\n";
    }

    c.request = std::move(req);
    c.body_needed = content_length;
    c.state = Connection::State::kReadBody;
    // Fall through to the body check below.
  }

  if (c.state == Connection::State::kReadBody) {
    if (c.in.size() < c.body_needed) return false;
    ParsedRequest req = std::move(c.request);
    req.body = c.in.substr(0, c.body_needed);
    c.in.erase(0, c.body_needed);
    c.request = ParsedRequest{};
    c.body_needed = 0;
    c.keep_alive = req.keep_alive;
    route(c, std::move(req));
    // route() either parked the connection on a submitted /infer
    // (kHandling) or queued + flushed a response. When the flush
    // completed and re-armed the parser, report progress so the
    // caller's loop takes another pass over pipelined bytes.
    return c.fd >= 0 && c.state == Connection::State::kReadHeaders &&
           !c.in.empty();
  }
  return false;
}

void HttpServer::route(Connection& c, ParsedRequest req) {
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.requests;
  }
  const bool known_path = std::any_of(
      std::begin(kHttpEndpoints), std::end(kHttpEndpoints),
      [&](const char* endpoint) { return req.path == endpoint; });
  if (!known_path) {
    queue_response(c, 404, error_body("not_found", "no such endpoint: " +
                                                        req.path),
                   "application/json", !c.keep_alive);
    return;
  }

  if (req.path == "/infer") {
    if (req.method != "POST") {
      queue_response(c, 405, error_body("method_not_allowed",
                                        "/infer requires POST"),
                     "application/json", !c.keep_alive);
      return;
    }
    run_infer(c, req);
    return;
  }

  if (req.method != "GET") {
    queue_response(c, 405, error_body("method_not_allowed",
                                      req.path + " requires GET"),
                   "application/json", !c.keep_alive);
    return;
  }

  if (req.path == "/healthz") {
    if (draining()) {
      queue_response(c, 503, "{\"status\":\"draining\"}", "application/json",
                     !c.keep_alive);
    } else if (!scheduler_.accepting()) {
      queue_response(c, 503, "{\"status\":\"unavailable\"}",
                     "application/json", !c.keep_alive);
    } else {
      const ResilienceSnapshot res = scheduler_.resilience_snapshot();
      if (res.degraded) {
        // Still ready — interactive traffic is served through the
        // healthy workers — but operators should know capacity is down.
        queue_response(c, 200,
                       "{\"status\":\"degraded\",\"workers\":" +
                           std::to_string(scheduler_.worker_count()) +
                           ",\"healthy_workers\":" +
                           std::to_string(res.healthy_workers) +
                           ",\"reason\":\"" +
                           json_escape(res.degraded_reason) + "\"}",
                       "application/json", !c.keep_alive);
      } else {
        queue_response(c, 200,
                       "{\"status\":\"ok\",\"workers\":" +
                           std::to_string(scheduler_.worker_count()) + "}",
                       "application/json", !c.keep_alive);
      }
    }
    return;
  }
  if (req.path == "/metrics") {
    queue_response(c, 200, scheduler_.to_prometheus(),
                   "text/plain; version=0.0.4; charset=utf-8",
                   !c.keep_alive);
    return;
  }
  // /plan
  queue_response(c, 200, plan_json(), "application/json", !c.keep_alive);
}

void HttpServer::queue_response(Connection& c, int status,
                                const std::string& body,
                                const char* content_type, bool close_after) {
  if (c.fd < 0) return;
  const bool close = close_after || draining();
  std::string head;
  head.reserve(256);
  head += "HTTP/1.1 ";
  head += std::to_string(status);
  head += ' ';
  head += status_text(status);
  head += "\r\nServer: yoloc-serve\r\nContent-Type: ";
  head += content_type;
  head += "\r\nContent-Length: ";
  head += std::to_string(body.size());
  if (status == 429 || status == 503) {
    head += "\r\nRetry-After: ";
    head += std::to_string(options_.retry_after_s);
  }
  head += close ? "\r\nConnection: close\r\n\r\n"
                : "\r\nConnection: keep-alive\r\n\r\n";
  c.out += head;
  c.out += body;
  c.close_after_write = close;
  c.state = Connection::State::kWrite;
  c.deadline = ServeClock::now() + options_.write_timeout;
  {
    std::lock_guard lock(stats_mutex_);
    if (status < 400) {
      ++stats_.responses_2xx;
    } else if (status < 500) {
      ++stats_.responses_4xx;
    } else {
      ++stats_.responses_5xx;
    }
  }
  // Opportunistic immediate flush only — deliberately NOT on_writable():
  // its parse loop would re-enter route() -> queue_response() and
  // recurse one stack frame per pipelined request. Callers that can
  // have buffered follow-up requests pump the parser iteratively.
  flush_out(c);
}

void HttpServer::drain_completions() {
  std::deque<Completion> ready;
  {
    std::lock_guard lock(completion_mutex_);
    ready.swap(completions_);
  }
  for (const Completion& done : ready) {
    --inflight_infers_;
    Connection* conn = nullptr;
    for (auto& c : connections_) {
      if (c->generation == done.generation && c->fd >= 0) {
        conn = c.get();
        break;
      }
    }
    if (conn == nullptr) continue;  // client went away mid-inference
    respond_infer(*conn, done);
    // A keep-alive client may have pipelined the next request behind
    // the /infer body; no further socket event will arrive for it.
    while (try_parse_and_route(*conn)) {
    }
  }
}

// -------------------------------------------------------------- /infer

void HttpServer::run_infer(Connection& c, const ParsedRequest& req) {
  const auto bad_request = [&](const std::string& message) {
    queue_response(c, 400, error_body("bad_request", message),
                   "application/json", !c.keep_alive);
  };

  // ---- decode the tensor + scheduling hints
  std::vector<int> shape;
  std::vector<std::uint8_t> payload;
  std::string priority_name_text;
  double deadline_ms = 0.0;
  bool have_deadline = false;

  const auto ct = req.headers.find("content-type");
  const std::string content_type =
      ct == req.headers.end() ? "application/json" : lowercase(ct->second);

  if (content_type.rfind("application/octet-stream", 0) == 0) {
    const auto query = parse_query(req.query);
    const auto shape_it = query.find("shape");
    if (shape_it == query.end() ||
        !parse_shape_csv(shape_it->second, shape)) {
      return bad_request("octet-stream mode requires ?shape=N,C,H,W");
    }
    payload.assign(req.body.begin(), req.body.end());
    const auto prio_it = query.find("priority");
    if (prio_it != query.end()) priority_name_text = prio_it->second;
    const auto dl_it = query.find("deadline_ms");
    if (dl_it != query.end()) {
      char* end = nullptr;
      deadline_ms = std::strtod(dl_it->second.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return bad_request("malformed deadline_ms");
      }
      have_deadline = true;
    }
  } else {
    JsonValue root;
    if (!JsonParser(req.body).parse(root) ||
        root.kind != JsonValue::Kind::kObject) {
      return bad_request("body is not a JSON object");
    }
    const JsonValue* shape_v = root.find("shape");
    const JsonValue* data_v = root.find("data_b64");
    if (shape_v == nullptr || shape_v->kind != JsonValue::Kind::kArray ||
        data_v == nullptr || data_v->kind != JsonValue::Kind::kString) {
      return bad_request("required fields: shape (array), data_b64");
    }
    for (const JsonValue& extent : shape_v->array) {
      if (extent.kind != JsonValue::Kind::kNumber || extent.number < 1 ||
          extent.number > (1 << 24) ||
          extent.number != static_cast<double>(
                               static_cast<int>(extent.number))) {
        return bad_request("shape extents must be positive integers");
      }
      shape.push_back(static_cast<int>(extent.number));
    }
    if (!base64_decode(data_v->string, payload)) {
      return bad_request("data_b64 is not valid base64");
    }
    const JsonValue* prio_v = root.find("priority");
    if (prio_v != nullptr) {
      if (prio_v->kind != JsonValue::Kind::kString) {
        return bad_request("priority must be a string");
      }
      priority_name_text = prio_v->string;
    }
    const JsonValue* dl_v = root.find("deadline_ms");
    if (dl_v != nullptr) {
      if (dl_v->kind != JsonValue::Kind::kNumber) {
        return bad_request("deadline_ms must be a number");
      }
      deadline_ms = dl_v->number;
      have_deadline = true;
    }
  }

  if (shape.size() != 4 ||
      std::any_of(shape.begin(), shape.end(), [](int e) { return e < 1; })) {
    return bad_request("shape must be rank-4 NCHW");
  }
  // Overflow-safe element count: extents are each <= 2^24, so the raw
  // rank-4 product can reach 2^96 and wrap a size_t into a tiny value
  // that passes the payload-size check while kernels index the huge
  // logical shape. Bound the running product by the largest tensor a
  // legal body could carry and reject before each multiply.
  const std::size_t max_elements = options_.max_body_bytes / sizeof(float);
  std::size_t elements = 1;
  for (const int e : shape) {
    const auto extent = static_cast<std::size_t>(e);
    if (elements > max_elements / extent) {
      return bad_request("shape describes more than " +
                         std::to_string(max_elements) + " elements (body cap " +
                         std::to_string(options_.max_body_bytes) + " bytes)");
    }
    elements *= extent;
  }
  if (elements * sizeof(float) != payload.size()) {
    return bad_request("payload is " + std::to_string(payload.size()) +
                       " bytes, shape needs " +
                       std::to_string(elements * sizeof(float)));
  }

  SubmitOptions submit;
  if (!priority_name_text.empty() &&
      !parse_priority(priority_name_text, submit.priority)) {
    return bad_request("priority must be interactive | batch | best_effort");
  }
  if (have_deadline) {
    // The double->int64 cast below is UB for non-finite or out-of-range
    // values (query-string strtod can yield inf on overflow). 9e12 ms is
    // ~285 years, and 9e12 * 1e6 stays inside int64.
    if (!std::isfinite(deadline_ms) || std::fabs(deadline_ms) > 9e12) {
      return bad_request("deadline_ms out of range");
    }
    // deadline_ms <= 0 submits an already-dead deadline: the scheduler
    // refuses it, which maps to 503 — the documented contract for
    // "cannot be served in time".
    submit.deadline = std::chrono::nanoseconds(
        static_cast<std::int64_t>(deadline_ms * 1e6));
    if (submit.deadline.count() == 0 && deadline_ms != 0.0) {
      submit.deadline = std::chrono::nanoseconds(deadline_ms > 0 ? 1 : -1);
    }
  }

  Tensor input(shape);
  std::memcpy(input.data(), payload.data(), payload.size());

  // ---- submit; the connection parks until the completion comes back
  c.state = Connection::State::kHandling;
  c.deadline = ServeClock::time_point::max();
  ++inflight_infers_;
  const std::uint64_t generation = c.generation;
  const int images = shape[0];
  const auto start = ServeClock::now();
  try {
    scheduler_.submit(
        std::move(input), submit,
        [this, generation, images, start](Tensor output,
                                          std::exception_ptr error) {
          std::lock_guard lock(completion_mutex_);
          completions_.push_back(Completion{generation, images, start,
                                            std::move(output),
                                            std::move(error)});
          // Wake under the lock: once the loop can take this completion
          // it may finish a drain and destroy the server, so nothing may
          // touch `this` after the unlock.
          wake();
        });
  } catch (...) {
    // submit() refused synchronously (bad input reaching the model
    // contract, or a scheduler already shut down): no callback will run.
    --inflight_infers_;
    respond_infer(c, Completion{generation, images, start, Tensor{},
                                std::current_exception()});
  }
}

void HttpServer::respond_infer(Connection& c, const Completion& done) {
  if (!done.error) {
    const double latency_ms =
        static_cast<double>(ns_between(done.start, ServeClock::now())) / 1e6;
    const Tensor& result = done.output;
    std::string body;
    body.reserve(result.size() * 2 + 128);
    body += "{\"shape\":[";
    const auto& out_shape = result.shape();
    for (std::size_t i = 0; i < out_shape.size(); ++i) {
      if (i != 0) body += ',';
      body += std::to_string(out_shape[i]);
    }
    body += "],\"data_b64\":\"";
    body += base64_encode(result.data(), result.size() * sizeof(float));
    char tail[96];
    std::snprintf(tail, sizeof(tail), "\",\"latency_ms\":%.3f,\"images\":%d}",
                  latency_ms, done.images);
    body += tail;
    queue_response(c, 200, body, "application/json", !c.keep_alive);
    return;
  }
  int status = 503;
  std::string body;
  std::string execution_error;
  try {
    std::rethrow_exception(done.error);
  } catch (const QueueDepthError& e) {
    status = 429;
    body = error_body("queue_full", e.what());
  } catch (const InfeasibleDeadlineError& e) {
    body = error_body("deadline_infeasible", e.what());
  } catch (const DeadlineExpiredError& e) {
    body = error_body("deadline_expired", e.what());
  } catch (const ShedError& e) {
    body = error_body("shed", e.what());
  } catch (const AdmissionError& e) {
    body = error_body("admission", e.what());
  } catch (const WorkerHungError& e) {
    // The batch was abandoned on a hung worker; the request is safe to
    // retry — a healthy worker will pick it up.
    body = error_body("worker_hung", e.what());
  } catch (const std::exception& e) {
    execution_error = e.what();
  } catch (...) {
    execution_error = "non-standard exception";
  }
  if (body.empty()) {
    // Execution failures can carry library internals (check expressions,
    // source paths): the client gets a fixed message, the log the text.
    std::replace(execution_error.begin(), execution_error.end(), '\n', ' ');
    std::fprintf(stderr, "http: /infer execution failed: %s\n",
                 execution_error.c_str());
    status = 500;
    body = error_body("execution", "inference failed; see the server log");
  }
  queue_response(c, status, body, "application/json", !c.keep_alive);
}

// -------------------------------------------------------------- /plan

std::string HttpServer::plan_json() {
  std::lock_guard lock(plan_json_mutex_);
  if (!plan_json_cache_.empty()) return plan_json_cache_;

  const DeploymentOptions& o = plan_.options();
  std::string out;
  out.reserve(1024);
  out += "{\"path\":";
  out += plan_path_.empty() ? "null"
                            : "\"" + json_escape(plan_path_) + "\"";
  out += ",\"mode\":\"";
  out += o.mode == MacroMvmEngine::Mode::kAnalog ? "analog" : "exact_cost";
  out += "\",\"weight_bits\":" + std::to_string(o.weight_bits);
  out += ",\"act_bits\":" + std::to_string(o.act_bits);
  out += ",\"quantized_layers\":" +
         std::to_string(plan_.quantized_layer_count());
  out += ",\"packed_weight_bytes\":" +
         std::to_string(plan_.packed_weight_bytes());
  char pack[64];
  std::snprintf(pack, sizeof(pack), ",\"pack_ms\":%.3f", plan_.pack_ms());
  out += pack;
  out += ",\"rom_macro\":{\"rows\":" +
         std::to_string(o.rom_macro.geometry.rows) +
         ",\"cols\":" + std::to_string(o.rom_macro.geometry.cols) + "}";
  out += ",\"sram_macro\":{\"rows\":" +
         std::to_string(o.sram_macro.geometry.rows) +
         ",\"cols\":" + std::to_string(o.sram_macro.geometry.cols) + "}";
  // The macro kernel variants this process picked from the CPU's feature
  // bits: two hosts serving one plan can differ here, and in throughput.
  out += ",\"kernels\":{\"popcount\":\"";
  out += detail::packed_kernels().popcount;
  out += "\",\"chain\":\"";
  out += detail::packed_kernels().chain;
  out += "\",\"gemm\":\"";
  out += detail::exact_tile_kernels().gemm;
  out += "\"}";

  out += ",\"sections\":[";
  if (!plan_path_.empty()) {
    try {
      const PlanArtifactInfo info = inspect_plan_file(plan_path_);
      for (std::size_t i = 0; i < info.sections.size(); ++i) {
        const PlanSectionInfo& s = info.sections[i];
        if (i != 0) out += ',';
        char row[192];
        std::snprintf(row, sizeof(row),
                      "{\"id\":%u,\"name\":\"%s\",\"offset\":%llu,"
                      "\"size\":%llu,\"crc32\":%u,\"crc_ok\":%s}",
                      s.id, plan_section_name(s.id),
                      static_cast<unsigned long long>(s.offset),
                      static_cast<unsigned long long>(s.size), s.crc32_value,
                      s.crc_ok ? "true" : "false");
        out += row;
      }
    } catch (const std::exception&) {
      // The serving plan is live regardless; report no sections rather
      // than failing the endpoint because the artifact moved on disk.
    }
  }
  out += "]}";
  plan_json_cache_ = std::move(out);
  return plan_json_cache_;
}

}  // namespace yoloc

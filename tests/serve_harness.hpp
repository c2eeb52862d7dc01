// In-process qspr_serve harness shared by the serve suites: ServeHarness
// runs a real MappingServer (real sockets on a kernel-assigned loopback
// port, real mapper threads) inside the test process, and RawClient scripts
// byte-level client behaviour against it.
#pragma once

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>

#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "common/json.hpp"
#include "common/net.hpp"
#include "service/serve_loop.hpp"

namespace qspr {

inline constexpr const char* kTinyQasm =
    "QUBIT q0,0\nQUBIT q1,0\nQUBIT q2,0\nH q0\nC-X q0,q1\nC-X q1,q2\n"
    "MEASURE q2\n";

/// In-process daemon under test. serve() runs on a background thread; the
/// destructor drains and joins, and drain_and_join() reports serve()'s
/// return.
class ServeHarness {
 public:
  explicit ServeHarness(ServeOptions options = {}) {
    options.host = "127.0.0.1";
    options.port = 0;
    server_ = std::make_unique<MappingServer>(std::move(options));
    server_->start();
    thread_ = std::thread([this] { exit_code_ = server_->serve(); });
  }

  ~ServeHarness() { drain_and_join(); }
  // serve()'s thread holds `this`.
  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  [[nodiscard]] int port() const { return server_->port(); }
  [[nodiscard]] MappingServer& server() { return *server_; }

  /// Requests a graceful drain and waits for serve() to return.
  int drain_and_join() {
    if (thread_.joinable()) {
      server_->request_drain();
      thread_.join();
    }
    return exit_code_;
  }

 private:
  std::unique_ptr<MappingServer> server_;
  std::thread thread_;
  int exit_code_ = -1;
};

/// Blocking scripted client with a receive timeout, so a daemon bug shows
/// up as a test failure instead of a hung suite.
class RawClient {
 public:
  explicit RawClient(int port, int recv_timeout_ms = 30000)
      : fd_(connect_client("127.0.0.1", port)) {
    timeval timeout{};
    timeout.tv_sec = recv_timeout_ms / 1000;
    timeout.tv_usec = (recv_timeout_ms % 1000) * 1000;
    setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }

  void send_raw(std::string_view bytes) {
    std::string_view rest = bytes;
    while (!rest.empty()) {
      const IoResult io = write_some(fd_.get(), rest);
      ASSERT_NE(io.status, IoStatus::Error) << "client write failed";
      rest.remove_prefix(io.bytes);
    }
  }

  void send_line(std::string_view line) {
    send_raw(std::string(line) + "\n");
  }

  /// One response line, or "" on EOF / timeout.
  std::string recv_line() {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const IoResult io = read_some(fd_.get(), chunk, sizeof chunk);
      if (io.status == IoStatus::Ok) {
        buffer_.append(chunk, io.bytes);
        continue;
      }
      if (io.status == IoStatus::WouldBlock) {
        // Blocking socket: WouldBlock here means SO_RCVTIMEO expired.
        return {};
      }
      return {};  // Closed or Error
    }
  }

  JsonValue recv_json() {
    const std::string line = recv_line();
    EXPECT_FALSE(line.empty()) << "no reply before timeout/EOF";
    return line.empty() ? JsonValue() : parse_json(line);
  }

  /// True when the server closed its side (EOF within the timeout).
  bool reaches_eof() {
    char chunk[256];
    while (true) {
      const IoResult io = read_some(fd_.get(), chunk, sizeof chunk);
      if (io.status == IoStatus::Closed) return true;
      if (io.status != IoStatus::Ok) return false;
    }
  }

  void shutdown_write() { ::shutdown(fd_.get(), SHUT_WR); }
  void disconnect() { fd_.reset(); }

 private:
  FileDescriptor fd_;
  std::string buffer_;
};

}  // namespace qspr

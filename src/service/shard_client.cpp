#include "service/shard_client.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace qspr {

namespace {

/// splitmix64 finaliser: a cheap, well-mixed pure hash for jitter.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

int remaining_ms(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
  return static_cast<int>(std::max<long long>(left, 0));
}

/// True when `code` is back-pressure the client should wait out rather than
/// surface: the request itself was fine, the service just cannot take it
/// right now.
bool retryable_code(const std::string& code) {
  return code == "overloaded" || code == "shard_down" || code == "draining";
}

}  // namespace

BackoffPolicy::BackoffPolicy(BackoffOptions options) : options_(options) {
  require(options_.base_ms >= 0, "backoff base must be >= 0");
  require(options_.cap_ms >= options_.base_ms,
          "backoff cap must be >= base");
  require(options_.jitter_frac >= 0.0 && options_.jitter_frac <= 1.0,
          "backoff jitter fraction must be in [0, 1]");
}

int BackoffPolicy::delay_ms(int attempt) const {
  const int bounded = std::clamp(attempt, 0, 62);
  // Compute in double: base * 2^attempt overflows integers long before the
  // cap clamps it.
  const double scaled = static_cast<double>(options_.base_ms) *
                        std::min(std::pow(2.0, bounded), 1e12);
  const std::uint64_t h = mix64(
      options_.seed ^ (0x5bd1e995ull * (static_cast<std::uint64_t>(bounded) + 1)));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  const double jittered = scaled * (1.0 + options_.jitter_frac * u);
  return static_cast<int>(
      std::min(jittered, static_cast<double>(options_.cap_ms)));
}

ShardClient::ShardClient(ShardClientOptions options)
    : options_(std::move(options)), backoff_(options_.backoff) {
  require(options_.port > 0, "shard client needs a port");
  require(options_.max_attempts >= 1, "shard client needs >= 1 attempt");
}

void ShardClient::disconnect() {
  fd_.reset();
  inbox_.clear();
}

bool ShardClient::ensure_connected() {
  if (fd_.valid()) return true;
  inbox_.clear();
  bool pending = false;
  FileDescriptor fd;
  try {
    fd = connect_nonblocking(options_.host, options_.port, pending);
  } catch (const std::exception&) {
    return false;
  }
  if (!fd.valid()) return false;  // synchronous refusal
  if (pending) {
    std::vector<PollEntry> entries(1);
    entries[0].fd = fd.get();
    entries[0].want_write = true;
    poll_fds(entries, options_.connect_timeout_ms);
    if (!entries[0].writable && !entries[0].broken) return false;  // timeout
    if (pending_connect_error(fd.get()) != 0) return false;
  }
  fd_ = std::move(fd);
  return true;
}

bool ShardClient::send_all(const std::string& payload, int deadline_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  std::size_t at = 0;
  while (at < payload.size()) {
    const IoResult io =
        write_some(fd_.get(), std::string_view(payload).substr(at));
    if (io.status == IoStatus::Ok) {
      at += io.bytes;
      continue;
    }
    if (io.status != IoStatus::WouldBlock) return false;
    std::vector<PollEntry> entries(1);
    entries[0].fd = fd_.get();
    entries[0].want_write = true;
    const int left = remaining_ms(deadline);
    if (left <= 0) return false;
    poll_fds(entries, left);
    if (entries[0].broken) return false;
    if (!entries[0].writable) return false;  // timed out
  }
  return true;
}

bool ShardClient::recv_line(std::string& reply, int deadline_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  char buffer[16384];
  while (true) {
    const std::size_t newline = inbox_.find('\n');
    if (newline != std::string::npos) {
      reply = inbox_.substr(0, newline);
      inbox_.erase(0, newline + 1);
      if (!reply.empty() && reply.back() == '\r') reply.pop_back();
      return true;
    }
    const IoResult io = read_some(fd_.get(), buffer, sizeof buffer);
    if (io.status == IoStatus::Ok) {
      inbox_.append(buffer, io.bytes);
      continue;
    }
    if (io.status == IoStatus::Closed || io.status == IoStatus::Error) {
      return false;  // EOF/reset before a full line: transport failure
    }
    std::vector<PollEntry> entries(1);
    entries[0].fd = fd_.get();
    entries[0].want_read = true;
    const int left = remaining_ms(deadline);
    if (left <= 0) return false;
    poll_fds(entries, left);
    if (!entries[0].readable && !entries[0].broken) return false;  // timeout
  }
}

bool ShardClient::try_request(const std::string& line, std::string& reply) {
  if (!ensure_connected()) return false;
  if (!send_all(line + "\n", options_.request_timeout_ms) ||
      !recv_line(reply, options_.request_timeout_ms)) {
    // A half-done round trip poisons the framing (a late reply would pair
    // with the wrong request), so the connection never survives a failure.
    disconnect();
    return false;
  }
  return true;
}

std::string ShardClient::request(const std::string& line) {
  std::string reply;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    int wait_ms = backoff_.delay_ms(attempt);
    if (try_request(line, reply)) {
      // Parse just enough to spot back-pressure; anything else — results
      // and terminal errors alike — is the caller's to interpret.
      std::string code;
      int hinted = 0;
      try {
        const JsonValue root = parse_json(reply);
        const JsonValue* code_value = root.find("code");
        if (code_value != nullptr &&
            code_value->kind() == JsonValue::Kind::String) {
          code = code_value->as_string();
        }
        const JsonValue* hint = root.find("retry_after_ms");
        if (hint != nullptr && hint->kind() == JsonValue::Kind::Number) {
          hinted = static_cast<int>(hint->as_number());
        }
      } catch (const std::exception&) {
        throw Error("shard client: unparseable reply: " + reply);
      }
      if (!retryable_code(code)) return reply;
      wait_ms = std::max(wait_ms, hinted);
    }
    if (attempt + 1 >= options_.max_attempts) break;
    if (wait_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
    }
  }
  throw Error("shard client: retry budget exhausted after " +
              std::to_string(options_.max_attempts) + " attempts");
}

}  // namespace qspr

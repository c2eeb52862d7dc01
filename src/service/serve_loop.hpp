// MappingServer: the fault-tolerant daemon around one shared MappingEngine.
//
// Threading model: one poll-loop thread (serve()) owns every socket and all
// connection state; `mapper_threads` workers pop admitted tickets from the
// AdmissionQueue, run the engine, and hand the finished reply back through a
// completion queue + self-pipe wake. No connection state is ever touched off
// the poll thread, so per-connection fault handling needs no locks.
//
// Robustness contract (what the fault-injection suite asserts):
//   * a malformed frame costs its connection one bad_request reply, nothing
//     else; an oversized frame ends only that connection;
//   * a client that disconnects mid-message or mid-map fails only itself —
//     its in-flight jobs are cancelled and their replies dropped;
//   * a slow reader is bounded by max_outbox_bytes, then disconnected;
//   * overload is explicit: when the admission queue is full a map request
//     is rejected immediately with `overloaded` + retry_after_ms, never
//     buffered — backpressure instead of unbounded memory;
//   * every queue slot is released on every exit path (completion, failure,
//     cancel, deadline, disconnect, drain);
//   * request_drain() (SIGTERM) stops accepting, answers queued and
//     in-flight work — cancelling whatever is still running once the drain
//     deadline lapses — flushes replies, and serve() returns 0.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/net.hpp"
#include "core/engine.hpp"
#include "service/admission.hpp"
#include "service/ndjson_connection.hpp"
#include "service/request_codec.hpp"
#include "service/result_cache.hpp"

namespace qspr {

struct ServeOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = kernel-assigned; read back via port()
  /// Executor workers inside the shared engine (trial parallelism).
  int workers = 1;
  /// Threads mapping admitted requests concurrently (request parallelism).
  int mapper_threads = 2;
  /// Admission queue depth; a full queue rejects with `overloaded`.
  int max_queue = 16;
  int max_connections = 64;
  std::size_t max_frame_bytes = 1 << 20;
  /// Per-connection reply buffer bound; a reader slower than this is cut.
  std::size_t max_outbox_bytes = 4u << 20;
  /// Floor of the back-off hint carried in `overloaded` replies. The hint
  /// itself is adaptive: an EWMA of recent per-request mapping cost times
  /// the queue depth ahead of the shed request (see RetryAfterEstimator),
  /// clamped to [retry_after_ms, retry_after_ceiling_ms]. With no completed
  /// requests observed yet the floor is the hint, which is exactly the old
  /// fixed-constant behaviour.
  int retry_after_ms = 50;
  int retry_after_ceiling_ms = 2000;
  /// Shard index stamped into health/stats replies when this daemon was
  /// launched by qspr_shard (-1 = standalone, field omitted).
  int shard_id = -1;
  /// How long a drain waits for queued + in-flight work before cancelling
  /// it; the daemon still exits cleanly either way.
  double drain_deadline_ms = 2000.0;
  /// Server-side deadline applied to requests that carry none (0 = none).
  double default_deadline_ms = 0.0;
  /// Fabric spec used when a request names none ("" = paper fabric).
  std::string default_fabric;
  MapperOptions default_options;
  /// Combined memory budget for the engine's fabric-artifact cache and the
  /// server's result cache (split evenly; 0 = unlimited). Every successful
  /// map inserts a result entry, so the 64 MiB default keeps a long-lived
  /// daemon bounded. Surfaced on the qspr_serve CLI as --cache-budget-mb;
  /// evictions show up in `stats`.
  std::size_t cache_budget_bytes = std::size_t{64} << 20;
  /// Test hook: when set, admitted maps block at the gate before mapping
  /// (see MapStartGate). Never set in production.
  std::shared_ptr<MapStartGate> map_start_gate;
};

class MappingServer {
 public:
  explicit MappingServer(ServeOptions options);
  ~MappingServer();

  MappingServer(const MappingServer&) = delete;
  MappingServer& operator=(const MappingServer&) = delete;

  /// Binds the listener and spawns the mapper threads. Throws qspr::Error
  /// when the address cannot be bound.
  void start();

  /// The bound port (after start(); resolves port 0 to the real one).
  [[nodiscard]] int port() const;

  /// Requests a graceful drain. Async-signal-safe by construction (one
  /// atomic store + one pipe write), so a SIGTERM handler may call it.
  void request_drain();

  /// Runs the poll loop until a drain completes. Returns the process exit
  /// code: 0 on a clean drain (even if the deadline forced cancellations).
  int serve();

  [[nodiscard]] ServeMetrics::Snapshot metrics() const;

 private:
  struct Connection;
  struct Completion {
    std::uint64_t connection = 0;
    std::string request_id;
    std::string line;
    /// Session whose map this completes (busy flag cleared on delivery even
    /// when the client connection is already gone).
    std::shared_ptr<ServeSession> session;
  };

  void mapper_loop();
  std::string process_ticket(ServeTicket& ticket);

  void accept_clients();
  void observe_drain();
  void read_from(Connection& conn);
  void handle_frame(Connection& conn, std::string_view frame);
  void handle_map(Connection& conn, ServeRequest&& request);
  void handle_session_open(Connection& conn, const ServeRequest& request);
  void handle_session_close(Connection& conn, const ServeRequest& request);
  void enqueue_reply(Connection& conn, std::string_view line);
  void deliver_completions();
  void destroy_connection(std::uint64_t id);
  [[nodiscard]] std::string stats_json(const std::string& id);
  [[nodiscard]] bool quiescent();
  [[nodiscard]] int retry_hint_ms() const;
  [[nodiscard]] double uptime_ms() const;

  ServeOptions options_;
  CodecLimits codec_limits_;
  MappingEngine engine_;
  /// Every map's reply, keyed on (program, fabric, options). Only the
  /// mapper threads look up and insert; the poll thread reads its stats.
  ResultCache results_;
  FabricSource fabrics_;
  AdmissionQueue queue_;
  ServeMetrics metrics_;
  RetryAfterEstimator retry_estimator_;
  std::chrono::steady_clock::time_point started_at_{};
  WakePipe wake_;
  ListenSocket listen_;
  std::vector<std::thread> mappers_;
  bool started_ = false;

  std::mutex completions_mutex_;
  std::deque<Completion> completions_;

  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
  bool drain_cancelled_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};

  std::uint64_t next_connection_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;

  // Sessions are server-scoped (they survive their opener's disconnect and
  // die with the process — a drain drops them; see docs/serve.md) and
  // poll-thread-owned like the connections.
  std::uint64_t next_session_id_ = 1;
  std::unordered_map<std::string, std::shared_ptr<ServeSession>> sessions_;
};

}  // namespace qspr

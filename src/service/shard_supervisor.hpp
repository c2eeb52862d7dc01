// ShardSupervisor: the crash-tolerant front-end of a fleet of qspr_serve
// worker processes (the sharded mapping service behind qspr_shard).
//
// One poll-loop thread owns everything: the client listener, one NDJSON
// "lane" per (client, shard) pair for verbatim frame forwarding, one
// supervisor-owned control lane per shard for queue-bypassing health
// probes, and the worker process lifecycle (fork/exec on ephemeral ports
// with --port-file discovery, waitpid(WNOHANG) reaping each iteration —
// no SIGCHLD handler, dying workers additionally wake the loop through
// their lanes' POLLHUP).
//
// Failure semantics (what tests/shard_chaos_test.cpp asserts):
//   * crash (SIGKILL, abort): detected via waitpid + lane EOF; replies the
//     worker already wrote are still delivered (the kernel holds them),
//     then every unanswered in-flight request is transparently
//     re-dispatched — to a live sibling shard, or parked until a restart —
//     which is safe because mapping is pure: a re-run returns a
//     bit-identical result (same result_fp);
//   * wedge (SIGSTOP, infinite loop): the health probe times out, the
//     supervisor SIGKILLs the worker and treats it as a crash;
//   * restart: every failure (a lost worker, a failed bring-up) waits a
//     deterministic exponential backoff with seeded jitter and a cap before
//     the next spawn; a healthy probe ends the failure streak. While a
//     shard is down, NEW requests routed to it are shed with an explicit
//     `shard_down` reply + retry hint — no silent rerouting, so cache
//     affinity is preserved for well-behaved clients;
//   * drain (SIGTERM): cascades SIGTERM to the workers (they answer their
//     in-flight work), parks nothing new, answers parked requests with
//     `draining`, cancels what is left past the deadline, reaps every
//     child, and serve() returns 0. Drained workers are not crashes. No
//     worker outlives the supervisor;
//   * supervisor death (SIGKILL, crash): every worker is spawned with
//     PR_SET_PDEATHSIG = SIGKILL, so the kernel kills the fleet with it.
//
// Routing: requests hash by fabric spec (FNV-1a 64 of the canonical spec,
// "" == "paper") to a shard, so every request against one fabric lands on
// the worker whose artifact cache is already warm. The hash is
// a pure function — routing is stable across worker restarts.
//
// Sessions: a `session_open` routes by fabric like a map; the worker names
// the session "s<shard>.<start>.<n>", where <start> is the worker's start
// instant on the monotonic clock. Frames carrying a `session` route to the
// <shard> their name carries, byte-verbatim like everything else — the
// session's circuit and cached results live in that worker. Session state
// dies with its worker, and the supervisor reaps a worker before it spawns
// the replacement, so the replacement never mints a dead worker's name: a
// stale name reaches a worker that answers unknown_session, and the client
// reopens and resubmits cold. The supervisor keeps no session table.
//
// Exactly-once: every accepted map frame produces exactly one reply line to
// its client — the forwarded worker reply, or one supervisor-built
// shard_down / draining / cancelled error. Each client's pending registry
// holds every reply owed (a frame parked for a restart is an entry with no
// shard); an entry is erased at forward time and re-dispatch only ever
// resends unanswered entries.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/net.hpp"
#include "service/ndjson_connection.hpp"
#include "service/request_codec.hpp"
#include "service/shard_client.hpp"

namespace qspr {

// ---------------------------------------------------------------------------
// Restart schedule (pure; the caller supplies every clock reading, so the
// unit tests drive it with a fake clock).

/// When a shard's next worker may spawn: each failure pushes the spawn out
/// by the backoff delay of the current failure streak, and a healthy probe
/// ends the streak, so the next failure waits the base delay again.
class RestartSchedule {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit RestartSchedule(BackoffOptions backoff = {});

  /// A failure at `now`: the next spawn waits delay_ms(streak), and the
  /// streak grows by one.
  void record_failure(TimePoint now);

  /// A healthy probe: the streak is over.
  void record_success() { failures_ = 0; }

  /// The earliest instant the next spawn may start.
  [[nodiscard]] TimePoint restart_at() const { return restart_at_; }

 private:
  BackoffPolicy backoff_;
  int failures_ = 0;
  TimePoint restart_at_{};
};

// ---------------------------------------------------------------------------
// Routing.

/// FNV-1a 64 of the canonical fabric spec ("" canonicalises to "paper", the
/// built-in fabric, so both spellings land on one shard). Pure function:
/// routing survives worker restarts and supervisor reboots unchanged.
[[nodiscard]] std::uint64_t fabric_route_fingerprint(const std::string& spec);

/// The shard a fabric spec routes to among `shard_count` shards.
[[nodiscard]] int shard_for_fabric(const std::string& spec, int shard_count);

/// The shard a fleet session name ("s<shard>.<start>.<n>") belongs to, or -1
/// when the name has another shape or names no shard among `shard_count`.
[[nodiscard]] int shard_for_session(std::string_view name, int shard_count);

// ---------------------------------------------------------------------------
// Supervisor.

struct ShardSupervisorOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = kernel-assigned; read back via port()
  int shard_count = 2;
  /// Worker executable (absolute or PATH-resolved by execv semantics: no
  /// PATH search, pass a real path).
  std::string worker_binary;
  /// Extra argv forwarded to every worker after the supervisor's own
  /// --port 0 --port-file <file> --shard-id <i> --quiet.
  std::vector<std::string> worker_args;
  /// Directory for the per-shard port files (stale ones are unlinked
  /// before each spawn).
  std::string port_file_dir = "/tmp";
  int health_interval_ms = 500;
  /// A health probe unanswered for this long marks the worker wedged: it
  /// is SIGKILLed and cycled through the crash path.
  int health_timeout_ms = 2000;
  /// How long a spawned worker gets to publish its port file and pass its
  /// first health probe before the attempt counts as a failure.
  int spawn_deadline_ms = 10'000;
  /// Restart schedule (shared shape with the client's retry pacing).
  BackoffOptions restart_backoff;
  /// Times one request may be re-dispatched after worker deaths before the
  /// client gets a shard_down reply instead.
  int max_redispatch = 2;
  double drain_deadline_ms = 5000.0;
  int max_connections = 64;
  std::size_t max_frame_bytes = 1 << 20;
  std::size_t max_outbox_bytes = 4u << 20;
  bool quiet = true;
};

/// Monotonic supervisor counters (thread-safe snapshot for tests/stats).
struct SupervisorMetrics {
  long long spawns = 0;          // fork/exec attempts
  long long reaps = 0;           // children collected via waitpid
  long long restarts = 0;        // spawns after the initial bring-up
  long long crashes = 0;         // serving workers lost outside a drain
  long long wedges = 0;          // health-timeout SIGKILLs
  long long health_ok = 0;
  long long health_failures = 0;
  long long accepted = 0;        // map frames taken on (one reply owed each)
  long long answered = 0;        // replies actually delivered to outboxes
  long long redispatches = 0;    // in-flight frames resent after a death
  long long shed_shard_down = 0; // shard_down replies (incl. redispatch cap)
  long long parked = 0;          // frames that waited for a restart
};

class ShardSupervisor {
 public:
  explicit ShardSupervisor(ShardSupervisorOptions options);
  ~ShardSupervisor();

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Binds the client listener and spawns the first generation of workers
  /// (does not wait for them to come Up — serve() brings them up). Throws
  /// qspr::Error on bind/setup failure. A worker is killed when the thread
  /// that spawned it exits, so call start() and serve() on threads that
  /// outlive the fleet (serve() respawns).
  void start();

  [[nodiscard]] int port() const;

  /// Async-signal-safe drain request (atomic store + pipe write).
  void request_drain();

  /// Runs the supervision loop until a drain completes; returns the
  /// process exit code (0 on clean drain, workers reaped).
  int serve();

  [[nodiscard]] SupervisorMetrics metrics() const;

  /// Live worker pids, index-aligned with shards (-1 = no process). The
  /// chaos harness SIGKILLs/SIGSTOPs through this.
  [[nodiscard]] std::vector<int> worker_pids() const;

 private:
  enum class ShardPhase : std::uint8_t {
    Down,        // no process; respawn waits for the restart schedule
    Spawning,    // forked; waiting for the port file
    Connecting,  // port known; control-lane connect in flight
    Probing,     // control lane up; first health probe outstanding
    Up,          // serving
  };

  struct Shard;
  struct Client;
  /// A worker-facing connection: one client's lane to one shard, or a
  /// shard's control lane. Uncapped — the supervisor writes only what its
  /// clients sent or its own probes.
  using Lane = NdjsonConnection;

  // Worker lifecycle.
  void spawn_shard(int index);
  /// The one way down: SIGKILLs a live worker, drops its control lane and,
  /// outside a drain, counts a lost serving worker as a crash and schedules
  /// the next spawn. A no-op on a shard that is already Down.
  void shard_down(int index, const char* why);
  void reap_children();
  void pump_shard_bringup(int index);
  void send_health_probes();
  void send_probe(Shard& shard);
  void check_health_timeouts();
  void read_control(int index);

  // Client plumbing. route_map also carries session_open / session_close
  // frames — same accept/shed/dispatch path, only the target shard differs
  // (fabric hash for stateless + open, the session name for the rest).
  void accept_clients();
  void read_client(Client& client);
  void handle_client_frame(Client& client, std::string frame);
  void route_map(Client& client, const ServeRequest& request,
                 std::string frame);
  void dispatch(Client& client, const std::string& request_id,
                std::string frame, int shard_index, int attempts);
  void destroy_client(std::uint64_t id);

  // Lane plumbing.
  [[nodiscard]] Lane open_lane(int port, std::size_t max_frame_bytes) const;
  Lane& lane_for(Client& client, int shard_index);
  void read_lane(Client& client, int shard_index, Lane& lane);
  void fail_lane(Client& client, int shard_index);

  // Failure routing.
  void redispatch_or_park(Client& client, const std::string& request_id,
                          std::string frame, int attempts);
  /// Sends every parked frame (a pending entry with no shard) to `up_shard`.
  void flush_parked(int up_shard);
  void shed(Client& client, const std::string& request_id, int shard_index);

  // Drain.
  void begin_drain();
  void finish_drain();

  [[nodiscard]] int poll_timeout_ms() const;
  [[nodiscard]] int first_up_shard() const;
  [[nodiscard]] int shard_retry_hint_ms(int index) const;
  [[nodiscard]] std::string stats_json(const std::string& id) const;
  [[nodiscard]] std::string health_json(const std::string& id) const;
  void count(long long SupervisorMetrics::* field, long long delta = 1);
  void set_worker_pid(int index, int pid);

  ShardSupervisorOptions options_;
  CodecLimits codec_limits_;
  WakePipe wake_;
  ListenSocket listen_;
  bool started_ = false;
  std::chrono::steady_clock::time_point started_at_{};

  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
  bool drain_killed_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};

  std::uint64_t next_client_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Client>> clients_;

  mutable std::mutex shared_mutex_;  // metrics_ + worker_pids_ (test access)
  SupervisorMetrics metrics_;
  std::vector<int> worker_pids_;
};

}  // namespace qspr

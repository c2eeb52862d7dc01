#include "service/shard_supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/json.hpp"

namespace qspr {

namespace {

/// Frame cap of a control lane, which carries only health replies.
constexpr std::size_t kControlFrameBytes = 1 << 16;

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::chrono::steady_clock::time_point after_ms(
    std::chrono::steady_clock::time_point from, double ms) {
  return from + std::chrono::microseconds(static_cast<long long>(ms * 1000.0));
}

/// Pulls the "id" out of one reply line ("" when it has none). Returns
/// false when the line is not a JSON object — the caller drops it.
bool reply_id(const std::string& line, std::string& id) {
  try {
    const JsonValue root = parse_json(line);
    if (!root.is_object()) return false;
    id = root.string_or("id", "");
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Consumes `c` and the decimal number right after it from the front of
/// `text`; false when either is missing or the number overflows.
bool take_field(std::string_view& text, char c, std::uint64_t& value) {
  if (text.empty() || text.front() != c) return false;
  const char* first = text.data() + 1;
  const auto [end, error] =
      std::from_chars(first, text.data() + text.size(), value);
  if (error != std::errc() || end == first) return false;
  text.remove_prefix(static_cast<std::size_t>(end - text.data()));
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Restart schedule.

RestartSchedule::RestartSchedule(BackoffOptions backoff) : backoff_(backoff) {}

void RestartSchedule::record_failure(TimePoint now) {
  restart_at_ =
      after_ms(now, static_cast<double>(backoff_.delay_ms(failures_)));
  // A zero backoff lets a failing fork() loop fast; never overflow the streak.
  if (failures_ < std::numeric_limits<int>::max()) ++failures_;
}

// ---------------------------------------------------------------------------
// Routing.

std::uint64_t fabric_route_fingerprint(const std::string& spec) {
  // "" and "paper" both mean the built-in fabric; canonicalise so they
  // share a shard (and its warm artifact caches).
  const std::string_view canonical =
      spec.empty() ? "paper" : std::string_view(spec);
  return Fnv1a().bytes(canonical).value();
}

int shard_for_fabric(const std::string& spec, int shard_count) {
  require(shard_count >= 1, "routing needs at least one shard");
  return static_cast<int>(fabric_route_fingerprint(spec) %
                          static_cast<std::uint64_t>(shard_count));
}

int shard_for_session(std::string_view name, int shard_count) {
  require(shard_count >= 1, "routing needs at least one shard");
  std::uint64_t shard = 0;
  std::uint64_t start = 0;
  std::uint64_t n = 0;
  const bool fleet_name = take_field(name, 's', shard) &&
                          take_field(name, '.', start) &&
                          take_field(name, '.', n) && name.empty();
  if (!fleet_name || shard >= static_cast<std::uint64_t>(shard_count)) {
    return -1;
  }
  return static_cast<int>(shard);
}

// ---------------------------------------------------------------------------
// Internal structures.

/// One client connection and its upstream lanes, one per shard it has
/// talked to. Frames forward byte-verbatim in both directions, so the
/// worker's replies need no id rewriting — and closing a lane is exactly a
/// client disconnect from the worker's point of view (it cancels that
/// connection's in-flight work), which is how client death propagates.
struct ShardSupervisor::Client : NdjsonConnection {
  Client(FileDescriptor fd, const ShardSupervisorOptions& options)
      : NdjsonConnection(std::move(fd), options.max_frame_bytes,
                         options.max_outbox_bytes) {}

  /// A reply this client is owed: one accepted frame, its original bytes
  /// (for re-dispatch), and how many worker deaths it has survived. A
  /// frame parked until a restart has no shard.
  struct Pending {
    int shard = -1;
    std::string frame;
    int attempts = 0;
  };
  std::unordered_map<std::string, Pending> pending;
  std::unordered_map<int, Lane> lanes;  // shard index -> upstream lane
};

struct ShardSupervisor::Shard {
  int index = 0;
  ShardPhase phase = ShardPhase::Down;
  int pid = -1;
  int port = 0;
  std::string port_file;
  bool spawned_ever = false;
  RestartSchedule restarts;
  std::chrono::steady_clock::time_point phase_deadline{};

  // Supervisor-owned control lane: health probes only. Kept separate from
  // client lanes so a probe never queues behind client traffic.
  std::optional<Lane> control;
  bool probe_outstanding = false;
  std::chrono::steady_clock::time_point probe_sent_at{};
  std::chrono::steady_clock::time_point next_probe_at{};

  Shard(int index_in, const BackoffOptions& backoff)
      : index(index_in), restarts(backoff) {}

  void reset_control() {
    control.reset();
    probe_outstanding = false;
  }
};

// ---------------------------------------------------------------------------
// Lifecycle.

ShardSupervisor::ShardSupervisor(ShardSupervisorOptions options)
    : options_(std::move(options)) {
  require(options_.shard_count >= 1, "qspr_shard needs at least one shard");
  require(!options_.worker_binary.empty(), "qspr_shard needs a worker binary");
  require(options_.max_redispatch >= 0, "max_redispatch must be >= 0");
  require(options_.health_interval_ms >= 1 && options_.health_timeout_ms >= 1,
          "health interval/timeout must be >= 1 ms");
  codec_limits_.max_frame_bytes = options_.max_frame_bytes;
}

ShardSupervisor::~ShardSupervisor() {
  // serve() normally reaps every child; cover early-throw lifetimes so a
  // failed test never leaks worker processes.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->pid > 0) {
      ::kill(shard->pid, SIGKILL);
      int status = 0;
      (void)::waitpid(shard->pid, &status, 0);
    }
    if (!shard->port_file.empty()) (void)::unlink(shard->port_file.c_str());
  }
}

void ShardSupervisor::start() {
  require(!started_, "start() called twice");
  started_at_ = std::chrono::steady_clock::now();
  listen_ = ListenSocket(options_.host, options_.port);

  shards_.reserve(static_cast<std::size_t>(options_.shard_count));
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    worker_pids_.assign(static_cast<std::size_t>(options_.shard_count), -1);
  }
  for (int i = 0; i < options_.shard_count; ++i) {
    // Seed each shard's restart schedule differently so a mass failure
    // does not restart every worker in lockstep.
    BackoffOptions backoff = options_.restart_backoff;
    backoff.seed += static_cast<std::uint64_t>(i);
    auto shard = std::make_unique<Shard>(i, backoff);
    shard->port_file = options_.port_file_dir + "/qspr_shard_" +
                       std::to_string(::getpid()) + "_" + std::to_string(i) +
                       ".port";
    shards_.push_back(std::move(shard));
  }
  started_ = true;
  for (int i = 0; i < options_.shard_count; ++i) spawn_shard(i);
}

int ShardSupervisor::port() const { return listen_.port(); }

void ShardSupervisor::request_drain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  wake_.notify();
}

SupervisorMetrics ShardSupervisor::metrics() const {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  return metrics_;
}

std::vector<int> ShardSupervisor::worker_pids() const {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  return worker_pids_;
}

void ShardSupervisor::count(long long SupervisorMetrics::* field,
                            long long delta) {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  metrics_.*field += delta;
}

void ShardSupervisor::set_worker_pid(int index, int pid) {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  worker_pids_[static_cast<std::size_t>(index)] = pid;
}

// ---------------------------------------------------------------------------
// Worker lifecycle.

void ShardSupervisor::spawn_shard(int index) {
  Shard& shard = *shards_[static_cast<std::size_t>(index)];
  if (shard.pid > 0) return;  // previous process not reaped yet
  (void)::unlink(shard.port_file.c_str());

  std::vector<std::string> args;
  args.push_back(options_.worker_binary);
  args.push_back("--port");
  args.push_back("0");
  args.push_back("--port-file");
  args.push_back(shard.port_file);
  args.push_back("--shard-id");
  args.push_back(std::to_string(index));
  args.push_back("--quiet");
  for (const std::string& extra : options_.worker_args) args.push_back(extra);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t supervisor = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    shard.phase = ShardPhase::Spawning;  // a failed bring-up, not a no-op
    shard_down(index, "fork failed");
    return;
  }
  if (pid == 0) {
    // Child: die with the supervisor. The kernel delivers the death signal
    // when the thread that forked exits, so spawns stay on threads that
    // outlive the workers (see start()). A supervisor that died before the
    // prctl has already handed this child to another parent: exit instead.
    // Then drop every inherited descriptor beyond stdio (the listener, wake
    // pipe, sibling lanes...) and become the worker. Only async-signal-safe
    // calls between fork and execv.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != supervisor) _exit(127);
    for (int fd = 3; fd < 4096; ++fd) ::close(fd);
    ::execv(argv[0], argv.data());
    _exit(127);
  }

  shard.pid = static_cast<int>(pid);
  shard.phase = ShardPhase::Spawning;
  shard.phase_deadline = after_ms(std::chrono::steady_clock::now(),
                                  static_cast<double>(options_.spawn_deadline_ms));
  set_worker_pid(index, shard.pid);
  count(&SupervisorMetrics::spawns);
  if (shard.spawned_ever) count(&SupervisorMetrics::restarts);
  shard.spawned_ever = true;
  if (!options_.quiet) {
    std::cerr << "qspr_shard: shard " << index << " spawned pid " << shard.pid
              << "\n";
  }
}

void ShardSupervisor::shard_down(int index, const char* why) {
  Shard& shard = *shards_[static_cast<std::size_t>(index)];
  if (shard.phase == ShardPhase::Down) return;
  // Whichever detector notices a death first — lane EOF, probe timeout,
  // bring-up deadline or the waitpid sweep — takes the shard down; the
  // others find it Down. A live process is killed here, so a Down shard's
  // pid is always dead or dying and the waitpid sweep only reaps it.
  if (shard.pid > 0) ::kill(shard.pid, SIGKILL);
  const bool was_up = shard.phase == ShardPhase::Up;
  shard.phase = ShardPhase::Down;
  shard.reset_control();
  if (!options_.quiet) {
    std::cerr << "qspr_shard: shard " << index << " down: " << why << "\n";
  }
  if (draining_) return;  // drained workers are neither crashes nor respawned
  if (was_up) count(&SupervisorMetrics::crashes);
  shard.restarts.record_failure(std::chrono::steady_clock::now());
}

void ShardSupervisor::reap_children() {
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    if (shard.pid <= 0) continue;
    int status = 0;
    const pid_t got = ::waitpid(shard.pid, &status, WNOHANG);
    if (got != shard.pid) continue;
    count(&SupervisorMetrics::reaps);
    set_worker_pid(shard.index, -1);
    shard.pid = -1;
    // Client lanes to a dead serving worker EOF: buffered replies still
    // arrive, then the unanswered remainder re-dispatches through
    // fail_lane.
    shard_down(shard.index, "worker exited");
  }
}

void ShardSupervisor::pump_shard_bringup(int index) {
  Shard& shard = *shards_[static_cast<std::size_t>(index)];
  const auto now = std::chrono::steady_clock::now();
  if (shard.phase == ShardPhase::Spawning ||
      shard.phase == ShardPhase::Connecting ||
      shard.phase == ShardPhase::Probing) {
    if (now >= shard.phase_deadline) {
      shard_down(index, "bring-up deadline");
      return;
    }
  }

  if (shard.phase == ShardPhase::Spawning) {
    std::ifstream in(shard.port_file);
    int port = 0;
    if (!(in >> port) || port <= 0) return;  // not published yet
    shard.port = port;
    shard.phase = ShardPhase::Connecting;
  }

  if (shard.phase == ShardPhase::Connecting && !shard.control) {
    Lane lane = open_lane(shard.port, kControlFrameBytes);
    if (lane.broken()) return;  // refused (or no fd): retry until the deadline
    shard.control = std::move(lane);
    if (!shard.control->connecting()) {
      shard.phase = ShardPhase::Probing;
      send_probe(shard);
    }
  }
}

void ShardSupervisor::send_health_probes() {
  const auto now = std::chrono::steady_clock::now();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->phase != ShardPhase::Up || !shard->control) continue;
    if (shard->probe_outstanding || now < shard->next_probe_at) continue;
    send_probe(*shard);
  }
}

void ShardSupervisor::send_probe(Shard& shard) {
  shard.probe_outstanding = true;
  shard.probe_sent_at = std::chrono::steady_clock::now();
  if (!shard.control->queue(R"({"type":"health","id":"hb"})")) {
    shard_down(shard.index, "control lane write");
  }
}

void ShardSupervisor::check_health_timeouts() {
  const auto now = std::chrono::steady_clock::now();
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    if (shard.phase != ShardPhase::Up || !shard.probe_outstanding) continue;
    if (ms_between(shard.probe_sent_at, now) <
        static_cast<double>(options_.health_timeout_ms)) {
      continue;
    }
    // Wedged: the process is alive (waitpid saw nothing) but the poll-loop
    // health probe — which bypasses the admission queue — went unanswered.
    // SIGKILL it and run the crash path.
    count(&SupervisorMetrics::wedges);
    count(&SupervisorMetrics::health_failures);
    shard_down(shard.index, "wedged (health timeout)");
  }
}

void ShardSupervisor::read_control(int index) {
  Shard& shard = *shards_[static_cast<std::size_t>(index)];
  bool rejected = false;
  const Lane::ReadEnd end = shard.control->read([&](const std::string& frame) {
    bool healthy = false;
    try {
      const JsonValue root = parse_json(frame);
      const JsonValue* ok = root.find("ok");
      const JsonValue* health = root.find("health");
      healthy = ok != nullptr && ok->kind() == JsonValue::Kind::Bool &&
                ok->as_bool() && health != nullptr;
    } catch (const std::exception&) {
      healthy = false;
    }
    const auto now = std::chrono::steady_clock::now();
    shard.probe_outstanding = false;
    shard.next_probe_at =
        after_ms(now, static_cast<double>(options_.health_interval_ms));
    if (healthy) {
      count(&SupervisorMetrics::health_ok);
      shard.restarts.record_success();
      if (shard.phase == ShardPhase::Probing) {
        shard.phase = ShardPhase::Up;
        if (!options_.quiet) {
          std::cerr << "qspr_shard: shard " << index << " up on port "
                    << shard.port << "\n";
        }
        flush_parked(index);
      }
    } else {
      count(&SupervisorMetrics::health_failures);
      rejected = true;
      shard.control->mark_broken();  // stop reading; shard_down below
    }
  });
  if (rejected) {
    shard_down(index, "health probe rejected");
  } else if (end == Lane::ReadEnd::Oversized) {
    shard_down(index, "oversized control reply");
  } else if (end == Lane::ReadEnd::Closed || end == Lane::ReadEnd::Error) {
    shard_down(index, "control lane closed");
  }
}

// ---------------------------------------------------------------------------
// Client side.

void ShardSupervisor::accept_clients() {
  while (true) {
    FileDescriptor client_fd = listen_.accept_client();
    if (!client_fd.valid()) return;
    if (static_cast<int>(clients_.size()) >= options_.max_connections) {
      const std::string refusal =
          serve_error_json("", "overloaded", "connection limit reached", 100) +
          "\n";
      (void)write_some(client_fd.get(), refusal);
      continue;
    }
    clients_.emplace(next_client_id_++,
                     std::make_unique<Client>(std::move(client_fd), options_));
  }
}

void ShardSupervisor::read_client(Client& client) {
  const Client::ReadEnd end = client.read(
      [&](std::string& frame) { handle_client_frame(client, std::move(frame)); });
  if (end == Client::ReadEnd::Oversized) {
    client.queue(serve_error_json("", "oversized",
                                  "frame exceeds max_frame_bytes; closing"));
    client.close_after_flush();
  }
}

void ShardSupervisor::handle_client_frame(Client& client, std::string frame) {
  ServeRequest request;
  try {
    request = parse_serve_request(frame, codec_limits_, MapperOptions{});
  } catch (const std::exception& e) {
    client.queue(serve_error_json("", "bad_request", e.what()));
    return;
  }
  switch (request.kind) {
    case RequestKind::Ping:
      client.queue(serve_pong_json(request.id));
      return;
    case RequestKind::Stats:
      client.queue(stats_json(request.id));
      return;
    case RequestKind::Health:
      client.queue(health_json(request.id));
      return;
    case RequestKind::Cancel: {
      // Forward to the worker that holds the target; its ack flows back on
      // the same lane byte-verbatim. An unknown target is acked locally.
      const auto it = client.pending.find(request.cancel_target);
      if (it == client.pending.end()) {
        client.queue(serve_cancel_ack_json(request.id, request.cancel_target,
                                           /*found=*/false));
        return;
      }
      const auto lane_it = client.lanes.find(it->second.shard);
      if (lane_it == client.lanes.end() || lane_it->second.broken()) {
        // Parked, or the worker died: the map request itself is on the
        // re-dispatch path, so the cancel finds nothing to stop.
        client.queue(serve_cancel_ack_json(request.id, request.cancel_target,
                                           /*found=*/false));
        return;
      }
      lane_it->second.queue(frame);
      return;
    }
    case RequestKind::SessionOpen:
    case RequestKind::SessionClose:
    case RequestKind::Map:
      // All three take the accepted/pending path and are owed exactly one
      // reply; route_map picks the shard (fabric hash vs session name).
      route_map(client, request, std::move(frame));
      return;
  }
}

void ShardSupervisor::route_map(Client& client, const ServeRequest& request,
                                std::string frame) {
  if (client.pending.count(request.id) != 0) {
    client.queue(serve_error_json(request.id, "bad_request",
                                  "duplicate in-flight request id"));
    return;
  }
  if (draining_) {
    client.queue(serve_error_json(request.id, "draining",
                                  "supervisor is draining; retry against a "
                                  "healthy instance"));
    return;
  }
  // Session frames follow the session, not the fabric: its circuit lives
  // in the worker whose shard its name carries. A name that names no shard
  // was never minted here; a stale one reaches a worker that never minted
  // it, which answers unknown_session itself.
  const int target =
      request.session.empty()
          ? shard_for_fabric(request.fabric, options_.shard_count)
          : shard_for_session(request.session, options_.shard_count);
  if (target < 0) {
    client.queue(serve_error_json(
        request.id, "unknown_session",
        "session not open on this fleet (reopen): " + request.session));
    return;
  }
  if (shards_[static_cast<std::size_t>(target)]->phase != ShardPhase::Up) {
    // Explicit shedding, no silent rerouting: affinity-preserving clients
    // retry after the hint and land back on their warm shard.
    shed(client, request.id, target);
    return;
  }
  count(&SupervisorMetrics::accepted);
  dispatch(client, request.id, std::move(frame), target, /*attempts=*/0);
}

void ShardSupervisor::shed(Client& client, const std::string& request_id,
                           int shard_index) {
  count(&SupervisorMetrics::shed_shard_down);
  client.queue(serve_error_json(request_id, "shard_down",
                                "shard " + std::to_string(shard_index) +
                                    " is down; retry after the hint",
                                shard_retry_hint_ms(shard_index)));
}

void ShardSupervisor::dispatch(Client& client, const std::string& request_id,
                               std::string frame, int shard_index,
                               int attempts) {
  // A write failure leaves the lane broken; the end of the poll pass
  // re-dispatches what it owed through fail_lane.
  lane_for(client, shard_index).queue(frame);
  client.pending[request_id] = {shard_index, std::move(frame), attempts};
}

ShardSupervisor::Lane ShardSupervisor::open_lane(
    int port, std::size_t max_frame_bytes) const {
  bool pending = false;
  FileDescriptor fd;
  try {
    fd = connect_nonblocking(options_.host, port, pending);
  } catch (const std::exception&) {
    fd.reset();  // no descriptor to spare: a broken lane, like a refusal
  }
  return Lane(std::move(fd), max_frame_bytes, /*max_outbox_bytes=*/0, pending);
}

ShardSupervisor::Lane& ShardSupervisor::lane_for(Client& client,
                                                 int shard_index) {
  const auto it = client.lanes.find(shard_index);
  if (it != client.lanes.end() && !it->second.broken()) return it->second;
  client.lanes.erase(shard_index);
  // A refused connect (the shard just died) gives a broken lane, which
  // fail_lane handles at the end of the poll pass.
  Lane lane = open_lane(shards_[static_cast<std::size_t>(shard_index)]->port,
                        options_.max_frame_bytes);
  return client.lanes.emplace(shard_index, std::move(lane)).first->second;
}

void ShardSupervisor::read_lane(Client& client, int shard_index, Lane& lane) {
  const Lane::ReadEnd end = lane.read([&](const std::string& frame) {
    std::string id;
    if (!reply_id(frame, id)) return;  // not JSON: drop, never forward
    const auto pending_it = client.pending.find(id);
    if (pending_it != client.pending.end() &&
        pending_it->second.shard == shard_index) {
      // The one reply this accepted request gets: account and erase
      // BEFORE forwarding, so a crash later can only re-dispatch
      // requests that were truly never answered.
      client.pending.erase(pending_it);
      count(&SupervisorMetrics::answered);
    }
    client.queue(frame);
  });
  // EOF after a worker death: everything the worker managed to write was
  // already forwarded above; a partial trailing frame is dropped (never
  // half-forwarded) and its request re-dispatches with the rest.
  if (end == Lane::ReadEnd::Closed || end == Lane::ReadEnd::Error ||
      end == Lane::ReadEnd::Oversized) {
    fail_lane(client, shard_index);
  }
}

void ShardSupervisor::fail_lane(Client& client, int shard_index) {
  const auto lane_it = client.lanes.find(shard_index);
  if (lane_it == client.lanes.end()) return;
  client.lanes.erase(lane_it);
  // Collect this lane's unanswered requests, then re-dispatch each — the
  // mapping is pure, so a duplicate execution elsewhere returns the
  // bit-identical result the client was promised.
  std::vector<std::pair<std::string, Client::Pending>> orphans;
  for (auto it = client.pending.begin(); it != client.pending.end();) {
    if (it->second.shard == shard_index) {
      orphans.emplace_back(it->first, std::move(it->second));
      it = client.pending.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [request_id, pending] : orphans) {
    redispatch_or_park(client, request_id, std::move(pending.frame),
                       pending.attempts);
  }
}

void ShardSupervisor::redispatch_or_park(Client& client,
                                         const std::string& request_id,
                                         std::string frame, int attempts) {
  if (draining_) {
    count(&SupervisorMetrics::answered);
    client.queue(serve_error_json(request_id, "cancelled",
                                  "supervisor drained before completion"));
    return;
  }
  if (attempts + 1 > options_.max_redispatch) {
    count(&SupervisorMetrics::answered);
    count(&SupervisorMetrics::shed_shard_down);
    client.queue(serve_error_json(request_id, "shard_down",
                                  "request outlived " +
                                      std::to_string(attempts + 1) +
                                      " worker deaths; giving up",
                                  shard_retry_hint_ms(-1)));
    return;
  }
  const int target = first_up_shard();
  if (target < 0) {
    // No shard alive right now: park until a restart comes Up (an entry
    // with no shard). The client just waits a little longer — its request
    // is not lost.
    count(&SupervisorMetrics::parked);
    client.pending[request_id] = {-1, std::move(frame), attempts + 1};
    return;
  }
  count(&SupervisorMetrics::redispatches);
  dispatch(client, request_id, std::move(frame), target, attempts + 1);
}

void ShardSupervisor::flush_parked(int up_shard) {
  for (auto& [id, client] : clients_) {
    for (auto& [request_id, pending] : client->pending) {
      if (pending.shard >= 0) continue;
      count(&SupervisorMetrics::redispatches);
      pending.shard = up_shard;
      lane_for(*client, up_shard).queue(pending.frame);
    }
  }
}

void ShardSupervisor::destroy_client(std::uint64_t id) {
  const auto it = clients_.find(id);
  if (it == clients_.end()) return;
  // Closing the lanes is the cancellation: each worker sees its connection
  // from this client drop and cancels that connection's in-flight work.
  const long long owed = static_cast<long long>(it->second->pending.size());
  if (owed > 0) count(&SupervisorMetrics::answered, owed);
  clients_.erase(it);
}

// ---------------------------------------------------------------------------
// Drain.

void ShardSupervisor::begin_drain() {
  draining_ = true;
  listen_.close();
  drain_deadline_ = after_ms(std::chrono::steady_clock::now(),
                             options_.drain_deadline_ms);
  // Cascade: workers drain themselves (answer in-flight, flush, exit 0);
  // their replies flow back over the lanes before the EOF.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->pid > 0) ::kill(shard->pid, SIGTERM);
  }
  // Parked frames are not running anywhere; answer them now.
  for (auto& [id, client] : clients_) {
    for (auto it = client->pending.begin(); it != client->pending.end();) {
      if (it->second.shard >= 0) {
        ++it;
        continue;
      }
      count(&SupervisorMetrics::answered);
      client->queue(serve_error_json(
          it->first, "draining", "supervisor is draining; retry elsewhere"));
      it = client->pending.erase(it);
    }
  }
  if (!options_.quiet) std::cerr << "qspr_shard: draining\n";
}

void ShardSupervisor::finish_drain() {
  // Past the deadline: stop waiting for worker drains. SIGKILL guarantees
  // prompt EOFs and waitpid results; unanswered requests get `cancelled`.
  drain_killed_ = true;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard_down(shard->index, "drain deadline");
    if (shard->pid > 0) {
      int status = 0;
      (void)::waitpid(shard->pid, &status, 0);
      count(&SupervisorMetrics::reaps);
      set_worker_pid(shard->index, -1);
      shard->pid = -1;
    }
  }
  for (auto& [id, client] : clients_) {
    std::vector<std::string> owed;
    owed.reserve(client->pending.size());
    for (const auto& [request_id, pending] : client->pending) {
      owed.push_back(request_id);
    }
    client->pending.clear();
    client->lanes.clear();
    for (const std::string& request_id : owed) {
      count(&SupervisorMetrics::answered);
      client->queue(serve_error_json(request_id, "cancelled",
                                    "drain deadline cancelled the request"));
    }
  }
}

// ---------------------------------------------------------------------------
// The supervision loop.

int ShardSupervisor::poll_timeout_ms() const {
  const auto now = std::chrono::steady_clock::now();
  double timeout = -1.0;
  const auto consider = [&](std::chrono::steady_clock::time_point at) {
    const double ms = std::max(0.0, ms_between(now, at));
    if (timeout < 0.0 || ms < timeout) timeout = ms;
  };
  for (const std::unique_ptr<Shard>& shard : shards_) {
    switch (shard->phase) {
      case ShardPhase::Spawning:
      case ShardPhase::Connecting:
        // Port-file polling / connect retries have no fd to wake on.
        timeout = timeout < 0.0 ? 20.0 : std::min(timeout, 20.0);
        break;
      case ShardPhase::Probing:
        consider(shard->phase_deadline);
        break;
      case ShardPhase::Up:
        consider(shard->probe_outstanding
                     ? after_ms(shard->probe_sent_at,
                                static_cast<double>(options_.health_timeout_ms))
                     : shard->next_probe_at);
        break;
      case ShardPhase::Down:
        if (!draining_ && shard->pid <= 0) {
          consider(shard->restarts.restart_at());
        } else if (shard->pid > 0) {
          // Awaiting the waitpid of a killed process: tick soon.
          timeout = timeout < 0.0 ? 20.0 : std::min(timeout, 20.0);
        }
        break;
    }
  }
  if (draining_ && !drain_killed_) consider(drain_deadline_);
  if (timeout < 0.0) return -1;
  return static_cast<int>(timeout) + 1;
}

int ShardSupervisor::first_up_shard() const {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->phase == ShardPhase::Up) return shard->index;
  }
  return -1;
}

int ShardSupervisor::shard_retry_hint_ms(int index) const {
  double left = 0.0;  // until the shard's next spawn may start
  if (index >= 0) {
    left = std::max(
        0.0, ms_between(std::chrono::steady_clock::now(),
                        shards_[static_cast<std::size_t>(index)]
                            ->restarts.restart_at()));
  }
  return static_cast<int>(std::clamp(left + 100.0, 50.0, 5000.0));
}

int ShardSupervisor::serve() {
  require(started_, "serve() needs start()");

  struct EntryRef {
    enum class Kind : std::uint8_t { Wake, Listen, Control, ClientFd, LaneFd };
    Kind kind = Kind::Wake;
    std::uint64_t client = 0;
    int shard = -1;
  };
  std::vector<PollEntry> entries;
  std::vector<EntryRef> refs;
  std::vector<std::uint64_t> scratch_ids;

  while (true) {
    if (!draining_ && drain_requested_.load(std::memory_order_relaxed)) {
      begin_drain();
    }
    if (draining_ && !drain_killed_ &&
        std::chrono::steady_clock::now() >= drain_deadline_) {
      finish_drain();
    }

    reap_children();

    if (!draining_) {
      const auto now = std::chrono::steady_clock::now();
      for (const std::unique_ptr<Shard>& shard : shards_) {
        if (shard->phase == ShardPhase::Down && shard->pid <= 0 &&
            now >= shard->restarts.restart_at()) {
          spawn_shard(shard->index);
        }
      }
      for (const std::unique_ptr<Shard>& shard : shards_) {
        pump_shard_bringup(shard->index);
      }
      send_health_probes();
      check_health_timeouts();
    }

    // Reap clients exactly like the worker's serve loop does.
    scratch_ids.clear();
    for (const auto& [id, client] : clients_) {
      if (client->finished(/*replies_owed=*/!client->pending.empty())) {
        scratch_ids.push_back(id);
      }
    }
    for (const std::uint64_t id : scratch_ids) destroy_client(id);

    if (draining_) {
      bool workers_gone = true;
      for (const std::unique_ptr<Shard>& shard : shards_) {
        if (shard->pid > 0) workers_gone = false;
      }
      bool replies_owed = false;
      bool unflushed = false;
      for (const auto& [id, client] : clients_) {
        if (client->broken()) continue;
        if (!client->pending.empty()) replies_owed = true;
        if (!client->outbox_empty()) unflushed = true;
      }
      if (workers_gone && !replies_owed && (!unflushed || drain_killed_)) {
        break;
      }
    }

    // Build the poll set.
    entries.clear();
    refs.clear();
    entries.push_back({wake_.read_fd(), /*want_read=*/true});
    refs.push_back({EntryRef::Kind::Wake, 0, -1});
    if (listen_.valid()) {
      entries.push_back({listen_.fd(), /*want_read=*/true});
      refs.push_back({EntryRef::Kind::Listen, 0, -1});
    }
    for (const std::unique_ptr<Shard>& shard : shards_) {
      if (!shard->control) continue;
      entries.push_back(shard->control->poll_entry());
      refs.push_back({EntryRef::Kind::Control, 0, shard->index});
    }
    for (const auto& [id, client] : clients_) {
      entries.push_back(client->poll_entry());
      refs.push_back({EntryRef::Kind::ClientFd, id, -1});
      for (const auto& [shard_index, lane] : client->lanes) {
        if (lane.broken()) continue;
        entries.push_back(lane.poll_entry());
        refs.push_back({EntryRef::Kind::LaneFd, id, shard_index});
      }
    }

    poll_fds(entries, poll_timeout_ms());

    for (std::size_t i = 0; i < entries.size(); ++i) {
      const PollEntry& entry = entries[i];
      const EntryRef& ref = refs[i];
      switch (ref.kind) {
        case EntryRef::Kind::Wake:
          if (entry.readable) wake_.drain();
          break;
        case EntryRef::Kind::Listen:
          if (entry.readable && listen_.valid()) accept_clients();
          break;
        case EntryRef::Kind::Control: {
          Shard& shard = *shards_[static_cast<std::size_t>(ref.shard)];
          if (!shard.control || shard.control->fd() != entry.fd) {
            break;  // phase changed earlier this pass
          }
          if (shard.control->connecting()) {
            if (!entry.writable && !entry.broken) break;
            if (!shard.control->finish_connect()) {
              shard.control.reset();  // retried by pump_shard_bringup
              break;
            }
            shard.phase = ShardPhase::Probing;
            send_probe(shard);
            break;
          }
          if (entry.readable || entry.broken) read_control(ref.shard);
          if (shard.control && entry.writable && !shard.control->flush()) {
            shard_down(ref.shard, "control lane write");
          }
          break;
        }
        case EntryRef::Kind::ClientFd: {
          const auto it = clients_.find(ref.client);
          if (it == clients_.end()) break;
          Client& client = *it->second;
          if (client.fd() != entry.fd) break;
          if (entry.broken) {
            client.mark_broken();
            break;
          }
          if (entry.readable) read_client(client);
          if (entry.writable && !client.outbox_empty()) client.flush();
          break;
        }
        case EntryRef::Kind::LaneFd: {
          const auto it = clients_.find(ref.client);
          if (it == clients_.end()) break;
          Client& client = *it->second;
          const auto lane_it = client.lanes.find(ref.shard);
          if (lane_it == client.lanes.end()) break;
          Lane& lane = lane_it->second;
          if (lane.fd() != entry.fd) break;
          if (lane.connecting()) {
            if ((entry.writable || entry.broken) && !lane.finish_connect()) {
              fail_lane(client, ref.shard);
            }
            break;
          }
          // Read before acting on broken: a dead worker's final replies
          // sit in the kernel buffer and must forward before the EOF
          // triggers re-dispatch of the remainder.
          if (entry.readable || entry.broken) {
            read_lane(client, ref.shard, lane);
          }
          const auto again = client.lanes.find(ref.shard);
          if (again != client.lanes.end()) {
            if (again->second.broken()) {
              fail_lane(client, ref.shard);
            } else if (entry.writable) {
              again->second.flush();
            }
          }
          break;
        }
      }
    }

    // Lanes whose writes failed outside a poll pass (dispatch to a
    // just-died worker) re-dispatch here.
    scratch_ids.clear();
    for (const auto& [id, client] : clients_) scratch_ids.push_back(id);
    for (const std::uint64_t id : scratch_ids) {
      const auto it = clients_.find(id);
      if (it == clients_.end()) continue;
      std::vector<int> broken_lanes;
      for (const auto& [shard_index, lane] : it->second->lanes) {
        if (lane.broken()) broken_lanes.push_back(shard_index);
      }
      for (const int shard_index : broken_lanes) {
        fail_lane(*it->second, shard_index);
      }
    }
  }

  // Clean exit: every child reaped, every owed reply flushed or its client
  // cut at the deadline.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    (void)::unlink(shard->port_file.c_str());
  }
  clients_.clear();
  if (!options_.quiet) {
    const SupervisorMetrics snap = metrics();
    std::cerr << "qspr_shard drained: accepted " << snap.accepted
              << ", answered " << snap.answered << ", redispatched "
              << snap.redispatches << ", restarts " << snap.restarts << "\n";
  }
  return 0;
}

std::string ShardSupervisor::stats_json(const std::string& id) const {
  const SupervisorMetrics snap = metrics();
  int up = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->phase == ShardPhase::Up) ++up;
  }
  JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", true);
  json.key("stats").begin_object();
  json.field("role", "supervisor");
  json.field("shards", options_.shard_count);
  json.field("shards_up", up);
  json.field("uptime_ms",
             ms_between(started_at_, std::chrono::steady_clock::now()));
  json.field("connections", static_cast<long long>(clients_.size()));
  json.field("accepted", snap.accepted);
  json.field("answered", snap.answered);
  json.field("redispatches", snap.redispatches);
  json.field("shed_shard_down", snap.shed_shard_down);
  json.field("parked", snap.parked);
  json.field("spawns", snap.spawns);
  json.field("restarts", snap.restarts);
  json.field("reaps", snap.reaps);
  json.field("crashes", snap.crashes);
  json.field("wedges", snap.wedges);
  json.field("health_ok", snap.health_ok);
  json.field("health_failures", snap.health_failures);
  json.end_object();
  json.end_object();
  return json.str();
}

std::string ShardSupervisor::health_json(const std::string& id) const {
  int up = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->phase == ShardPhase::Up) ++up;
  }
  JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", true);
  json.field("health", draining_ ? "draining" : "ok");
  json.field("uptime_ms",
             ms_between(started_at_, std::chrono::steady_clock::now()));
  json.field("shards", options_.shard_count);
  json.field("shards_up", up);
  json.end_object();
  return json.str();
}

}  // namespace qspr

#include "service/serve_loop.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "qasm/parser.hpp"

namespace qspr {

namespace {

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

RetryEstimatorOptions retry_options(const ServeOptions& options) {
  RetryEstimatorOptions opts;
  opts.floor_ms = options.retry_after_ms;
  // The floor is authoritative: a ceiling configured below it would make
  // the estimator unconstructible, so lift it instead of throwing.
  opts.ceiling_ms = std::max(options.retry_after_ceiling_ms, options.retry_after_ms);
  return opts;
}

}  // namespace

/// Poll-thread-only connection state. `pending` maps an in-flight map
/// request id to its ticket, which is where client cancels and disconnect /
/// drain cancellation find the CancelSource to fire.
struct MappingServer::Connection : NdjsonConnection {
  Connection(std::uint64_t id_in, FileDescriptor fd,
             const ServeOptions& options)
      : NdjsonConnection(std::move(fd), options.max_frame_bytes,
                         options.max_outbox_bytes),
        id(id_in) {}

  std::uint64_t id;
  std::unordered_map<std::string, std::shared_ptr<ServeTicket>> pending;
};

MappingServer::MappingServer(ServeOptions options)
    : options_(std::move(options)),
      engine_(options_.workers),
      queue_(options_.max_queue),
      retry_estimator_(retry_options(options_)),
      started_at_(std::chrono::steady_clock::now()) {
  require(options_.mapper_threads >= 1, "qspr_serve needs >= 1 mapper thread");
  require(options_.max_connections >= 1, "qspr_serve needs >= 1 connection");
  codec_limits_.max_frame_bytes = options_.max_frame_bytes;
  const std::size_t half = options_.cache_budget_bytes / 2;
  engine_.artifacts().set_budget_bytes(half);
  results_.set_budget_bytes(half);
}

MappingServer::~MappingServer() {
  // serve() normally joins the mappers; cover construction-only lifetimes
  // (tests that start() then throw) so threads never outlive the object.
  queue_.close();
  for (std::thread& thread : mappers_) {
    if (thread.joinable()) thread.join();
  }
}

void MappingServer::start() {
  require(!started_, "start() called twice");
  listen_ = ListenSocket(options_.host, options_.port);
  mappers_.reserve(static_cast<std::size_t>(options_.mapper_threads));
  for (int i = 0; i < options_.mapper_threads; ++i) {
    mappers_.emplace_back([this] { mapper_loop(); });
  }
  started_ = true;
}

int MappingServer::port() const { return listen_.port(); }

ServeMetrics::Snapshot MappingServer::metrics() const {
  return metrics_.snapshot();
}

void MappingServer::request_drain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  wake_.notify();
}

// Observes a drain request (SIGTERM or API): stop accepting, stop
// admitting, arm the drain deadline. Checked at the top of every poll
// iteration, immediately after poll() returns, AND before every frame is
// handled. The per-frame check matters: read_from() drains a socket until
// WouldBlock and replies flush opportunistically, so a fast client can
// complete a full round-trip and send another frame inside one read loop —
// that frame must still see the drain a supervisor requested in between,
// or "request_drain() happens-before anything a client sends after calling
// it" silently stops being true.
void MappingServer::observe_drain() {
  if (!draining_ && drain_requested_.load(std::memory_order_relaxed)) {
    draining_ = true;
    listen_.close();
    queue_.begin_drain();
    drain_deadline_ =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(
            static_cast<long long>(options_.drain_deadline_ms * 1000.0));
  }
}

// ---------------------------------------------------------------------------
// Mapper threads: ticket -> reply line.

void MappingServer::mapper_loop() {
  while (std::shared_ptr<ServeTicket> ticket = queue_.pop()) {
    metrics_.enter_flight();
    std::string line = process_ticket(*ticket);
    metrics_.leave_flight();
    {
      const std::lock_guard<std::mutex> lock(completions_mutex_);
      completions_.push_back({ticket->connection, ticket->request.id,
                              std::move(line), ticket->session});
    }
    wake_.notify();
  }
}

std::string MappingServer::process_ticket(ServeTicket& ticket) {
  const auto started = std::chrono::steady_clock::now();
  const double queue_ms = ms_between(ticket.admitted_at, started);
  const std::string& id = ticket.request.id;
  const CancelToken token = ticket.cancel.token();

  // Test hook: hold the job at "running, not yet mapping" until the gate
  // opens or the ticket is cancelled. No-op in production (gate unset).
  if (options_.map_start_gate) options_.map_start_gate->wait(token);

  // A ticket cancelled or expired while queued (or while gated) releases
  // its slot without ever touching the engine.
  switch (token.reason()) {
    case CancelReason::Cancelled:
      metrics_.count_cancelled();
      return serve_error_json(id, "cancelled",
                              "request cancelled before mapping started");
    case CancelReason::DeadlineExpired:
      metrics_.count_expired();
      return serve_error_json(id, "deadline",
                              "deadline expired while queued");
    case CancelReason::None:
      break;
  }

  try {
    const Program program = parse_qasm(ticket.request.qasm, id);
    const std::shared_ptr<const Fabric> fabric =
        fabrics_.get(ticket.request.fabric);
    ServeSession* session = ticket.session.get();
    const std::string session_name = session != nullptr ? session->name : "";

    // Session fast path: an exact resubmission (same circuit, fabric,
    // options) is answered from the result cache — no placement, no
    // routing — with the reply the first map wrote. Every successful
    // session map is inserted under the key looked up here. Stateless maps
    // never consult the cache, so their behaviour (and memory profile) is
    // unchanged.
    std::optional<ResultCache::Key> key;
    if (session != nullptr) {
      key = ResultCache::key_of(program, *fabric, ticket.request.options);
      if (const std::optional<MapReply> hit = results_.find(*key)) {
        session->qasm = ticket.request.qasm;
        const double map_ms =
            ms_between(started, std::chrono::steady_clock::now());
        metrics_.count_completed();
        retry_estimator_.observe_request_ms(map_ms);
        return serve_result_json(id, *hit, queue_ms, map_ms, session_name);
      }
    }

    MapJob job;
    job.program = &program;
    job.fabric = fabric.get();
    job.options = ticket.request.options;
    job.name = id;
    job.cancel = token;
    const MapResult result = engine_.finish(engine_.begin(job));
    const MapReply reply = map_reply(result);
    if (key.has_value()) {
      results_.insert(*key, reply);
      // Remember the circuit the session's next qasm_append edits.
      session->qasm = ticket.request.qasm;
    }
    const double map_ms =
        ms_between(started, std::chrono::steady_clock::now());
    metrics_.count_completed();
    metrics_.record_trial_cpu_ms(result.trial_cpu_ms);
    metrics_.record_map_work(result.setup_ms, result.stats.nodes_settled);
    retry_estimator_.observe_request_ms(map_ms);
    return serve_result_json(id, reply, queue_ms, map_ms, session_name);
  } catch (const CancelledError& e) {
    // Cancelled mid-mapping: the thread was still occupied for that long,
    // so the sample belongs in the drain-rate estimate.
    retry_estimator_.observe_request_ms(
        ms_between(started, std::chrono::steady_clock::now()));
    if (e.reason() == CancelReason::DeadlineExpired) {
      metrics_.count_expired();
      return serve_error_json(id, "deadline", "deadline expired during mapping");
    }
    metrics_.count_cancelled();
    return serve_error_json(id, "cancelled", "request cancelled");
  } catch (const std::exception& e) {
    // QASM parse errors, unknown fabric specs, infeasible placements: the
    // request was well-formed but the mapping failed. The connection
    // survives; the diagnostic rides the reply.
    retry_estimator_.observe_request_ms(
        ms_between(started, std::chrono::steady_clock::now()));
    metrics_.count_failed();
    return serve_error_json(id, "map_failed", e.what());
  }
}

// ---------------------------------------------------------------------------
// Poll loop.

int MappingServer::serve() {
  require(started_, "serve() needs start()");

  std::vector<PollEntry> entries;
  std::vector<std::uint64_t> entry_conn;
  std::vector<std::uint64_t> scratch_ids;

  // Reap: broken connections immediately; for-cause closes and orderly
  // EOFs once their replies are flushed (EOF additionally waits for
  // in-flight requests, so shutdown(SHUT_WR) clients still get answers).
  // Must run after anything that can change reapability — connection I/O
  // and completion delivery — and always before the next poll(), because a
  // reapable connection wants no events and would never wake it.
  const auto reap = [&] {
    scratch_ids.clear();
    for (const auto& [id, conn] : connections_) {
      if (conn->finished(/*replies_owed=*/!conn->pending.empty())) {
        scratch_ids.push_back(id);
      }
    }
    for (const std::uint64_t id : scratch_ids) destroy_connection(id);
  };

  while (true) {
    observe_drain();
    // Past the drain deadline, cancel whatever is still queued or running;
    // every ticket still produces a reply (cancelled), so slots drain.
    if (draining_ && !drain_cancelled_ &&
        std::chrono::steady_clock::now() >= drain_deadline_) {
      drain_cancelled_ = true;
      queue_.cancel_queued();
      for (auto& [id, conn] : connections_) {
        for (auto& [rid, ticket] : conn->pending) ticket->cancel.request_cancel();
      }
    }

    deliver_completions();
    reap();

    if (draining_ && quiescent()) break;

    // Build this round's poll set.
    entries.clear();
    entry_conn.clear();
    entries.push_back({wake_.read_fd(), /*want_read=*/true});
    entry_conn.push_back(0);
    if (listen_.valid()) {
      entries.push_back({listen_.fd(), /*want_read=*/true});
      entry_conn.push_back(0);
    }
    const std::size_t first_conn_entry = entries.size();
    for (const auto& [id, conn] : connections_) {
      entries.push_back(conn->poll_entry());
      entry_conn.push_back(id);
    }

    int timeout_ms = -1;
    if (draining_ && !drain_cancelled_) {
      const double remaining = ms_between(std::chrono::steady_clock::now(),
                                          drain_deadline_);
      timeout_ms = std::max(0, static_cast<int>(remaining) + 1);
    }
    poll_fds(entries, timeout_ms);
    observe_drain();

    if (entries[0].readable) wake_.drain();
    if (listen_.valid() && entries.size() > 1 && entries[1].readable) {
      accept_clients();
    }

    // Connection I/O. Work over a snapshot of ids: handlers may destroy.
    for (std::size_t i = first_conn_entry; i < entries.size(); ++i) {
      const std::uint64_t id = entry_conn[i];
      const auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      Connection& conn = *it->second;
      if (entries[i].broken) {
        conn.mark_broken();
        continue;
      }
      if (entries[i].readable) read_from(conn);
      if (entries[i].writable && !conn.outbox_empty() && !conn.flush()) {
        metrics_.count_connection_failed();
      }
    }

    reap();
  }

  // Drained: stop the mappers (the queue is already empty — quiescent()
  // saw depth 0 and in-flight 0), flush what the loop produced, exit clean.
  queue_.close();
  for (std::thread& thread : mappers_) thread.join();
  connections_.clear();
  return 0;
}

bool MappingServer::quiescent() {
  if (queue_.depth() != 0) return false;
  if (metrics_.in_flight() != 0) return false;
  {
    const std::lock_guard<std::mutex> lock(completions_mutex_);
    if (!completions_.empty()) return false;
  }
  for (const auto& [id, conn] : connections_) {
    if (conn->broken()) continue;  // dropped regardless
    if (!conn->pending.empty() || !conn->outbox_empty()) return false;
  }
  return true;
}

void MappingServer::accept_clients() {
  while (true) {
    FileDescriptor client = listen_.accept_client();
    if (!client.valid()) return;
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      // Best-effort refusal; the daemon sheds connections, never queues them.
      const std::string refusal =
          serve_error_json("", "overloaded", "connection limit reached",
                           retry_hint_ms()) +
          "\n";
      (void)write_some(client.get(), refusal);
      metrics_.count_connection_failed();
      continue;
    }
    const std::uint64_t id = next_connection_id_++;
    connections_.emplace(
        id, std::make_unique<Connection>(id, std::move(client), options_));
    metrics_.count_connection_opened();
  }
}

void MappingServer::read_from(Connection& conn) {
  // An orderly EOF needs nothing here: a partial trailing frame is a
  // mid-message disconnect, dropped unparsed, and only this connection
  // winds down once its replies are out.
  const NdjsonConnection::ReadEnd end =
      conn.read([&](std::string& frame) { handle_frame(conn, frame); });
  if (end == NdjsonConnection::ReadEnd::Error) {
    metrics_.count_connection_failed();
  } else if (end == NdjsonConnection::ReadEnd::Oversized) {
    // Frame over the byte cap: resynchronising inside it is guesswork, so
    // answer once and close. Frames completed before it were handled.
    metrics_.count_bad_request();
    enqueue_reply(conn, serve_error_json("", "oversized",
                                         "frame exceeds max_frame_bytes; "
                                         "closing"));
    conn.close_after_flush();
  }
}

void MappingServer::handle_frame(Connection& conn, std::string_view frame) {
  observe_drain();
  ServeRequest request;
  try {
    request = parse_serve_request(frame, codec_limits_,
                                  options_.default_options);
  } catch (const std::exception& e) {
    // One malformed frame costs one reply; the connection (and every other
    // client) is untouched.
    metrics_.count_bad_request();
    enqueue_reply(conn, serve_error_json("", "bad_request", e.what()));
    return;
  }
  switch (request.kind) {
    case RequestKind::Ping:
      enqueue_reply(conn, serve_pong_json(request.id));
      return;
    case RequestKind::Stats:
      enqueue_reply(conn, stats_json(request.id));
      return;
    case RequestKind::Health:
      // Served here on the poll thread, never through the admission queue:
      // a supervisor probing liveness must get an answer precisely when the
      // queue is full or the mappers are wedged.
      metrics_.count_health_probe();
      enqueue_reply(conn, serve_health_json(request.id, draining_, uptime_ms(),
                                            options_.shard_id, queue_.depth(),
                                            metrics_.in_flight()));
      return;
    case RequestKind::Cancel: {
      const auto it = conn.pending.find(request.cancel_target);
      const bool found = it != conn.pending.end();
      // Fire-and-ack: the cancelled request still produces its own
      // `cancelled` reply when its ticket surfaces from the queue/engine.
      if (found) it->second->cancel.request_cancel();
      enqueue_reply(conn,
                    serve_cancel_ack_json(request.id, request.cancel_target,
                                          found));
      return;
    }
    case RequestKind::SessionOpen:
      handle_session_open(conn, request);
      return;
    case RequestKind::SessionClose:
      handle_session_close(conn, request);
      return;
    case RequestKind::Map:
      handle_map(conn, std::move(request));
      return;
  }
}

void MappingServer::handle_session_open(Connection& conn,
                                        const ServeRequest& request) {
  // Poll-thread-served, no queue slot: opening a session allocates a few
  // hundred bytes of registry state, not mapping work. A draining daemon
  // refuses — its sessions die with the process anyway.
  if (draining_) {
    enqueue_reply(conn, serve_error_json(request.id, "draining",
                                         "daemon is draining; open the "
                                         "session against a healthy instance"));
    return;
  }
  auto session = std::make_shared<ServeSession>();
  // Sharded workers name sessions "s<shard>.<start>.<n>": qspr_shard routes
  // session frames by <shard>, and <start>, this process's start instant on
  // the monotonic clock, keeps a replacement worker (spawned only after the
  // dead one is reaped, so always later) from re-minting a dead one's names.
  const std::string number = std::to_string(next_session_id_++);
  if (options_.shard_id < 0) {
    session->name = "s" + number;
  } else {
    const auto start = std::chrono::duration_cast<std::chrono::nanoseconds>(
        started_at_.time_since_epoch());
    session->name = "s" + std::to_string(options_.shard_id) + "." +
                    std::to_string(start.count()) + "." + number;
  }
  session->fabric =
      request.fabric.empty() ? options_.default_fabric : request.fabric;
  sessions_.emplace(session->name, session);
  enqueue_reply(conn, serve_session_json(request.id, session->name,
                                         /*open=*/true));
}

void MappingServer::handle_session_close(Connection& conn,
                                         const ServeRequest& request) {
  const auto it = sessions_.find(request.session);
  if (it == sessions_.end()) {
    enqueue_reply(conn, serve_error_json(request.id, "unknown_session",
                                         "session not open on this server: " +
                                             request.session));
    return;
  }
  // Closing while a map is in flight is fine: the mapper holds its own
  // shared_ptr, finishes against the detached state, and the reply still
  // reaches the client; only the registry entry goes away.
  sessions_.erase(it);
  enqueue_reply(conn, serve_session_json(request.id, request.session,
                                         /*open=*/false));
}

void MappingServer::handle_map(Connection& conn, ServeRequest&& request) {
  if (conn.pending.count(request.id) != 0) {
    metrics_.count_bad_request();
    enqueue_reply(conn, serve_error_json(request.id, "bad_request",
                                         "duplicate in-flight request id"));
    return;
  }

  // Session resolution happens here on the poll thread, where the registry
  // and busy flags live. The effective circuit text is assembled up front so
  // the mapper thread sees a self-contained ticket.
  std::shared_ptr<ServeSession> session;
  if (!request.session.empty()) {
    const auto it = sessions_.find(request.session);
    if (it == sessions_.end()) {
      metrics_.count_bad_request();
      enqueue_reply(conn,
                    serve_error_json(request.id, "unknown_session",
                                     "session not open on this server: " +
                                         request.session));
      return;
    }
    session = it->second;
    if (session->busy) {
      metrics_.count_bad_request();
      enqueue_reply(conn, serve_error_json(request.id, "session_busy",
                                           "one map in flight per session; "
                                           "wait for its reply"));
      return;
    }
    if (!request.qasm_append.empty()) {
      if (session->qasm.empty()) {
        metrics_.count_bad_request();
        enqueue_reply(conn, serve_error_json(
                                request.id, "bad_request",
                                "'qasm_append' needs a mapped circuit in the "
                                "session; submit 'qasm' first"));
        return;
      }
      request.qasm = session->qasm + "\n" + request.qasm_append;
      request.qasm_append.clear();
    }
    // The session pins the fabric; per-request fabric is ignored inside it.
    request.fabric = session->fabric;
    // Session maps still run the negotiation diagnostic, although no reply
    // field carries it. Without it session maps ran 3x faster in a trial,
    // which nearly doubled mapbench serve_sessions' peak RSS, because the
    // harness keeps every reply sample; dropping it waits until mapbench
    // keeps per-pass summaries instead.
    request.options.negotiation_report = true;
  }
  if (request.fabric.empty()) request.fabric = options_.default_fabric;

  auto ticket = std::make_shared<ServeTicket>();
  ticket->connection = conn.id;
  ticket->admitted_at = std::chrono::steady_clock::now();
  const double deadline_ms = request.deadline_ms > 0.0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  ticket->cancel.set_deadline_after_ms(deadline_ms);
  ticket->request = std::move(request);
  ticket->session = session;

  AdmitError why = AdmitError::QueueFull;
  if (!queue_.try_admit(ticket, why)) {
    metrics_.count_rejected();
    if (why == AdmitError::Draining) {
      enqueue_reply(conn, serve_error_json(ticket->request.id, "draining",
                                           "daemon is draining; retry against "
                                           "a healthy instance"));
    } else {
      enqueue_reply(conn,
                    serve_error_json(ticket->request.id, "overloaded",
                                     "admission queue full", retry_hint_ms()));
    }
    return;
  }
  if (session) session->busy = true;
  conn.pending.emplace(ticket->request.id, std::move(ticket));
  metrics_.count_accepted();
}

void MappingServer::enqueue_reply(Connection& conn, std::string_view line) {
  // A reader slower than max_outbox_bytes is cut rather than buffered.
  if (!conn.broken() && !conn.queue(line)) metrics_.count_connection_failed();
}

void MappingServer::deliver_completions() {
  std::deque<Completion> ready;
  {
    const std::lock_guard<std::mutex> lock(completions_mutex_);
    ready.swap(completions_);
  }
  for (Completion& done : ready) {
    // The session frees up regardless of whether the client survived to
    // read the reply — sessions are server-scoped, connections are not.
    if (done.session) done.session->busy = false;
    const auto it = connections_.find(done.connection);
    if (it == connections_.end()) continue;  // client gone: reply dropped
    it->second->pending.erase(done.request_id);
    enqueue_reply(*it->second, done.line);
  }
}

void MappingServer::destroy_connection(std::uint64_t id) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) return;
  // Cancel whatever this client still has queued or running: the slots
  // drain (each ticket still produces a — now droppable — reply) and the
  // engine stops burning trials for a reader that will never see them.
  for (auto& [rid, ticket] : it->second->pending) {
    ticket->cancel.request_cancel();
  }
  connections_.erase(it);
}

int MappingServer::retry_hint_ms() const {
  return retry_estimator_.suggest_ms(queue_.depth(), options_.mapper_threads);
}

double MappingServer::uptime_ms() const {
  return ms_between(started_at_, std::chrono::steady_clock::now());
}

std::string MappingServer::stats_json(const std::string& id) {
  const ServeMetrics::Snapshot snap = metrics_.snapshot();
  const FabricArtifactCache::Stats cache = engine_.artifacts().stats();
  const long long lookups = cache.builds + cache.hits;
  JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", true);
  json.key("stats").begin_object();
  json.field("queue_depth", queue_.depth());
  json.field("max_queue", options_.max_queue);
  json.field("in_flight", snap.in_flight);
  json.field("draining", draining_);
  json.field("uptime_ms", uptime_ms());
  if (options_.shard_id >= 0) json.field("shard_id", options_.shard_id);
  json.field("health_probes", snap.health_probes);
  json.field("retry_after_hint_ms", retry_hint_ms());
  json.field("retry_cost_ewma_ms", retry_estimator_.ewma_ms());
  json.field("accepted", snap.accepted);
  json.field("rejected", snap.rejected);
  json.field("completed", snap.completed);
  json.field("failed", snap.failed);
  json.field("cancelled", snap.cancelled);
  json.field("expired", snap.expired);
  json.field("bad_requests", snap.bad_requests);
  json.field("connections", static_cast<long long>(connections_.size()));
  json.field("connections_opened", snap.connections_opened);
  json.field("connections_failed", snap.connections_failed);
  json.field("artifact_builds", cache.builds);
  json.field("artifact_hits", cache.hits);
  json.field("artifact_hit_rate",
             lookups > 0 ? static_cast<double>(cache.hits) /
                               static_cast<double>(lookups)
                         : 0.0);
  json.field("artifact_evictions", cache.evictions);
  json.field("artifact_bytes", static_cast<long long>(cache.bytes));
  // Program-level result cache (sessions): hit/eviction and
  // resident-byte counters, so an operator can see both halves of the
  // --cache-budget-mb budget working.
  const ResultCache::Stats results = results_.stats();
  json.field("result_hits", results.hits);
  json.field("result_misses", results.misses);
  json.field("result_insertions", results.insertions);
  json.field("result_evictions", results.evictions);
  json.field("result_bytes", static_cast<long long>(results.bytes));
  json.field("result_entries", static_cast<long long>(results.entries));
  json.field("cache_budget_bytes",
             static_cast<long long>(options_.cache_budget_bytes));
  json.field("open_sessions", static_cast<long long>(sessions_.size()));
  json.field("p50_trial_cpu_ms", snap.p50_trial_cpu_ms);
  json.field("p99_trial_cpu_ms", snap.p99_trial_cpu_ms);
  json.field("latency_samples", snap.latency_samples);
  json.field("setup_ms_total", snap.setup_ms_total);
  json.field("nodes_settled_total", snap.nodes_settled_total);
  json.field("mapper_threads", options_.mapper_threads);
  json.field("engine_workers", engine_.worker_count());
  json.end_object();
  json.end_object();
  return json.str();
}

}  // namespace qspr

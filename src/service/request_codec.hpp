// Wire protocol of the mapping daemon: newline-delimited JSON (one request
// or response per line) with hard byte budgets at every stage, so a
// misbehaving client can cost the daemon at most one bounded buffer.
//
//   requests   {"type":"map","id":"r1","qasm":"...","fabric":"paper",
//               "placer":"mc","m":8,"seed":1,"deadline_ms":5000}
//              {"type":"stats","id":"s1"}   {"type":"ping","id":"p1"}
//              {"type":"cancel","id":"c1","target":"r1"}
//              {"type":"health","id":"h1"}   (poll-loop-served liveness)
//              {"type":"session_open","id":"o1","fabric":"paper"}
//              {"type":"map","id":"r2","session":"s1","qasm":"..."}
//              {"type":"map","id":"r3","session":"s1","qasm_append":"..."}
//              {"type":"session_close","id":"c2","session":"s1"}
//   responses  {"id":"r1","ok":true,"latency_us":...,"result_fp":"..."}
//              {"id":"r1","ok":false,"code":"overloaded","retry_after_ms":50}
//              {"id":"o1","ok":true,"session":"s1"}
//
// Error codes a client can rely on: bad_request (malformed frame/request —
// fix before retrying), oversized (frame over the byte cap; the connection
// closes), overloaded (admission queue full — back off retry_after_ms, then
// retry), draining (daemon shutting down — retry against a healthy
// instance), deadline (per-request deadline expired), cancelled
// (client-initiated), map_failed (the mapping itself failed; the message
// carries the diagnostic), unknown_request (cancel target not in flight),
// unknown_session (session id not open on this server — reopen and resubmit),
// session_busy (one map in flight per session; wait for its reply),
// shard_down (qspr_shard only: the target shard is down or restarting, or
// the request outlived its re-dispatch budget — back off retry_after_ms).
//
// The codec is pure data-plane: framing, parsing, response building. It
// holds no sockets and no engine, which is what makes the fault-injection
// tests able to drive it byte-by-byte.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/mapper.hpp"
#include "fabric/fabric.hpp"

namespace qspr {

/// Splits a byte stream into newline-delimited frames under a hard cap.
/// feed() never throws: complete frames land in `frames`, and a partial or
/// complete frame exceeding `max_frame_bytes` trips overflowed() — the
/// caller should error the connection, since resynchronisation inside an
/// attacker-sized frame is guesswork. CR before LF is stripped (telnet/CRLF
/// clients). Bounded memory: at most max_frame_bytes of partial frame is
/// ever buffered.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends bytes; pushes every completed frame (newline stripped) onto
  /// `frames`. Returns false — permanently — once the cap is exceeded.
  bool feed(std::string_view bytes, std::vector<std::string>& frames);

  [[nodiscard]] bool overflowed() const { return overflowed_; }
  /// Bytes of the unterminated trailing frame (mid-message disconnect
  /// diagnostics).
  [[nodiscard]] std::size_t partial_bytes() const { return partial_.size(); }

 private:
  std::size_t max_frame_bytes_;
  std::string partial_;
  bool overflowed_ = false;
};

enum class RequestKind : std::uint8_t {
  Map,
  Stats,
  Ping,
  Cancel,
  Health,
  SessionOpen,
  SessionClose,
};

/// One parsed request frame. For Map, one of `qasm` (full program text) or —
/// inside a session — `qasm_append` (gates appended to the session's
/// circuit) is required; `fabric` is a server-side fabric spec ("" = server
/// default, "paper" = the built-in 45x85 fabric, anything else a fabric
/// drawing path) — the same field qspr_batch manifests use per record.
struct ServeRequest {
  RequestKind kind = RequestKind::Ping;
  std::string id;
  std::string qasm;
  std::string fabric;
  /// Map/SessionClose: the session this request addresses ("" = stateless).
  std::string session;
  /// Map-in-session edit form: QASM instruction lines appended to the
  /// session's current circuit (mutually exclusive with `qasm`).
  std::string qasm_append;
  std::string cancel_target;  // Cancel: the id of the in-flight map request
  /// Client-requested deadline for this request, measured from admission;
  /// 0 = server default.
  double deadline_ms = 0.0;
  /// Mapping options parsed from the request (mapper/placer/m/seed),
  /// applied over the server's defaults.
  MapperOptions options;
};

/// Limits the codec enforces on a single frame.
struct CodecLimits {
  std::size_t max_frame_bytes = 1 << 20;
  int max_json_depth = 16;
};

/// Parses one request frame. Throws qspr::Error (or ParseError) with a
/// client-presentable message on any malformed input: bad JSON, unknown
/// type, wrong field kinds, out-of-range numbers, depth/byte violations.
[[nodiscard]] ServeRequest parse_serve_request(std::string_view frame,
                                               const CodecLimits& limits,
                                               const MapperOptions& defaults);

/// Process-stable FNV-1a fingerprint of a MapResult's contractual fields
/// (latency, placements, and the trace as the bytes of Trace::to_string()),
/// as 16 hex digits. Two results are bit-identical exactly when their
/// fingerprints match, so a client can compare a served result against a
/// local map_program run without shipping the trace.
[[nodiscard]] std::string map_result_fingerprint(const MapResult& result);

/// What a successful map reply says about its result: every result field
/// serve_result_json writes, with the fingerprint computed once. Fixed-size
/// (no trace, no placements), so a cache of replies costs the same per entry
/// whatever the circuit.
struct MapReply {
  MapperKind mapper = MapperKind::Qspr;
  long long latency_us = 0;
  long long ideal_latency_us = 0;
  long long routing_us = 0;
  long long congestion_us = 0;
  long long moves = 0;
  long long turns = 0;
  int placement_runs = 0;
  double trial_cpu_ms = 0.0;
  double setup_ms = 0.0;
  long long nodes_settled = 0;
  std::uint64_t result_fp = 0;  ///< map_result_fingerprint, unformatted
};

[[nodiscard]] MapReply map_reply(const MapResult& result);

/// Response builders; each returns one JSON line (no trailing newline).
/// `session` (when non-empty) echoes the session the mapping ran under.
/// The MapResult form builds the MapReply and writes it.
[[nodiscard]] std::string serve_result_json(const std::string& id,
                                            const MapReply& reply,
                                            double queue_ms, double map_ms,
                                            const std::string& session = "");
[[nodiscard]] std::string serve_result_json(const std::string& id,
                                            const MapResult& result,
                                            double queue_ms, double map_ms,
                                            const std::string& session = "");
/// session_open / session_close acks.
[[nodiscard]] std::string serve_session_json(const std::string& id,
                                             const std::string& session,
                                             bool open);
[[nodiscard]] std::string serve_error_json(const std::string& id,
                                           std::string_view code,
                                           std::string_view message,
                                           int retry_after_ms = 0);
[[nodiscard]] std::string serve_pong_json(const std::string& id);
/// The `{"type":"health"}` liveness reply: always answered from the poll
/// loop (never queued), so it stays truthful when the admission queue is
/// full or the mappers are wedged — which is exactly when a supervisor
/// needs it. shard_id < 0 means "not launched by a supervisor" and omits
/// the field.
[[nodiscard]] std::string serve_health_json(const std::string& id,
                                            bool draining, double uptime_ms,
                                            int shard_id, int queue_depth,
                                            int in_flight);
[[nodiscard]] std::string serve_cancel_ack_json(const std::string& id,
                                                const std::string& target,
                                                bool found);

/// Thread-safe fabric resolver shared by qspr_serve and qspr_batch: maps a
/// fabric spec ("" / "paper" -> the built-in paper fabric, otherwise a
/// fabric drawing path) to a shared parsed Fabric, caching by spec so a
/// thousand requests against one drawing parse it once. Parse failures
/// throw qspr::Error and are NOT cached (a fixed file works on retry).
class FabricSource {
 public:
  std::shared_ptr<const Fabric> get(const std::string& spec);

 private:
  std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const Fabric>> cache_;
};

}  // namespace qspr

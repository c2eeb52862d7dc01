// qspr_serve session API: open/map/edit/close lifecycle over the wire.
//
// Sessions let a client edit a circuit in place: a session pins a fabric,
// remembers the last mapped circuit, and maps `qasm_append` edits against
// it. These tests run a real MappingServer in-process (the harness of
// serve_harness.hpp, shared with the fault-injection suite) and script
// byte-level clients against the session wire protocol: name minting
// (standalone "s<N>" vs sharded "s<shard>.<start>.<N>"), the
// exact-resubmission result-cache fast path, that an edit maps exactly like
// the concatenated circuit, one-map-per-session admission, the qasm_append
// contract, and drain behaviour with sessions open.
#include <gtest/gtest.h>

#include <string>

#include "common/json.hpp"
#include "core/qspr.hpp"
#include "fabric/quale_fabric.hpp"
#include "serve_harness.hpp"
#include "service/request_codec.hpp"
#include "service/serve_loop.hpp"

namespace qspr {
namespace {

std::string session_map(const std::string& id, const std::string& session,
                        const std::string& qasm, bool append = false) {
  JsonWriter json;
  json.begin_object();
  json.field("type", "map");
  json.field("id", id);
  json.field("session", session);
  json.field(append ? "qasm_append" : "qasm", qasm);
  json.field("placer", "mc");
  json.field("m", 4);
  json.field("seed", 1);
  json.end_object();
  return json.str();
}

/// The options session_map requests, as a local map_program call sees them.
MapperOptions session_map_options() {
  MapperOptions options;
  options.placer = PlacerKind::MonteCarlo;
  options.monte_carlo_trials = 4;
  options.rng_seed = 1;
  return options;
}

/// session_open and return the minted name.
std::string open_session(RawClient& client, const std::string& id) {
  client.send_line(R"({"type":"session_open","id":")" + id +
                   R"(","fabric":"paper"})");
  const JsonValue ack = client.recv_json();
  EXPECT_TRUE(ack.bool_or("ok", false));
  EXPECT_TRUE(ack.bool_or("open", false));
  return ack.string_or("session", "");
}

TEST(ServeSession, OpenMapEditCloseLifecycle) {
  ServeHarness harness;
  RawClient client(harness.port());

  const std::string name = open_session(client, "o1");
  EXPECT_EQ(name, "s1");  // standalone daemons mint bare "s<N>" names

  client.send_line(session_map("m1", name, kTinyQasm));
  const JsonValue first = client.recv_json();
  ASSERT_TRUE(first.bool_or("ok", false));
  EXPECT_EQ(first.string_or("session", ""), name);
  EXPECT_EQ(first.string_or("result_fp", ""),
            map_result_fingerprint(map_program(parse_qasm(kTinyQasm, "m1"),
                                               make_paper_fabric(),
                                               session_map_options())));

  // Edit via qasm_append: the server assembles prior circuit + suffix, and
  // the edit maps exactly like the concatenated circuit mapped directly.
  const std::string edit = "C-X q0,q2\n";
  client.send_line(session_map("m2", name, edit, /*append=*/true));
  const JsonValue second = client.recv_json();
  ASSERT_TRUE(second.bool_or("ok", false));
  EXPECT_EQ(second.string_or("session", ""), name);
  const MapResult edited =
      map_program(parse_qasm(std::string(kTinyQasm) + "\n" + edit, "m2"),
                  make_paper_fabric(), session_map_options());
  EXPECT_EQ(second.string_or("result_fp", ""),
            map_result_fingerprint(edited));
  EXPECT_NE(second.string_or("result_fp", ""),
            first.string_or("result_fp", ""));

  client.send_line(R"({"type":"session_close","id":"c1","session":")" + name +
                   R"("})");
  const JsonValue closed = client.recv_json();
  EXPECT_TRUE(closed.bool_or("ok", false));
  EXPECT_FALSE(closed.bool_or("open", true));

  // The name is dead after close.
  client.send_line(session_map("m3", name, kTinyQasm));
  EXPECT_EQ(client.recv_json().string_or("code", ""), "unknown_session");
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeSession, ExactResubmissionServedFromResultCache) {
  ServeHarness harness;
  RawClient client(harness.port());
  const std::string name = open_session(client, "o1");

  client.send_line(session_map("m1", name, kTinyQasm));
  const JsonValue first = client.recv_json();
  ASSERT_TRUE(first.bool_or("ok", false));
  const std::string fp = first.string_or("result_fp", "");
  ASSERT_FALSE(fp.empty());

  // Same circuit, fabric, and options again: the program-level result
  // cache answers without placement or routing, and the result is
  // bit-identical (process-stable fingerprint).
  client.send_line(session_map("m2", name, kTinyQasm));
  const JsonValue replay = client.recv_json();
  ASSERT_TRUE(replay.bool_or("ok", false));
  EXPECT_EQ(replay.string_or("result_fp", ""), fp);

  // The hit is visible in the daemon's cache counters.
  client.send_line(R"({"type":"stats","id":"s"})");
  const JsonValue stats_reply = client.recv_json();
  const JsonValue* stats = stats_reply.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->number_or("result_hits", -1), 1);
  EXPECT_EQ(stats->number_or("open_sessions", -1), 1);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

/// A map reply line without the fields a cache hit may change: the request
/// id and the two timings.
std::string without_id_and_timings(std::string line) {
  for (const char* field : {R"("id":)", R"("queue_ms":)", R"("map_ms":)"}) {
    const std::size_t at = line.find(field);
    if (at == std::string::npos) continue;
    const std::size_t end = line.find(',', at);
    line.erase(at, end + 1 - at);
  }
  return line;
}

TEST(ServeSession, PaperEncoderResubmissionIsACacheHit) {
  // A paper-size circuit whose negotiation diagnostic does not converge:
  // its resubmission must still be served from the result cache.
  const std::string qasm = write_qasm(make_encoder(QeccCode::Q5_1_3));
  ServeHarness harness;
  RawClient client(harness.port());
  const std::string name = open_session(client, "o1");

  client.send_line(session_map("m1", name, qasm));
  const JsonValue first = client.recv_json();
  ASSERT_TRUE(first.bool_or("ok", false));
  client.send_line(session_map("m2", name, qasm));
  const JsonValue replay = client.recv_json();
  ASSERT_TRUE(replay.bool_or("ok", false));
  EXPECT_EQ(replay.string_or("result_fp", ""),
            first.string_or("result_fp", "?"));

  client.send_line(R"({"type":"stats","id":"s"})");
  const JsonValue stats_reply = client.recv_json();
  const JsonValue* stats = stats_reply.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->number_or("result_insertions", -1), 1);
  EXPECT_EQ(stats->number_or("result_misses", -1), 1);
  EXPECT_EQ(stats->number_or("result_hits", -1), 1);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeSession, CacheHitReplyEqualsTheMissReply) {
  // Same bytes as the first map's reply — result_fp, the work counters and
  // the trial/setup times included — apart from the id and the timings.
  const std::string qasm = write_qasm(make_encoder(QeccCode::Q5_1_3));
  ServeHarness harness;
  RawClient client(harness.port());
  const std::string name = open_session(client, "o1");

  client.send_line(session_map("m1", name, qasm));
  const std::string miss = client.recv_line();
  client.send_line(session_map("m2", name, qasm));
  const std::string hit = client.recv_line();
  ASSERT_TRUE(parse_json(miss).bool_or("ok", false)) << miss;
  ASSERT_TRUE(parse_json(hit).bool_or("ok", false)) << hit;
  EXPECT_EQ(parse_json(hit).string_or("id", ""), "m2");
  EXPECT_EQ(without_id_and_timings(hit), without_id_and_timings(miss));
  EXPECT_EQ(without_id_and_timings(miss).find("map_ms"), std::string::npos);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeSession, ReorderedIndependentGatesAreNotACacheHit) {
  // The two programs differ only in the order of two independent gate
  // pairs. Instruction ids order the ready set and label the trace, so they
  // map to different results, and the second map must not be answered with
  // the first one's cached result.
  const std::string header =
      "QUBIT q0,0\nQUBIT q1,0\nQUBIT q2,0\nQUBIT q3,0\n";
  const std::string first_qasm = header + "H q0\nC-X q0,q1\nH q2\nC-X q2,q3\n";
  const std::string second_qasm =
      header + "H q2\nC-X q2,q3\nH q0\nC-X q0,q1\n";

  ServeHarness harness;
  RawClient client(harness.port());
  const std::string name = open_session(client, "o1");
  client.send_line(session_map("m1", name, first_qasm));
  ASSERT_TRUE(client.recv_json().bool_or("ok", false));
  client.send_line(session_map("m2", name, second_qasm));
  const JsonValue second = client.recv_json();
  ASSERT_TRUE(second.bool_or("ok", false));

  const MapResult direct = map_program(parse_qasm(second_qasm, "m2"),
                                       make_paper_fabric(),
                                       session_map_options());
  EXPECT_EQ(second.string_or("result_fp", ""), map_result_fingerprint(direct));
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeSession, UnknownSessionIsAPerRequestError) {
  ServeHarness harness;
  RawClient client(harness.port());

  client.send_line(session_map("m1", "s999", kTinyQasm));
  EXPECT_EQ(client.recv_json().string_or("code", ""), "unknown_session");
  client.send_line(R"({"type":"session_close","id":"c1","session":"s999"})");
  EXPECT_EQ(client.recv_json().string_or("code", ""), "unknown_session");

  // The connection and daemon survive; stateless maps still work.
  client.send_line(session_map("m2", "", kTinyQasm));
  EXPECT_TRUE(client.recv_json().bool_or("ok", false));
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeSession, OneMapInFlightPerSession) {
  // The gate pins the session's first map in flight, so the overlapping
  // second map is refused deterministically — no wall-clock race.
  auto gate = std::make_shared<MapStartGate>();
  ServeOptions options;
  options.mapper_threads = 1;
  options.map_start_gate = gate;
  ServeHarness harness(options);
  RawClient client(harness.port());
  const std::string name = open_session(client, "o1");

  client.send_line(session_map("m1", name, kTinyQasm));
  client.send_line(session_map("m2", name, kTinyQasm));
  const JsonValue busy = client.recv_json();
  EXPECT_EQ(busy.string_or("id", ""), "m2");
  EXPECT_EQ(busy.string_or("code", ""), "session_busy");

  gate->open();
  const JsonValue done = client.recv_json();
  EXPECT_EQ(done.string_or("id", ""), "m1");
  EXPECT_TRUE(done.bool_or("ok", false));

  // The session frees up once its map replies.
  client.send_line(session_map("m3", name, kTinyQasm));
  EXPECT_TRUE(client.recv_json().bool_or("ok", false));
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeSession, QasmAppendNeedsAMappedBaseCircuit) {
  ServeHarness harness;
  RawClient client(harness.port());
  const std::string name = open_session(client, "o1");

  client.send_line(session_map("m1", name, "C-X q0,q1\n", /*append=*/true));
  const JsonValue reply = client.recv_json();
  EXPECT_EQ(reply.string_or("code", ""), "bad_request");

  // Submitting a base circuit first makes the append legal.
  client.send_line(session_map("m2", name, kTinyQasm));
  EXPECT_TRUE(client.recv_json().bool_or("ok", false));
  client.send_line(session_map("m3", name, "C-X q0,q1\n", /*append=*/true));
  EXPECT_TRUE(client.recv_json().bool_or("ok", false));
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeSession, ShardedDaemonsMintShardPrefixedNames) {
  // Sharded workers name sessions "s<shard>.<start>.<n>": the qspr_shard
  // supervisor routes by the shard index, and the worker's start instant
  // keeps a restarted worker from re-minting a dead one's names.
  ServeOptions options;
  options.shard_id = 2;
  ServeHarness harness(options);
  RawClient client(harness.port());

  const std::string first = open_session(client, "o1");
  const std::size_t last_dot = first.rfind('.');
  ASSERT_TRUE(last_dot != std::string::npos && last_dot > 3) << first;
  const std::string token = first.substr(3, last_dot - 3);
  EXPECT_EQ(token.find_first_not_of("0123456789"), std::string::npos)
      << first;
  EXPECT_EQ(first, "s2." + token + ".1");
  EXPECT_EQ(open_session(client, "o2"), "s2." + token + ".2");
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeSession, DrainRefusesNewSessionsAndExitsZeroWithSessionsOpen) {
  // A gated map pins the daemon in the draining state (a drain with nothing
  // in flight goes quiescent and exits immediately), so the refusals below
  // are observed deterministically rather than racing serve()'s return.
  auto gate = std::make_shared<MapStartGate>();
  ServeOptions options;
  options.mapper_threads = 1;
  options.map_start_gate = gate;
  ServeHarness harness(options);
  RawClient client(harness.port());
  const std::string name = open_session(client, "o1");
  client.send_line(session_map("m1", name, kTinyQasm));
  // Make sure the map is admitted before the drain begins.
  client.send_line(R"({"type":"ping","id":"sync"})");
  EXPECT_EQ(client.recv_json().string_or("id", ""), "sync");

  harness.server().request_drain();
  client.send_line(R"({"type":"session_open","id":"o2","fabric":"paper"})");
  const JsonValue refused = client.recv_json();
  EXPECT_FALSE(refused.bool_or("ok", true));
  EXPECT_EQ(refused.string_or("code", ""), "draining");

  // The in-flight session map still completes and reaches the client.
  gate->open();
  const JsonValue done = client.recv_json();
  EXPECT_EQ(done.string_or("id", ""), "m1");
  EXPECT_TRUE(done.bool_or("ok", false));

  // Open sessions never block a clean exit — they die with the process.
  EXPECT_EQ(harness.drain_and_join(), 0);
}

}  // namespace
}  // namespace qspr

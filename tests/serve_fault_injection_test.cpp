// Deterministic fault-injection harness for qspr_serve's daemon core.
//
// ServeHarness (serve_harness.hpp) runs a real MappingServer (real sockets
// on a kernel-assigned loopback port, real mapper threads) inside the test
// process; RawClient scripts byte-level client behaviour — truncated
// frames, garbage, huge frames, disconnect-after-send, floods — against
// it. Every test asserts the same three invariants the daemon is built
// around:
//
//   1. no fault ever takes down the daemon or a bystander connection;
//   2. no fault leaks an admission slot: after the dust settles the queue
//      is empty, nothing is in flight, and every accepted request was
//      accounted as completed/failed/cancelled/expired;
//   3. a served MapResult is bit-identical to a direct map_program run
//      (compared via the process-stable result fingerprint).
//
// Determinism notes: queue-order tests pin mapper_threads = 1 so a gated
// front job strictly serialises what sits behind it — cancellation and
// deadline expiry are then observed while *queued*, which is exact. The
// front job is held with ServeOptions::map_start_gate (it takes its
// in-flight slot, then blocks before touching the engine) instead of a
// large Monte-Carlo trial count, so no assertion races how fast a warm
// server finishes real work.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/qspr.hpp"
#include "fabric/quale_fabric.hpp"
#include "serve_harness.hpp"
#include "service/request_codec.hpp"
#include "service/serve_loop.hpp"

namespace qspr {
namespace {

std::string map_request(const std::string& id, int m, double deadline_ms = 0,
                        const std::string& qasm = kTinyQasm) {
  JsonWriter json;
  json.begin_object();
  json.field("type", "map");
  json.field("id", id);
  json.field("qasm", qasm);
  json.field("placer", "mc");
  json.field("m", m);
  json.field("seed", 1);
  if (deadline_ms > 0) json.field("deadline_ms", deadline_ms);
  json.end_object();
  return json.str();
}

/// Invariant 2: nothing queued, nothing running, and the accepted ledger
/// balances — the no-leaked-slots assertion every test ends with.
void expect_no_leaked_slots(RawClient& client) {
  client.send_line(R"({"type":"stats","id":"final"})");
  const JsonValue reply = client.recv_json();
  const JsonValue* stats = reply.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->number_or("queue_depth", -1), 0);
  EXPECT_EQ(stats->number_or("in_flight", -1), 0);
  EXPECT_EQ(stats->number_or("accepted", -1),
            stats->number_or("completed", 0) + stats->number_or("failed", 0) +
                stats->number_or("cancelled", 0) +
                stats->number_or("expired", 0));
}

TEST(ServeFaultInjection, MapResultBitIdenticalToDirectMapProgram) {
  ServeOptions options;
  options.workers = 3;  // served trials run parallel; fingerprint must match
  ServeHarness harness(options);
  RawClient client(harness.port());

  client.send_line(map_request("r1", 8));
  const JsonValue reply = client.recv_json();
  EXPECT_TRUE(reply.bool_or("ok", false));
  EXPECT_EQ(reply.string_or("id", ""), "r1");

  // The same program, options, and seed mapped directly, single-threaded.
  const Program program = parse_qasm(kTinyQasm, "r1");
  const Fabric fabric = make_paper_fabric();
  MapperOptions map_options;
  map_options.placer = PlacerKind::MonteCarlo;
  map_options.monte_carlo_trials = 8;
  map_options.rng_seed = 1;
  const MapResult direct = map_program(program, fabric, map_options);
  EXPECT_EQ(reply.string_or("result_fp", ""), map_result_fingerprint(direct));
  EXPECT_EQ(reply.number_or("latency_us", -1),
            static_cast<double>(direct.latency));

  expect_no_leaked_slots(client);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeFaultInjection, GarbageFramesFailOnlyThemselves) {
  ServeHarness harness;
  RawClient client(harness.port());

  client.send_line("this is not json");
  EXPECT_EQ(client.recv_json().string_or("code", ""), "bad_request");
  client.send_line(R"({"type":"map","id":"x"})");  // well-formed, no qasm
  EXPECT_EQ(client.recv_json().string_or("code", ""), "bad_request");
  client.send_line(R"([1,2,3])");  // JSON, wrong shape
  EXPECT_EQ(client.recv_json().string_or("code", ""), "bad_request");
  client.send_line(R"({"type":"warp","id":"x"})");  // unknown type
  EXPECT_EQ(client.recv_json().string_or("code", ""), "bad_request");

  // The connection survived all of it; real work still flows.
  client.send_line(map_request("after", 4));
  EXPECT_TRUE(client.recv_json().bool_or("ok", false));

  expect_no_leaked_slots(client);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeFaultInjection, HugeFrameClosesOnlyThatConnection) {
  ServeOptions options;
  options.max_frame_bytes = 1024;
  ServeHarness harness(options);

  RawClient bystander(harness.port());
  RawClient attacker(harness.port());
  // 2000 bytes of 'A' with no newline: overflows the 1 KiB frame cap
  // mid-frame (and fits in one socket buffer, so the close stays orderly).
  attacker.send_raw(std::string(2000, 'A'));
  const JsonValue refusal = attacker.recv_json();
  EXPECT_EQ(refusal.string_or("code", ""), "oversized");
  EXPECT_TRUE(attacker.reaches_eof());

  // The bystander's connection and the daemon itself are untouched.
  bystander.send_line(map_request("by", 4));
  EXPECT_TRUE(bystander.recv_json().bool_or("ok", false));

  expect_no_leaked_slots(bystander);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeFaultInjection, TruncatedFrameAndMidMessageDisconnect) {
  ServeHarness harness;
  {
    RawClient cutter(harness.port());
    // Half a request, no newline, then a hard disconnect.
    cutter.send_raw(R"({"type":"map","id":"trunc","qasm":"QU)");
    cutter.disconnect();
  }
  {
    // Disconnect-after-send: a full request whose reply has nowhere to go.
    RawClient ghost(harness.port());
    ghost.send_line(map_request("ghost", 8));
    ghost.disconnect();
  }
  // Wait until the ghost's request has been admitted AND settled (its
  // dropped reply still counts as completed/cancelled), then verify from a
  // fresh connection that the daemon is healthy and nothing leaked.
  RawClient checker(harness.port());
  for (int i = 0; i < 500; ++i) {
    checker.send_line(R"({"type":"stats","id":"poll"})");
    const JsonValue reply = checker.recv_json();
    const JsonValue* stats = reply.find("stats");
    ASSERT_NE(stats, nullptr);
    const double accepted = stats->number_or("accepted", -1);
    const double settled =
        stats->number_or("completed", 0) + stats->number_or("failed", 0) +
        stats->number_or("cancelled", 0) + stats->number_or("expired", 0);
    if (accepted >= 1 && accepted == settled &&
        stats->number_or("queue_depth", -1) == 0 &&
        stats->number_or("in_flight", -1) == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  checker.send_line(map_request("alive", 4));
  EXPECT_TRUE(checker.recv_json().bool_or("ok", false));
  expect_no_leaked_slots(checker);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeFaultInjection, ShutdownWriteClientStillGetsItsReply) {
  ServeHarness harness;
  RawClient client(harness.port());
  client.send_line(map_request("half", 4));
  client.shutdown_write();  // polite half-close: "no more requests"
  const JsonValue reply = client.recv_json();
  EXPECT_TRUE(reply.bool_or("ok", false));
  EXPECT_EQ(reply.string_or("id", ""), "half");
  EXPECT_TRUE(client.reaches_eof());
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeFaultInjection, CancelWhileQueuedIsExactAndReleasesTheSlot) {
  // The gate holds "blocker" at running-but-not-mapping, so "victim" is
  // cancelled while *queued* by construction — no wall-clock race against
  // how fast a warm server finishes the front job.
  auto gate = std::make_shared<MapStartGate>();
  ServeOptions options;
  options.mapper_threads = 1;  // serialise: "blocker" runs, "victim" queues
  options.map_start_gate = gate;
  ServeHarness harness(options);
  RawClient client(harness.port());

  client.send_line(map_request("blocker", 4));
  client.send_line(map_request("victim", 4));
  client.send_line(R"({"type":"cancel","id":"c1","target":"victim"})");

  // Replies: the cancel ack arrives first (poll thread), then the blocker's
  // result, then the victim's `cancelled` — it never reached the engine.
  const JsonValue ack = client.recv_json();
  EXPECT_EQ(ack.string_or("id", ""), "c1");
  EXPECT_TRUE(ack.bool_or("ok", false));
  gate->open();

  bool saw_blocker_ok = false;
  bool saw_victim_cancelled = false;
  for (int i = 0; i < 2; ++i) {
    const JsonValue reply = client.recv_json();
    if (reply.string_or("id", "") == "blocker") {
      saw_blocker_ok = reply.bool_or("ok", false);
    } else if (reply.string_or("id", "") == "victim") {
      saw_victim_cancelled = reply.string_or("code", "") == "cancelled";
    }
  }
  EXPECT_TRUE(saw_blocker_ok);
  EXPECT_TRUE(saw_victim_cancelled);

  // Cancelling something unknown is an explicit, non-fatal reply.
  client.send_line(R"({"type":"cancel","id":"c2","target":"nonesuch"})");
  EXPECT_EQ(client.recv_json().string_or("code", ""), "unknown_request");

  expect_no_leaked_slots(client);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeFaultInjection, DeadlineExpiresWhileQueuedBehindSlowJob) {
  auto gate = std::make_shared<MapStartGate>();
  ServeOptions options;
  options.mapper_threads = 1;
  options.map_start_gate = gate;
  ServeHarness harness(options);
  RawClient client(harness.port());

  client.send_line(map_request("slow", 4));
  client.send_line(map_request("hasty", 4, /*deadline_ms=*/1.0));
  // "hasty" sits queued behind the gated "slow"; holding the gate past its
  // 1 ms deadline guarantees it expires while queued instead of racing the
  // front job's wall-clock duration.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate->open();

  bool saw_slow_ok = false;
  bool saw_hasty_deadline = false;
  for (int i = 0; i < 2; ++i) {
    const JsonValue reply = client.recv_json();
    if (reply.string_or("id", "") == "slow") {
      saw_slow_ok = reply.bool_or("ok", false);
    } else if (reply.string_or("id", "") == "hasty") {
      saw_hasty_deadline = reply.string_or("code", "") == "deadline";
    }
  }
  EXPECT_TRUE(saw_slow_ok);
  EXPECT_TRUE(saw_hasty_deadline);

  expect_no_leaked_slots(client);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeFaultInjection, OverloadFloodShedsExplicitlyAndRecovers) {
  auto gate = std::make_shared<MapStartGate>();
  ServeOptions options;
  options.mapper_threads = 1;
  options.max_queue = 2;
  options.retry_after_ms = 25;
  options.map_start_gate = gate;
  ServeHarness harness(options);
  RawClient client(harness.port());

  // The gated front job occupies the mapper; a burst behind it overflows
  // the 2-slot queue. With the mapper pinned, the arithmetic is exact:
  // flood0 runs, two queue, the rest shed. Every request gets exactly one
  // reply either way.
  client.send_line(map_request("flood0", 4));
  // Wait until flood0 holds the in-flight slot (not a queue slot), so the
  // burst sees the whole queue.
  for (int i = 0; i < 1000; ++i) {
    client.send_line(R"({"type":"stats","id":"poll"})");
    const JsonValue stats_reply = client.recv_json();
    const JsonValue* stats = stats_reply.find("stats");
    ASSERT_NE(stats, nullptr);
    if (stats->number_or("in_flight", 0) == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int kBurst = 8;
  for (int i = 1; i <= kBurst; ++i) {
    client.send_line(map_request("flood" + std::to_string(i), 4));
  }
  // With flood0 pinned in flight, exactly two of the burst occupy the queue
  // and the remaining six shed synchronously from the poll thread. The shed
  // replies are therefore the first six replies — nothing else can arrive
  // while the gate is closed.
  for (int i = 0; i < kBurst - 2; ++i) {
    const JsonValue reply = client.recv_json();
    EXPECT_FALSE(reply.bool_or("ok", true));
    EXPECT_EQ(reply.string_or("code", ""), "overloaded");
    // The hint is adaptive (EWMA x backlog) but always inside the
    // configured clamp band.
    EXPECT_GE(reply.number_or("retry_after_ms", -1), 25);
    EXPECT_LE(reply.number_or("retry_after_ms", -1), 2000);
  }
  gate->open();
  // flood0 plus exactly the two queued jobs complete.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(client.recv_json().bool_or("ok", false));
  }
  // Shed clients that retry after the backlog clears are served.
  client.send_line(map_request("retry", 4));
  EXPECT_TRUE(client.recv_json().bool_or("ok", false));

  expect_no_leaked_slots(client);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeFaultInjection, DrainFinishesInFlightWorkAndExitsZero) {
  auto gate = std::make_shared<MapStartGate>();
  ServeOptions options;
  options.mapper_threads = 1;
  options.drain_deadline_ms = 60'000;  // generous: drain must *finish* work
  options.map_start_gate = gate;
  ServeHarness harness(options);
  RawClient client(harness.port());

  // The gate pins "wrapup" in flight so the drain cannot go quiescent
  // before the poll loop has read the late frame off the socket — a warm
  // server finishes a small map in under a millisecond, which loses that
  // race without the gate.
  client.send_line(map_request("wrapup", 4));
  // Make sure "wrapup" is admitted before the drain begins.
  client.send_line(R"({"type":"ping","id":"sync"})");
  EXPECT_EQ(client.recv_json().string_or("id", ""), "sync");
  harness.server().request_drain();

  // New work is refused while draining, explicitly.
  client.send_line(map_request("late", 4));
  gate->open();  // now let the in-flight job wrap up
  bool saw_wrapup_ok = false;
  bool saw_late_draining = false;
  for (int i = 0; i < 2; ++i) {
    const JsonValue reply = client.recv_json();
    if (reply.string_or("id", "") == "wrapup") {
      saw_wrapup_ok = reply.bool_or("ok", false);
    } else if (reply.string_or("id", "") == "late") {
      saw_late_draining = reply.string_or("code", "") == "draining";
    }
  }
  EXPECT_TRUE(saw_wrapup_ok);
  EXPECT_TRUE(saw_late_draining);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeFaultInjection, DrainDeadlineCancelsStragglersAndStillExitsZero) {
  // The gate is never opened: the straggler provably cannot finish, and the
  // drain deadline must cancel it through the gate's cancel-aware wait.
  auto gate = std::make_shared<MapStartGate>();
  ServeOptions options;
  options.mapper_threads = 1;
  options.drain_deadline_ms = 20;  // tight: the held job cannot finish
  options.map_start_gate = gate;
  ServeHarness harness(options);
  RawClient client(harness.port());

  client.send_line(map_request("straggler", 4));
  // Make sure the job is actually admitted before the drain begins.
  client.send_line(R"({"type":"ping","id":"sync"})");
  EXPECT_EQ(client.recv_json().string_or("id", ""), "sync");

  harness.server().request_drain();
  const JsonValue reply = client.recv_json();
  EXPECT_EQ(reply.string_or("id", ""), "straggler");
  EXPECT_FALSE(reply.bool_or("ok", true));
  EXPECT_EQ(reply.string_or("code", ""), "cancelled");
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeFaultInjection, PerRequestFabricSelectsAndCachesServerSide) {
  ServeHarness harness;
  RawClient client(harness.port());

  // "paper" resolves to the built-in fabric; an unknown path is a per-
  // request failure, not a connection or daemon failure.
  JsonWriter json;
  json.begin_object();
  json.field("type", "map");
  json.field("id", "onpaper");
  json.field("qasm", kTinyQasm);
  json.field("fabric", "paper");
  json.field("placer", "mc");
  json.field("m", 4);
  json.field("seed", 1);
  json.end_object();
  client.send_line(json.str());
  EXPECT_TRUE(client.recv_json().bool_or("ok", false));

  JsonWriter bad;
  bad.begin_object();
  bad.field("type", "map");
  bad.field("id", "nofile");
  bad.field("qasm", kTinyQasm);
  bad.field("fabric", "/nonexistent/fabric.txt");
  bad.end_object();
  client.send_line(bad.str());
  EXPECT_EQ(client.recv_json().string_or("code", ""), "map_failed");

  client.send_line(map_request("still-up", 4));
  EXPECT_TRUE(client.recv_json().bool_or("ok", false));
  expect_no_leaked_slots(client);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeFaultInjection, HealthProbeAnswersEvenWhenTheQueueIsFull) {
  // The probe's whole point: it is served on the poll thread, never
  // queued, so it stays truthful exactly when admission is wedged shut.
  auto gate = std::make_shared<MapStartGate>();
  ServeOptions options;
  options.mapper_threads = 1;
  options.max_queue = 1;
  options.shard_id = 3;
  options.map_start_gate = gate;
  ServeHarness harness(options);
  RawClient client(harness.port());

  // Occupy the mapper (the gate holds the job in flight — it cannot finish
  // out from under the probe), then fill the whole queue behind it.
  client.send_line(map_request("slow0", 4));
  bool caught_running = false;
  for (int i = 0; i < 1000 && !caught_running; ++i) {
    client.send_line(R"({"type":"stats","id":"poll"})");
    const JsonValue reply = client.recv_json();
    const JsonValue* stats = reply.find("stats");
    ASSERT_NE(stats, nullptr);
    if (stats->number_or("in_flight", 0) == 1 &&
        stats->number_or("queue_depth", -1) == 0) {
      caught_running = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(caught_running);
  client.send_line(map_request("slow1", 4));
  client.send_line(R"({"type":"health","id":"h1"})");
  const JsonValue health = client.recv_json();
  // The health reply arrives FIRST — both maps are still in the system.
  EXPECT_EQ(health.string_or("id", ""), "h1");
  EXPECT_TRUE(health.bool_or("ok", false));
  EXPECT_EQ(health.string_or("health", ""), "ok");
  EXPECT_EQ(health.number_or("shard_id", -1), 3);
  EXPECT_GE(health.number_or("uptime_ms", -1), 0.0);
  // Exact with the gate held: one job pinned in flight, one in the queue.
  EXPECT_EQ(health.number_or("in_flight", -1), 1.0);
  EXPECT_EQ(health.number_or("queue_depth", -1), 1.0);

  gate->open();
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(client.recv_json().bool_or("ok", false));
  }
  expect_no_leaked_slots(client);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeFaultInjection, StatsCarryUptimeShardIdAndHealthProbeCount) {
  ServeOptions options;
  options.shard_id = 7;
  ServeHarness harness(options);
  RawClient client(harness.port());

  for (int i = 0; i < 3; ++i) {
    client.send_line(R"({"type":"health","id":"h"})");
    EXPECT_EQ(client.recv_json().string_or("health", ""), "ok");
  }
  client.send_line(R"({"type":"stats","id":"s"})");
  const JsonValue reply = client.recv_json();
  const JsonValue* stats = reply.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->number_or("shard_id", -1), 7);
  EXPECT_EQ(stats->number_or("health_probes", -1), 3);
  EXPECT_GE(stats->number_or("uptime_ms", -1), 0.0);
  EXPECT_GE(stats->number_or("retry_after_hint_ms", -1), 0.0);
  EXPECT_EQ(harness.drain_and_join(), 0);

  // Standalone daemons (no supervisor) must NOT claim a shard id.
  ServeHarness standalone;
  RawClient solo(standalone.port());
  solo.send_line(R"({"type":"stats","id":"s"})");
  const JsonValue solo_reply = solo.recv_json();
  const JsonValue* solo_stats = solo_reply.find("stats");
  ASSERT_NE(solo_stats, nullptr);
  EXPECT_EQ(solo_stats->find("shard_id"), nullptr);
  solo.send_line(R"({"type":"health","id":"h"})");
  EXPECT_EQ(solo.recv_json().find("shard_id"), nullptr);
  EXPECT_EQ(standalone.drain_and_join(), 0);
}

TEST(ServeFaultInjection, RetryAfterHintAdaptsToObservedCost) {
  // With a tiny floor and a mapper that has already served real requests,
  // the overload hint must exceed the floor: it now reflects EWMA cost
  // times the backlog instead of the old fixed constant.
  ServeOptions options;
  options.mapper_threads = 1;
  options.max_queue = 1;
  options.retry_after_ms = 1;  // floor so low any real EWMA clears it
  options.retry_after_ceiling_ms = 60'000;
  ServeHarness harness(options);
  RawClient client(harness.port());

  // Feed the estimator with genuinely slow completions.
  for (int i = 0; i < 3; ++i) {
    client.send_line(map_request("warm" + std::to_string(i), 300));
    EXPECT_TRUE(client.recv_json().bool_or("ok", false));
  }
  // Now overflow the queue and read the hint off the shed replies.
  client.send_line(map_request("occupy", 300));
  client.send_line(map_request("queued", 4));
  int hint = -1;
  std::vector<JsonValue> replies;
  for (int i = 0; i < 8 && hint < 0; ++i) {
    client.send_line(map_request("burst" + std::to_string(i), 4));
    const JsonValue reply = client.recv_json();
    if (reply.string_or("code", "") == "overloaded") {
      hint = static_cast<int>(reply.number_or("retry_after_ms", -1));
    } else if (reply.bool_or("ok", false)) {
      continue;  // a queued job finished first; keep flooding
    }
  }
  ASSERT_GT(hint, 1) << "hint never rose above the floor";
  // Drain the outstanding replies so the harness exits cleanly.
  harness.drain_and_join();
}

}  // namespace
}  // namespace qspr

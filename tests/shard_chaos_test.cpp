// Chaos harness for qspr_shard's supervisor: real qspr_serve worker
// processes (fork/exec of the build-tree binary), real kills.
//
// What it proves, over seeded kill schedules:
//   1. exactly-once: every accepted map request is answered exactly once —
//      a worker SIGKILLed mid-request still yields one reply, via
//      transparent re-dispatch to a sibling or restarted worker;
//   2. bit-identity: a re-dispatched request's result fingerprint equals a
//      direct in-process map_program run — re-execution is safe because
//      mapping is pure;
//   3. wedges (SIGSTOP) are detected by the queue-bypassing health probe,
//      SIGKILLed, and replaced;
//   4. a session opened on a worker that crashes or wedges is gone with
//      it: its name answers unknown_session after the restart and never
//      aliases a session the replacement worker opens;
//   5. a crash-looping worker binary turns into explicit `shard_down`
//      shedding while the restart backoff holds the shard down, not a hang;
//   6. drain cascades: SIGTERM answers what is in flight, reaps every
//      child (spawns == reaps, kill(pid, 0) => ESRCH), exits 0 and counts
//      no crash — no leaked workers, no leftover port files;
//   7. a SIGKILLed qspr_shard takes its workers with it.
//
// No assertion depends on how long a map takes: a kill meant to land
// mid-request freezes its target before the request is sent, and every
// wait is a bounded poll, so a broken contract fails its test instead of
// hanging the suite. Threads join through std::jthread, so a failed ASSERT
// cannot leave a joinable thread behind.
//
// Worker discovery: qspr_serve next to this test binary (the build tree
// layout); override with QSPR_SERVE_BIN.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/qspr.hpp"
#include "service/request_codec.hpp"
#include "service/shard_client.hpp"
#include "service/shard_supervisor.hpp"

namespace qspr {
namespace {

constexpr const char* kTinyQasm =
    "QUBIT q0,0\nQUBIT q1,0\nQUBIT q2,0\nH q0\nC-X q0,q1\nC-X q1,q2\n"
    "MEASURE q2\n";

/// `name` in this test binary's directory (the build tree layout).
std::string sibling_binary(const std::string& name) {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n <= 0) return name;
  buffer[n] = '\0';
  const std::string path(buffer);
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return name;
  return path.substr(0, slash + 1) + name;
}

std::string worker_binary() {
  const char* env = std::getenv("QSPR_SERVE_BIN");
  if (env != nullptr && *env != '\0') return env;
  return sibling_binary("qspr_serve");
}

std::string map_request(const std::string& id, int m) {
  JsonWriter json;
  json.begin_object();
  json.field("type", "map");
  json.field("id", id);
  json.field("qasm", kTinyQasm);
  json.field("placer", "mc");
  json.field("m", m);
  json.field("seed", 1);
  json.end_object();
  return json.str();
}

/// A map of kTinyQasm in session `session`.
std::string session_map_request(const std::string& id,
                                const std::string& session) {
  JsonWriter json;
  json.begin_object();
  json.field("type", "map");
  json.field("id", id);
  json.field("session", session);
  json.field("qasm", kTinyQasm);
  json.field("placer", "mc");
  json.field("m", 4);
  json.field("seed", 1);
  json.end_object();
  return json.str();
}

/// The fingerprint a correct service MUST return for map_request(id, m):
/// the same program/options/seed mapped directly in this process.
std::string direct_fingerprint(int m) {
  const Program program = parse_qasm(kTinyQasm, "direct");
  const Fabric fabric = make_paper_fabric();
  MapperOptions options;
  options.placer = PlacerKind::MonteCarlo;
  options.monte_carlo_trials = m;
  options.rng_seed = 1;
  return map_result_fingerprint(map_program(program, fabric, options));
}

/// Polls `done` until it holds (true) or `timeout_ms` passes (false).
template <class Predicate>
bool wait_until(Predicate done, int timeout_ms = 20'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

/// Polls the health endpoint of the supervisor on `port` until `want`
/// shards are Up.
bool wait_for_shards_up(int port, int want) {
  ShardClientOptions options;
  options.port = port;
  ShardClient probe(options);
  return wait_until(
      [&] {
        std::string reply;
        return probe.try_request(R"({"type":"health","id":"w"})", reply) &&
               parse_json(reply).number_or("shards_up", -1) >= want;
      },
      30'000);
}

/// In-process supervisor under test; serve() runs on a background thread.
class ShardHarness {
 public:
  explicit ShardHarness(ShardSupervisorOptions options) {
    options.host = "127.0.0.1";
    options.port = 0;
    if (options.worker_binary.empty()) options.worker_binary = worker_binary();
    // Workers sized for a small CI box: single mapper thread each.
    if (options.worker_args.empty()) {
      options.worker_args = {"--mapper-threads", "1", "--jobs", "1"};
    }
    supervisor_ = std::make_unique<ShardSupervisor>(std::move(options));
    supervisor_->start();
    thread_ = std::thread([this] { exit_code_ = supervisor_->serve(); });
  }

  ~ShardHarness() { drain_and_join(); }

  [[nodiscard]] int port() const { return supervisor_->port(); }
  [[nodiscard]] ShardSupervisor& supervisor() { return *supervisor_; }

  int drain_and_join() {
    if (thread_.joinable()) {
      supervisor_->request_drain();
      thread_.join();
    }
    return exit_code_;
  }

  bool wait_for_up(int want) { return wait_for_shards_up(port(), want); }

 private:
  std::unique_ptr<ShardSupervisor> supervisor_;
  std::thread thread_;
  int exit_code_ = -1;
};

ShardSupervisorOptions fast_options(int shards) {
  ShardSupervisorOptions options;
  options.shard_count = shards;
  options.health_interval_ms = 100;
  options.health_timeout_ms = 1500;
  options.restart_backoff.base_ms = 50;
  options.restart_backoff.cap_ms = 500;
  options.restart_backoff.seed = 1;
  options.max_redispatch = 8;  // chaos schedules kill repeatedly
  options.drain_deadline_ms = 30'000;
  return options;
}

ShardClientOptions client_options(int port) {
  ShardClientOptions options;
  options.port = port;
  options.request_timeout_ms = 120'000;
  options.max_attempts = 40;  // rides out restart windows
  options.backoff.base_ms = 20;
  options.backoff.cap_ms = 200;
  options.backoff.seed = 7;
  return options;
}

/// kill(pid, 0) probe: true while the process (or its zombie) exists.
bool process_exists(int pid) {
  return pid > 0 && (::kill(pid, 0) == 0 || errno != ESRCH);
}

/// The state letter of /proc/<pid>/stat, or 0 when the process is gone.
char process_state(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) return 0;
  // The state follows the ") " that closes the command name.
  const std::size_t close = stat.rfind(')');
  return close != std::string::npos && close + 2 < stat.size()
             ? stat[close + 2]
             : 0;
}

/// True once `pid` has exited: gone, or a zombie its parent has not reaped.
bool has_exited(int pid) {
  const char state = process_state(pid);
  return state == 0 || state == 'Z' || state == 'X';
}

/// Pids whose parent is `parent`, from the ppid field of /proc/*/stat.
std::vector<int> child_pids(int parent) {
  std::vector<int> children;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc", error)) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || !std::all_of(name.begin(), name.end(), [](char c) {
          return c >= '0' && c <= '9';
        })) {
      continue;
    }
    std::ifstream in(entry.path() / "stat");
    std::string stat;
    if (!std::getline(in, stat)) continue;
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    char state = 0;
    int ppid = 0;
    std::istringstream fields(stat.substr(close + 1));
    if (fields >> state >> ppid && ppid == parent) {
      children.push_back(std::stoi(name));
    }
  }
  return children;
}

TEST(ShardChaos, BringsUpShardsAndServesBitIdenticalResults) {
  ShardHarness harness(fast_options(2));
  ASSERT_TRUE(harness.wait_for_up(2));

  ShardClient client(client_options(harness.port()));
  const std::string reply_line = client.request(map_request("r1", 8));
  const JsonValue reply = parse_json(reply_line);
  EXPECT_TRUE(reply.bool_or("ok", false));
  EXPECT_EQ(reply.string_or("id", ""), "r1");
  // Bit-identity through the whole supervisor -> worker -> back path.
  EXPECT_EQ(reply.string_or("result_fp", ""), direct_fingerprint(8));

  // Supervisor-local request types answer without touching a worker.
  std::string line;
  ASSERT_TRUE(client.try_request(R"({"type":"ping","id":"p"})", line));
  EXPECT_TRUE(parse_json(line).bool_or("pong", false));
  ASSERT_TRUE(client.try_request(R"({"type":"stats","id":"s"})", line));
  const JsonValue stats = parse_json(line);
  ASSERT_NE(stats.find("stats"), nullptr);
  EXPECT_EQ(stats.find("stats")->string_or("role", ""), "supervisor");
  EXPECT_EQ(stats.find("stats")->number_or("shards_up", -1), 2);

  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ShardChaos, SigkillMidRequestStillAnswersExactlyOnceBitIdentical) {
  ShardHarness harness(fast_options(2));
  ASSERT_TRUE(harness.wait_for_up(2));
  const int target = shard_for_fabric("", 2);  // where kTinyQasm routes
  const int victim =
      harness.supervisor().worker_pids()[static_cast<std::size_t>(target)];
  ASSERT_GT(victim, 0);

  // Freeze the target before sending: once the supervisor has accepted the
  // request, its frame sits unanswered on the frozen worker's lane, so the
  // SIGKILL lands mid-request however fast the map is.
  ASSERT_EQ(::kill(victim, SIGSTOP), 0);
  std::string reply_line;
  std::jthread requester([&] {
    ShardClient client(client_options(harness.port()));
    reply_line = client.request(map_request("victim", 8));
  });
  ASSERT_TRUE(wait_until(
      [&] { return harness.supervisor().metrics().accepted >= 1; }));
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  requester.join();

  // Exactly one reply, and it is the right one: bit-identical to a direct
  // run even though a different worker computed it.
  const JsonValue reply = parse_json(reply_line);
  EXPECT_TRUE(reply.bool_or("ok", false)) << reply_line;
  EXPECT_EQ(reply.string_or("id", ""), "victim");
  EXPECT_EQ(reply.string_or("result_fp", ""), direct_fingerprint(8));

  const SupervisorMetrics metrics = harness.supervisor().metrics();
  EXPECT_GE(metrics.crashes, 1);
  EXPECT_GE(metrics.redispatches, 1);
  EXPECT_EQ(metrics.accepted, metrics.answered);

  // The killed worker is replaced (new pid, both shards Up again).
  EXPECT_TRUE(harness.wait_for_up(2));
  const std::vector<int> after = harness.supervisor().worker_pids();
  EXPECT_GT(after[static_cast<std::size_t>(target)], 0);
  EXPECT_NE(after[static_cast<std::size_t>(target)], victim);

  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ShardChaos, SeededKillScheduleLosesNoReplies) {
  ShardHarness harness(fast_options(2));
  ASSERT_TRUE(harness.wait_for_up(2));

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 8;
  std::atomic<int> ok_replies{0};
  std::atomic<int> error_replies{0};
  std::vector<std::jthread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ShardClient client(client_options(harness.port()));
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const std::string id =
            "c" + std::to_string(c) + "_r" + std::to_string(r);
        // request() throws only when the retry budget is spent; any
        // returned line is the exactly-one reply for this id.
        const std::string line = client.request(map_request(id, 60));
        const JsonValue reply = parse_json(line);
        ASSERT_EQ(reply.string_or("id", ""), id) << line;
        if (reply.bool_or("ok", false)) {
          ok_replies.fetch_add(1);
        } else {
          error_replies.fetch_add(1);
        }
      }
    });
  }

  // Seeded kill schedule: deterministic victims and intervals. The stop
  // flag is read only between kills, so the first kill always lands.
  std::atomic<bool> stop_killing{false};
  std::jthread killer([&] {
    Rng rng(2026);
    int kills = 0;
    while (!stop_killing.load() && kills < 6) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          200 + static_cast<int>(rng.uniform_index(300))));
      const int victim = static_cast<int>(rng.uniform_index(2));
      const std::vector<int> pids = harness.supervisor().worker_pids();
      if (pids[static_cast<std::size_t>(victim)] > 0) {
        ::kill(pids[static_cast<std::size_t>(victim)], SIGKILL);
        ++kills;
      }
    }
  });

  for (std::jthread& thread : clients) thread.join();
  stop_killing.store(true);
  killer.join();

  // Every request got exactly one reply (request() returned once each).
  EXPECT_EQ(ok_replies.load() + error_replies.load(),
            kClients * kRequestsPerClient);
  // Under an 8-redispatch budget and siblings to fail over to, the seeded
  // schedule must not surface errors to well-behaved retrying clients.
  EXPECT_EQ(error_replies.load(), 0);

  // The supervisor reaps the last kill on a later loop pass.
  EXPECT_TRUE(
      wait_until([&] { return harness.supervisor().metrics().reaps >= 1; }));
  // The supervisor's own ledger balances once the dust settles.
  const SupervisorMetrics metrics = harness.supervisor().metrics();
  EXPECT_EQ(metrics.accepted, metrics.answered);

  EXPECT_TRUE(harness.wait_for_up(2));
  EXPECT_EQ(harness.drain_and_join(), 0);

  const SupervisorMetrics final_metrics = harness.supervisor().metrics();
  EXPECT_EQ(final_metrics.spawns, final_metrics.reaps);
}

TEST(ShardChaos, WedgedWorkerIsDetectedKilledAndReplaced) {
  ShardSupervisorOptions options = fast_options(2);
  options.health_timeout_ms = 600;  // fast wedge verdicts
  ShardHarness harness(options);
  ASSERT_TRUE(harness.wait_for_up(2));

  const int target = shard_for_fabric("", 2);
  const std::vector<int> pids = harness.supervisor().worker_pids();
  const int wedged_pid = pids[static_cast<std::size_t>(target)];
  ASSERT_GT(wedged_pid, 0);
  // SIGSTOP: the process is alive (waitpid sees nothing) but cannot answer
  // the poll-loop health probe — the definition of a wedge.
  ASSERT_EQ(::kill(wedged_pid, SIGSTOP), 0);
  EXPECT_TRUE(
      wait_until([&] { return harness.supervisor().metrics().wedges >= 1; }));

  // Replacement comes up and serves the wedged shard's traffic again.
  ASSERT_TRUE(harness.wait_for_up(2));
  ShardClient client(client_options(harness.port()));
  const JsonValue reply = parse_json(client.request(map_request("after", 8)));
  EXPECT_TRUE(reply.bool_or("ok", false));
  EXPECT_EQ(reply.string_or("result_fp", ""), direct_fingerprint(8));

  EXPECT_EQ(harness.drain_and_join(), 0);
  EXPECT_FALSE(process_exists(wedged_pid));
}

/// Opens a session through the supervisor and returns its name.
std::string open_session(ShardClient& client, const std::string& id) {
  const JsonValue ack = parse_json(client.request(
      R"({"type":"session_open","id":")" + id + R"(","fabric":"paper"})"));
  EXPECT_TRUE(ack.bool_or("ok", false));
  return ack.string_or("session", "");
}

/// Client A opens a session on a one-shard fleet and maps in it; then
/// `signal` takes the worker down (SIGKILL: a crash; SIGSTOP: a wedge the
/// health probe turns into a kill). After the restart, client B opens a
/// session of its own. A's next map in its old session must answer
/// unknown_session — not run in B's session and replace B's circuit.
void expect_lost_session_stays_lost(int signal) {
  ShardSupervisorOptions options = fast_options(1);
  options.health_timeout_ms = 600;  // fast wedge verdicts
  ShardHarness harness(options);
  ASSERT_TRUE(harness.wait_for_up(1));

  ShardClient a(client_options(harness.port()));
  const std::string lost = open_session(a, "a_open");
  ASSERT_FALSE(lost.empty());
  ASSERT_TRUE(parse_json(a.request(session_map_request("a1", lost)))
                  .bool_or("ok", false));

  const int victim = harness.supervisor().worker_pids()[0];
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, signal), 0);
  ASSERT_TRUE(wait_until(
      [&] { return harness.supervisor().metrics().restarts >= 1; }));
  ASSERT_TRUE(harness.wait_for_up(1));

  ShardClient b(client_options(harness.port()));
  const std::string fresh = open_session(b, "b_open");
  EXPECT_FALSE(fresh.empty());
  EXPECT_NE(fresh, lost);
  EXPECT_TRUE(parse_json(b.request(session_map_request("b1", fresh)))
                  .bool_or("ok", false));

  const std::string stale_line = a.request(session_map_request("a2", lost));
  const JsonValue stale = parse_json(stale_line);
  EXPECT_FALSE(stale.bool_or("ok", true)) << stale_line;
  EXPECT_EQ(stale.string_or("code", ""), "unknown_session") << stale_line;

  EXPECT_EQ(harness.drain_and_join(), 0);
  const SupervisorMetrics metrics = harness.supervisor().metrics();
  EXPECT_GE(metrics.crashes, 1);  // a wedge kill is a crash too
  if (signal == SIGSTOP) {
    EXPECT_GE(metrics.wedges, 1);
  }
  EXPECT_EQ(metrics.accepted, metrics.answered);
  EXPECT_FALSE(process_exists(victim));
}

TEST(ShardChaos, SessionOfACrashedWorkerAnswersUnknownSessionAfterRestart) {
  expect_lost_session_stays_lost(SIGKILL);
}

TEST(ShardChaos, SessionOfAWedgedWorkerAnswersUnknownSessionAfterRestart) {
  expect_lost_session_stays_lost(SIGSTOP);
}

TEST(ShardChaos, CrashLoopingWorkerBinaryShedsExplicitly) {
  ShardSupervisorOptions options = fast_options(1);
  options.worker_binary = "/nonexistent/qspr_serve";
  ShardHarness harness(options);

  // The shard can never come up; a map request gets an explicit, prompt
  // shard_down with a retry hint — not a hang, not a dropped connection.
  ShardClientOptions copts;
  copts.port = harness.port();
  ShardClient client(copts);
  std::string line;
  ASSERT_TRUE(client.try_request(map_request("doomed", 4), line));
  const JsonValue reply = parse_json(line);
  EXPECT_FALSE(reply.bool_or("ok", true));
  EXPECT_EQ(reply.string_or("code", ""), "shard_down");
  EXPECT_GT(reply.number_or("retry_after_ms", -1), 0);

  // The exec failures were observed (exit 127 -> reaped, restart backoff).
  const SupervisorMetrics metrics = harness.supervisor().metrics();
  EXPECT_GE(metrics.spawns, 1);

  EXPECT_EQ(harness.drain_and_join(), 0);
  const SupervisorMetrics final_metrics = harness.supervisor().metrics();
  EXPECT_EQ(final_metrics.spawns, final_metrics.reaps);
}

TEST(ShardChaos, DrainCascadeAnswersInFlightReapsAllWorkersExitsZero) {
  ShardHarness harness(fast_options(2));
  ASSERT_TRUE(harness.wait_for_up(2));
  const std::vector<int> pids = harness.supervisor().worker_pids();
  for (const int pid : pids) ASSERT_GT(pid, 0);

  // A request in flight when the drain starts must still be answered (the
  // worker drains, not aborts).
  std::string reply_line;
  std::jthread requester([&] {
    ShardClient client(client_options(harness.port()));
    reply_line = client.request(map_request("inflight", 800));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const int code = harness.drain_and_join();
  requester.join();
  EXPECT_EQ(code, 0);

  const JsonValue reply = parse_json(reply_line);
  EXPECT_EQ(reply.string_or("id", ""), "inflight");
  // Either the worker finished it (ok) or the drain deadline cancelled it
  // (cancelled/draining) — but it was answered, exactly once.
  if (!reply.bool_or("ok", false)) {
    const std::string code_str = reply.string_or("code", "");
    EXPECT_TRUE(code_str == "cancelled" || code_str == "draining")
        << reply_line;
  }

  // No leaked workers: every spawned pid was reaped and is gone. Drained
  // workers exit on request, so none of them counts as a crash.
  const SupervisorMetrics metrics = harness.supervisor().metrics();
  EXPECT_EQ(metrics.spawns, metrics.reaps);
  EXPECT_EQ(metrics.crashes, 0);
  for (const int pid : pids) EXPECT_FALSE(process_exists(pid)) << pid;

  // No leftover port files either.
  for (int i = 0; i < 2; ++i) {
    const std::string port_file = "/tmp/qspr_shard_" +
                                  std::to_string(::getpid()) + "_" +
                                  std::to_string(i) + ".port";
    EXPECT_NE(::access(port_file.c_str(), F_OK), 0) << port_file;
  }
}

TEST(ShardChaos, KilledSupervisorTakesItsWorkersWithIt) {
  // The real qspr_shard binary, so the supervisor can die alone. Nothing
  // below returns early: whatever fails, the cleanup at the end runs.
  const std::string port_file =
      "/tmp/qspr_shard_test_" + std::to_string(::getpid()) + ".port";
  (void)::unlink(port_file.c_str());
  std::vector<std::string> args = {
      sibling_binary("qspr_shard"), "--port", "0", "--port-file", port_file,
      "--shards", "2", "--worker-bin", worker_binary(), "--mapper-threads",
      "1", "--jobs", "1", "--quiet"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t supervisor = ::fork();
  ASSERT_GE(supervisor, 0);
  if (supervisor == 0) {
    ::execv(argv[0], argv.data());
    _exit(127);
  }

  int port = 0;
  const bool up = wait_until([&] {
                    std::ifstream in(port_file);
                    return static_cast<bool>(in >> port) && port > 0;
                  }) &&
                  wait_for_shards_up(port, 2);
  EXPECT_TRUE(up) << "qspr_shard never brought its two workers up";
  const std::vector<int> workers =
      up ? child_pids(supervisor) : std::vector<int>{};
  EXPECT_EQ(workers.size(), 2u);

  ::kill(supervisor, SIGKILL);
  int status = 0;
  (void)::waitpid(supervisor, &status, 0);
  EXPECT_TRUE(wait_until(
      [&] { return std::all_of(workers.begin(), workers.end(), has_exited); },
      10'000))
      << "a worker outlived its SIGKILLed supervisor";

  for (const int worker : workers) {
    if (!has_exited(worker)) ::kill(worker, SIGKILL);
  }
  (void)::unlink(port_file.c_str());
  for (int i = 0; i < 2; ++i) {
    const std::string worker_port_file = "/tmp/qspr_shard_" +
                                         std::to_string(supervisor) + "_" +
                                         std::to_string(i) + ".port";
    (void)::unlink(worker_port_file.c_str());
  }
}

}  // namespace
}  // namespace qspr

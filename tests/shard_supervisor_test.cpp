// Supervisor internals, unit-tested without a single process spawn: the
// deterministic restart backoff (exact replay under a seed, monotonicity,
// cap, jitter bounds), the per-shard restart schedule driven by a fake
// clock (every failure waits its backoff, escalation, reset on a healthy
// probe), the fabric-fingerprint routing (stability across calls — i.e.
// across worker restarts — the "" == "paper" canonicalisation, and a pinned
// hash value so the routing key can never drift silently between
// releases), and the session-name routing (the shard a fleet name carries,
// -1 for any other shape).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "service/shard_client.hpp"
#include "service/shard_supervisor.hpp"

namespace qspr {
namespace {

using TimePoint = std::chrono::steady_clock::time_point;

TimePoint tick(long long ms) {
  return TimePoint{} + std::chrono::milliseconds(ms);
}

// ---------------------------------------------------------------------------
// BackoffPolicy
// ---------------------------------------------------------------------------

TEST(BackoffPolicy, DeterministicReplayUnderOneSeed) {
  BackoffOptions options;
  options.base_ms = 50;
  options.cap_ms = 10'000;
  options.jitter_frac = 0.25;
  options.seed = 42;
  const BackoffPolicy a(options);
  const BackoffPolicy b(options);
  for (int attempt = 0; attempt < 16; ++attempt) {
    EXPECT_EQ(a.delay_ms(attempt), b.delay_ms(attempt)) << attempt;
  }
}

TEST(BackoffPolicy, ZeroJitterIsExactDoubling) {
  BackoffOptions options;
  options.base_ms = 10;
  options.cap_ms = 1'000'000;
  options.jitter_frac = 0.0;
  const BackoffPolicy policy(options);
  EXPECT_EQ(policy.delay_ms(0), 10);
  EXPECT_EQ(policy.delay_ms(1), 20);
  EXPECT_EQ(policy.delay_ms(2), 40);
  EXPECT_EQ(policy.delay_ms(5), 320);
  EXPECT_EQ(policy.delay_ms(10), 10'240);
}

TEST(BackoffPolicy, MonotoneNonDecreasingAndCapped) {
  BackoffOptions options;
  options.base_ms = 25;
  options.cap_ms = 2000;
  options.jitter_frac = 0.25;
  options.seed = 7;
  const BackoffPolicy policy(options);
  int previous = 0;
  for (int attempt = 0; attempt < 40; ++attempt) {
    const int delay = policy.delay_ms(attempt);
    EXPECT_LE(delay, options.cap_ms) << attempt;
    // Jitter is multiplicative on a doubling base, so the schedule may
    // wobble within one attempt's band but never below the unjittered
    // value of any earlier attempt.
    EXPECT_GE(delay, std::min(25 << std::min(attempt, 6), 2000)) << attempt;
    if (attempt >= 8) {
      EXPECT_EQ(delay, options.cap_ms) << attempt;
    }
    previous = delay;
  }
  (void)previous;
}

TEST(BackoffPolicy, JitterStaysInsideItsBand) {
  BackoffOptions options;
  options.base_ms = 100;
  options.cap_ms = 1'000'000;
  options.jitter_frac = 0.5;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    options.seed = seed;
    const BackoffPolicy policy(options);
    for (int attempt = 0; attempt < 8; ++attempt) {
      const int unjittered = 100 << attempt;
      const int delay = policy.delay_ms(attempt);
      EXPECT_GE(delay, unjittered) << "seed " << seed << " attempt " << attempt;
      EXPECT_LT(delay, static_cast<int>(unjittered * 1.5) + 1)
          << "seed " << seed << " attempt " << attempt;
    }
  }
}

TEST(BackoffPolicy, RejectsNonsenseOptions) {
  BackoffOptions bad;
  bad.base_ms = 100;
  bad.cap_ms = 50;  // cap below base
  EXPECT_THROW(BackoffPolicy{bad}, Error);
  bad = BackoffOptions{};
  bad.jitter_frac = 1.5;
  EXPECT_THROW(BackoffPolicy{bad}, Error);
}

// ---------------------------------------------------------------------------
// RestartSchedule (fake clock: every failure is injected time)
// ---------------------------------------------------------------------------

RestartSchedule exact_schedule(int base_ms, int cap_ms) {
  BackoffOptions options;
  options.base_ms = base_ms;
  options.cap_ms = cap_ms;
  options.jitter_frac = 0.0;  // exact delays for the test
  return RestartSchedule(options);
}

TEST(RestartSchedule, EveryFailureWaitsAnEscalatingCappedBackoff) {
  RestartSchedule schedule = exact_schedule(100, 400);
  EXPECT_EQ(schedule.restart_at(), tick(0));  // the first spawn is not held
  // Even the first failure waits the base delay; the streak escalates it.
  schedule.record_failure(tick(10));
  EXPECT_EQ(schedule.restart_at(), tick(10 + 100));
  schedule.record_failure(tick(110));
  EXPECT_EQ(schedule.restart_at(), tick(110 + 200));
  schedule.record_failure(tick(310));
  EXPECT_EQ(schedule.restart_at(), tick(310 + 400));
  schedule.record_failure(tick(710));
  EXPECT_EQ(schedule.restart_at(), tick(710 + 400));  // capped
}

TEST(RestartSchedule, AHealthyProbeEndsTheStreak) {
  RestartSchedule schedule = exact_schedule(100, 10'000);
  schedule.record_failure(tick(0));
  schedule.record_failure(tick(100));
  EXPECT_EQ(schedule.restart_at(), tick(100 + 200));
  schedule.record_success();
  // The next failure starts back at the base delay, not the escalated one.
  schedule.record_failure(tick(1000));
  EXPECT_EQ(schedule.restart_at(), tick(1000 + 100));
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

TEST(ShardRouting, EmptySpecCanonicalisesToPaper) {
  EXPECT_EQ(fabric_route_fingerprint(""), fabric_route_fingerprint("paper"));
  for (int shards = 1; shards <= 8; ++shards) {
    EXPECT_EQ(shard_for_fabric("", shards), shard_for_fabric("paper", shards));
  }
}

TEST(ShardRouting, PinnedFingerprintNeverDrifts) {
  // FNV-1a 64 of "paper". A change here silently re-routes every cached
  // fabric after an upgrade — bump only with a migration note.
  EXPECT_EQ(fabric_route_fingerprint("paper"), 1756972527519192911ull);
}

TEST(ShardRouting, StableAcrossCallsAndInRange) {
  const std::vector<std::string> specs = {
      "", "paper", "fabrics/a.fab", "fabrics/b.fab", "x", "y", "z"};
  for (const std::string& spec : specs) {
    const int first = shard_for_fabric(spec, 4);
    EXPECT_GE(first, 0);
    EXPECT_LT(first, 4);
    for (int repeat = 0; repeat < 4; ++repeat) {
      EXPECT_EQ(shard_for_fabric(spec, 4), first) << spec;
    }
  }
}

TEST(ShardRouting, DistinctSpecsSpreadAcrossShards) {
  // Not a uniformity proof — just that the hash is not degenerate: a
  // handful of distinct specs must not all collapse onto one shard.
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 64; ++i) {
    ++hits[static_cast<std::size_t>(
        shard_for_fabric("fabric_" + std::to_string(i) + ".fab", 4))];
  }
  int populated = 0;
  for (const int count : hits) populated += count > 0 ? 1 : 0;
  EXPECT_GE(populated, 3);
}

TEST(ShardRouting, SessionNamesRouteToTheShardTheyCarry) {
  EXPECT_EQ(shard_for_session("s0.1234567.1", 2), 0);
  EXPECT_EQ(shard_for_session("s1.1234567.42", 2), 1);
  EXPECT_EQ(shard_for_session("s3.0.0", 4), 3);
}

TEST(ShardRouting, SessionNamesOfAnotherShapeOrShardRouteNowhere) {
  // Out of range: the fleet has no such shard.
  EXPECT_EQ(shard_for_session("s2.1234567.1", 2), -1);
  EXPECT_EQ(shard_for_session("s99999999999999999999.1.1", 2), -1);
  // Malformed: standalone and older two-part names, wrong separators,
  // empty, signed or non-numeric fields, trailing bytes.
  for (const char* name :
       {"", "s", "s1", "s0.1", "s0.1.", "s0..1", "s.1.1", "x0.1.1", "S0.1.1",
        "s-1.1.1", "s+1.1.1", "s0.-1.1", "s0.1.1x", "s0.1.1.1", "s0:1:1",
        " s0.1.1", "s0.1.1 ", "s0.1.99999999999999999999"}) {
    EXPECT_EQ(shard_for_session(name, 4), -1) << '"' << name << '"';
  }
}

}  // namespace
}  // namespace qspr

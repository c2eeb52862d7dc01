// LRU memory-budget enforcement of the service's two caches: the engine's
// per-fabric artifact cache and the server's program-level result cache.
// Both follow the same contract: set_budget_bytes(0) is unlimited, eviction
// is least-recently-used, and the entry the current operation
// returns/inserts is never evicted (a budget smaller than one entry
// degrades to a cache of one, not thrash-to-empty). Also the result cache's
// eviction order over many evictions, its program key, and that its
// entries are reply-sized.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/mapper.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/codes.hpp"
#include "service/result_cache.hpp"

namespace qspr {
namespace {

TEST(FabricArtifactCacheTest, HitsShareOneBundlePerLayout) {
  FabricArtifactCache cache;
  const Fabric paper = make_paper_fabric();
  const auto first = cache.get(paper);
  // A *different instance* of the same layout hits the same bundle.
  const Fabric again = make_paper_fabric();
  const auto second = cache.get(again);
  EXPECT_EQ(first.get(), second.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.builds, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(FabricArtifactCacheTest, BudgetEvictsLeastRecentlyUsed) {
  FabricArtifactCache cache;
  const Fabric small = make_quale_fabric({2, 2, 3});
  const Fabric medium = make_quale_fabric({3, 3, 4});
  const Fabric paper = make_paper_fabric();

  const std::size_t one = cache.get(small)->memory_bytes();
  // Room for roughly two small bundles: inserting the (much larger) paper
  // bundle must evict, and the least-recently-used entry goes first.
  cache.set_budget_bytes(2 * one + cache.get(medium)->memory_bytes());
  (void)cache.get(medium);  // small is now the LRU entry
  (void)cache.get(paper);
  const auto stats = cache.stats();
  EXPECT_GE(stats.evictions, 1);

  // The evicted layout rebuilds on next sight; the recently-used one hits.
  const long long builds_before = stats.builds;
  (void)cache.get(small);
  EXPECT_EQ(cache.stats().builds, builds_before + 1);
}

TEST(FabricArtifactCacheTest, TinyBudgetDegradesToCacheOfOne) {
  FabricArtifactCache cache;
  cache.set_budget_bytes(1);  // smaller than any bundle
  const auto paper = cache.get(make_paper_fabric());
  EXPECT_NE(paper, nullptr);  // the returned bundle is never evicted
  const auto quale = cache.get(make_quale_fabric({3, 3, 4}));
  EXPECT_NE(quale, nullptr);
  EXPECT_GE(cache.stats().evictions, 1);
}

TEST(FabricArtifactCacheTest, EvictedBundleSurvivesThroughHeldReference) {
  FabricArtifactCache cache;
  const Fabric fabric = make_quale_fabric({2, 2, 3});
  const auto held = cache.get(fabric);
  const std::size_t nodes = held->graph.node_count();
  ASSERT_GT(nodes, 0u);
  cache.set_budget_bytes(1);
  (void)cache.get(make_paper_fabric());  // evicts the held bundle
  EXPECT_GE(cache.stats().evictions, 1);
  // Eviction drops the cache's reference only: the bundle and its routing
  // graph stay valid for jobs still holding them.
  EXPECT_GT(held->memory_bytes(), 0u);
  EXPECT_EQ(held->graph.node_count(), nodes);
  EXPECT_EQ(&held->graph.fabric(), &held->fabric);
  EXPECT_TRUE(same_fabric_layout(held->fabric, fabric));
}

/// A reply to cache; the contents do not matter to the budget.
MapReply entry() {
  MapReply reply;
  reply.latency_us = 1234;
  reply.result_fp = 0x5eed;
  return reply;
}

TEST(ResultCacheTest, FindMissThenHit) {
  ResultCache cache;
  const ResultCache::Key key{1, 2, 3};
  EXPECT_FALSE(cache.find(key).has_value());
  cache.insert(key, entry());
  EXPECT_TRUE(cache.find(key).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.bytes, sizeof(MapReply));
}

TEST(ResultCacheTest, BudgetEvictsLeastRecentlyUsed) {
  ResultCache cache;
  const std::size_t entry_bytes = ResultCache::entry_bytes();
  cache.set_budget_bytes(2 * entry_bytes + entry_bytes / 2);

  const ResultCache::Key a{1, 0, 0};
  const ResultCache::Key b{2, 0, 0};
  const ResultCache::Key c{3, 0, 0};
  cache.insert(a, entry());
  cache.insert(b, entry());
  EXPECT_TRUE(cache.find(a).has_value());  // refresh a: b is now the LRU entry
  cache.insert(c, entry());

  EXPECT_FALSE(cache.find(b).has_value());  // evicted as LRU
  EXPECT_TRUE(cache.find(a).has_value());
  EXPECT_TRUE(cache.find(c).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, 2 * entry_bytes + entry_bytes / 2);
}

TEST(ResultCacheTest, EvictsTheUntouchedKeysOldestFirst) {
  ResultCache cache;
  cache.set_budget_bytes(64 * ResultCache::entry_bytes());
  for (std::uint64_t i = 0; i < 64; ++i) cache.insert({i, 0, 0}, entry());
  for (std::uint64_t i = 0; i < 64; i += 2) {
    ASSERT_TRUE(cache.find({i, 0, 0}).has_value());
  }
  // The odd keys are now the least recently used, oldest first. Each insert
  // past the budget evicts exactly the oldest of them; probing an evicted
  // key misses and leaves the order alone.
  for (std::uint64_t i = 64; i < 96; ++i) {
    cache.insert({i, 0, 0}, entry());
    EXPECT_EQ(cache.stats().evictions, static_cast<long long>(i - 63));
    EXPECT_FALSE(cache.find({2 * (i - 64) + 1, 0, 0}).has_value()) << i;
  }
  for (std::uint64_t i = 0; i < 96; ++i) {
    const bool kept = i >= 64 || i % 2 == 0;
    EXPECT_EQ(cache.find({i, 0, 0}).has_value(), kept) << i;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 32);
  EXPECT_EQ(stats.entries, 64u);
}

TEST(ResultCacheTest, TinyBudgetDegradesToCacheOfOne) {
  ResultCache cache;
  cache.set_budget_bytes(1);
  const ResultCache::Key a{1, 0, 0};
  const ResultCache::Key b{2, 0, 0};
  cache.insert(a, entry());
  // The just-inserted entry is protected; everything else goes.
  EXPECT_EQ(cache.size(), 1u);
  cache.insert(b, entry());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.find(a).has_value());
  EXPECT_TRUE(cache.find(b).has_value());
}

TEST(ResultCacheTest, ZeroBudgetIsUnlimited) {
  ResultCache cache;
  for (std::uint64_t i = 0; i < 16; ++i) {
    cache.insert({i, 0, 0}, entry());
  }
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(ResultCacheTest, EntriesAreReplySized) {
  // An entry is the reply, not the mapped result: no trace or placement
  // rides along, so the largest paper encoder costs what the smallest does.
  static_assert(std::is_trivially_copyable_v<MapReply>);
  MapperOptions options;
  options.placer = PlacerKind::Center;
  const Fabric fabric = make_paper_fabric();
  const MapResult small =
      map_program(make_encoder(QeccCode::Q5_1_3), fabric, options);
  const MapResult large =
      map_program(make_encoder(QeccCode::Q23_1_7), fabric, options);
  ASSERT_GT(large.trace.size(), 2 * small.trace.size());

  ResultCache cache;
  cache.insert({1, 0, 0}, map_reply(small));
  const std::size_t small_bytes = cache.stats().bytes;
  cache.insert({2, 0, 0}, map_reply(large));
  const std::size_t large_bytes = cache.stats().bytes - small_bytes;
  EXPECT_EQ(small_bytes, ResultCache::entry_bytes());
  EXPECT_EQ(large_bytes, small_bytes);
  EXPECT_EQ(cache.find({2, 0, 0})->result_fp, map_reply(large).result_fp);
}

/// Four qubits `prefix`0..3 with init value `init`, then `H a; C-X a,b` for
/// each (a, b) of `pairs`, in order.
Program gate_pairs(const std::vector<std::pair<int, int>>& pairs,
                   std::optional<int> init = 0,
                   const std::string& prefix = "q") {
  Program program;
  for (int q = 0; q < 4; ++q) {
    program.add_qubit(prefix + std::to_string(q), init);
  }
  for (const auto& [a, b] : pairs) {
    program.add_gate(GateKind::H, QubitId(a));
    program.add_gate(GateKind::CX, QubitId(a), QubitId(b));
  }
  return program;
}

TEST(ProgramFingerprint, FollowsProgramOrder) {
  // Reordering independent gates renumbers the instructions, which can
  // change the mapped result, so it must change the key too.
  const std::uint64_t key = program_fingerprint(gate_pairs({{0, 1}, {2, 3}}));
  EXPECT_EQ(program_fingerprint(gate_pairs({{0, 1}, {2, 3}})), key);
  EXPECT_NE(program_fingerprint(gate_pairs({{2, 3}, {0, 1}})), key);
}

TEST(ProgramFingerprint, SeesOperandsInitValuesAndWidthButNotNames) {
  const std::uint64_t key = program_fingerprint(gate_pairs({{0, 1}, {2, 3}}));

  Program reversed = gate_pairs({{0, 1}});
  reversed.add_gate(GateKind::H, QubitId(2));
  reversed.add_gate(GateKind::CX, QubitId(3), QubitId(2));
  EXPECT_NE(program_fingerprint(reversed), key);

  EXPECT_NE(program_fingerprint(gate_pairs({{0, 1}, {2, 3}}, std::nullopt)),
            key);

  Program wider = gate_pairs({{0, 1}, {2, 3}});
  wider.add_qubit("q4", 0);
  EXPECT_NE(program_fingerprint(wider), key);

  // Placement is index-based: qubit names never reach the mapped result.
  EXPECT_EQ(program_fingerprint(gate_pairs({{0, 1}, {2, 3}}, 0, "r")), key);
}

TEST(MapperOptionsFingerprint, IgnoresTheNegotiationDiagnosticAndItsWeight) {
  // The diagnostic and its search weight change no MapReply field, so a
  // reply cached with them is the reply without them.
  MapperOptions plain;
  MapperOptions diagnosed;
  diagnosed.negotiation_report = true;
  diagnosed.route_heuristic_weight = 1.5;
  EXPECT_EQ(mapper_options_fingerprint(diagnosed),
            mapper_options_fingerprint(plain));

  MapperOptions reseeded;
  reseeded.rng_seed = plain.rng_seed + 1;
  EXPECT_NE(mapper_options_fingerprint(reseeded),
            mapper_options_fingerprint(plain));
}

}  // namespace
}  // namespace qspr

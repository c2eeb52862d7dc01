// Allocation regression tests. Once an EventSimulator::Workspace is warm, a
// placement run allocates only the buffers of the ExecutionResult it returns
// (trace, timings and the two placements, plus Placement::validate's count
// table). And the result cache's per-entry estimate, behind its byte budget
// and `stats`, matches what an insert really allocates. The suite replaces
// the global operator new with a counting version, so it lives in its own
// binary and affects no other suite. It asserts counts, never a time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "circuit/dependency_graph.hpp"
#include "core/placer.hpp"
#include "core/scheduler.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/codes.hpp"
#include "route/routing_graph.hpp"
#include "service/result_cache.hpp"
#include "sim/event_sim.hpp"

namespace {

std::atomic<long long> g_allocations{0};
std::atomic<long long> g_allocated_bytes{0};

/// Out of line, so that operator new stays small enough for GCC to inline
/// and to see that malloc pairs with the free of operator delete; otherwise
/// -Wmismatched-new-delete warns at every inlined delete.
[[gnu::noinline]] void count_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<long long>(size),
                              std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace qspr {
namespace {

TEST(WorkspaceAllocation, WarmRunAllocatesOnlyItsResult) {
  const Fabric fabric = make_paper_fabric();
  const RoutingGraph graph(fabric);
  const DependencyGraph qidg =
      DependencyGraph::build(make_encoder(QeccCode::Q23_1_7));
  const ExecutionOptions options;
  const EventSimulator simulator(qidg, fabric, graph,
                                 make_schedule_rank(qidg, options.tech),
                                 options);
  const Placement placement = center_placement(fabric, qidg.qubit_count());

  EventSimulator::Workspace workspace;
  long long start = g_allocations.load();
  const ExecutionResult cold = simulator.run(placement, workspace);
  const long long cold_allocations = g_allocations.load() - start;
  start = g_allocations.load();
  const ExecutionResult warm = simulator.run(placement, workspace);
  const long long warm_allocations = g_allocations.load() - start;

  // The cold run sizes every buffer, which shows the counter is live.
  EXPECT_GT(cold_allocations, 50);
  EXPECT_LE(warm_allocations, 8);
  EXPECT_EQ(warm.latency, cold.latency);
  EXPECT_EQ(warm.trace.ops().size(), cold.trace.ops().size());
  EXPECT_GT(warm.stats.moves, 0);
}

TEST(ResultCacheAllocation, EntryEstimateMatchesBytesAllocatedPerInsert) {
  // Every byte an insert asks operator new for: the list node, the index
  // node and the bucket array's growth, amortised over many inserts.
  constexpr int kInserts = 10'000;
  ResultCache cache;
  const MapReply reply;
  const long long start = g_allocated_bytes.load();
  for (int i = 0; i < kInserts; ++i) {
    cache.insert({static_cast<std::uint64_t>(i), 0, 0}, reply);
  }
  const double per_insert =
      static_cast<double>(g_allocated_bytes.load() - start) / kInserts;
  ASSERT_EQ(cache.size(), static_cast<std::size_t>(kInserts));
  const double estimate = static_cast<double>(ResultCache::entry_bytes());
  EXPECT_NEAR(per_insert, estimate, 0.1 * estimate);
}

}  // namespace
}  // namespace qspr

// Allocation regression test for the simulator's reusable workspace: once an
// EventSimulator::Workspace is warm, a placement run allocates only the
// buffers of the ExecutionResult it returns (trace, timings and the two
// placements, plus Placement::validate's count table). The suite replaces
// the global operator new with a counting version, so it lives in its own
// binary and affects no other suite. It asserts a count, never a time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "circuit/dependency_graph.hpp"
#include "core/placer.hpp"
#include "core/scheduler.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/codes.hpp"
#include "route/routing_graph.hpp"
#include "sim/event_sim.hpp"

namespace {

std::atomic<long long> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

}  // namespace
}  // namespace qspr

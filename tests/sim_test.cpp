// Unit tests for the event-driven simulator: issue policy, trap selection,
// routing integration, the Eq. 1 delay decomposition, the QUALE return-home
// discipline, and stall detection. Hand-computed delays use the 5x5 tile
// fabric of route_test (trap-to-adjacent-trap round trip = 24 us).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "circuit/dependency_graph.hpp"
#include "common/error.hpp"
#include "core/mapper.hpp"
#include "core/placer.hpp"
#include "core/scheduler.hpp"
#include "fabric/quale_fabric.hpp"
#include "fabric/text_io.hpp"
#include "qecc/codes.hpp"
#include "qecc/random_circuit.hpp"
#include "route/routing_graph.hpp"
#include "sim/event_sim.hpp"
#include "sim/trace_validator.hpp"

namespace qspr {
namespace {

class SimTest : public ::testing::Test {
 protected:
  SimTest() : fabric_(make_quale_fabric({2, 2, 4})), routing_(fabric_) {}

  TrapId trap_at(int row, int col) const {
    const TrapId id = fabric_.trap_at({row, col});
    EXPECT_TRUE(id.is_valid());
    return id;
  }

  static std::vector<int> trivial_rank(const DependencyGraph& graph) {
    std::vector<int> rank(graph.node_count());
    for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = static_cast<int>(i);
    return rank;
  }

  ExecutionResult run(const Program& program, const Placement& placement,
                      ExecutionOptions options = {}) {
    const DependencyGraph graph = DependencyGraph::build(program);
    ExecutionResult result = execute_circuit(
        graph, fabric_, routing_, trivial_rank(graph), placement, options);
    const auto violations = validate_trace(result.trace, graph, fabric_,
                                           placement, options.tech);
    EXPECT_TRUE(violations.empty())
        << "trace violations:\n"
        << [&violations] {
             std::string all;
             for (const auto& v : violations) all += v + "\n";
             return all;
           }();
    return result;
  }

  Fabric fabric_;
  RoutingGraph routing_;
};

TEST_F(SimTest, EmptyCircuitHasZeroLatency) {
  Program program;
  program.add_qubit("a");
  Placement placement(1);
  placement.set(QubitId(0), trap_at(1, 1));
  const ExecutionResult result = run(program, placement);
  EXPECT_EQ(result.latency, 0);
  EXPECT_EQ(result.trace.size(), 0u);
}

TEST_F(SimTest, OneQubitGateInPlace) {
  Program program;
  const QubitId a = program.add_qubit("a");
  program.add_gate(GateKind::H, a);
  Placement placement(1);
  placement.set(a, trap_at(1, 1));
  const ExecutionResult result = run(program, placement);
  EXPECT_EQ(result.latency, 10);
  EXPECT_EQ(result.stats.moves, 0);
  EXPECT_EQ(result.timings[0].t_routing(), 0);
  EXPECT_EQ(result.timings[0].t_congestion(), 0);
  EXPECT_EQ(result.timings[0].t_gate(), 10);
}

TEST_F(SimTest, TwoQubitGateMovesOneOperand) {
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  program.add_gate(GateKind::CX, a, b);
  Placement placement(2);
  placement.set(a, trap_at(1, 1));
  placement.set(b, trap_at(1, 3));
  const ExecutionResult result = run(program, placement);
  // The median trap search selects one operand's trap; the other qubit makes
  // the 24 us trip; then the 100 us gate.
  EXPECT_EQ(result.latency, 124);
  EXPECT_EQ(result.stats.moves, 4);
  EXPECT_EQ(result.stats.turns, 2);
  EXPECT_EQ(result.timings[0].t_routing(), 24);
  EXPECT_EQ(result.timings[0].t_gate(), 100);
  // Both qubits end in the same trap.
  EXPECT_EQ(result.final_placement.trap_of(a),
            result.final_placement.trap_of(b));
}

TEST_F(SimTest, DestinationFixedRoutingMovesTheSource) {
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  program.add_gate(GateKind::CX, a, b);
  Placement placement(2);
  placement.set(a, trap_at(1, 1));
  placement.set(b, trap_at(3, 3));
  ExecutionOptions options;
  options.dual_move = false;
  const ExecutionResult result = run(program, placement, options);
  // b never moves: the gate executes in b's trap.
  EXPECT_EQ(result.final_placement.trap_of(b), trap_at(3, 3));
  EXPECT_EQ(result.final_placement.trap_of(a), trap_at(3, 3));
  EXPECT_GT(result.latency, 100);
}

TEST_F(SimTest, DestinationFixedFallsBackToTheNearestAvailableTrap) {
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  const QubitId d = program.add_qubit("d");
  program.add_gate(GateKind::CX, a, b);
  Placement placement(3);
  placement.set(a, trap_at(1, 1));
  placement.set(b, trap_at(3, 3));
  placement.set(d, trap_at(3, 3));
  ExecutionOptions options;
  options.dual_move = false;
  const ExecutionResult result = run(program, placement, options);
  // d holds b's trap, so the gate runs in the nearest available trap to b,
  // ties broken by position: (1,3) before (3,1).
  EXPECT_EQ(result.timings[0].trap, trap_at(1, 3));
  EXPECT_EQ(result.final_placement.trap_of(a), trap_at(1, 3));
  EXPECT_EQ(result.final_placement.trap_of(b), trap_at(1, 3));
  EXPECT_EQ(result.final_placement.trap_of(d), trap_at(3, 3));
}

TEST_F(SimTest, CoLocatedOperandsNeedNoRouting) {
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  program.add_gate(GateKind::CZ, a, b);
  Placement placement(2);
  placement.set(a, trap_at(1, 1));
  placement.set(b, trap_at(1, 1));
  const ExecutionResult result = run(program, placement);
  EXPECT_EQ(result.latency, 100);
  EXPECT_EQ(result.stats.moves, 0);
}

TEST_F(SimTest, OneQubitGateRelocatesWhenSharingATrap) {
  // After CX(a,b) both operands share a trap; a following H(a) must move a
  // to an empty trap first (§II.B).
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  program.add_gate(GateKind::CX, a, b);
  program.add_gate(GateKind::H, a);
  Placement placement(2);
  placement.set(a, trap_at(1, 1));
  placement.set(b, trap_at(1, 1));
  const ExecutionResult result = run(program, placement);
  // CX in place (100), then a relocates (24) and H runs (10).
  EXPECT_EQ(result.latency, 134);
  EXPECT_NE(result.final_placement.trap_of(a),
            result.final_placement.trap_of(b));
}

TEST_F(SimTest, IndependentGatesRunConcurrently) {
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  const QubitId c = program.add_qubit("c");
  const QubitId d = program.add_qubit("d");
  program.add_gate(GateKind::CX, a, b);
  program.add_gate(GateKind::CX, c, d);
  Placement placement(4);
  placement.set(a, trap_at(1, 1));
  placement.set(b, trap_at(3, 3));
  placement.set(c, trap_at(3, 1));
  placement.set(d, trap_at(1, 3));
  const ExecutionResult result = run(program, placement);
  // Concurrent execution: far less than the serial sum.
  const Duration serial = result.timings[0].gate_end - result.timings[0].issue +
                          result.timings[1].gate_end - result.timings[1].issue;
  EXPECT_LT(result.latency, serial);
}

TEST_F(SimTest, CapacityOneSerialisesSharedChannels) {
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  const QubitId c = program.add_qubit("c");
  const QubitId d = program.add_qubit("d");
  program.add_gate(GateKind::CX, a, b);
  program.add_gate(GateKind::CX, c, d);
  Placement placement(4);
  placement.set(a, trap_at(1, 1));
  placement.set(b, trap_at(3, 3));
  placement.set(c, trap_at(3, 1));
  placement.set(d, trap_at(1, 3));

  ExecutionOptions multiplexed;
  const ExecutionResult loose = run(program, placement, multiplexed);

  ExecutionOptions strict;
  strict.tech.channel_capacity = 1;
  const ExecutionResult tight = run(program, placement, strict);
  EXPECT_GE(tight.latency, loose.latency);
}

TEST_F(SimTest, DependentGateWaitsForPredecessor) {
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  const QubitId c = program.add_qubit("c");
  program.add_gate(GateKind::CX, a, b);
  program.add_gate(GateKind::CX, b, c);
  Placement placement(3);
  placement.set(a, trap_at(1, 1));
  placement.set(b, trap_at(1, 1));  // co-located: first gate runs at t=0
  placement.set(c, trap_at(1, 3));
  const ExecutionResult result = run(program, placement);
  EXPECT_EQ(result.timings[1].ready, 100);
  EXPECT_GE(result.timings[1].gate_start, 100);
  EXPECT_EQ(result.latency, result.timings[1].gate_end);
}

TEST_F(SimTest, ReturnHomeRestoresPlacementAndDelaysDependents) {
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  program.add_gate(GateKind::CX, a, b);
  Placement placement(2);
  placement.set(a, trap_at(1, 1));
  placement.set(b, trap_at(1, 3));

  ExecutionOptions options;
  options.dual_move = false;
  options.return_home_after_gate = true;
  const ExecutionResult result = run(program, placement, options);
  // Trip out (24) + gate (100) + trip home (24).
  EXPECT_EQ(result.latency, 148);
  EXPECT_EQ(result.final_placement.trap_of(a), trap_at(1, 1));
  EXPECT_EQ(result.final_placement.trap_of(b), trap_at(1, 3));

  // A dependent instruction waits for the round trip.
  program.add_gate(GateKind::H, a);
  const ExecutionResult chained = run(program, placement, options);
  EXPECT_EQ(chained.timings[1].ready, 148);
  EXPECT_EQ(chained.latency, 158);
}

TEST_F(SimTest, ScheduleRankBreaksTies) {
  // Two ready instructions compete for the same target trap area; the rank
  // decides which issues first.
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  const QubitId c = program.add_qubit("c");
  const QubitId d = program.add_qubit("d");
  program.add_gate(GateKind::CX, a, b);
  program.add_gate(GateKind::CX, c, d);
  Placement placement(4);
  placement.set(a, trap_at(1, 1));
  placement.set(b, trap_at(3, 3));
  placement.set(c, trap_at(3, 1));
  placement.set(d, trap_at(1, 3));

  const DependencyGraph graph = DependencyGraph::build(program);
  const ExecutionResult forward = execute_circuit(
      graph, fabric_, routing_, {0, 1}, placement, ExecutionOptions{});
  const ExecutionResult reversed = execute_circuit(
      graph, fabric_, routing_, {1, 0}, placement, ExecutionOptions{});
  EXPECT_LE(forward.timings[0].issue, forward.timings[1].issue);
  EXPECT_LE(reversed.timings[1].issue, reversed.timings[0].issue);
}

TEST_F(SimTest, DeterministicAcrossRuns) {
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  const QubitId c = program.add_qubit("c");
  program.add_gate(GateKind::CX, a, b);
  program.add_gate(GateKind::CZ, b, c);
  program.add_gate(GateKind::CY, a, c);
  Placement placement(3);
  placement.set(a, trap_at(1, 1));
  placement.set(b, trap_at(1, 3));
  placement.set(c, trap_at(3, 1));
  const ExecutionResult first = run(program, placement);
  const ExecutionResult second = run(program, placement);
  EXPECT_EQ(first.latency, second.latency);
  EXPECT_EQ(first.trace.size(), second.trace.size());
  EXPECT_EQ(first.final_placement, second.final_placement);
}

TEST_F(SimTest, RejectsMismatchedInputs) {
  Program program;
  program.add_qubit("a");
  program.add_qubit("b");
  program.add_gate(GateKind::CX, QubitId(0), QubitId(1));
  const DependencyGraph graph = DependencyGraph::build(program);

  Placement too_small(1);
  too_small.set(QubitId(0), trap_at(1, 1));
  EXPECT_THROW(execute_circuit(graph, fabric_, routing_, {0}, too_small,
                               ExecutionOptions{}),
               ValidationError);

  Placement placement(2);
  placement.set(QubitId(0), trap_at(1, 1));
  placement.set(QubitId(1), trap_at(1, 3));
  EXPECT_THROW(execute_circuit(graph, fabric_, routing_, {0, 1, 2}, placement,
                               ExecutionOptions{}),
               Error);
}

TEST_F(SimTest, OverfullInitialPlacementRejected) {
  Program program;
  program.add_qubit("a");
  program.add_qubit("b");
  program.add_qubit("c");
  program.add_gate(GateKind::CX, QubitId(0), QubitId(1));
  const DependencyGraph graph = DependencyGraph::build(program);
  Placement placement(3);
  placement.set(QubitId(0), trap_at(1, 1));
  placement.set(QubitId(1), trap_at(1, 1));
  placement.set(QubitId(2), trap_at(1, 1));  // three in one trap
  EXPECT_THROW(execute_circuit(graph, fabric_, routing_, {0}, placement,
                               ExecutionOptions{}),
               ValidationError);
}

TEST(SimRegression, PartialDispatchAvoidsSelfDeadlock) {
  // Regression: with capacity-1 channels, the first routed operand of a
  // 2-qubit gate can reserve a path that seals off the second operand's only
  // trap exits. All-or-nothing issue would stall forever (nothing else in
  // flight); partial dispatch lets the first qubit travel and the second
  // depart once the channels free up. This random circuit (seed 5) is the
  // original reproducer.
  Rng rng(5);
  RandomCircuitOptions circuit_options;
  circuit_options.qubits = 4;
  circuit_options.gates = 25;
  const Program program = make_random_circuit(circuit_options, rng);
  const DependencyGraph graph = DependencyGraph::build(program);

  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const RoutingGraph routing(fabric);
  ExecutionOptions exec;
  exec.dual_move = false;
  exec.router.turn_aware = false;
  exec.tech.channel_capacity = 1;

  Rng placement_rng(5 * 31 + 7);
  const Placement placement =
      random_center_placement(fabric, program.qubit_count(), placement_rng);
  const auto rank = make_schedule_rank(graph, exec.tech);
  const ExecutionResult result =
      execute_circuit(graph, fabric, routing, rank, placement, exec);
  EXPECT_GE(result.latency, graph.critical_path_latency(exec.tech));
  EXPECT_TRUE(
      validate_trace(result.trace, graph, fabric, placement, exec.tech)
          .empty());
}

TEST(SimRegression, PairedFinalPlacementSeedsNextRun) {
  // MVFB chains runs: a final placement with two qubits sharing a trap must
  // be a legal initial placement for the next run.
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph routing(fabric);
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  program.add_gate(GateKind::CX, a, b);
  const DependencyGraph graph = DependencyGraph::build(program);
  Placement placement(2);
  placement.set(a, fabric.trap_at({1, 1}));
  placement.set(b, fabric.trap_at({1, 3}));

  const ExecutionResult first = execute_circuit(
      graph, fabric, routing, {0}, placement, ExecutionOptions{});
  // Operands ended co-located; rerun from there.
  EXPECT_EQ(first.final_placement.trap_of(a),
            first.final_placement.trap_of(b));
  const ExecutionResult second = execute_circuit(
      graph, fabric, routing, {0}, first.final_placement, ExecutionOptions{});
  EXPECT_EQ(second.latency, 100);  // co-located: gate only
}

TEST(SimRegression, MeasureAndSwapExecuteLikeGates) {
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph routing(fabric);
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  program.add_gate(GateKind::Swap, a, b);
  program.add_gate(GateKind::Measure, a);
  const DependencyGraph graph = DependencyGraph::build(program);
  Placement placement(2);
  placement.set(a, fabric.trap_at({1, 1}));
  placement.set(b, fabric.trap_at({1, 1}));
  const ExecutionResult result = execute_circuit(
      graph, fabric, routing, {0, 1}, placement, ExecutionOptions{});
  // Swap in place (100), then a relocates for the measurement (24 + 10).
  EXPECT_EQ(result.latency, 134);
  EXPECT_TRUE(
      validate_trace(result.trace, graph, fabric, placement,
                     TechnologyParams{})
          .empty());
}

TEST(SimStall, DisconnectedFabricStalls) {
  const Fabric fabric = parse_fabric(
      "J---J.J---J\n"
      "|T..|.|..T|\n"
      "J---J.J---J\n");
  ASSERT_EQ(fabric.trap_count(), 2u);
  const RoutingGraph routing(fabric);

  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  program.add_gate(GateKind::CX, a, b);
  const DependencyGraph graph = DependencyGraph::build(program);

  Placement placement(2);
  placement.set(a, fabric.traps()[0].id);
  placement.set(b, fabric.traps()[1].id);
  EXPECT_THROW(execute_circuit(graph, fabric, routing, {0}, placement,
                               ExecutionOptions{}),
               SimulationError);
}

// A three-segment bus with one stub at each end. a (bottom left) travels to
// b (bottom right) along the whole bus: left segment [0, 12], J1 [0, 13],
// middle segment [0, 14], J2 [0, 15], right segment [0, 26]; reservations
// are taken at issue and each one is released as a leaves it. c (top left)
// must reach d (top right) through the stubs, J1, the middle segment and J2,
// so its only route is blocked until the right one of those releases fires.
constexpr const char* kBusFabric =
    "T|.|T\n"
    ".|.|.\n"
    "-J-J-\n"
    "T...T\n";

ExecutionResult run_crossing_bus(const ExecutionOptions& options) {
  const Fabric fabric = parse_fabric(kBusFabric);
  const RoutingGraph routing(fabric);
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  const QubitId c = program.add_qubit("c");
  const QubitId d = program.add_qubit("d");
  program.add_gate(GateKind::CX, a, b);
  program.add_gate(GateKind::CX, c, d);
  const DependencyGraph graph = DependencyGraph::build(program);
  Placement placement(4);
  placement.set(a, fabric.trap_at({3, 0}));
  placement.set(b, fabric.trap_at({3, 4}));
  placement.set(c, fabric.trap_at({0, 0}));
  placement.set(d, fabric.trap_at({0, 4}));
  ExecutionResult result =
      execute_circuit(graph, fabric, routing, {0, 1}, placement, options);
  EXPECT_TRUE(
      validate_trace(result.trace, graph, fabric, placement, options.tech)
          .empty());
  return result;
}

/// Start of the first transport op of `id` (its operand's departure).
TimePoint departure_of(const ExecutionResult& result, InstructionId id) {
  TimePoint first = kInfiniteDuration;
  for (const MicroOp& op : result.trace.ops()) {
    if (op.instruction == id && op.kind != MicroOpKind::Gate) {
      first = std::min(first, op.start);
    }
  }
  return first;
}

TEST(SimBlockedRoute, OperandDepartsAtTheSegmentReleaseThatFreesItsPath) {
  ExecutionOptions options;
  options.dual_move = false;
  options.tech.channel_capacity = 1;
  const ExecutionResult result = run_crossing_bus(options);
  // a: 6 moves + 2 turns = 26, then the gate.
  EXPECT_EQ(result.timings[0].gate_start, 26);
  // c's gate issues at 0, reserving d's trap, but the middle segment is
  // full until a leaves it at 14. The left segment leaving capacity at 12
  // does not open c's route; the middle one at 14 does.
  EXPECT_EQ(result.timings[1].issue, 0);
  EXPECT_EQ(departure_of(result, InstructionId(1)), 14);
  // c: 8 moves + 4 turns = 48.
  EXPECT_EQ(result.timings[1].gate_start, 62);
  EXPECT_EQ(result.latency, 162);
}

TEST(SimBlockedRoute, OperandDepartsAtTheJunctionReleaseThatFreesItsPath) {
  ExecutionOptions options;
  options.dual_move = false;
  options.tech.junction_capacity = 1;
  const ExecutionResult result = run_crossing_bus(options);
  EXPECT_EQ(result.timings[0].gate_start, 26);
  // J1 frees at 13 but J2 stays full until 15: c departs at 15, not 13.
  EXPECT_EQ(result.timings[1].issue, 0);
  EXPECT_EQ(departure_of(result, InstructionId(1)), 15);
  EXPECT_EQ(result.timings[1].gate_start, 63);
  EXPECT_EQ(result.latency, 163);
}

TEST(SimTrace, TimeReversalPreservesStructure) {
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph routing(fabric);
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  program.add_gate(GateKind::CX, a, b);
  const DependencyGraph graph = DependencyGraph::build(program);
  Placement placement(2);
  placement.set(a, fabric.trap_at({1, 1}));
  placement.set(b, fabric.trap_at({1, 3}));
  const ExecutionResult result = execute_circuit(
      graph, fabric, routing, {0}, placement, ExecutionOptions{});

  const Trace reversed = result.trace.time_reversed();
  EXPECT_EQ(reversed.size(), result.trace.size());
  EXPECT_EQ(reversed.makespan(), result.trace.makespan());
  EXPECT_EQ(reversed.move_count(), result.trace.move_count());
  EXPECT_EQ(reversed.turn_count(), result.trace.turn_count());
  EXPECT_EQ(reversed.gate_count(), result.trace.gate_count());
  // Double reversal restores the original op set.
  const Trace twice = reversed.time_reversed();
  for (std::size_t i = 0; i < twice.size(); ++i) {
    EXPECT_EQ(twice.ops()[i].start, result.trace.ops()[i].start);
    EXPECT_EQ(twice.ops()[i].from, result.trace.ops()[i].from);
  }
}

TEST(SimTraceValidator, DetectsCorruptedTraces) {
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph routing(fabric);
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  program.add_gate(GateKind::CX, a, b);
  const DependencyGraph graph = DependencyGraph::build(program);
  Placement placement(2);
  placement.set(a, fabric.trap_at({1, 1}));
  placement.set(b, fabric.trap_at({1, 3}));
  const ExecutionResult result = execute_circuit(
      graph, fabric, routing, {0}, placement, ExecutionOptions{});
  const TechnologyParams params;

  // The genuine trace is clean.
  EXPECT_TRUE(
      validate_trace(result.trace, graph, fabric, placement, params).empty());

  // Dropping the gate op is detected.
  Trace missing_gate;
  for (const MicroOp& op : result.trace.ops()) {
    if (op.kind != MicroOpKind::Gate) missing_gate.add(op);
  }
  EXPECT_FALSE(
      validate_trace(missing_gate, graph, fabric, placement, params).empty());

  // Teleporting a move is detected.
  Trace teleported = result.trace;
  {
    Trace broken;
    bool corrupted = false;
    for (MicroOp op : result.trace.ops()) {
      if (!corrupted && op.kind == MicroOpKind::Move) {
        op.to = {0, 0};
        corrupted = true;
      }
      broken.add(op);
    }
    EXPECT_FALSE(
        validate_trace(broken, graph, fabric, placement, params).empty());
  }

  // Wrong start placement is detected.
  Placement wrong(2);
  wrong.set(a, fabric.trap_at({3, 3}));
  wrong.set(b, fabric.trap_at({1, 3}));
  EXPECT_FALSE(
      validate_trace(result.trace, graph, fabric, wrong, params).empty());
}

TEST(SimTraceValidator, UnplacedQubitIsIdleAndMayNotAppearInTheTrace) {
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph routing(fabric);
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  const QubitId idle = program.add_qubit("idle");
  program.add_gate(GateKind::CX, a, b);
  const DependencyGraph graph = DependencyGraph::build(program);
  Placement placement(3);
  placement.set(a, fabric.trap_at({1, 1}));
  placement.set(b, fabric.trap_at({1, 3}));
  placement.set(idle, fabric.trap_at({3, 3}));
  const ExecutionResult result = execute_circuit(
      graph, fabric, routing, {0}, placement, ExecutionOptions{});
  const TechnologyParams params;

  // No op touches the idle qubit, so leaving it unplaced costs nothing.
  Placement unplaced = placement;
  unplaced.set(idle, TrapId::invalid());
  EXPECT_TRUE(
      validate_trace(result.trace, graph, fabric, unplaced, params).empty());

  // A qubit the trace moves cannot be unplaced: the violation names it.
  QubitId moved = QubitId::invalid();
  for (const MicroOp& op : result.trace.ops()) {
    if (op.kind == MicroOpKind::Move) {
      moved = op.qubit;
      break;
    }
  }
  ASSERT_TRUE(moved.is_valid());
  Placement lost = placement;
  lost.set(moved, TrapId::invalid());
  const std::vector<std::string> violations =
      validate_trace(result.trace, graph, fabric, lost, params);
  const std::string name = "q" + std::to_string(moved.value());
  EXPECT_NE(std::find(violations.begin(), violations.end(),
                      name + " has no initial trap but the trace relocates it"),
            violations.end());
  EXPECT_NE(std::find(violations.begin(), violations.end(),
                      name + " has no initial trap but gate #0 uses it"),
            violations.end());
}

/// Every field of a run reused through a workspace equals the fresh run's.
/// The workspace run returns its trace in issue order; sorting it gives the
/// one-shot run's trace.
void expect_same_run(ExecutionResult reused, const ExecutionResult& fresh,
                     const std::string& label) {
  reused.trace.sort_by_time();
  EXPECT_EQ(reused.latency, fresh.latency) << label;
  EXPECT_EQ(reused.trace.to_string(), fresh.trace.to_string()) << label;
  ASSERT_EQ(reused.timings.size(), fresh.timings.size()) << label;
  for (std::size_t i = 0; i < fresh.timings.size(); ++i) {
    const InstructionTiming& a = reused.timings[i];
    const InstructionTiming& b = fresh.timings[i];
    EXPECT_EQ(a.ready, b.ready) << label << " instruction " << i;
    EXPECT_EQ(a.issue, b.issue) << label << " instruction " << i;
    EXPECT_EQ(a.gate_start, b.gate_start) << label << " instruction " << i;
    EXPECT_EQ(a.gate_end, b.gate_end) << label << " instruction " << i;
    EXPECT_EQ(a.trap, b.trap) << label << " instruction " << i;
  }
  EXPECT_EQ(reused.stats.moves, fresh.stats.moves) << label;
  EXPECT_EQ(reused.stats.turns, fresh.stats.turns) << label;
  EXPECT_EQ(reused.stats.total_routing, fresh.stats.total_routing) << label;
  EXPECT_EQ(reused.stats.total_congestion, fresh.stats.total_congestion)
      << label;
  EXPECT_EQ(reused.stats.busy_enqueues, fresh.stats.busy_enqueues) << label;
  EXPECT_EQ(reused.stats.nodes_settled, fresh.stats.nodes_settled) << label;
  EXPECT_EQ(reused.initial_placement, fresh.initial_placement) << label;
  EXPECT_EQ(reused.final_placement, fresh.final_placement) << label;
}

TEST(SimWorkspace, ReuseCarriesNoStateBetweenRuns) {
  // One workspace through different circuits, fabrics and options, two runs
  // that throw part-way, and the first run again: every run must match a
  // fresh execute_circuit, so no state leaks from one run into the next.
  EventSimulator::Workspace workspace;
  const Fabric paper = make_paper_fabric();
  const RoutingGraph paper_routing(paper);
  const DependencyGraph encoder =
      DependencyGraph::build(make_encoder(QeccCode::Q19_1_7));
  const Placement centre = center_placement(paper, encoder.qubit_count());

  // A paper encoder under QSPR.
  const ExecutionOptions qspr;
  const std::vector<int> qspr_rank = make_schedule_rank(encoder, qspr.tech);
  const EventSimulator qspr_sim(encoder, paper, paper_routing, qspr_rank,
                                qspr);
  const ExecutionResult qspr_fresh = execute_circuit(
      encoder, paper, paper_routing, qspr_rank, centre, qspr);
  expect_same_run(qspr_sim.run(centre, workspace), qspr_fresh, "QSPR");

  // The same program under QUALE's capacity-1 return-home flow.
  MapperOptions quale_mapper;
  quale_mapper.kind = MapperKind::Quale;
  const ExecutionOptions quale = execution_options_for(quale_mapper);
  ASSERT_TRUE(quale.return_home_after_gate);
  ASSERT_EQ(quale.tech.channel_capacity, 1);
  const std::vector<int> quale_rank = make_schedule_rank(
      encoder, quale.tech, schedule_options_for(quale_mapper));
  const EventSimulator quale_sim(encoder, paper, paper_routing, quale_rank,
                                 quale);
  expect_same_run(quale_sim.run(centre, workspace),
                  execute_circuit(encoder, paper, paper_routing, quale_rank,
                                  centre, quale),
                  "QUALE");

  // Another program on a smaller fabric.
  const Fabric small = make_quale_fabric({7, 12, 4});
  const RoutingGraph small_routing(small);
  const DependencyGraph wide =
      DependencyGraph::build(make_encoder(QeccCode::Q23_1_7));
  const std::vector<int> small_rank = make_schedule_rank(wide, qspr.tech);
  Rng placement_rng(3);
  const Placement scattered =
      random_center_placement(small, wide.qubit_count(), placement_rng);
  const EventSimulator small_sim(wide, small, small_routing, small_rank,
                                 qspr);
  const ExecutionResult small_fresh = execute_circuit(
      wide, small, small_routing, small_rank, scattered, qspr);
  EXPECT_GT(small_fresh.stats.moves, 0);
  expect_same_run(small_sim.run(scattered, workspace), small_fresh,
                  "small fabric");

  // A run that stalls part-way on a fabric split in two. a cannot leave
  // b's trap for its 1-qubit gate (no empty trap), so that gate parks in
  // the busy queue; b's route to c's trap fails, so b waits on the pending
  // list and the pair (trap 0, trap 1) joins the blocked-route list.
  const Fabric split = parse_fabric(
      "J---J.J---J\n"
      "|T..|.|..T|\n"
      "J---J.J---J\n");
  const RoutingGraph split_routing(split);
  Program trio;
  const QubitId a = trio.add_qubit("a");
  const QubitId b = trio.add_qubit("b");
  const QubitId c = trio.add_qubit("c");
  trio.add_gate(GateKind::H, a);
  trio.add_gate(GateKind::CX, b, c);
  const DependencyGraph trio_graph = DependencyGraph::build(trio);
  Placement apart(3);
  apart.set(a, split.traps()[0].id);
  apart.set(b, split.traps()[0].id);
  apart.set(c, split.traps()[1].id);
  const EventSimulator stalling(trio_graph, split, split_routing, {0, 1},
                                ExecutionOptions{});
  EXPECT_THROW(stalling.run(apart, workspace), SimulationError);

  // A destination-fixed gate on the tile fabric whose first route query is
  // the same trap pair, which is routable here.
  const Fabric tile = make_quale_fabric({2, 2, 4});
  const RoutingGraph tile_routing(tile);
  Program duo;
  duo.add_qubit("a");
  duo.add_qubit("b");
  duo.add_gate(GateKind::CX, QubitId(0), QubitId(1));
  const DependencyGraph duo_graph = DependencyGraph::build(duo);
  Placement neighbours(2);
  neighbours.set(QubitId(0), tile.traps()[0].id);
  neighbours.set(QubitId(1), tile.traps()[1].id);
  ExecutionOptions fixed;
  fixed.dual_move = false;
  const EventSimulator fixed_sim(duo_graph, tile, tile_routing, {0}, fixed);
  expect_same_run(fixed_sim.run(neighbours, workspace),
                  execute_circuit(duo_graph, tile, tile_routing, {0},
                                  neighbours, fixed),
                  "destination-fixed");

  // A run whose initial placement over-fills a trap.
  Placement crowded(3);
  for (const QubitId q : {a, b, c}) crowded.set(q, paper.traps()[0].id);
  const EventSimulator crowding(trio_graph, paper, paper_routing, {0, 1},
                                ExecutionOptions{});
  EXPECT_THROW(crowding.run(crowded, workspace), ValidationError);

  // The first run again.
  expect_same_run(qspr_sim.run(centre, workspace), qspr_fresh, "QSPR again");
}

}  // namespace
}  // namespace qspr

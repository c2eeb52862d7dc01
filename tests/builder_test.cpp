// Tests for the calibrated cyclic-encoder builder and the trajectory
// renderer.
#include <gtest/gtest.h>

#include "circuit/dependency_graph.hpp"
#include "common/error.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/cyclic_builder.hpp"
#include "route/routing_graph.hpp"
#include "sim/event_sim.hpp"
#include "sim/trajectory.hpp"

namespace qspr {
namespace {

// ---------------------------------------------------------------------------
// Cyclic encoder builder: the calibration contract, swept over specs.
// ---------------------------------------------------------------------------

class CyclicBuilderCalibration
    : public ::testing::TestWithParam<CyclicEncoderSpec> {};

TEST_P(CyclicBuilderCalibration, CriticalPathMatchesPrediction) {
  const CyclicEncoderSpec& spec = GetParam();
  const Program program = make_cyclic_encoder(spec);
  const DependencyGraph graph = DependencyGraph::build(program);
  const TechnologyParams params;
  EXPECT_EQ(graph.critical_path_latency(params),
            predicted_baseline(spec, params))
      << spec.name;
  EXPECT_EQ(program.qubit_count(), static_cast<std::size_t>(spec.qubits));
}

std::vector<CyclicEncoderSpec> calibration_specs() {
  std::vector<CyclicEncoderSpec> specs;
  int counter = 0;
  for (const int qubits : {8, 11, 14, 19, 23}) {
    for (const int chain : {5, 9, 14, 25, 40}) {
      for (const bool seeded : {false, true}) {
        for (const int lanes : {0, 1, 2}) {
          CyclicEncoderSpec spec;
          spec.name = "sweep_" + std::to_string(counter++);
          spec.qubits = qubits;
          spec.data_qubits = 1 + (counter % 3);
          spec.chain_gates = chain;
          spec.seed_hadamard = seeded;
          spec.chord_lanes = lanes;
          if (chain >= 10) spec.slack_hadamards = {1, 4};
          specs.push_back(spec);
        }
      }
    }
  }
  return specs;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CyclicBuilderCalibration,
                         ::testing::ValuesIn(calibration_specs()),
                         [](const auto& info) { return info.param.name; });

TEST(CyclicBuilder, RejectsInvalidSpecs) {
  CyclicEncoderSpec spec;
  spec.qubits = 3;
  EXPECT_THROW(make_cyclic_encoder(spec), ValidationError);
  spec = {};
  spec.data_qubits = 99;
  EXPECT_THROW(make_cyclic_encoder(spec), ValidationError);
  spec = {};
  spec.chain_gates = 0;
  EXPECT_THROW(make_cyclic_encoder(spec), ValidationError);
  spec = {};
  spec.chord_lanes = 3;
  EXPECT_THROW(make_cyclic_encoder(spec), ValidationError);
  spec = {};
  spec.qubits = 6;
  spec.chain_gates = 12;  // wraps on a small block with chords
  EXPECT_THROW(make_cyclic_encoder(spec), ValidationError);
  spec = {};
  spec.slack_hadamards = {1, 2, 3, 4, 5, 6};
  EXPECT_THROW(make_cyclic_encoder(spec), ValidationError);
  spec = {};
  spec.slack_hadamards = {0};  // before the chain head
  EXPECT_THROW(make_cyclic_encoder(spec), ValidationError);
}

TEST(CyclicBuilder, ChordLanesAddWidthNotDepth) {
  CyclicEncoderSpec narrow;
  narrow.qubits = 14;
  narrow.chain_gates = 20;
  narrow.chord_lanes = 0;
  CyclicEncoderSpec wide = narrow;
  wide.chord_lanes = 2;
  const Program narrow_program = make_cyclic_encoder(narrow);
  const Program wide_program = make_cyclic_encoder(wide);
  EXPECT_GT(wide_program.instruction_count(),
            narrow_program.instruction_count() + 20);
  const TechnologyParams params;
  EXPECT_EQ(
      DependencyGraph::build(wide_program).critical_path_latency(params),
      DependencyGraph::build(narrow_program).critical_path_latency(params));
}

TEST(CyclicBuilder, DataQubitsAreTrailingAndUninitialised) {
  CyclicEncoderSpec spec;
  spec.qubits = 10;
  spec.data_qubits = 3;
  const Program program = make_cyclic_encoder(spec);
  for (std::size_t q = 0; q < 7; ++q) {
    EXPECT_TRUE(program.qubits()[q].init_value.has_value());
  }
  for (std::size_t q = 7; q < 10; ++q) {
    EXPECT_FALSE(program.qubits()[q].init_value.has_value());
  }
}

// ---------------------------------------------------------------------------
// Trajectory rendering.
// ---------------------------------------------------------------------------

TEST(Trajectory, MarksVisitedCellsAndGates) {
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

  // One of the qubits moved; find it and check its drawing.
  for (const QubitId q : {a, b}) {
    const TravelSummary travel = summarize_travel(result.trace, q);
    const std::string drawing =
        render_trajectory(result.trace, fabric, q, &graph);
    EXPECT_NE(drawing.find('@'), std::string::npos);  // gate site marked
    if (travel.moves > 0) {
      EXPECT_EQ(travel.moves, 4);
      EXPECT_EQ(travel.turns, 2);
      EXPECT_EQ(travel.travel_time, 24);
      EXPECT_NE(drawing.find('*'), std::string::npos);
      EXPECT_NE(drawing.find('o'), std::string::npos);
    } else {
      EXPECT_EQ(drawing.find('*'), std::string::npos);
    }
  }
}

TEST(Trajectory, StationaryQubitDrawsOnlyItsGateSites) {
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const std::string drawing =
      render_trajectory(Trace{}, fabric, QubitId(0));
  // No ops at all: the plain fabric rendering.
  EXPECT_EQ(drawing.find('*'), std::string::npos);
  EXPECT_EQ(drawing.find('@'), std::string::npos);
}

}  // namespace
}  // namespace qspr

// Differential fuzz harness over the whole mapping stack: seeded random
// programs driven through map_program serially, trial-parallel (jobs), and
// through the batch service — asserting bit-identical MapResults (latency,
// trace, placements) and identical negotiation diagnostics across all of
// them. Parallelism is exactly the kind of change that silently breaks the
// determinism contract; this suite pins it stack-wide.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/mapper.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/random_circuit.hpp"
#include "service/batch_mapper.hpp"

namespace qspr {
namespace {

constexpr int kCases = 50;

struct FuzzCase {
  Program program;
  MapperOptions options;
  int fabric = 0;  // index into the shared fabric set
};

/// Deterministic case generator: program shape, placer flavour and RNG seed
/// all derive from the case index alone.
std::vector<FuzzCase> make_cases() {
  std::vector<FuzzCase> cases;
  for (int c = 0; c < kCases; ++c) {
    RandomCircuitOptions shape;
    shape.qubits = 5 + c % 5;            // 5..9
    shape.gates = 18 + (c * 7) % 23;     // 18..40
    shape.two_qubit_fraction = c % 3 == 0 ? 0.5 : 0.7;
    Rng rng(1000 + static_cast<std::uint64_t>(c));
    FuzzCase fuzz{make_random_circuit(shape, rng), MapperOptions{}, c % 2};
    fuzz.program.set_name("fuzz_" + std::to_string(c));
    fuzz.options.placer =
        c % 2 == 0 ? PlacerKind::MonteCarlo : PlacerKind::Mvfb;
    fuzz.options.monte_carlo_trials = 4;
    fuzz.options.mvfb_seeds = 3;
    fuzz.options.rng_seed = static_cast<std::uint64_t>(c) + 1;
    fuzz.options.negotiation_report = true;
    cases.push_back(std::move(fuzz));
  }
  return cases;
}

std::vector<Fabric> make_fabrics() {
  std::vector<Fabric> fabrics;
  fabrics.push_back(make_quale_fabric({3, 3, 4}));
  fabrics.push_back(make_quale_fabric({4, 4, 4}));
  return fabrics;
}

std::size_t trace_hash(const MapResult& result) {
  return std::hash<std::string>{}(result.trace.to_string());
}

void expect_identical(const MapResult& reference, const MapResult& other,
                      const std::string& label) {
  EXPECT_EQ(reference.latency, other.latency) << label;
  EXPECT_EQ(reference.ideal_latency, other.ideal_latency) << label;
  EXPECT_EQ(reference.placement_runs, other.placement_runs) << label;
  EXPECT_EQ(reference.initial_placement, other.initial_placement) << label;
  EXPECT_EQ(reference.final_placement, other.final_placement) << label;
  EXPECT_EQ(trace_hash(reference), trace_hash(other)) << label;
  // Negotiation diagnostics: every field must agree.
  ASSERT_EQ(reference.negotiation.has_value(), other.negotiation.has_value())
      << label;
  if (reference.negotiation.has_value()) {
    const NegotiationDiagnostics& a = *reference.negotiation;
    const NegotiationDiagnostics& b = *other.negotiation;
    EXPECT_EQ(a.nets, b.nets) << label;
    EXPECT_EQ(a.iterations_used, b.iterations_used) << label;
    EXPECT_EQ(a.converged, b.converged) << label;
    EXPECT_EQ(a.overused_resources, b.overused_resources) << label;
    EXPECT_EQ(a.max_overuse, b.max_overuse) << label;
    EXPECT_EQ(a.total_excess, b.total_excess) << label;
    EXPECT_EQ(a.min_feasible_excess, b.min_feasible_excess) << label;
    EXPECT_EQ(a.searches_performed, b.searches_performed) << label;
    EXPECT_EQ(a.nodes_settled, b.nodes_settled) << label;
    EXPECT_EQ(a.heuristic_weight, b.heuristic_weight) << label;
    EXPECT_EQ(a.total_delay, b.total_delay) << label;
  }
}

TEST(FuzzDifferential, AllParallelConfigsMatchSerialAcrossSeededPrograms) {
  const std::vector<Fabric> fabrics = make_fabrics();
  const std::vector<FuzzCase> cases = make_cases();

  // The exact negotiated search and the bounded-suboptimal one (w = 1.5):
  // each must stay bit-identical between the serial and trial-parallel runs.
  for (const double weight : {1.0, 1.5}) {
    for (std::size_t c = 0; c < cases.size(); ++c) {
      MapperOptions options = cases[c].options;
      options.route_heuristic_weight = weight;
      options.jobs = 1;
      const MapResult serial =
          map_program(cases[c].program, fabrics[cases[c].fabric], options);
      options.jobs = 4;
      const MapResult parallel =
          map_program(cases[c].program, fabrics[cases[c].fabric], options);
      expect_identical(serial, parallel,
                       std::string(weight == 1.0 ? "exact" : "w1.5") +
                           "/trial_parallel/case" + std::to_string(c));
    }
  }
}

TEST(FuzzDifferential, BatchServiceMatchesSerialAcrossSeededPrograms) {
  const std::vector<Fabric> fabrics = make_fabrics();
  const std::vector<FuzzCase> cases = make_cases();

  std::vector<MapResult> serial;
  serial.reserve(cases.size());
  for (const FuzzCase& fuzz : cases) {
    MapperOptions options = fuzz.options;
    options.jobs = 1;
    serial.push_back(
        map_program(fuzz.program, fabrics[fuzz.fabric], options));
  }

  // The whole case set as one batch on a shared 4-worker engine, with the
  // negotiation diagnostic enabled per job.
  std::vector<BatchJob> manifest;
  for (const FuzzCase& fuzz : cases) {
    BatchJob job;
    job.name = fuzz.program.name();
    job.program = &fuzz.program;
    job.fabric = &fabrics[fuzz.fabric];
    job.options = fuzz.options;
    manifest.push_back(std::move(job));
  }
  MappingEngine engine(4);
  BatchMapper batch(engine);
  const BatchResult result = batch.run(manifest);
  ASSERT_EQ(result.summary.failed, 0);
  ASSERT_EQ(result.records.size(), cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    ASSERT_TRUE(result.records[c].ok) << c;
    EXPECT_EQ(result.records[c].name, cases[c].program.name());
    expect_identical(serial[c], result.records[c].result,
                     "batch/case" + std::to_string(c));
  }
}

}  // namespace
}  // namespace qspr

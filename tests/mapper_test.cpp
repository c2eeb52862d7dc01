// Tests for the end-to-end mapper flows (QSPR, QUALE, QPOS, IdealBaseline)
// and their option plumbing.
#include <gtest/gtest.h>

#include "circuit/dependency_graph.hpp"
#include "common/error.hpp"
#include "core/mapper.hpp"
#include "core/placer.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/codes.hpp"
#include "service/request_codec.hpp"
#include "sim/trace_validator.hpp"

namespace qspr {
namespace {

MapperOptions fast_qspr() {
  MapperOptions options;
  options.kind = MapperKind::Qspr;
  options.mvfb_seeds = 4;
  return options;
}

TEST(Mapper, IdealBaselineIsTheCriticalPath) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MapperOptions options;
  options.kind = MapperKind::IdealBaseline;
  const MapResult result = map_program(program, fabric, options);
  EXPECT_EQ(result.latency, 510);
  EXPECT_EQ(result.ideal_latency, 510);
  EXPECT_EQ(result.trace.size(), 0u);
  EXPECT_EQ(result.placement_runs, 0);
}

TEST(Mapper, ExecutionOptionsPerKind) {
  MapperOptions options;
  options.kind = MapperKind::Qspr;
  ExecutionOptions qspr = execution_options_for(options);
  EXPECT_TRUE(qspr.router.turn_aware);
  EXPECT_TRUE(qspr.dual_move);
  EXPECT_FALSE(qspr.return_home_after_gate);
  EXPECT_EQ(qspr.tech.channel_capacity, 2);

  options.kind = MapperKind::Quale;
  ExecutionOptions quale = execution_options_for(options);
  EXPECT_FALSE(quale.router.turn_aware);
  EXPECT_FALSE(quale.dual_move);
  EXPECT_TRUE(quale.return_home_after_gate);
  EXPECT_EQ(quale.tech.channel_capacity, 1);

  options.kind = MapperKind::Qpos;
  ExecutionOptions qpos = execution_options_for(options);
  EXPECT_FALSE(qpos.router.turn_aware);
  EXPECT_FALSE(qpos.return_home_after_gate);
}

TEST(Mapper, AblationOverridesApply) {
  MapperOptions options;
  options.kind = MapperKind::Qspr;
  options.turn_aware = false;
  options.dual_move = false;
  options.channel_capacity = 4;
  options.return_home = true;
  const ExecutionOptions exec = execution_options_for(options);
  EXPECT_FALSE(exec.router.turn_aware);
  EXPECT_FALSE(exec.dual_move);
  EXPECT_TRUE(exec.return_home_after_gate);
  EXPECT_EQ(exec.tech.channel_capacity, 4);

  options.schedule_policy = SchedulePolicy::Alap;
  EXPECT_EQ(schedule_options_for(options).policy, SchedulePolicy::Alap);
}

TEST(Mapper, SchedulePoliciesPerKind) {
  MapperOptions options;
  options.kind = MapperKind::Qspr;
  EXPECT_EQ(schedule_options_for(options).policy,
            SchedulePolicy::QsprPriority);
  options.kind = MapperKind::Quale;
  EXPECT_EQ(schedule_options_for(options).policy, SchedulePolicy::Alap);
  options.kind = MapperKind::Qpos;
  EXPECT_EQ(schedule_options_for(options).policy,
            SchedulePolicy::AsapDependents);
}

TEST(Mapper, AllMappersProduceValidTraces) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_paper_fabric();
  const DependencyGraph graph = DependencyGraph::build(program);

  for (const MapperKind kind :
       {MapperKind::Qspr, MapperKind::Quale, MapperKind::Qpos}) {
    MapperOptions options = fast_qspr();
    options.kind = kind;
    const MapResult result = map_program(program, fabric, options);
    EXPECT_GE(result.latency, result.ideal_latency) << to_string(kind);
    EXPECT_EQ(result.trace.makespan(), result.latency) << to_string(kind);
    EXPECT_EQ(result.trace.gate_count(), graph.node_count())
        << to_string(kind);
    const auto violations =
        validate_trace(result.trace, graph, fabric, result.initial_placement,
                       execution_options_for(options).tech);
    EXPECT_TRUE(violations.empty())
        << to_string(kind) << ": "
        << (violations.empty() ? "" : violations[0]);
  }
}

TEST(Mapper, QsprBeatsQualeOnTheBenchmarks) {
  const Fabric fabric = make_paper_fabric();
  for (const QeccCode code : {QeccCode::Q5_1_3, QeccCode::Q9_1_3}) {
    const Program program = make_encoder(code);
    MapperOptions qspr = fast_qspr();
    MapperOptions quale;
    quale.kind = MapperKind::Quale;
    const Duration qspr_latency = map_program(program, fabric, qspr).latency;
    const Duration quale_latency = map_program(program, fabric, quale).latency;
    EXPECT_LT(qspr_latency, quale_latency) << code_name(code);
  }
}

TEST(Mapper, PlacerKindsAreOrderedInQuality) {
  const Program program = make_encoder(QeccCode::Q7_1_3);
  const Fabric fabric = make_paper_fabric();

  MapperOptions center = fast_qspr();
  center.placer = PlacerKind::Center;
  MapperOptions mc = fast_qspr();
  mc.placer = PlacerKind::MonteCarlo;
  mc.monte_carlo_trials = 16;
  MapperOptions mvfb = fast_qspr();
  mvfb.placer = PlacerKind::Mvfb;
  mvfb.mvfb_seeds = 8;

  const MapResult center_result = map_program(program, fabric, center);
  const MapResult mc_result = map_program(program, fabric, mc);
  const MapResult mvfb_result = map_program(program, fabric, mvfb);

  EXPECT_EQ(center_result.placement_runs, 1);
  EXPECT_EQ(mc_result.placement_runs, 16);
  EXPECT_GE(mvfb_result.placement_runs, 8 * 3);
  // Search can only improve on a single deterministic placement.
  EXPECT_LE(mc_result.latency, center_result.latency);
  EXPECT_LE(mvfb_result.latency, center_result.latency);
}

TEST(Mapper, ReportsCpuTimeAndKind) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MapperOptions options = fast_qspr();
  const MapResult result = map_program(program, fabric, options);
  EXPECT_EQ(result.kind, MapperKind::Qspr);
  EXPECT_GE(result.cpu_ms, 0.0);
  EXPECT_EQ(to_string(MapperKind::Quale), "QUALE");
  EXPECT_EQ(to_string(MapperKind::IdealBaseline), "Baseline");
}

TEST(Mapper, QualeStorageDisciplineRestoresPlacement) {
  // The QUALE model's defining invariant: ions always return to their home
  // traps, so the final placement equals the initial (center) placement on
  // every benchmark.
  const Fabric fabric = make_paper_fabric();
  for (const PaperNumbers& paper : paper_benchmarks()) {
    const Program program = make_encoder(paper.code);
    MapperOptions options;
    options.kind = MapperKind::Quale;
    const MapResult result = map_program(program, fabric, options);
    EXPECT_EQ(result.final_placement, result.initial_placement)
        << code_name(paper.code);
    EXPECT_EQ(result.initial_placement,
              center_placement(fabric, program.qubit_count()))
        << code_name(paper.code);
  }
}

TEST(Mapper, DualMoveWithReturnHomeSendsBothOperandsBack) {
  // Ablation combination: with median targeting *both* operands may travel;
  // the storage discipline then shuttles both home again. (On multi-gate
  // circuits homes can legitimately migrate — a median target may claim an
  // away ion's empty home trap — so the exact-restore invariant is only
  // checked on a single gate.)
  const Fabric fabric = make_paper_fabric();
  Program program;
  const QubitId a = program.add_qubit("a");
  const QubitId b = program.add_qubit("b");
  program.add_gate(GateKind::CX, a, b);
  MapperOptions options;
  options.placer = PlacerKind::Center;
  options.return_home = true;  // dual_move stays at the QSPR default (true)
  const MapResult result = map_program(program, fabric, options);
  EXPECT_EQ(result.final_placement, result.initial_placement);
  const DependencyGraph graph = DependencyGraph::build(program);
  EXPECT_TRUE(validate_trace(result.trace, graph, fabric,
                             result.initial_placement, TechnologyParams{})
                  .empty());

  // On a full benchmark the combination still validates end-to-end.
  const Program encoder = make_encoder(QeccCode::Q7_1_3);
  const MapResult full = map_program(encoder, fabric, options);
  const DependencyGraph encoder_graph = DependencyGraph::build(encoder);
  EXPECT_TRUE(validate_trace(full.trace, encoder_graph, fabric,
                             full.initial_placement, TechnologyParams{})
                  .empty());
}

TEST(Mapper, CliMapperFlagsApplyAndRejectMBelowOne) {
  MapperOptions options;
  const auto value = [](std::string text) {
    return [text] { return text; };
  };
  EXPECT_TRUE(apply_mapper_flag("--mapper", value("quale"), options));
  EXPECT_TRUE(apply_mapper_flag("--placer", value("mc"), options));
  EXPECT_TRUE(apply_mapper_flag("--m", value("7"), options));
  EXPECT_TRUE(apply_mapper_flag("--seed", value("42"), options));
  EXPECT_EQ(options.kind, MapperKind::Quale);
  EXPECT_EQ(options.placer, PlacerKind::MonteCarlo);
  EXPECT_EQ(options.mvfb_seeds, 7);
  EXPECT_EQ(options.monte_carlo_trials, 7);
  EXPECT_EQ(options.rng_seed, 42u);

  EXPECT_THROW(apply_mapper_flag("--m", value("0"), options), Error);
  EXPECT_THROW(apply_mapper_flag("--m", value("-3"), options), Error);
  EXPECT_THROW(apply_mapper_flag("--mapper", value("nope"), options), Error);
  EXPECT_EQ(options.mvfb_seeds, 7);  // a rejected value changes nothing

  // Any other flag is not consumed: its value is never read.
  bool read = false;
  EXPECT_FALSE(apply_mapper_flag(
      "--jobs", [&] { read = true; return std::string("4"); }, options));
  EXPECT_FALSE(read);
}

TEST(Mapper, ThrowsWhenFabricTooSmall) {
  const Program program = make_encoder(QeccCode::Q23_1_7);  // 23 qubits
  const Fabric fabric = make_quale_fabric({2, 2, 4});       // 4 traps
  EXPECT_THROW(map_program(program, fabric, fast_qspr()), ValidationError);
}

TEST(Mapper, ResultsArePinnedAcrossMappersAndPlacers) {
  // Latency and result fingerprint of every built-in code under QSPR with
  // each placer, plus QUALE and QPOS (both always use the center
  // placement), at m = 4 on the paper fabric. Any change to trap selection,
  // routing, the busy-queue retry order or QUALE's return-home flow moves
  // at least one of these.
  struct Flow {
    const char* name;
    MapperKind kind;
    PlacerKind placer;
  };
  const Flow flows[] = {{"qspr/mvfb", MapperKind::Qspr, PlacerKind::Mvfb},
                        {"qspr/mc", MapperKind::Qspr, PlacerKind::MonteCarlo},
                        {"qspr/center", MapperKind::Qspr, PlacerKind::Center},
                        {"quale", MapperKind::Quale, PlacerKind::Mvfb},
                        {"qpos", MapperKind::Qpos, PlacerKind::Mvfb}};
  struct Pinned {
    QeccCode code;
    Duration latency[5];
    const char* fingerprint[5];
  };
  const Pinned pinned[] = {
      {QeccCode::Q5_1_3,
       {564, 644, 686, 748, 770},
       {"a521dac2d1bdd7c4", "6b8ffcb96620cf9f", "21763f6fd1e6686e",
        "11361a969cb1a72e", "b45ec2168adafd7a"}},
      {QeccCode::Q7_1_3,
       {586, 630, 644, 872, 738},
       {"1ef76168a505115c", "fe1c78b39b29d75f", "aa62a1de60975826",
        "ac2e7cfbfaacc134", "6f5922d752f9d6bf"}},
      {QeccCode::Q9_1_3,
       {1054, 1062, 1122, 1524, 1180},
       {"ccdc89fb053bf967", "88e035ba793fd0e9", "7a6b02f15c85fe51",
        "3292f9f915f6fd65", "9787e092bca11ba3"}},
      {QeccCode::Q14_8_3,
       {2948, 3062, 3104, 4236, 3274},
       {"a21a6ce545ee0624", "7b136af0e57185d6", "772de86deca6b36a",
        "a944bbc378ec0424", "d6eb435a2981a354"}},
      {QeccCode::Q19_1_7,
       {2976, 3134, 3198, 4280, 3308},
       {"1838d19359c23add", "2fa7a9e18990fb43", "659d04c30738f24a",
        "7462eb9590bf2a3c", "2aef5a292a5b733a"}},
      {QeccCode::Q23_1_7,
       {1642, 1806, 1822, 2304, 1846},
       {"ef6eed89dd32b088", "9a8c293577e8d016", "25ce9ce8412423bd",
        "4b1eabc6a3653570", "2fcbd667936bfb60"}},
  };

  const Fabric fabric = make_paper_fabric();
  for (const Pinned& row : pinned) {
    const Program program = make_encoder(row.code);
    for (std::size_t f = 0; f < std::size(flows); ++f) {
      MapperOptions options;
      options.kind = flows[f].kind;
      options.placer = flows[f].placer;
      options.mvfb_seeds = 4;
      options.monte_carlo_trials = 4;
      options.jobs = 1;
      const MapResult result = map_program(program, fabric, options);
      const std::string label = code_name(row.code) + " " + flows[f].name;
      EXPECT_EQ(result.latency, row.latency[f]) << label;
      EXPECT_EQ(map_result_fingerprint(result), row.fingerprint[f]) << label;
    }
  }
}

}  // namespace
}  // namespace qspr

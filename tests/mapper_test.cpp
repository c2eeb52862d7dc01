// Tests for the end-to-end mapper flows (QSPR, QUALE, QPOS, IdealBaseline)
// and their option plumbing.
#include <gtest/gtest.h>

#include "circuit/dependency_graph.hpp"
#include "common/error.hpp"
#include "core/engine.hpp"
#include "core/mapper.hpp"
#include "core/negotiation.hpp"
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
  // Out of int range: rejected before narrowing, never wrapped to 1 or to a
  // negative count.
  EXPECT_THROW(apply_mapper_flag("--m", value("4294967297"), options), Error);
  EXPECT_THROW(apply_mapper_flag("--m", value("2147483648"), options), Error);
  EXPECT_THROW(apply_mapper_flag("--mapper", value("nope"), options), Error);
  EXPECT_EQ(options.mvfb_seeds, 7);  // a rejected value changes nothing

  // Any other flag is not consumed: its value is never read.
  bool read = false;
  EXPECT_FALSE(apply_mapper_flag(
      "--jobs", [&] { read = true; return std::string("4"); }, options));
  EXPECT_FALSE(read);
}

TEST(Mapper, EngineBeginRejectsATrialCountBelowOne) {
  // Bad options throw in begin(), not later in finish(): a trial count
  // below 1 for the placer the job's flow uses, with the placer named.
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MappingEngine engine(2);
  MapJob job;
  job.program = &program;
  job.fabric = &fabric;

  job.options.placer = PlacerKind::Mvfb;
  job.options.mvfb_seeds = 0;
  try {
    MappingEngine::PendingMap pending = engine.begin(job);
    FAIL() << "begin() staged an MVFB job with no seeds";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("MVFB"), std::string::npos)
        << e.what();
  }

  job.options = MapperOptions{};
  job.options.placer = PlacerKind::MonteCarlo;
  job.options.monte_carlo_trials = 0;
  try {
    MappingEngine::PendingMap pending = engine.begin(job);
    FAIL() << "begin() staged a Monte-Carlo job with no trials";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("Monte Carlo"), std::string::npos)
        << e.what();
  }

  // Flows that run no trials never read either count.
  for (const MapperKind kind : {MapperKind::Qspr, MapperKind::Quale,
                                MapperKind::Qpos, MapperKind::IdealBaseline}) {
    MapperOptions options;
    options.kind = kind;
    options.placer = PlacerKind::Center;
    options.mvfb_seeds = 0;
    options.monte_carlo_trials = 0;
    EXPECT_GT(engine.map(program, fabric, options).latency, 0)
        << to_string(kind);
  }
}

TEST(Mapper, ThrowsWhenFabricTooSmall) {
  const Program program = make_encoder(QeccCode::Q23_1_7);  // 23 qubits
  const Fabric fabric = make_quale_fabric({2, 2, 4});       // 4 traps
  EXPECT_THROW(map_program(program, fabric, fast_qspr()), ValidationError);
}

TEST(Mapper, ResultsArePinnedAcrossMappersAndPlacers) {
  // Latency, result fingerprint and Router settle count of every built-in
  // code under QSPR with each placer, plus QUALE and QPOS (both always use
  // the center placement), at m = 4 on the paper fabric. Any change to trap
  // selection, routing, the busy-queue retry order or QUALE's return-home
  // flow moves at least one of these. The settle count pins the frontier's
  // pop order where equal latencies would hide a different one: QUALE and
  // QPOS route turn-unaware, so their zero-cost turn edges tie many entries.
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
    long long nodes_settled[5];
  };
  const Pinned pinned[] = {
      {QeccCode::Q5_1_3,
       {564, 644, 686, 748, 770},
       {"a521dac2d1bdd7c4", "6b8ffcb96620cf9f", "21763f6fd1e6686e",
        "11361a969cb1a72e", "b45ec2168adafd7a"},
       {68, 100, 251, 199, 323}},
      {QeccCode::Q7_1_3,
       {586, 630, 644, 872, 738},
       {"1ef76168a505115c", "fe1c78b39b29d75f", "aa62a1de60975826",
        "ac2e7cfbfaacc134", "6f5922d752f9d6bf"},
       {84, 124, 206, 446, 363}},
      {QeccCode::Q9_1_3,
       {1054, 1062, 1122, 1524, 1180},
       {"ccdc89fb053bf967", "88e035ba793fd0e9", "7a6b02f15c85fe51",
        "3292f9f915f6fd65", "9787e092bca11ba3"},
       {157, 319, 279, 572, 313}},
      {QeccCode::Q14_8_3,
       {2948, 3062, 3104, 4236, 3274},
       {"a21a6ce545ee0624", "7b136af0e57185d6", "772de86deca6b36a",
        "a944bbc378ec0424", "d6eb435a2981a354"},
       {1109, 1477, 1359, 2642, 1477}},
      {QeccCode::Q19_1_7,
       {2976, 3134, 3198, 4280, 3308},
       {"1838d19359c23add", "2fa7a9e18990fb43", "659d04c30738f24a",
        "7462eb9590bf2a3c", "2aef5a292a5b733a"},
       {1121, 1319, 1741, 2761, 1623}},
      {QeccCode::Q23_1_7,
       {1642, 1806, 1822, 2304, 1846},
       {"ef6eed89dd32b088", "9a8c293577e8d016", "25ce9ce8412423bd",
        "4b1eabc6a3653570", "2fcbd667936bfb60"},
       {320, 814, 761, 1175, 625}},
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
      EXPECT_EQ(result.stats.nodes_settled, row.nodes_settled[f]) << label;
    }
  }
}

MapperOptions report_options(MapperKind kind, PlacerKind placer,
                             double heuristic_weight) {
  // What `qspr_map --m 10 --report` maps with.
  MapperOptions options;
  options.kind = kind;
  options.placer = placer;
  options.mvfb_seeds = 10;
  options.monte_carlo_trials = 10;
  options.route_heuristic_weight = heuristic_weight;
  options.negotiation_report = true;
  return options;
}

TEST(Mapper, NegotiationDiagnosticsArePinned) {
  // The post-hoc PathFinder diagnostic of three QSPR maps on the paper
  // fabric, exact and bounded-suboptimal. Any change to the negotiation
  // loop, its A* bound or the nets it batch-routes moves at least one of
  // these counters.
  struct Pinned {
    const char* label;
    QeccCode code;
    PlacerKind placer;
    double heuristic_weight;
    NegotiationDiagnostics expected;
  };
  const Pinned pinned[] = {
      {"[[5,1,3]] qspr/mvfb", QeccCode::Q5_1_3, PlacerKind::Mvfb, 1.0,
       {.nets = 12, .iterations_used = 21, .converged = false,
        .overused_resources = 4, .max_overuse = 2, .total_excess = 5,
        .min_feasible_excess = 3, .searches_performed = 228,
        .total_delay = 174, .heuristic_weight = 1.0,
        .nodes_settled = 68764}},
      {"[[14,8,3]] qspr/center", QeccCode::Q14_8_3, PlacerKind::Center, 1.0,
       {.nets = 91, .iterations_used = 7, .converged = false,
        .overused_resources = 30, .max_overuse = 17, .total_excess = 152,
        .min_feasible_excess = 29, .searches_performed = 594,
        .total_delay = 2804, .heuristic_weight = 1.0,
        .nodes_settled = 376508}},
      {"[[14,8,3]] qspr/mvfb w=1.5", QeccCode::Q14_8_3, PlacerKind::Mvfb,
       1.5,
       {.nets = 81, .iterations_used = 6, .converged = false,
        .overused_resources = 25, .max_overuse = 12, .total_excess = 101,
        .min_feasible_excess = 27, .searches_performed = 430,
        .total_delay = 2042, .heuristic_weight = 1.5,
        .nodes_settled = 71798}},
  };

  const Fabric fabric = make_paper_fabric();
  for (const Pinned& row : pinned) {
    const MapResult result =
        map_program(make_encoder(row.code), fabric,
                    report_options(MapperKind::Qspr, row.placer,
                                   row.heuristic_weight));
    const std::string label = row.label;
    ASSERT_TRUE(result.negotiation.has_value()) << label;
    const NegotiationDiagnostics& n = *result.negotiation;
    const NegotiationDiagnostics& e = row.expected;
    EXPECT_EQ(n.nets, e.nets) << label;
    EXPECT_EQ(n.iterations_used, e.iterations_used) << label;
    EXPECT_EQ(n.converged, e.converged) << label;
    EXPECT_EQ(n.overused_resources, e.overused_resources) << label;
    EXPECT_EQ(n.max_overuse, e.max_overuse) << label;
    EXPECT_EQ(n.total_excess, e.total_excess) << label;
    EXPECT_EQ(n.min_feasible_excess, e.min_feasible_excess) << label;
    EXPECT_EQ(n.searches_performed, e.searches_performed) << label;
    EXPECT_EQ(n.total_delay, e.total_delay) << label;
    EXPECT_EQ(n.heuristic_weight, e.heuristic_weight) << label;
    EXPECT_EQ(n.nodes_settled, e.nodes_settled) << label;
  }
}

TEST(Mapper, QualeDiagnosticRoutesEveryTrapToTrapLeg) {
  // QUALE sends a visiting ion to the gate trap and back home under one
  // instruction. Each trap-to-trap leg is its own net, so neither leg is
  // lost to a home-to-home span.
  const Fabric fabric = make_paper_fabric();
  const MapResult result =
      map_program(make_encoder(QeccCode::Q5_1_3), fabric,
                  report_options(MapperKind::Quale, PlacerKind::Mvfb, 1.0));
  int legs = 0;
  for (const MicroOp& op : result.trace.ops()) {
    if (op.kind == MicroOpKind::Move && fabric.trap_at(op.from).is_valid()) {
      ++legs;
    }
  }
  ASSERT_TRUE(result.negotiation.has_value());
  EXPECT_EQ(result.negotiation->nets, legs);
  EXPECT_EQ(result.negotiation->nets, 16);
  EXPECT_EQ(result.negotiation->iterations_used, 5);
  EXPECT_EQ(result.negotiation->searches_performed, 51);
}

TEST(Negotiation, RelocationNetsAreTheTraceTrapToTrapLegs) {
  // relocation_nets reads only a trace's moves and which cells are traps,
  // so a hand-built trace pins its leg rules.
  const Fabric fabric = make_quale_fabric({3, 3, 4});
  ASSERT_GE(fabric.trap_count(), 3u);
  const Trap& a = fabric.traps()[0];
  const Trap& b = fabric.traps()[1];
  const Trap& c = fabric.traps()[2];
  const Position port_a = a.ports.front().channel_cell;
  const Position port_b = b.ports.front().channel_cell;
  const Position port_c = c.ports.front().channel_cell;
  for (const Position port : {port_a, port_b, port_c}) {
    ASSERT_FALSE(fabric.trap_at(port).is_valid());
  }

  Trace trace;
  const auto move = [&](std::size_t instruction, std::size_t qubit,
                        Position from, Position to) {
    MicroOp op;
    op.kind = MicroOpKind::Move;
    op.instruction = InstructionId::from_index(instruction);
    op.qubit = QubitId::from_index(qubit);
    op.from = from;
    op.to = to;
    trace.add(op);
  };
  // Qubit 0 visits b and returns home to a under instruction 0: two legs.
  // Qubit 1's leg c -> b starts after qubit 0's first leg and ends before
  // it, so start order and end order differ.
  move(0, 0, a.position, port_a);
  move(1, 1, c.position, port_c);
  move(1, 1, port_c, b.position);
  move(0, 0, port_a, port_b);
  move(0, 0, port_b, b.position);
  move(0, 0, b.position, port_b);
  move(0, 0, port_b, a.position);
  // A leg that ends in its starting trap is dropped.
  move(2, 2, c.position, port_c);
  move(2, 2, port_c, c.position);
  // So is a leg that never reaches a trap.
  move(3, 3, b.position, port_b);
  move(3, 3, port_b, port_a);
  // Turns and gates are not moves.
  MicroOp turn;
  turn.kind = MicroOpKind::Turn;
  turn.qubit = QubitId::from_index(3);
  turn.from = turn.to = port_a;
  trace.add(turn);

  const std::vector<NetRequest> nets = relocation_nets(trace, fabric);
  const std::vector<std::pair<TrapId, TrapId>> expected = {
      {a.id, b.id}, {c.id, b.id}, {b.id, a.id}};
  ASSERT_EQ(nets.size(), expected.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    EXPECT_EQ(nets[i].from, expected[i].first) << "leg " << i;
    EXPECT_EQ(nets[i].to, expected[i].second) << "leg " << i;
  }
}

}  // namespace
}  // namespace qspr

// Umbrella header: the full public API of the QSPR library.
//
//   #include "core/qspr.hpp"
//
//   using namespace qspr;
//   Program program = parse_qasm_file("encoder.qasm");
//   Fabric fabric = make_paper_fabric();           // the 45x85 Fig. 4 fabric
//   MapResult result = map_program(program, fabric);
//   std::cout << result.latency << " us\n";
#pragma once

#include "circuit/dependency_graph.hpp"  // IWYU pragma: export
#include "circuit/dot.hpp"               // IWYU pragma: export
#include "circuit/gate.hpp"              // IWYU pragma: export
#include "circuit/program.hpp"           // IWYU pragma: export
#include "circuit/transform.hpp"         // IWYU pragma: export
#include "common/error.hpp"              // IWYU pragma: export
#include "common/executor.hpp"           // IWYU pragma: export
#include "common/geometry.hpp"           // IWYU pragma: export
#include "common/ids.hpp"                // IWYU pragma: export
#include "common/json.hpp"               // IWYU pragma: export
#include "common/rng.hpp"                // IWYU pragma: export
#include "common/stats.hpp"              // IWYU pragma: export
#include "common/stopwatch.hpp"          // IWYU pragma: export
#include "common/table.hpp"              // IWYU pragma: export
#include "common/time.hpp"               // IWYU pragma: export
#include "core/artifact_cache.hpp"       // IWYU pragma: export
#include "core/connectivity_placer.hpp"  // IWYU pragma: export
#include "core/engine.hpp"               // IWYU pragma: export
#include "core/error_model.hpp"          // IWYU pragma: export
#include "core/mapper.hpp"               // IWYU pragma: export
#include "core/monte_carlo.hpp"          // IWYU pragma: export
#include "core/mvfb.hpp"                 // IWYU pragma: export
#include "core/negotiation.hpp"          // IWYU pragma: export
#include "core/placer.hpp"               // IWYU pragma: export
#include "core/report.hpp"               // IWYU pragma: export
#include "core/scheduler.hpp"            // IWYU pragma: export
#include "fabric/fabric.hpp"             // IWYU pragma: export
#include "fabric/linear_fabric.hpp"      // IWYU pragma: export
#include "fabric/quale_fabric.hpp"       // IWYU pragma: export
#include "fabric/text_io.hpp"            // IWYU pragma: export
#include "qasm/parser.hpp"               // IWYU pragma: export
#include "qasm/writer.hpp"               // IWYU pragma: export
#include "qecc/codes.hpp"                // IWYU pragma: export
#include "qecc/cyclic_builder.hpp"       // IWYU pragma: export
#include "qecc/random_circuit.hpp"       // IWYU pragma: export
#include "route/heuristic.hpp"           // IWYU pragma: export
#include "route/pathfinder.hpp"          // IWYU pragma: export
#include "route/router.hpp"              // IWYU pragma: export
#include "route/routing_graph.hpp"       // IWYU pragma: export
#include "route/search_arena.hpp"        // IWYU pragma: export
#include "sim/event_sim.hpp"             // IWYU pragma: export
#include "sim/placement.hpp"             // IWYU pragma: export
#include "sim/trace.hpp"                 // IWYU pragma: export
#include "sim/trace_io.hpp"              // IWYU pragma: export
#include "sim/trace_validator.hpp"       // IWYU pragma: export
#include "sim/trajectory.hpp"            // IWYU pragma: export
#include "sim/utilization.hpp"           // IWYU pragma: export

// qspr_replay — validate and analyse a serialised control trace against a
// circuit and fabric, as a machine controller or third-party tool would.
//
//   qspr_map --code "[[5,1,3]]" --m 10 --trace-out run.trace
//   qspr_replay --code "[[5,1,3]]" --trace-file run.trace [--fabric f.txt]
//
// The trace file is the one qspr_map writes with --trace-out (its --trace
// flag prints a report for people, not this format). The initial placement
// is rebuilt from the trace itself. Checks physical consistency
// (continuity, capacities, gate preconditions) and prints the latency,
// utilisation summary and per-qubit travel stats.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common/strings.hpp"
#include "core/qspr.hpp"

namespace {

using namespace qspr;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " (--code <name> | <file.qasm>) --trace-file <file> "
               "[--fabric <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::optional<Program> program;
    std::optional<Fabric> fabric;
    std::string trace_path;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw Error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--code") {
        const std::string name = next();
        for (const PaperNumbers& bench : paper_benchmarks()) {
          if (code_name(bench.code) == name) program = make_encoder(bench.code);
        }
        if (!program.has_value()) throw Error("unknown code: " + name);
      } else if (arg == "--trace-file") {
        trace_path = next();
      } else if (arg == "--fabric") {
        fabric = parse_fabric_file(next());
      } else if (!arg.empty() && arg[0] != '-') {
        program = parse_qasm_file(arg);
      } else {
        return usage(argv[0]);
      }
    }
    if (!program.has_value() || trace_path.empty()) return usage(argv[0]);
    if (!fabric.has_value()) fabric = make_paper_fabric();

    std::ifstream input(trace_path);
    if (!input) throw Error("cannot open trace file: " + trace_path);
    std::ostringstream buffer;
    buffer << input.rdbuf();
    const Trace trace = parse_trace(buffer.str());
    if (trace.size() == 0) {
      throw Error(
          "the trace holds no micro-ops, so there is nothing to replay "
          "(qspr_map --mapper baseline computes the ideal bound and writes "
          "an empty trace)");
    }
    std::cout << "loaded " << trace.size() << " micro-ops, makespan "
              << trace.makespan() << " us\n";

    // Reconstruct the initial placement: each qubit starts in the trap its
    // first op leaves from. A qubit no op touches is idle: the trace cannot
    // say where it sits and it constrains nothing, so it stays unplaced.
    const DependencyGraph graph = DependencyGraph::build(*program);
    Placement initial(program->qubit_count());
    for (std::size_t q = 0; q < program->qubit_count(); ++q) {
      const QubitId qubit = QubitId::from_index(q);
      Position start{-1, -1};
      TimePoint earliest = 0;
      bool found = false;
      for (const MicroOp& op : trace.ops()) {
        const bool relevant =
            (op.kind != MicroOpKind::Gate && op.qubit == qubit) ||
            (op.kind == MicroOpKind::Gate &&
             graph.instruction(op.instruction).uses(qubit));
        if (!relevant) continue;
        if (!found || op.start < earliest) {
          found = true;
          earliest = op.start;
          start = op.from;
        }
      }
      if (!found) continue;
      const TrapId trap = fabric->trap_at(start);
      if (!trap.is_valid()) {
        throw Error("q" + std::to_string(q) +
                    " does not start in a trap at " + to_string(start));
      }
      initial.set(qubit, trap);
    }

    const auto violations =
        validate_trace(trace, graph, *fabric, initial, TechnologyParams{});
    if (violations.empty()) {
      std::cout << "trace is physically consistent.\n\n";
    } else {
      std::cout << violations.size() << " violation(s):\n";
      for (const std::string& violation : violations) {
        std::cout << "  " << violation << "\n";
      }
      return 1;
    }

    const ResourceUtilization utilization = analyze_utilization(trace, *fabric);
    std::cout << utilization_summary(utilization, *fabric) << "\n";
    std::cout << "per-qubit travel:\n";
    for (std::size_t q = 0; q < program->qubit_count(); ++q) {
      const TravelSummary travel =
          summarize_travel(trace, QubitId::from_index(q));
      std::cout << "  q" << q << ": " << travel.moves << " moves, "
                << travel.turns << " turns, " << travel.travel_time
                << " us in transit\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

// qspr_map — command-line front end of the mapper.
//
//   qspr_map --code "[[5,1,3]]"                 # built-in QECC benchmark
//   qspr_map encoder.qasm --mapper quale        # map a QASM file
//   qspr_map --code "[[7,1,3]]" --placer mc --m 25 --trace
//
// Prints the mapped latency, the ideal lower bound, and the Eq. 1 delay
// decomposition; optionally dumps the control trace and the QIDG in DOT.
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "circuit/dot.hpp"
#include "common/strings.hpp"
#include "common/executor.hpp"
#include "core/mapper.hpp"
#include "core/qspr.hpp"

namespace {

using namespace qspr;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [<file.qasm> | --code <name>] [options]\n"
      << "  --code <name>      built-in benchmark: [[5,1,3]] [[7,1,3]] "
         "[[9,1,3]] [[14,8,3]] [[19,1,7]] [[23,1,7]]\n"
      << "  --mapper <m>       qspr (default) | quale | qpos | baseline\n"
      << "  --placer <p>       mvfb (default) | mc | center\n"
      << "  --m <n>            MVFB seeds / MC trials (default 100)\n"
      << "  --seed <n>         RNG seed (default 1)\n"
      << "  --jobs <n>         worker threads for placement trials (default:\n"
      << "                     hardware concurrency; results are identical\n"
      << "                     at any value)\n"
      << "  --heuristic-weight <w>\n"
      << "                     bounded-suboptimal negotiated search: paths\n"
      << "                     may cost up to w x optimal (default 1.0 =\n"
      << "                     exact search)\n"
      << "  --fabric <file>    fabric drawing to map onto (default: 45x85 "
         "QUALE fabric)\n"
      << "  --trace            dump the control trace\n"
      << "  --trace-out <file> write the machine-readable trace (see "
         "qspr_replay)\n"
      << "  --report           print the full mapping report (timing table,\n"
      << "                     utilisation, Gantt chart, fidelity estimate,\n"
      << "                     PathFinder negotiation diagnostics)\n"
      << "  --dot              dump the QIDG in Graphviz DOT\n"
      << "  --qasm             dump the program QASM\n";
  return 2;
}

std::optional<QeccCode> code_by_name(const std::string& name) {
  for (const PaperNumbers& bench : paper_benchmarks()) {
    if (code_name(bench.code) == name) return bench.code;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::optional<Program> program;
    MapperOptions options;
    options.jobs = Executor::default_worker_count();
    std::optional<Fabric> fabric;
    bool dump_trace = false;
    bool dump_dot = false;
    bool dump_qasm = false;
    bool dump_report = false;
    std::string trace_out;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw Error("missing value for " + arg);
        return argv[++i];
      };
      if (apply_mapper_flag(arg, next, options)) continue;
      if (arg == "--code") {
        const std::string name = next();
        const auto code = code_by_name(name);
        if (!code.has_value()) throw Error("unknown code: " + name);
        program = make_encoder(*code);
      } else if (arg == "--jobs") {
        options.jobs = parse_int_flag(arg, next(), 1);
      } else if (arg == "--heuristic-weight") {
        const double weight = parse_real(next());
        if (weight < 1.0) {
          throw Error("--heuristic-weight must be >= 1 (1.0 is exact)");
        }
        options.route_heuristic_weight = weight;
      } else if (arg == "--fabric") {
        fabric = parse_fabric_file(next());
      } else if (arg == "--trace") {
        dump_trace = true;
      } else if (arg == "--trace-out") {
        trace_out = next();
      } else if (arg == "--report") {
        dump_report = true;
      } else if (arg == "--dot") {
        dump_dot = true;
      } else if (arg == "--qasm") {
        dump_qasm = true;
      } else if (arg == "--help" || arg == "-h") {
        return usage(argv[0]);
      } else if (!arg.empty() && arg[0] != '-') {
        program = parse_qasm_file(arg);
      } else {
        std::cerr << "unknown option: " << arg << "\n";
        return usage(argv[0]);
      }
    }

    if (!program.has_value()) return usage(argv[0]);
    if (!fabric.has_value()) fabric = make_paper_fabric();
    options.negotiation_report = dump_report;

    if (dump_qasm) std::cout << write_qasm(*program);
    if (dump_dot) {
      std::cout << to_dot(DependencyGraph::build(*program), &*program);
    }

    const MapResult result = map_program(*program, *fabric, options);
    std::cout << "program:          "
              << (program->name().empty() ? "<unnamed>" : program->name())
              << " (" << program->qubit_count() << " qubits, "
              << program->instruction_count() << " instructions)\n"
              << "fabric:           " << describe_fabric(*fabric) << "\n"
              << "mapper:           " << to_string(result.kind) << "\n"
              << "latency:          " << result.latency << " us\n"
              << "ideal baseline:   " << result.ideal_latency << " us\n"
              << "routing delay:    " << result.stats.total_routing
              << " us (sum over instructions)\n"
              << "congestion delay: " << result.stats.total_congestion
              << " us (sum over instructions)\n"
              << "moves/turns:      " << result.stats.moves << "/"
              << result.stats.turns << "\n"
              << "placement runs:   " << result.placement_runs << "\n"
              << "cpu time:         " << format_fixed(result.cpu_ms, 1)
              << " ms wall (" << result.jobs << " jobs, "
              << format_fixed(result.trial_cpu_ms, 1)
              << " ms aggregate trial cpu)\n";
    if (dump_report) {
      std::cout << "\n" << make_report(result, *program, *fabric);
    }
    if (dump_trace) std::cout << "\n" << result.trace.to_string();
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out) throw Error("cannot write trace file: " + trace_out);
      out << write_trace(result.trace);
      std::cerr << "wrote " << result.trace.size() << " micro-ops to "
                << trace_out << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

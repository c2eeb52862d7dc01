// The benchmark's three workloads, each closed-loop and generated from one
// seed:
//
//   paper_mvfb      the paper's six QECC encoders, MVFB m=10, mapped one at
//                   a time round-robin on one MappingEngine(nproc);
//   batch_mixed     BatchMapper passes over a 48-program corpus (cyclic,
//                   random, QFT ladders; Monte-Carlo m=8) alternating the
//                   paper fabric and a small QUALE drawing;
//   serve_sessions  an in-process MappingServer (2 mapper threads, 2
//                   workers) and 4 closed-loop client connections: fresh
//                   stateless maps, exact repeats and session edits.
//
// run_workload() with trace = false measures the end-to-end metrics; with
// trace = true it runs the outside-in layer trace instead (layer_trace.hpp)
// and reports the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expected.hpp"

namespace mapbench {

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int nproc = 1;
  const ExpectedResults* expected = nullptr;
  /// Working directory for generated QASM files, fabric drawings and the
  /// span log.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (0 = not a sampled statistic).
  long long samples = 0;
};

struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  /// The first few failure descriptions.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Extra human-readable lines (workload shape, measured traffic shares).
  std::vector<std::string> notes;

  void fail(std::string why);
};

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_mvfb", "batch_mixed",
                                                 "serve_sessions"};
  return names;
}

/// Throws qspr::Error on an unknown workload name or a broken set-up.
Outcome run_workload(const std::string& name, const Context& context,
                     bool trace);

}  // namespace mapbench

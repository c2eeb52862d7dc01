// mapbench: the end-to-end mapping benchmark.
//
//   mapbench --workload <paper_mvfb|batch_mixed|serve_sessions> --seed <n>
//            --seconds <s> --trace <0|1> --expected <file> --work-dir <dir>
//   mapbench --record-expected <file>
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exits 1 when any map failed or disagreed with the expected results, 2 on
// bad arguments or a broken set-up. See mapbench/README.md.
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "expected.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "mapbench: " << why << "\n"
            << "usage: mapbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --expected <file> --work-dir <dir>\n"
            << "       mapbench --record-expected <file>\n";
  return 2;
}

std::string number(double value) {
  std::ostringstream out;
  out.precision(10);
  out << value;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string expected_path;
  std::string record_path;
  mapbench::Context context;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  const int nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  context.nproc = nproc;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        context.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        context.seconds = std::stod(value);
        have_seconds = context.seconds > 0.0;
      } else if (flag == "--trace") {
        trace = std::stoi(value);
      } else if (flag == "--expected") {
        expected_path = value;
      } else if (flag == "--work-dir") {
        context.work_dir = value;
      } else if (flag == "--record-expected") {
        record_path = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }

  try {
    if (!record_path.empty()) {
      mapbench::record_expected(record_path, nproc);
      return 0;
    }
    if (workload.empty() || !have_seed || !have_seconds ||
        (trace != 0 && trace != 1) || expected_path.empty() ||
        context.work_dir.empty()) {
      return usage("--workload, --seed, --seconds, --trace 0|1, --expected "
                   "and --work-dir are required");
    }
    const mapbench::ExpectedResults expected =
        mapbench::ExpectedResults::load(expected_path);
    context.expected = &expected;
    const mapbench::Outcome outcome =
        mapbench::run_workload(workload, context, trace == 1);

    std::cout << "workload " << workload << " seed " << context.seed
              << " seconds " << context.seconds << " trace " << trace
              << " | nproc " << nproc << ", build " << MAPBENCH_BUILD_TYPE
              << ", flags \"" << MAPBENCH_CXX_FLAGS << "\", "
              << expected.size() << " expected results\n";
    for (const std::string& note : outcome.notes) std::cout << note << "\n";
    for (const mapbench::Metric& metric : outcome.metrics) {
      std::cout << "  " << metric.name << " = " << number(metric.value) << " "
                << metric.unit;
      if (metric.samples > 0) std::cout << "  (n=" << metric.samples << ")";
      std::cout << "\n";
    }
    const double error_rate =
        outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                    static_cast<double>(outcome.attempted)
                              : 1.0;
    std::cout << "  error_rate = " << number(error_rate) << "  ("
              << outcome.failed << " failed of " << outcome.attempted
              << " attempted)\n";
    for (const std::string& error : outcome.errors) {
      std::cout << "  FAILED " << error << "\n";
    }

    const bool correct = outcome.failed == 0 && outcome.attempted > 0;
    qspr::JsonWriter json;
    json.begin_object();
    json.field("correct", correct);
    json.field("attempted", outcome.attempted);
    json.field("failed", outcome.failed);
    json.key("metrics").begin_object();
    for (const mapbench::Metric& metric : outcome.metrics) {
      json.key(metric.name).begin_object();
      json.field("value", metric.value);
      json.field("unit", metric.unit);
      json.end_object();
    }
    json.end_object();
    json.end_object();
    std::cout << json.str() << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "mapbench: " << e.what() << "\n";
    return 2;
  }
}

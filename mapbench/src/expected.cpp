#include "expected.hpp"

#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "common/error.hpp"
#include "core/engine.hpp"
#include "fabric/quale_fabric.hpp"
#include "fabric/text_io.hpp"
#include "qasm/parser.hpp"
#include "service/request_codec.hpp"

namespace mapbench {

ExpectedResults ExpectedResults::load(const std::string& path) {
  std::ifstream input(path);
  if (!input) throw qspr::Error("cannot read expected results: " + path);
  ExpectedResults results;
  std::string line;
  int line_number = 0;
  while (std::getline(input, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    ExpectedResult entry;
    if (!std::getline(fields, key, '\t') || !(fields >> entry.latency) ||
        !(fields >> entry.fingerprint) || entry.fingerprint.size() != 16) {
      throw qspr::Error(path + ":" + std::to_string(line_number) +
                        ": expected <key> TAB <latency> TAB <fingerprint>");
    }
    results.entries_[key] = entry;
  }
  return results;
}

std::string ExpectedResults::check(const std::string& key, long long latency,
                                   const std::string& fingerprint) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return "no expected result for " + key;
  if (it->second.latency != latency || it->second.fingerprint != fingerprint) {
    return key + ": got latency " + std::to_string(latency) + " fp " +
           fingerprint + ", expected latency " +
           std::to_string(it->second.latency) + " fp " +
           it->second.fingerprint;
  }
  return {};
}

std::string ExpectedResults::check(const std::string& key,
                                   const qspr::MapResult& result) const {
  return check(key, static_cast<long long>(result.latency),
               qspr::map_result_fingerprint(result));
}

void record_expected(const std::string& path, int workers) {
  const std::vector<BenchJob> jobs = all_expected_jobs();
  std::map<std::string, std::unique_ptr<qspr::Fabric>> fabrics;
  fabrics[kPaperFabric] =
      std::make_unique<qspr::Fabric>(qspr::make_paper_fabric());
  fabrics[kSmallFabric] = std::make_unique<qspr::Fabric>(
      qspr::parse_fabric(small_fabric_text(), kSmallFabric));
  qspr::MappingEngine engine(workers);

  std::ofstream output(path);
  if (!output) throw qspr::Error("cannot write expected results: " + path);
  output << "# mapbench expected results: key\tlatency\tresult fingerprint\n"
         << "# Recorded with `mapbench --record-expected`; see "
            "mapbench/README.md.\n";
  std::map<std::string, bool> seen;
  for (const BenchJob& job : jobs) {
    if (seen[job.key]) continue;
    seen[job.key] = true;
    const qspr::Program program = qspr::parse_qasm(job.qasm, job.program_id);
    const qspr::MapResult result =
        engine.map(program, *fabrics.at(job.fabric), job.options);
    output << job.key << '\t' << static_cast<long long>(result.latency) << '\t'
           << qspr::map_result_fingerprint(result) << '\n';
    std::cerr << "recorded " << job.key << " latency " << result.latency
              << " in " << result.cpu_ms << " ms\n";
  }
  if (!output) throw qspr::Error("failed writing expected results: " + path);
}

}  // namespace mapbench

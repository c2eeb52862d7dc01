// Expected mapping results, keyed by (program, fabric, options): the mapped
// latency and the result fingerprint (map_result_fingerprint, the same value
// a qspr_serve reply carries as result_fp). The file is recorded once from
// MappingEngine::map with `mapbench --record-expected`; every map the
// benchmark makes is checked against it.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "core/mapper.hpp"
#include "corpus.hpp"

namespace mapbench {

struct ExpectedResult {
  long long latency = 0;
  std::string fingerprint;
};

class ExpectedResults {
 public:
  /// Parses the tab-separated file (key, latency, fingerprint per line;
  /// '#' starts a comment). Throws qspr::Error when unreadable or malformed.
  static ExpectedResults load(const std::string& path);

  /// Empty when `key` matches with this latency and fingerprint, otherwise
  /// a one-line description of the mismatch (or of the missing key).
  [[nodiscard]] std::string check(const std::string& key, long long latency,
                                  const std::string& fingerprint) const;
  [[nodiscard]] std::string check(const std::string& key,
                                  const qspr::MapResult& result) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<std::string, ExpectedResult> entries_;
};

/// Maps every job of all_expected_jobs() with MappingEngine::map on
/// `workers` threads and writes the file.
void record_expected(const std::string& path, int workers);

}  // namespace mapbench

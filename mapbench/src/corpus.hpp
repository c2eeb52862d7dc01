// Program pools the three workloads draw from.
//
// Every pool is a fixed function of a constant master seed, so the
// expected-results file can cover all of it; the benchmark's --seed only
// chooses which pool entries a run maps, in which order and on which
// fabric. A job's `key` names (program, fabric, options) — the mapping seed
// is one of the options — and indexes the expected-results file.
#pragma once

#include <string>
#include <vector>

#include "core/mapper.hpp"

namespace mapbench {

/// Fabric labels. "paper" is the built-in 45x85 fabric; "small" is a
/// 7x12-junction QUALE drawing written to disk at set-up.
inline constexpr const char* kPaperFabric = "paper";
inline constexpr const char* kSmallFabric = "small";

struct BenchJob {
  std::string key;
  std::string program_id;
  std::string qasm;
  std::string fabric;
  qspr::MapperOptions options;
};

/// Options of each workload's maps.
qspr::MapperOptions paper_options();  // QSPR + MVFB, m = 10, seed 1
qspr::MapperOptions mc_options();     // QSPR + Monte-Carlo, m = 8, seed 1

/// Expected-results key of (program, fabric, options).
std::string job_key(const std::string& program_id, const std::string& fabric,
                    const qspr::MapperOptions& options);

BenchJob make_job(std::string program_id, std::string qasm, std::string fabric,
                  const qspr::MapperOptions& options);

/// The six QECC encoders of the paper's Tables 1-2, on the paper fabric.
std::vector<BenchJob> paper_jobs();

struct PoolProgram {
  std::string id;
  std::string qasm;
};

/// batch_mixed pool: 48 record slots — 16 cyclic encoders (8-24 qubits),
/// 24 random circuits (6-48 qubits, 20-400 gates) and 8 QFT-shaped
/// all-pairs CZ ladders (8-16 qubits), interleaved. Slot i maps on the
/// small fabric when i is odd and requests the negotiation diagnostic when
/// i % 4 == 3. Each slot holds two variants: a program and the same program
/// with its qubits relabelled. The seed picks one per slot, so every corpus
/// does the same kind of work in the same order.
struct BatchSlot {
  PoolProgram variants[2];
  std::string fabric;
  qspr::MapperOptions options;
};
std::vector<BatchSlot> batch_slots();

/// serve_sessions pools: small random programs for stateless maps, and
/// session scripts (a base program plus edits of 1-4 gates each).
std::vector<PoolProgram> serve_fresh_pool();
struct SessionScript {
  std::string id;
  std::string base_qasm;
  std::vector<std::string> appends;
  /// The session's circuit after each map: base, base+edit1, ...
  [[nodiscard]] std::string qasm_after(std::size_t edits) const;
  [[nodiscard]] std::string step_id(std::size_t edits) const;
};
std::vector<SessionScript> serve_session_pool();

/// The small QUALE drawing (fabric text) used by batch_mixed.
std::string small_fabric_text();

/// Every job the expected-results file covers.
std::vector<BenchJob> all_expected_jobs();

}  // namespace mapbench

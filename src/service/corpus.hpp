// The mixed-size batch corpus and the broken-QASM corpus. The batch_corpus
// example writes the first to .qasm files for qspr_batch, which CI's batch
// smoke maps; the parser-robustness tests and that smoke drive the second.
#pragma once

#include <string>
#include <vector>

#include "circuit/program.hpp"

namespace qspr {

/// Deterministic mixed-size programs: four QECC encoders (5 to 14 qubits)
/// plus two named random circuits (8 and 12 qubits).
[[nodiscard]] std::vector<Program> make_batch_corpus();

/// One intentionally-broken QASM input: `text` must make parse_qasm throw a
/// clean Error (never crash, never parse). `reason` names what is wrong.
struct BrokenQasm {
  std::string name;
  std::string reason;
  std::string text;
};

/// The shared broken-file corpus: malformed, truncated and
/// torture-formatted QASM inputs. Driven by the parser-robustness tests in
/// tests/qasm_test.cpp and by the batch fault-isolation smoke (the
/// batch_corpus example writes the first member as broken.qasm).
[[nodiscard]] const std::vector<BrokenQasm>& broken_qasm_corpus();

}  // namespace qspr

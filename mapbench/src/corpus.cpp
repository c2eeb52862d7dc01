#include "corpus.hpp"

#include <string>
#include <utility>

#include "circuit/program.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fabric/quale_fabric.hpp"
#include "fabric/text_io.hpp"
#include "qasm/writer.hpp"
#include "qecc/codes.hpp"
#include "qecc/cyclic_builder.hpp"
#include "qecc/random_circuit.hpp"

namespace mapbench {

using qspr::GateKind;
using qspr::Program;
using qspr::Rng;

namespace {

// The pools are fixed: changing a master seed re-keys the expected-results
// file and breaks comparability with every earlier recording.
constexpr std::uint64_t kBatchPoolSeed = 0xba7c5eedULL;
constexpr std::uint64_t kServePoolSeed = 0x5e55105eULL;

std::string qasm_of(Program program, const std::string& id) {
  program.set_name(id);
  return qspr::write_qasm(program);
}

/// QFT-shaped ladder: H on each qubit, then CZ from every later qubit onto
/// it. All n(n-1)/2 pairs interact, so the channels congest.
Program make_qft_ladder(int qubits) {
  Program program;
  std::vector<qspr::QubitId> q;
  for (int i = 0; i < qubits; ++i) {
    q.push_back(program.add_qubit("q" + std::to_string(i), 0));
  }
  for (int i = 0; i < qubits; ++i) {
    program.add_gate(GateKind::H, q[i]);
    for (int j = i + 1; j < qubits; ++j) {
      program.add_gate(GateKind::CZ, q[j], q[i]);
    }
  }
  return program;
}

/// The same circuit with its qubits declared in a seeded random order: an
/// isomorphic program, so the same amount of work, from another start.
Program relabeled(const Program& program, Rng& rng) {
  const std::size_t n = program.qubit_count();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }
  Program out;
  std::vector<qspr::QubitId> renamed(n);
  for (const std::size_t old : order) {
    const qspr::QubitDecl& decl = program.qubits()[old];
    renamed[old] = out.add_qubit(decl.name, decl.init_value);
  }
  for (const qspr::Instruction& instr : program.instructions()) {
    if (instr.is_two_qubit()) {
      out.add_gate(instr.kind, renamed[instr.control.index()],
                   renamed[instr.target.index()]);
    } else {
      out.add_gate(instr.kind, renamed[instr.target.index()]);
    }
  }
  return out;
}

Program make_random(Rng& rng, int min_qubits, int max_qubits, int min_gates,
                    int max_gates) {
  qspr::RandomCircuitOptions options;
  options.qubits = rng.uniform_int(min_qubits, max_qubits);
  options.gates = rng.uniform_int(min_gates, max_gates);
  return qspr::make_random_circuit(options, rng);
}

/// One edit of 1-4 gates over the first `qubits` qubits ("q<i>" names, as
/// make_random_circuit declares them).
std::string make_edit(Rng& rng, int qubits) {
  static constexpr GateKind kOneQubit[] = {GateKind::H, GateKind::X,
                                           GateKind::S, GateKind::T};
  static constexpr GateKind kTwoQubit[] = {GateKind::CX, GateKind::CZ};
  std::string text;
  const int gates = rng.uniform_int(1, 4);
  for (int g = 0; g < gates; ++g) {
    if (!text.empty()) text += '\n';
    const int a = rng.uniform_int(0, qubits - 1);
    if (rng.uniform_real() < 0.7) {
      int b = rng.uniform_int(0, qubits - 2);
      if (b >= a) ++b;
      text += std::string(qspr::mnemonic(kTwoQubit[rng.uniform_index(2)])) +
              " q" + std::to_string(a) + ",q" + std::to_string(b);
    } else {
      text += std::string(qspr::mnemonic(kOneQubit[rng.uniform_index(4)])) +
              " q" + std::to_string(a);
    }
  }
  return text;
}

}  // namespace

qspr::MapperOptions paper_options() {
  qspr::MapperOptions options;
  options.kind = qspr::MapperKind::Qspr;
  options.placer = qspr::PlacerKind::Mvfb;
  options.mvfb_seeds = 10;
  options.rng_seed = 1;
  return options;
}

qspr::MapperOptions mc_options() {
  qspr::MapperOptions options;
  options.kind = qspr::MapperKind::Qspr;
  options.placer = qspr::PlacerKind::MonteCarlo;
  options.monte_carlo_trials = 8;
  options.rng_seed = 1;
  return options;
}

std::string job_key(const std::string& program_id, const std::string& fabric,
                    const qspr::MapperOptions& options) {
  const bool mvfb = options.placer == qspr::PlacerKind::Mvfb;
  return program_id + "|" + fabric + "|" + qspr::to_string(options.kind) +
         (mvfb ? "/mvfb:" + std::to_string(options.mvfb_seeds)
               : "/mc:" + std::to_string(options.monte_carlo_trials)) +
         "|seed=" + std::to_string(options.rng_seed);
}

BenchJob make_job(std::string program_id, std::string qasm, std::string fabric,
                  const qspr::MapperOptions& options) {
  BenchJob job;
  job.key = job_key(program_id, fabric, options);
  job.program_id = std::move(program_id);
  job.qasm = std::move(qasm);
  job.fabric = std::move(fabric);
  job.options = options;
  return job;
}

std::vector<BenchJob> paper_jobs() {
  std::vector<BenchJob> jobs;
  for (const qspr::QeccCode code :
       {qspr::QeccCode::Q5_1_3, qspr::QeccCode::Q7_1_3, qspr::QeccCode::Q9_1_3,
        qspr::QeccCode::Q14_8_3, qspr::QeccCode::Q19_1_7,
        qspr::QeccCode::Q23_1_7}) {
    const std::string id = qspr::code_name(code);
    jobs.push_back(make_job(id, qasm_of(qspr::make_encoder(code), id),
                            kPaperFabric, paper_options()));
  }
  return jobs;
}

std::vector<BatchSlot> batch_slots() {
  Rng rng(kBatchPoolSeed);
  std::vector<BatchSlot> slots;
  int cyclic = 0;
  int random = 0;
  int ladders = 0;
  for (int i = 0; i < 48; ++i) {
    // Interleave the families: per 6 slots, 2 cyclic, 3 random, 1 ladder.
    const int family = i % 6;
    std::string id;
    Program program;
    if (family < 2) {
      id = "cyc" + std::to_string(cyclic++);
      // Specs the builder cannot calibrate are redrawn (deterministically,
      // from the fixed seed).
      for (bool built = false; !built;) {
        qspr::CyclicEncoderSpec spec;
        spec.name = id;
        spec.qubits = rng.uniform_int(8, 24);
        spec.data_qubits = rng.uniform_int(1, 2);
        spec.chain_gates = rng.uniform_int(spec.qubits, 2 * spec.qubits);
        spec.chord_lanes = rng.uniform_int(0, 2);
        try {
          program = qspr::make_cyclic_encoder(spec);
          built = true;
        } catch (const qspr::Error&) {  // NOLINT(bugprone-empty-catch)
        }
      }
    } else if (family < 5) {
      id = "rnd" + std::to_string(random++);
      program = make_random(rng, 6, 48, 20, 400);
    } else {
      id = "qft" + std::to_string(ladders);
      program = make_qft_ladder(8 + (ladders++ * 5) % 9);  // sizes 8..16
    }
    BatchSlot slot;
    slot.variants[0] = {id + "a", qasm_of(program, id + "a")};
    slot.variants[1] = {id + "b", qasm_of(relabeled(program, rng), id + "b")};
    slot.fabric = i % 2 == 1 ? kSmallFabric : kPaperFabric;
    slot.options = mc_options();
    slot.options.negotiation_report = i % 4 == 3;
    slots.push_back(std::move(slot));
  }
  return slots;
}

std::vector<PoolProgram> serve_fresh_pool() {
  Rng rng(kServePoolSeed);
  std::vector<PoolProgram> pool;
  for (int i = 0; i < 256; ++i) {
    const std::string id = "srv" + std::to_string(i);
    pool.push_back({id, qasm_of(make_random(rng, 10, 20, 40, 160), id)});
  }
  return pool;
}

std::string SessionScript::qasm_after(std::size_t edits) const {
  std::string text = base_qasm;
  for (std::size_t e = 0; e < edits; ++e) text += "\n" + appends[e];
  return text;
}

std::string SessionScript::step_id(std::size_t edits) const {
  return id + "+" + std::to_string(edits);
}

std::vector<SessionScript> serve_session_pool() {
  Rng rng(kServePoolSeed ^ 0x5e551011ULL);
  std::vector<SessionScript> pool;
  for (int i = 0; i < 64; ++i) {
    SessionScript script;
    script.id = "ses" + std::to_string(i);
    qspr::RandomCircuitOptions options;
    options.qubits = rng.uniform_int(8, 16);
    options.gates = rng.uniform_int(40, 120);
    script.base_qasm =
        qasm_of(qspr::make_random_circuit(options, rng), script.id);
    for (int e = 0; e < 2; ++e) {
      script.appends.push_back(make_edit(rng, options.qubits));
    }
    pool.push_back(std::move(script));
  }
  return pool;
}

std::string small_fabric_text() {
  qspr::QualeFabricParams params;
  params.junction_rows = 7;
  params.junction_cols = 12;
  return qspr::render_fabric(qspr::make_quale_fabric(params));
}

std::vector<BenchJob> all_expected_jobs() {
  std::vector<BenchJob> jobs = paper_jobs();
  for (const BatchSlot& slot : batch_slots()) {
    for (const PoolProgram& program : slot.variants) {
      jobs.push_back(
          make_job(program.id, program.qasm, slot.fabric, slot.options));
    }
  }
  for (const PoolProgram& program : serve_fresh_pool()) {
    jobs.push_back(
        make_job(program.id, program.qasm, kPaperFabric, mc_options()));
  }
  for (const SessionScript& script : serve_session_pool()) {
    for (std::size_t edits = 0; edits <= script.appends.size(); ++edits) {
      jobs.push_back(make_job(script.step_id(edits), script.qasm_after(edits),
                              kPaperFabric, mc_options()));
    }
  }
  return jobs;
}

}  // namespace mapbench

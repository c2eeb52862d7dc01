#include "service/corpus.hpp"

#include "common/rng.hpp"
#include "qecc/codes.hpp"
#include "qecc/random_circuit.hpp"

namespace qspr {

std::vector<Program> make_batch_corpus() {
  // Mixed sizes on purpose: large members interleave with small ones on the
  // shared executor instead of serialising the batch.
  std::vector<Program> corpus;
  corpus.push_back(make_encoder(QeccCode::Q5_1_3));
  corpus.push_back(make_encoder(QeccCode::Q7_1_3));
  corpus.push_back(make_encoder(QeccCode::Q9_1_3));
  corpus.push_back(make_encoder(QeccCode::Q14_8_3));
  Rng rng(7);
  Program random_small = make_random_circuit({8, 40, 0.7}, rng);
  random_small.set_name("random_8q_40g");
  corpus.push_back(std::move(random_small));
  Program random_large = make_random_circuit({12, 60, 0.7}, rng);
  random_large.set_name("random_12q_60g");
  corpus.push_back(std::move(random_large));
  return corpus;
}

const std::vector<BrokenQasm>& broken_qasm_corpus() {
  // Every entry must fail with a clean Error — the parser-robustness tests
  // assert exactly that, and the CI batch smoke feeds the first entry
  // through qspr_batch to check per-job fault isolation.
  static const std::vector<BrokenQasm> corpus = {
      {"broken", "unknown gate mnemonic",
       "QUBIT q0,0\nQUBIT q1,0\nH q0\nFROB q1 # no such gate\n"},
      {"truncated_mid_instruction", "file ends inside an instruction",
       "QUBIT q0,0\nQUBIT q1,0\nH q0\nC-X"},
      {"truncated_operand_list", "2-qubit gate missing its second operand",
       "QUBIT q0\nQUBIT q1\nC-X q0,"},
      {"oversized_init_value", "init value overflows long long",
       "QUBIT q0,99999999999999999999999999\nH q0\n"},
      {"init_value_not_bit", "init value outside {0,1}",
       "QUBIT q0,7\n"},
      {"duplicate_register", "same qubit name declared twice",
       "QUBIT data,0\nQUBIT data,1\nH data\n"},
      {"undeclared_operand", "gate references a qubit never declared",
       "QUBIT q0\nC-X q0,ghost\n"},
      {"identical_operands", "2-qubit gate with control == target",
       "QUBIT q0\nC-X q0,q0\n"},
      {"empty_operand", "empty field in the operand list",
       "QUBIT q0\nQUBIT q1\nC-X q0,,q1\n"},
      {"declaration_arity", "QUBIT with too many fields",
       "QUBIT q0,0,1\n"},
      {"whitespace_only_name", "QUBIT whose name trims to nothing",
       "QUBIT  \t ,0\n"},
      {"crlf_unknown_gate", "CRLF line endings around a bogus mnemonic",
       "QUBIT q0,0\r\nQUBIT q1,0\r\nH q0\r\nBOGUS q1\r\n"},
  };
  return corpus;
}

}  // namespace qspr

// Unit tests for the QASM parser and writer (the dialect of paper Fig. 3).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "mutants.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"
#include "qecc/codes.hpp"
#include "service/corpus.hpp"

namespace qspr {
namespace {

// The paper's Fig. 3 program, verbatim.
constexpr const char* kFigure3Qasm = R"(
QUBIT q0,0
QUBIT q1,0
QUBIT q2,0
QUBIT q3
QUBIT q4,0
H q0
H q1
H q2
H q4
C-X q3,q2
C-Z q4,q2
C-Y q2,q1
C-Y q3,q1
C-X q4,q1
C-Z q2,q0
C-Y q3,q0
C-Z q4,q0
)";

TEST(QasmParser, ParsesFigure3) {
  const Program program = parse_qasm(kFigure3Qasm, "[[5,1,3]]");
  EXPECT_EQ(program.qubit_count(), 5u);
  EXPECT_EQ(program.instruction_count(), 12u);
  EXPECT_EQ(program.one_qubit_gate_count(), 4u);
  EXPECT_EQ(program.two_qubit_gate_count(), 8u);
  EXPECT_EQ(program.qubit(program.find_qubit("q3")).init_value, std::nullopt);
  EXPECT_EQ(program.qubit(program.find_qubit("q0")).init_value, 0);

  const Instruction& first_cx = program.instructions()[4];
  EXPECT_EQ(first_cx.kind, GateKind::CX);
  EXPECT_EQ(program.qubit(first_cx.control).name, "q3");
  EXPECT_EQ(program.qubit(first_cx.target).name, "q2");
}

TEST(QasmParser, MnemonicAliasesAndCase) {
  const Program program = parse_qasm(
      "QUBIT a\nQUBIT b\ncnot a,b\nCX b,a\nc-x a,b\ncz a,b\nMEASZ a\nm b\n");
  EXPECT_EQ(program.instruction_count(), 6u);
  EXPECT_EQ(program.instructions()[0].kind, GateKind::CX);
  EXPECT_EQ(program.instructions()[1].kind, GateKind::CX);
  EXPECT_EQ(program.instructions()[2].kind, GateKind::CX);
  EXPECT_EQ(program.instructions()[3].kind, GateKind::CZ);
  EXPECT_EQ(program.instructions()[4].kind, GateKind::Measure);
  EXPECT_EQ(program.instructions()[5].kind, GateKind::Measure);
}

TEST(QasmParser, AllOneQubitGates) {
  const Program program = parse_qasm(
      "QUBIT q\nH q\nX q\nY q\nZ q\nS q\nSDG q\nT q\nTDG q\n");
  ASSERT_EQ(program.instruction_count(), 8u);
  EXPECT_EQ(program.instructions()[5].kind, GateKind::Sdg);
  EXPECT_EQ(program.instructions()[7].kind, GateKind::Tdg);
}

TEST(QasmParser, CommentsAndWhitespace) {
  const Program program = parse_qasm(
      "# full-line comment\n"
      "QUBIT q0,0   # trailing comment\n"
      "QUBIT q1,0 // C++-style comment\n"
      "\n"
      "   H   q0  \n"
      "C-X q0 , q1\n");
  EXPECT_EQ(program.qubit_count(), 2u);
  EXPECT_EQ(program.instruction_count(), 2u);
}

TEST(QasmParser, ErrorsCarryLineNumbers) {
  try {
    parse_qasm("QUBIT q0\nBOGUS q0\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("BOGUS"), std::string::npos);
  }
}

TEST(QasmParser, RejectsUndeclaredQubit) {
  EXPECT_THROW(parse_qasm("QUBIT a\nH ghost\n"), ParseError);
  EXPECT_THROW(parse_qasm("QUBIT a\nQUBIT b\nC-X a,ghost\n"), ParseError);
}

TEST(QasmParser, RejectsMalformedDeclarations) {
  EXPECT_THROW(parse_qasm("QUBIT\n"), ParseError);
  EXPECT_THROW(parse_qasm("QUBIT a,5\n"), ParseError);
  EXPECT_THROW(parse_qasm("QUBIT a,zero\n"), ParseError);
  EXPECT_THROW(parse_qasm("QUBIT a\nQUBIT a\n"), ParseError);
  EXPECT_THROW(parse_qasm("QUBIT a,0,1\n"), ParseError);
}

TEST(QasmParser, RejectsWrongOperandCounts) {
  EXPECT_THROW(parse_qasm("QUBIT a\nQUBIT b\nH a,b\n"), ParseError);
  EXPECT_THROW(parse_qasm("QUBIT a\nC-X a\n"), ParseError);
  EXPECT_THROW(parse_qasm("QUBIT a\nC-X a,a\n"), ParseError);
  EXPECT_THROW(parse_qasm("QUBIT a\nQUBIT b\nC-X a,,b\n"), ParseError);
}

TEST(QasmParser, GateFromMnemonic) {
  EXPECT_EQ(gate_from_mnemonic("h"), GateKind::H);
  EXPECT_EQ(gate_from_mnemonic("C-Y"), GateKind::CY);
  EXPECT_EQ(gate_from_mnemonic("swap"), GateKind::Swap);
  EXPECT_EQ(gate_from_mnemonic("nonsense"), std::nullopt);
}

TEST(QasmWriter, RoundTripsFigure3) {
  const Program original = parse_qasm(kFigure3Qasm, "[[5,1,3]]");
  const Program reparsed = parse_qasm(write_qasm(original), "[[5,1,3]]");
  ASSERT_EQ(reparsed.qubit_count(), original.qubit_count());
  ASSERT_EQ(reparsed.instruction_count(), original.instruction_count());
  for (std::size_t i = 0; i < original.instruction_count(); ++i) {
    const Instruction& a = original.instructions()[i];
    const Instruction& b = reparsed.instructions()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.control, b.control);
    EXPECT_EQ(a.target, b.target);
  }
  for (std::size_t q = 0; q < original.qubit_count(); ++q) {
    const QubitId id = QubitId::from_index(q);
    EXPECT_EQ(original.qubit(id).name, reparsed.qubit(id).name);
    EXPECT_EQ(original.qubit(id).init_value, reparsed.qubit(id).init_value);
  }
}

TEST(QasmWriter, RoundTripsAllPaperBenchmarks) {
  for (const PaperNumbers& bench : paper_benchmarks()) {
    const Program original = make_encoder(bench.code);
    const Program reparsed = parse_qasm(write_qasm(original));
    ASSERT_EQ(reparsed.instruction_count(), original.instruction_count())
        << code_name(bench.code);
    for (std::size_t i = 0; i < original.instruction_count(); ++i) {
      EXPECT_EQ(reparsed.instructions()[i].kind,
                original.instructions()[i].kind);
      EXPECT_EQ(reparsed.instructions()[i].control,
                original.instructions()[i].control);
      EXPECT_EQ(reparsed.instructions()[i].target,
                original.instructions()[i].target);
    }
  }
}

TEST(QasmFile, WriteAndParseFile) {
  const std::string path = ::testing::TempDir() + "qspr_roundtrip.qasm";
  const Program original = make_encoder(QeccCode::Q5_1_3);
  write_qasm_file(original, path);
  const Program reparsed = parse_qasm_file(path);
  EXPECT_EQ(reparsed.qubit_count(), original.qubit_count());
  EXPECT_EQ(reparsed.instruction_count(), original.instruction_count());
  EXPECT_EQ(reparsed.name(), "qspr_roundtrip");
  std::remove(path.c_str());
}

TEST(QasmFile, MissingFileThrows) {
  EXPECT_THROW(parse_qasm_file("/nonexistent/file.qasm"), Error);
}

TEST(QasmParser, EmptyProgramIsValid) {
  const Program program = parse_qasm("");
  EXPECT_EQ(program.qubit_count(), 0u);
  EXPECT_EQ(program.instruction_count(), 0u);
}

// ---------------------------------------------------------------------------
// Fuzz-ish robustness: every broken input fails with a clean Error
// ---------------------------------------------------------------------------

TEST(QasmRobustness, BrokenCorpusAlwaysFailsCleanly) {
  // The shared broken-file corpus (service/corpus.cpp) — also what the CI
  // batch fault-isolation smoke feeds qspr_batch. Each member must raise a
  // clean Error: never crash, never silently parse.
  for (const BrokenQasm& broken : broken_qasm_corpus()) {
    EXPECT_THROW(parse_qasm(broken.text, broken.name), Error)
        << broken.name << ": " << broken.reason;
  }
}

TEST(QasmRobustness, TruncationAtEveryPrefixNeverCrashes) {
  // Chop a valid program at every byte offset: each prefix must either
  // parse (clean cut) or throw a clean Error — nothing else.
  const std::string text(kFigure3Qasm);
  int parsed = 0;
  int rejected = 0;
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    try {
      (void)parse_qasm(text.substr(0, cut), "prefix");
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(QasmRobustness, OversizedQubitInitValues) {
  // Overflowing init values must be parse errors with the offending line,
  // not uncaught integer errors (and never UB).
  try {
    parse_qasm("QUBIT a,0\nQUBIT b,184467440737095516150\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
  EXPECT_THROW(parse_qasm("QUBIT a,99999999999999999999999999999\n"),
               ParseError);
  // In-range but non-bit values keep their original diagnostic.
  EXPECT_THROW(parse_qasm("QUBIT a,2\n"), ParseError);
  EXPECT_THROW(parse_qasm("QUBIT a,-1\n"), ParseError);
}

TEST(QasmRobustness, DuplicateRegisterNamesRejectedCaseSensitively) {
  EXPECT_THROW(parse_qasm("QUBIT data\nQUBIT data\n"), ParseError);
  // Distinct case is a distinct register — must parse.
  const Program program = parse_qasm("QUBIT data\nQUBIT DATA\nH data\n");
  EXPECT_EQ(program.qubit_count(), 2u);
}

TEST(QasmRobustness, CrlfAndWhitespaceTortureParses) {
  // CRLF endings, tab soup, trailing blanks, comment-only lines and a
  // blank-padded final line must all parse to the same program.
  const Program program = parse_qasm(
      "\r\n"
      "QUBIT\tq0 , 0   \r\n"
      "  QUBIT q1,1\t\t# trailing comment\r\n"
      "\t\r\n"
      "H\tq0\r\n"
      "C-X\t q0 ,\tq1 \r\n"
      "   // comment only\r\n"
      "   ");
  EXPECT_EQ(program.qubit_count(), 2u);
  EXPECT_EQ(program.instruction_count(), 2u);
  EXPECT_EQ(program.qubit(program.find_qubit("q1")).init_value, 1);
}

TEST(QasmRobustness, WhitespaceOnlyAndCommentOnlyFilesAreEmptyPrograms) {
  for (const char* text : {"   ", "\r\n\r\n", "# nothing\n// here\n", "\t"}) {
    const Program program = parse_qasm(text);
    EXPECT_EQ(program.instruction_count(), 0u) << '"' << text << '"';
  }
}

TEST(QasmRobustness, SeededMutantsParseOrThrowError) {
  // Byte-level mutants of a paper encoder and of every broken-corpus member
  // parse or throw a qspr::Error, which serve reports as bad_request. A
  // mutant that parses survives a write/parse round trip unchanged.
  std::vector<std::string> seeds = {write_qasm(make_encoder(QeccCode::Q7_1_3))};
  for (const BrokenQasm& broken : broken_qasm_corpus()) {
    seeds.push_back(broken.text);
  }
  expect_parse_or_throw<Error>(
      make_mutants(seeds, 150, 2012), [](const std::string& text) {
        const std::string written = write_qasm(parse_qasm(text, "mutant"));
        EXPECT_EQ(write_qasm(parse_qasm(written, "mutant")), written) << text;
      });
}

}  // namespace
}  // namespace qspr

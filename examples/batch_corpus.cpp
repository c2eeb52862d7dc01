// batch_corpus — writes the mixed-size QASM corpus the batch-mapping docs
// and CI's batch smoke drive qspr_batch with.
//
//   example_batch_corpus <output-dir> [--broken]
//
// Emits the calibrated QECC encoder benchmarks (5..14 qubits) plus two
// deterministic random circuits, one file per program, and prints the file
// list. --broken also writes broken.qasm (a syntactically invalid program)
// to exercise the batch service's per-job fault isolation: qspr_batch over
// the directory must fail exactly that record and exit non-zero while every
// other program still maps.
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/qspr.hpp"
#include "service/corpus.hpp"

using namespace qspr;

namespace {

/// Filesystem-safe stem from a program name: "[[5,1,3]]" -> "q5_1_3".
std::string file_stem(const std::string& name) {
  std::string stem;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      stem += c;
    } else if (!stem.empty() && stem.back() != '_') {
      stem += '_';
    }
  }
  while (!stem.empty() && stem.back() == '_') stem.pop_back();
  if (stem.empty()) stem = "program";
  if (std::isdigit(static_cast<unsigned char>(stem.front()))) {
    stem.insert(stem.begin(), 'q');
  }
  return stem;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string out_dir;
    bool broken = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--broken") {
        broken = true;
      } else if (!arg.empty() && arg[0] != '-') {
        out_dir = arg;
      } else {
        std::cerr << "usage: " << argv[0] << " <output-dir> [--broken]\n";
        return 2;
      }
    }
    if (out_dir.empty()) {
      std::cerr << "usage: " << argv[0] << " <output-dir> [--broken]\n";
      return 2;
    }
    std::filesystem::create_directories(out_dir);
    // The corpus is defined once, in src/service/corpus.cpp.
    for (const Program& program : make_batch_corpus()) {
      const std::string path =
          out_dir + "/" + file_stem(program.name()) + ".qasm";
      write_qasm_file(program, path);
      std::cout << path << "\n";
    }

    if (broken) {
      // First member of the shared broken-file corpus (service/corpus.cpp),
      // the same inputs the parser-robustness tests assert fail cleanly.
      const BrokenQasm& sample = broken_qasm_corpus().front();
      const std::string path = out_dir + "/" + sample.name + ".qasm";
      std::ofstream file(path);
      file << sample.text;
      std::cout << path << "  # " << sample.reason << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

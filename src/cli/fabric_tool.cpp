// fabric_tool — generate, inspect and validate ion-trap fabric drawings.
//
//   fabric_tool --generate                 # the paper's 45x85 fabric
//   fabric_tool --generate --junctions 6x8 --pitch 4 > small.fabric
//   fabric_tool --inspect small.fabric
#include <iostream>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "fabric/quale_fabric.hpp"
#include "fabric/text_io.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " --generate [--junctions RxC] [--pitch N]\n"
            << "       " << argv0 << " --inspect <file>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bool generate = false;
    std::string inspect_path;
    qspr::QualeFabricParams params;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw qspr::Error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--generate") {
        generate = true;
      } else if (arg == "--junctions") {
        const std::string value = next();
        const auto parts = qspr::split(value, 'x');
        if (parts.size() != 2) throw qspr::Error("expected RxC, e.g. 12x22");
        params.junction_rows = qspr::parse_int_flag(arg, parts[0], 2);
        params.junction_cols = qspr::parse_int_flag(arg, parts[1], 2);
      } else if (arg == "--pitch") {
        params.pitch = qspr::parse_int_flag(arg, next(), 2);
      } else if (arg == "--inspect") {
        inspect_path = next();
      } else {
        return usage(argv[0]);
      }
    }

    if (generate) {
      const qspr::Fabric fabric = qspr::make_quale_fabric(params);
      std::cerr << qspr::describe_fabric(fabric) << "\n";
      std::cout << qspr::render_fabric(fabric);
      return 0;
    }
    if (!inspect_path.empty()) {
      const qspr::Fabric fabric = qspr::parse_fabric_file(inspect_path);
      std::cout << qspr::describe_fabric(fabric) << "\n";
      return 0;
    }
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

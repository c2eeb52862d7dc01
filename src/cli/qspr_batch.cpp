// qspr_batch — multi-program batch mapping front end over the shared
// MappingEngine / BatchMapper service.
//
//   qspr_batch corpus_dir/ --jobs 4                  # every *.qasm in a dir
//   qspr_batch manifest.txt --fabric drawing.txt     # one QASM path per line
//   qspr_batch a.qasm b.qasm c.qasm --placer mc --m 25 --output out.jsonl
//
// All programs map against one fabric (default: the paper's 45x85 QUALE
// fabric) with one set of mapping options; per-fabric routing artifacts are
// built once and shared const across jobs, and placement trials from
// different programs interleave on the shared workers. Results stream as
// JSON-lines in manifest order (one record per program, then one summary
// line). A malformed or infeasible program fails only its own record; the
// exit status is non-zero iff at least one job failed (2 for usage/setup
// errors).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "core/qspr.hpp"
#include "service/batch_mapper.hpp"

namespace {

using namespace qspr;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " <dir | manifest.txt | file.qasm ...> [options]\n"
      << "  inputs             a directory (maps every *.qasm in it, sorted),\n"
      << "                     .qasm files, and/or manifest files listing one\n"
      << "                     QASM path per line (# starts a comment;\n"
      << "                     relative paths resolve against the manifest).\n"
      << "                     A manifest line may carry a second field — a\n"
      << "                     per-record fabric: `circ.qasm ring.txt` maps\n"
      << "                     that record onto ring.txt, `circ.qasm paper`\n"
      << "                     onto the built-in fabric; records without one\n"
      << "                     use --fabric. Distinct fabrics build routing\n"
      << "                     artifacts once each (shared cache).\n"
      << "  --jobs <n>         shared worker threads for placement trials\n"
      << "                     (default: hardware concurrency; per-program\n"
      << "                     results are identical at any value)\n"
      << "  --report           attach the PathFinder negotiation diagnostic\n"
      << "                     to every record (a `negotiation` JSONL object\n"
      << "                     per mapped program)\n"
      << "  --heuristic-weight <w>\n"
      << "                     bounded-suboptimal negotiated search: paths\n"
      << "                     may cost up to w x optimal (default 1.0 =\n"
      << "                     exact search)\n"
      << "  --mapper <m>       qspr (default) | quale | qpos | baseline\n"
      << "  --placer <p>       mvfb (default) | mc | center\n"
      << "  --m <n>            MVFB seeds / MC trials per program (default "
         "100)\n"
      << "  --seed <n>         RNG seed used by every job (default 1)\n"
      << "  --fabric <file>    fabric drawing to map onto (default: 45x85 "
         "QUALE fabric)\n"
      << "  --output <file>    write the JSONL records there instead of "
         "stdout\n"
      << "  --max-in-flight <n> jobs staged concurrently (default: 2x jobs)\n"
      << "  --quiet            suppress the human summary on stderr\n"
      << "exit status: 0 all jobs mapped, 1 at least one job failed, 2 "
         "usage/setup error\n";
  return 2;
}

/// One expanded manifest entry: the QASM path plus an optional per-record
/// fabric spec ("" = use the batch default).
struct ManifestEntry {
  std::string qasm;
  std::string fabric;
};

/// Expands one CLI input: directory -> sorted *.qasm members; *.qasm file
/// -> itself; anything else -> manifest listing `qasm_path [fabric]` per
/// line, where fabric is "paper" or a drawing path (relative paths — both
/// QASM and fabric — resolve against the manifest's directory).
std::vector<ManifestEntry> expand_input(const std::string& input) {
  namespace fs = std::filesystem;
  std::vector<ManifestEntry> entries;
  const fs::path path(input);
  if (fs::is_directory(path)) {
    for (const fs::directory_entry& entry : fs::directory_iterator(path)) {
      if (entry.is_regular_file() && entry.path().extension() == ".qasm") {
        entries.push_back({entry.path().string(), ""});
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const ManifestEntry& a, const ManifestEntry& b) {
                return a.qasm < b.qasm;
              });
    if (entries.empty()) {
      throw Error("directory has no .qasm files: " + input);
    }
    return entries;
  }
  if (path.extension() == ".qasm") {
    entries.push_back({input, ""});
    return entries;
  }
  std::ifstream manifest(input);
  if (!manifest) throw Error("cannot read manifest: " + input);
  const auto resolve = [&](std::string_view listed) {
    fs::path resolved{std::string(listed)};
    if (resolved.is_relative()) resolved = path.parent_path() / resolved;
    return resolved.string();
  };
  std::string line;
  while (std::getline(manifest, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string_view> fields = split_whitespace(trim(line));
    if (fields.empty()) continue;
    if (fields.size() > 2) {
      throw Error("manifest line has more than two fields: " + line);
    }
    ManifestEntry entry;
    entry.qasm = resolve(fields[0]);
    if (fields.size() == 2) {
      // "paper" is a symbolic spec, not a path; leave it unresolved.
      entry.fabric =
          fields[1] == "paper" ? std::string(fields[1]) : resolve(fields[1]);
    }
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) throw Error("manifest lists no programs: " + input);
  return entries;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> inputs;
    MapperOptions map_options;
    BatchOptions batch_options;
    int jobs = Executor::default_worker_count();
    std::optional<Fabric> fabric;
    std::string output;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw Error("missing value for " + arg);
        return argv[++i];
      };
      if (apply_mapper_flag(arg, next, map_options)) continue;
      if (arg == "--jobs") {
        jobs = parse_int_flag(arg, next(), 1);
      } else if (arg == "--report") {
        map_options.negotiation_report = true;
      } else if (arg == "--heuristic-weight") {
        const double weight = parse_real(next());
        if (weight < 1.0) {
          throw Error("--heuristic-weight must be >= 1 (1.0 is exact)");
        }
        map_options.route_heuristic_weight = weight;
      } else if (arg == "--fabric") {
        fabric = parse_fabric_file(next());
      } else if (arg == "--output") {
        output = next();
      } else if (arg == "--max-in-flight") {
        batch_options.max_in_flight = parse_int_flag(arg, next(), 1);
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--help" || arg == "-h") {
        return usage(argv[0]);
      } else if (!arg.empty() && arg[0] != '-') {
        inputs.push_back(arg);
      } else {
        std::cerr << "unknown option: " << arg << "\n";
        return usage(argv[0]);
      }
    }
    if (inputs.empty()) return usage(argv[0]);

    if (!fabric.has_value()) fabric = make_paper_fabric();
    std::vector<BatchJob> manifest;
    for (const std::string& input : inputs) {
      for (ManifestEntry& entry : expand_input(input)) {
        BatchJob job;
        job.name = std::filesystem::path(entry.qasm).stem().string();
        job.qasm_path = std::move(entry.qasm);
        job.fabric = &*fabric;
        job.fabric_spec = std::move(entry.fabric);
        job.options = map_options;
        manifest.push_back(std::move(job));
      }
    }

    std::ofstream output_file;
    if (!output.empty()) {
      output_file.open(output);
      if (!output_file) throw Error("cannot write output file: " + output);
    }
    std::ostream& out = output.empty() ? std::cout : output_file;

    MappingEngine engine(jobs);
    BatchMapper batch(engine, batch_options);
    const BatchResult result =
        batch.run(manifest, [&](const BatchJobRecord& record) {
          out << batch_record_json(record) << "\n";
          out.flush();
          if (!quiet && !record.ok) {
            std::cerr << "job failed: " << record.name << ": " << record.error
                      << "\n";
          }
        });
    out << batch_summary_json(result.summary) << "\n";

    if (!quiet) {
      const BatchSummary& s = result.summary;
      std::cerr << "mapped " << s.succeeded << "/" << s.jobs << " programs ("
                << s.failed << " failed) in " << format_fixed(s.wall_ms, 1)
                << " ms on " << s.workers << " workers ("
                << format_fixed(s.programs_per_sec, 2) << " programs/sec, "
                << s.artifact_builds << " fabric artifact build"
                << (s.artifact_builds == 1 ? "" : "s") << ", "
                << s.artifact_hits << " cache hit"
                << (s.artifact_hits == 1 ? "" : "s") << ")\n";
    }
    return result.summary.failed > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

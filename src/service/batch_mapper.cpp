#include "service/batch_mapper.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "qasm/parser.hpp"

namespace qspr {

BatchMapper::BatchMapper(MappingEngine& engine, BatchOptions options)
    : engine_(&engine), options_(options) {
  require(options_.max_in_flight >= 0,
          "batch max_in_flight must be non-negative");
}

BatchResult BatchMapper::run(const std::vector<BatchJob>& manifest,
                             const RecordSink& sink) {
  const Stopwatch watch;
  const FabricArtifactCache::Stats cache_before =
      engine_->artifacts().stats();

  BatchResult batch;
  batch.records.resize(manifest.size());

  /// One staged job: the parsed program it owns (when loaded from disk) and
  /// its in-flight trials.
  struct InFlight {
    std::size_t index = 0;
    std::unique_ptr<Program> owned_program;
    std::shared_ptr<const Fabric> owned_fabric;
    MappingEngine::PendingMap pending;
  };
  std::deque<InFlight> in_flight;
  const std::size_t cap = static_cast<std::size_t>(
      options_.max_in_flight > 0 ? options_.max_in_flight
                                 : std::max(2, 2 * engine_->worker_count()));

  /// One QASM parse submitted ahead of the staging cursor as a 1-index
  /// executor job, so disk + parse work overlaps in-flight trials instead of
  /// serialising on the coordinator thread. Heap-held: the job body writes
  /// `program` through a stable pointer. Errors are captured by the executor
  /// and rethrow at the staging wait, landing in that record like any other
  /// staging failure.
  struct PendingParse {
    std::size_t index = 0;
    Executor::Job job;
    std::unique_ptr<Program> program;
  };
  std::deque<std::unique_ptr<PendingParse>> parses;
  std::size_t next_parse = 0;
  const auto top_up_parses = [&] {
    // Same in-flight window as the trial pipeline: at most `cap` parsed
    // programs live ahead of the cursor, so lookahead cannot balloon memory
    // on a long manifest.
    while (next_parse < manifest.size() && parses.size() < cap) {
      const BatchJob& ahead = manifest[next_parse];
      if (ahead.program == nullptr && !ahead.qasm_path.empty()) {
        auto parse = std::make_unique<PendingParse>();
        parse->index = next_parse;
        PendingParse* p = parse.get();
        parse->job = engine_->executor().submit(
            1, [p, path = ahead.qasm_path](std::size_t, int) {
              p->program = std::make_unique<Program>(parse_qasm_file(path));
            });
        parses.push_back(std::move(parse));
      }
      ++next_parse;
    }
  };

  const auto finalize_front = [&] {
    InFlight entry = std::move(in_flight.front());
    in_flight.pop_front();
    BatchJobRecord& record = batch.records[entry.index];
    try {
      record.result = engine_->finish(std::move(entry.pending));
      record.ok = true;
      ++batch.summary.succeeded;
      batch.summary.trial_cpu_ms += record.result.trial_cpu_ms;
    } catch (const std::exception& e) {
      record.ok = false;
      record.error = e.what();
      ++batch.summary.failed;
    }
    if (sink) sink(record);
  };

  for (std::size_t i = 0; i < manifest.size(); ++i) {
    const BatchJob& job = manifest[i];
    BatchJobRecord& record = batch.records[i];
    record.name = job.name;

    // Launch lookahead parses before blocking on the oldest job, then keep
    // the pipeline bounded: finalize the oldest job first. Records
    // therefore stream strictly in manifest order.
    top_up_parses();
    while (in_flight.size() >= cap) finalize_front();

    InFlight entry;
    entry.index = i;
    try {
      const Program* program = job.program;
      if (program == nullptr) {
        require(!job.qasm_path.empty(),
                "batch job needs a program or a qasm_path");
        if (!parses.empty() && parses.front()->index == i) {
          auto parse = std::move(parses.front());
          parses.pop_front();
          engine_->executor().wait(parse->job);  // rethrows parse failures
          entry.owned_program = std::move(parse->program);
        } else {
          entry.owned_program =
              std::make_unique<Program>(parse_qasm_file(job.qasm_path));
        }
        program = entry.owned_program.get();
      }
      const Fabric* fabric = job.fabric;
      if (!job.fabric_spec.empty()) {
        record.fabric = job.fabric_spec;
        entry.owned_fabric = fabrics_.get(job.fabric_spec);
        fabric = entry.owned_fabric.get();
      }
      require(fabric != nullptr, "batch job needs a fabric");
      record.qubits = program->qubit_count();
      record.instructions = program->instruction_count();
      if (record.name.empty()) record.name = program->name();

      MapJob map_job;
      map_job.program = program;
      map_job.fabric = fabric;
      map_job.options = job.options;
      map_job.name = record.name;
      entry.pending = engine_->begin(map_job);
      in_flight.push_back(std::move(entry));
    } catch (const std::exception& e) {
      // Staging failures (unreadable/malformed QASM, bad manifest entry,
      // infeasible setup) fail only this record.
      record.ok = false;
      record.error = e.what();
      ++batch.summary.failed;
      if (sink) sink(record);
    }
  }
  // Every parse entry is normally consumed by its manifest index; drain any
  // stragglers so no job body outlives the state it writes into.
  for (auto& parse : parses) {
    try {
      engine_->executor().wait(parse->job);
    } catch (...) {  // NOLINT(bugprone-empty-catch) — already reported or moot
    }
  }
  while (!in_flight.empty()) finalize_front();

  batch.summary.jobs = static_cast<int>(manifest.size());
  batch.summary.workers = engine_->worker_count();
  batch.summary.wall_ms = watch.elapsed_ms();
  batch.summary.programs_per_sec =
      batch.summary.wall_ms > 0.0
          ? static_cast<double>(batch.summary.jobs) * 1000.0 /
                batch.summary.wall_ms
          : 0.0;
  const FabricArtifactCache::Stats cache_after = engine_->artifacts().stats();
  batch.summary.artifact_builds = cache_after.builds - cache_before.builds;
  batch.summary.artifact_hits = cache_after.hits - cache_before.hits;
  return batch;
}

std::string batch_record_json(const BatchJobRecord& record) {
  JsonWriter json;
  json.begin_object();
  json.field("name", record.name);
  if (!record.fabric.empty()) json.field("fabric", record.fabric);
  json.field("ok", record.ok);
  if (!record.ok) {
    json.field("error", record.error);
  }
  json.field("qubits", record.qubits);
  json.field("instructions", record.instructions);
  if (record.ok) {
    const MapResult& result = record.result;
    json.field("mapper", to_string(result.kind));
    json.field("latency_us", static_cast<long long>(result.latency));
    json.field("ideal_latency_us",
               static_cast<long long>(result.ideal_latency));
    json.field("routing_us",
               static_cast<long long>(result.stats.total_routing));
    json.field("congestion_us",
               static_cast<long long>(result.stats.total_congestion));
    json.field("moves", result.stats.moves);
    json.field("turns", result.stats.turns);
    json.field("placement_runs", result.placement_runs);
    json.field("wall_ms", result.cpu_ms);
    json.field("trial_cpu_ms", result.trial_cpu_ms);
    json.field("setup_ms", result.setup_ms);
    json.field("nodes_settled", result.stats.nodes_settled);
    if (result.negotiation.has_value()) {
      // Per-job PathFinder negotiation diagnostic (negotiation_report /
      // qspr_batch --report).
      const NegotiationDiagnostics& n = *result.negotiation;
      json.key("negotiation").begin_object();
      json.field("nets", n.nets);
      json.field("iterations", n.iterations_used);
      json.field("converged", n.converged);
      json.field("overused_resources", n.overused_resources);
      json.field("max_overuse", n.max_overuse);
      json.field("total_excess", n.total_excess);
      json.field("min_feasible_excess", n.min_feasible_excess);
      json.field("searches", n.searches_performed);
      json.field("batch_delay_us", static_cast<long long>(n.total_delay));
      json.field("heuristic_weight", n.heuristic_weight);
      json.field("nodes_settled", n.nodes_settled);
      json.end_object();
    }
  }
  json.end_object();
  return json.str();
}

std::string batch_summary_json(const BatchSummary& summary) {
  JsonWriter json;
  json.begin_object();
  json.field("summary", true);
  json.field("jobs", summary.jobs);
  json.field("succeeded", summary.succeeded);
  json.field("failed", summary.failed);
  json.field("workers", summary.workers);
  json.field("wall_ms", summary.wall_ms);
  json.field("programs_per_sec", summary.programs_per_sec);
  json.field("trial_cpu_ms", summary.trial_cpu_ms);
  json.field("artifact_builds", summary.artifact_builds);
  json.field("artifact_hits", summary.artifact_hits);
  json.end_object();
  return json.str();
}

}  // namespace qspr

// Outside-in layer trace: the benchmark's own step-by-step replica of
// MappingEngine::map, with a span around each call into a layer's public
// functions, plus a replay of the winning solution through the simulator,
// the router and the negotiated PathFinder.
//
// Spans carry a name, start, end, parent and the id of the map they belong
// to; they stay in memory and are written out once, at the end of the run.
// A span's self time is its duration minus the time its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/dependency_graph.hpp"
#include "common/executor.hpp"
#include "core/artifact_cache.hpp"
#include "core/mapper.hpp"
#include "corpus.hpp"

namespace mapbench {

struct Span {
  const char* name = "";
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::uint64_t map_id = 0;
};

/// Single-threaded span store; times are milliseconds since construction.
class SpanLog {
 public:
  SpanLog();

  /// Opens a span; close it with close(). Returns its index.
  int open(const char* name, std::uint64_t map_id, int parent = -1);
  /// Closes the span and returns its duration in milliseconds.
  double close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Total and self milliseconds per span name.
  struct Totals {
    double total_ms = 0.0;
    double self_ms = 0.0;
    long long count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Writes {"spans":[...], "totals":{...}} to `path`.
  void write_json(const std::string& path) const;

 private:
  double now_ms() const;
  std::int64_t origin_ns_ = 0;
  std::vector<Span> spans_;
};

/// Per-layer measurements of one replicated map and its replay.
struct LayerSample {
  double parse_ms = 0.0;
  double qidg_ms = 0.0;
  double rank_ms = 0.0;
  double artifacts_ms = 0.0;
  double trials_ms = 0.0;
  double trial_cpu_ms = 0.0;
  int placement_runs = 0;
  double pipeline_ms = 0.0;  // parse .. placer, the replica's map time

  double sim_run_ms = 0.0;
  long long sim_moves = 0;
  long long sim_busy_enqueues = 0;
  long long sim_nodes_settled = 0;
  long long route_queries = 0;
  double route_query_ms = 0.0;  // summed over the replayed queries

  double negotiate_ms = 0.0;
  int negotiate_iterations = 0;
  long long negotiate_searches = 0;
  long long negotiate_nodes_settled = 0;
  bool negotiate_converged = false;
  long long negotiate_total_delay = 0;

  double validate_ms = 0.0;
  std::vector<std::string> trace_violations;
};

/// Result of the replica: the MapResult fields map_result_fingerprint reads
/// (latency, ideal latency, placement runs, placements, trace).
struct ReplicaResult {
  qspr::MapResult result;
  LayerSample sample;
};

/// Maps `job` step by step — parse_qasm, DependencyGraph::build,
/// make_schedule_rank, FabricArtifactCache::get, then the placer entry point
/// on `executor` — opening one span per step under a "map" root, then
/// replays the winner ("replay" root: EventSimulator::run,
/// Router::route_trap_to_trap per relocation, route_nets_negotiated with the
/// engine's options, validate_trace).
ReplicaResult replicate_map(const BenchJob& job, const qspr::Fabric& fabric,
                            qspr::FabricArtifactCache& cache,
                            qspr::Executor& executor, SpanLog& log,
                            std::uint64_t map_id);

/// Empty when the replica agrees with MappingEngine::map bit for bit
/// (latency, fingerprint, placement runs and — when the engine ran the
/// negotiation diagnostic — its counters); otherwise what differs.
std::string replica_mismatch(const ReplicaResult& replica,
                             const qspr::MapResult& engine_result);

}  // namespace mapbench

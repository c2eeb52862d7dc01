// The batch mapping service's contracts:
//
//   * batch output is bit-identical to a sequential map_program loop over
//     the same manifest, at any engine worker count (the per-job
//     determinism of PR 2 composed across jobs);
//   * per-fabric artifacts are built once per *distinct* fabric layout and
//     cache-hit paths produce results identical to cold builds;
//   * a malformed or infeasible job fails only its own record — never the
//     process, never its neighbours;
//   * JSONL records round-trip through the shared JSON reader.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/engine.hpp"
#include "core/mapper.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/codes.hpp"
#include "qecc/random_circuit.hpp"
#include "service/batch_mapper.hpp"

namespace qspr {
namespace {

std::vector<Program> mixed_corpus() {
  std::vector<Program> corpus;
  corpus.push_back(make_encoder(QeccCode::Q5_1_3));
  corpus.push_back(make_encoder(QeccCode::Q7_1_3));
  Rng rng(3);
  Program random = make_random_circuit({6, 24, 0.7}, rng);
  random.set_name("random_6q");
  corpus.push_back(std::move(random));
  return corpus;
}

MapperOptions monte_carlo_options() {
  MapperOptions options;
  options.placer = PlacerKind::MonteCarlo;
  options.monte_carlo_trials = 8;
  options.rng_seed = 5;
  return options;
}

MapperOptions mvfb_options() {
  MapperOptions options;
  options.placer = PlacerKind::Mvfb;
  options.mvfb_seeds = 4;
  options.rng_seed = 17;
  return options;
}

std::vector<BatchJob> manifest_for(const std::vector<Program>& corpus,
                                   const Fabric& fabric,
                                   const MapperOptions& options) {
  std::vector<BatchJob> manifest;
  for (const Program& program : corpus) {
    BatchJob job;
    job.name = program.name();
    job.program = &program;
    job.fabric = &fabric;
    job.options = options;
    manifest.push_back(job);
  }
  return manifest;
}

void expect_same_mapping(const MapResult& expected, const MapResult& actual,
                         const std::string& label) {
  EXPECT_EQ(expected.latency, actual.latency) << label;
  EXPECT_EQ(expected.placement_runs, actual.placement_runs) << label;
  EXPECT_EQ(expected.initial_placement, actual.initial_placement) << label;
  EXPECT_EQ(expected.final_placement, actual.final_placement) << label;
  EXPECT_EQ(expected.trace.to_string(), actual.trace.to_string()) << label;
}

// ---------------------------------------------------------------------------
// Determinism: batch == sequential loop, at every worker count
// ---------------------------------------------------------------------------

class BatchDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(BatchDeterminism, MonteCarloBatchMatchesSequentialLoop) {
  const std::vector<Program> corpus = mixed_corpus();
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const MapperOptions options = monte_carlo_options();

  std::vector<MapResult> sequential;
  for (const Program& program : corpus) {
    sequential.push_back(map_program(program, fabric, options));
  }

  MappingEngine engine(GetParam());
  BatchMapper batch(engine);
  const BatchResult result =
      batch.run(manifest_for(corpus, fabric, options));
  ASSERT_EQ(result.records.size(), corpus.size());
  EXPECT_EQ(result.summary.failed, 0);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_TRUE(result.records[i].ok) << result.records[i].error;
    expect_same_mapping(sequential[i], result.records[i].result,
                        corpus[i].name() + " @ " +
                            std::to_string(GetParam()) + " workers");
  }
}

TEST_P(BatchDeterminism, MvfbBatchMatchesSequentialLoop) {
  const std::vector<Program> corpus = mixed_corpus();
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const MapperOptions options = mvfb_options();

  std::vector<MapResult> sequential;
  for (const Program& program : corpus) {
    sequential.push_back(map_program(program, fabric, options));
  }

  MappingEngine engine(GetParam());
  BatchMapper batch(engine);
  const BatchResult result =
      batch.run(manifest_for(corpus, fabric, options));
  ASSERT_EQ(result.records.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_TRUE(result.records[i].ok) << result.records[i].error;
    expect_same_mapping(sequential[i], result.records[i].result,
                        corpus[i].name() + " @ " +
                            std::to_string(GetParam()) + " workers");
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, BatchDeterminism,
                         ::testing::Values(1, 4));

// Records stream in manifest order regardless of scheduling.
TEST(BatchMapper, StreamsRecordsInManifestOrder) {
  const std::vector<Program> corpus = mixed_corpus();
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MappingEngine engine(4);
  BatchMapper batch(engine);
  std::vector<std::string> seen;
  batch.run(manifest_for(corpus, fabric, monte_carlo_options()),
            [&](const BatchJobRecord& record) { seen.push_back(record.name); });
  ASSERT_EQ(seen.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(seen[i], corpus[i].name());
  }
}

// ---------------------------------------------------------------------------
// Fault isolation
// ---------------------------------------------------------------------------

TEST(BatchMapper, MalformedAndInfeasibleJobsFailOnlyTheirRecords) {
  const std::vector<Program> corpus = mixed_corpus();
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const MapperOptions options = monte_carlo_options();

  // Oversized program: more qubits than the fabric has traps.
  Program oversized("oversized");
  for (int q = 0; q < 200; ++q) {
    oversized.add_qubit("q" + std::to_string(q), 0);
  }

  std::vector<BatchJob> manifest =
      manifest_for(corpus, fabric, options);
  BatchJob unreadable;
  unreadable.name = "unreadable";
  unreadable.qasm_path = "/nonexistent/missing.qasm";
  unreadable.fabric = &fabric;
  unreadable.options = options;
  manifest.insert(manifest.begin() + 1, unreadable);
  BatchJob infeasible;
  infeasible.name = "infeasible";
  infeasible.program = &oversized;
  infeasible.fabric = &fabric;
  infeasible.options = options;
  manifest.insert(manifest.begin() + 3, infeasible);

  MappingEngine engine(4);
  BatchMapper batch(engine);
  const BatchResult result = batch.run(manifest);

  ASSERT_EQ(result.records.size(), corpus.size() + 2);
  EXPECT_EQ(result.summary.failed, 2);
  EXPECT_EQ(result.summary.succeeded, static_cast<int>(corpus.size()));

  EXPECT_FALSE(result.records[1].ok);
  EXPECT_FALSE(result.records[1].error.empty());
  EXPECT_FALSE(result.records[3].ok);
  EXPECT_FALSE(result.records[3].error.empty());

  // The healthy neighbours still map, bit-identical to solo runs.
  const MapResult solo0 = map_program(corpus[0], fabric, options);
  ASSERT_TRUE(result.records[0].ok);
  expect_same_mapping(solo0, result.records[0].result, "neighbour 0");
  const MapResult solo1 = map_program(corpus[1], fabric, options);
  ASSERT_TRUE(result.records[2].ok);
  expect_same_mapping(solo1, result.records[2].result, "neighbour 1");
}

// ---------------------------------------------------------------------------
// Fabric artifact cache
// ---------------------------------------------------------------------------

TEST(FabricArtifactCache, BuildsOncePerDistinctFabricLayout) {
  const std::vector<Program> corpus = mixed_corpus();
  const Fabric fabric_a1 = make_quale_fabric({4, 4, 4});
  const Fabric fabric_a2 = make_quale_fabric({4, 4, 4});  // same layout
  const Fabric fabric_b = make_quale_fabric({6, 11, 4});

  MappingEngine engine(2);
  const MapperOptions options = monte_carlo_options();
  engine.map(corpus[0], fabric_a1, options);
  engine.map(corpus[1], fabric_a2, options);  // distinct object, same layout
  engine.map(corpus[2], fabric_a1, options);
  EXPECT_EQ(engine.artifacts().stats().builds, 1);
  EXPECT_EQ(engine.artifacts().stats().hits, 2);
  EXPECT_EQ(engine.artifacts().size(), 1u);

  engine.map(corpus[0], fabric_b, options);
  EXPECT_EQ(engine.artifacts().stats().builds, 2);
  EXPECT_EQ(engine.artifacts().size(), 2u);
}

TEST(FabricArtifactCache, WarmHitsMatchColdBuilds) {
  const std::vector<Program> corpus = mixed_corpus();
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const MapperOptions options = mvfb_options();

  MappingEngine engine(2);
  const MapResult cold = engine.map(corpus[1], fabric, options);
  ASSERT_EQ(engine.artifacts().stats().builds, 1);
  const MapResult warm = engine.map(corpus[1], fabric, options);
  EXPECT_EQ(engine.artifacts().stats().builds, 1);
  EXPECT_GE(engine.artifacts().stats().hits, 1);
  expect_same_mapping(cold, warm, "cold vs warm artifacts");

  // And both match the engine-free reference path.
  const MapResult reference = map_program(corpus[1], fabric, options);
  expect_same_mapping(reference, cold, "reference vs cold");
}

TEST(FabricArtifactCache, FingerprintSeparatesLayouts) {
  const Fabric a = make_quale_fabric({4, 4, 4});
  const Fabric b = make_quale_fabric({6, 11, 4});
  EXPECT_EQ(fabric_fingerprint(a),
            fabric_fingerprint(make_quale_fabric({4, 4, 4})));
  EXPECT_NE(fabric_fingerprint(a), fabric_fingerprint(b));

  const FabricArtifacts artifacts(a);
  EXPECT_EQ(artifacts.traps_near_center.size(), a.trap_count());
  EXPECT_EQ(artifacts.graph.node_count(),
            RoutingGraph(a).node_count());
}

// ---------------------------------------------------------------------------
// JSONL output round-trips through the shared JSON reader
// ---------------------------------------------------------------------------

TEST(BatchJsonl, RecordAndSummaryRoundTrip) {
  const std::vector<Program> corpus = mixed_corpus();
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MappingEngine engine(2);
  BatchMapper batch(engine);
  const BatchResult result =
      batch.run(manifest_for(corpus, fabric, monte_carlo_options()));

  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const BatchJobRecord& record = result.records[i];
    const JsonValue parsed = parse_json(batch_record_json(record));
    EXPECT_EQ(parsed.string_or("name", ""), record.name);
    EXPECT_EQ(parsed.bool_or("ok", false), record.ok);
    EXPECT_EQ(parsed.number_or("latency_us", -1),
              static_cast<double>(record.result.latency));
    EXPECT_EQ(parsed.number_or("qubits", -1),
              static_cast<double>(record.qubits));
  }
  const JsonValue summary = parse_json(batch_summary_json(result.summary));
  EXPECT_EQ(summary.number_or("jobs", -1), result.summary.jobs);
  EXPECT_EQ(summary.number_or("failed", -1), 0);
  EXPECT_EQ(summary.number_or("artifact_builds", -1), 1);
}

TEST(JsonReader, ParsesScalarsContainersAndRejectsGarbage) {
  const JsonValue value = parse_json(
      R"({"name":"x","ok":true,"n":-12.5e1,"list":[1,2,3],"nested":{"k":null}})");
  EXPECT_EQ(value.string_or("name", ""), "x");
  EXPECT_TRUE(value.bool_or("ok", false));
  EXPECT_EQ(value.number_or("n", 0), -125.0);
  ASSERT_NE(value.find("list"), nullptr);
  EXPECT_EQ(value.find("list")->items().size(), 3u);
  EXPECT_TRUE(value.find("nested")->find("k")->is_null());
  EXPECT_EQ(value.find("absent"), nullptr);

  EXPECT_THROW(parse_json("{"), ParseError);
  EXPECT_THROW(parse_json(R"({"a":1} trailing)"), ParseError);
  EXPECT_THROW(parse_json(R"({"a":tru})"), ParseError);
}

// Error diagnostics can carry arbitrary input bytes (e.g. a binary file
// misnamed .qasm) into JSONL records: control characters must survive a
// write -> parse round trip as valid JSON.
TEST(JsonReader, ControlCharactersRoundTripThroughWriter) {
  const std::string nasty = std::string("ctrl\x01\x02\n\ttail");
  JsonWriter writer;
  writer.begin_object().field("error", nasty).end_object();
  const JsonValue parsed = parse_json(writer.str());
  EXPECT_EQ(parsed.string_or("error", ""), nasty);
}

// Hardening for network-facing input (the serve codec parses attacker-
// controlled frames with this reader): truncated constructs must fail as
// clean ParseErrors, never hangs or crashes.
TEST(JsonReader, RejectsUnterminatedStringsAndContainersCleanly) {
  EXPECT_THROW(parse_json(R"({"key":"never closed)"), ParseError);
  EXPECT_THROW(parse_json(R"({"key":"escape at end\)"), ParseError);
  EXPECT_THROW(parse_json(R"(["a","b")"), ParseError);
  EXPECT_THROW(parse_json(R"({"a":{"b":1})"), ParseError);
  EXPECT_THROW(parse_json("\""), ParseError);
  EXPECT_THROW(parse_json(""), ParseError);
}

// Nesting depth is bounded: the parser recurses per container, so without
// a cap a frame of 100k brackets is a stack overflow, not a ParseError.
TEST(JsonReader, DeepNestingFailsAtTheLimitNotTheStack) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') + "1" +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  JsonLimits limits;
  limits.max_depth = 16;
  EXPECT_NO_THROW(parse_json(nested(16), limits));
  EXPECT_THROW(parse_json(nested(17), limits), ParseError);
  // The default limit still bounds a hostile frame of 100k brackets.
  EXPECT_THROW(parse_json(std::string(100'000, '[')), ParseError);
}

// The byte budget rejects oversized documents in O(1), before parsing.
TEST(JsonReader, ByteBudgetRejectsOversizedDocumentsUpFront) {
  JsonLimits limits;
  limits.max_bytes = 32;
  EXPECT_NO_THROW(parse_json(R"({"ok":true})", limits));
  EXPECT_THROW(
      parse_json(R"({"pad":"0123456789012345678901234567890123456789"})",
                 limits),
      ParseError);
  // max_bytes = 0 means unlimited (the library default).
  EXPECT_NO_THROW(parse_json(
      R"({"pad":"0123456789012345678901234567890123456789"})"));
}

}  // namespace
}  // namespace qspr

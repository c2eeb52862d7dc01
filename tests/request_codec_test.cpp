// Wire-codec regressions for qspr_serve's newline-delimited JSON protocol.
// The FrameReader CRLF cases and the "m"/"seed" range cases are regression
// tests: each failed before its fix (CR counted against the frame cap; m=0
// rejected instead of meaning "server default"; a fractional m truncated to
// a different trial count, 0.5 to a map that could only fail; seeds above
// 2^53 silently rounded by the double-typed JSON reader).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "fabric/quale_fabric.hpp"
#include "mutants.hpp"
#include "qecc/codes.hpp"
#include "service/request_codec.hpp"
#include "service/result_cache.hpp"

namespace qspr {
namespace {

TEST(FrameReaderTest, SplitsFramesAndKeepsPartialTail) {
  FrameReader reader(64);
  std::vector<std::string> frames;
  EXPECT_TRUE(reader.feed("one\ntwo\nthr", frames));
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "one");
  EXPECT_EQ(frames[1], "two");
  EXPECT_EQ(reader.partial_bytes(), 3u);
  EXPECT_TRUE(reader.feed("ee\n", frames));
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[2], "three");
}

TEST(FrameReaderTest, CrlfFrameAtExactlyTheCapIsAccepted) {
  // The cap bounds the logical frame; the CR of a CRLF client is framing,
  // not payload. Pre-fix, the CR was counted and a cap-sized frame from a
  // CRLF client overflowed the connection.
  const std::size_t cap = 16;
  FrameReader reader(cap);
  std::vector<std::string> frames;
  const std::string payload(cap, 'x');
  EXPECT_TRUE(reader.feed(payload + "\r\n", frames));
  EXPECT_FALSE(reader.overflowed());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], payload);
}

TEST(FrameReaderTest, SplitCrlfAtTheCapIsAccepted) {
  // Same case, but the CR arrives in one read and the LF in the next — the
  // unterminated tail must not count the pending CR against the cap either.
  const std::size_t cap = 16;
  FrameReader reader(cap);
  std::vector<std::string> frames;
  const std::string payload(cap, 'x');
  EXPECT_TRUE(reader.feed(payload + "\r", frames));
  EXPECT_FALSE(reader.overflowed());
  EXPECT_TRUE(frames.empty());
  EXPECT_TRUE(reader.feed("\n", frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], payload);
}

TEST(FrameReaderTest, OverCapFrameOverflowsPermanently) {
  const std::size_t cap = 16;
  FrameReader reader(cap);
  std::vector<std::string> frames;
  const std::string payload(cap + 1, 'x');
  EXPECT_FALSE(reader.feed(payload + "\n", frames));
  EXPECT_TRUE(reader.overflowed());
  EXPECT_TRUE(frames.empty());
  // Permanently: even a well-formed follow-up frame is refused.
  EXPECT_FALSE(reader.feed("ok\n", frames));
}

TEST(FrameReaderTest, CrInsideThePayloadStillCounts) {
  // Only the single CR immediately before the LF is framing; an interior CR
  // is payload and counts toward the cap.
  const std::size_t cap = 4;
  FrameReader reader(cap);
  std::vector<std::string> frames;
  EXPECT_TRUE(reader.feed("ab\rc\n", frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], "ab\rc");
  FrameReader strict(3);
  EXPECT_FALSE(strict.feed("ab\rc\n", frames));
  EXPECT_TRUE(strict.overflowed());
}

class ParseRequestTest : public ::testing::Test {
 protected:
  ServeRequest parse(const std::string& frame) {
    return parse_serve_request(frame, limits_, defaults_);
  }

  CodecLimits limits_;
  MapperOptions defaults_;
};

TEST_F(ParseRequestTest, MZeroMeansServerDefault) {
  // "m": 0 must behave exactly like an absent "m" (the documented
  // semantics); pre-fix it was rejected as out of range.
  defaults_.monte_carlo_trials = 7;
  defaults_.mvfb_seeds = 9;
  const ServeRequest request =
      parse(R"({"type":"map","id":"r1","qasm":"qubit q0;","m":0})");
  EXPECT_EQ(request.options.monte_carlo_trials, 7);
  EXPECT_EQ(request.options.mvfb_seeds, 9);

  const ServeRequest positive =
      parse(R"({"type":"map","id":"r2","qasm":"qubit q0;","m":5})");
  EXPECT_EQ(positive.options.monte_carlo_trials, 5);
  EXPECT_EQ(positive.options.mvfb_seeds, 5);
}

TEST_F(ParseRequestTest, NegativeMIsRejected) {
  for (const char* m : {"-1", "0.5", "2.7"}) {
    const std::string frame =
        std::string(R"({"type":"map","id":"r1","qasm":"q","m":)") + m + "}";
    EXPECT_THROW(parse(frame), Error) << "m = " << m;
  }
}

TEST_F(ParseRequestTest, OldClientLandmarksFieldIsIgnored) {
  // Older clients may still send the removed "landmarks" and
  // "heuristic_weight" knobs; like every other unknown field, they change
  // nothing, whatever their value.
  const ServeRequest plain =
      parse(R"({"type":"map","id":"r1","qasm":"q","m":3,"seed":2})");
  const ServeRequest with_landmarks = parse(
      R"({"type":"map","id":"r1","qasm":"q","m":3,"seed":2,"landmarks":4})");
  EXPECT_EQ(mapper_options_fingerprint(with_landmarks.options),
            mapper_options_fingerprint(plain.options));
  EXPECT_NO_THROW(parse(
      R"({"type":"map","id":"r1","qasm":"q","landmarks":"bogus"})"));

  defaults_.route_heuristic_weight = 1.25;
  const ServeRequest with_weight = parse(
      R"({"type":"map","id":"r1","qasm":"q","heuristic_weight":0.5})");
  EXPECT_EQ(with_weight.options.route_heuristic_weight, 1.25);
}

TEST_F(ParseRequestTest, SeedRoundTripsUpTo2To53AndClampsAbove) {
  // 2^53 is the largest integer the double-typed JSON reader represents
  // exactly; larger seeds clamp there instead of silently rounding.
  const ServeRequest exact = parse(
      R"({"type":"map","id":"r1","qasm":"q","seed":9007199254740992})");
  EXPECT_EQ(exact.options.rng_seed, 9007199254740992ULL);

  const ServeRequest above = parse(
      R"({"type":"map","id":"r2","qasm":"q","seed":10000000000000000})");
  EXPECT_EQ(above.options.rng_seed, 9007199254740992ULL);

  const ServeRequest small =
      parse(R"({"type":"map","id":"r3","qasm":"q","seed":42})");
  EXPECT_EQ(small.options.rng_seed, 42ULL);
}

TEST_F(ParseRequestTest, SessionFramesParse) {
  const ServeRequest open =
      parse(R"({"type":"session_open","id":"o1","fabric":"paper"})");
  EXPECT_EQ(open.kind, RequestKind::SessionOpen);
  EXPECT_EQ(open.fabric, "paper");

  const ServeRequest in_session = parse(
      R"({"type":"map","id":"r1","session":"s1","qasm_append":"cnot q0, q1;"})");
  EXPECT_EQ(in_session.kind, RequestKind::Map);
  EXPECT_EQ(in_session.session, "s1");
  EXPECT_EQ(in_session.qasm_append, "cnot q0, q1;");
  EXPECT_TRUE(in_session.qasm.empty());

  const ServeRequest close =
      parse(R"({"type":"session_close","id":"c1","session":"s1"})");
  EXPECT_EQ(close.kind, RequestKind::SessionClose);
  EXPECT_EQ(close.session, "s1");
}

/// A valid stateless map frame.
constexpr const char* kMapFrame =
    R"({"type":"map","id":"r1","fabric":"paper","placer":"mc","m":8,)"
    R"("seed":1,"deadline_ms":5000,)"
    R"("qasm":"QUBIT q0,0\nQUBIT q1\nH q0\nC-X q0,q1\nMEASURE q1\n"})";

TEST(FrameReaderTest, SeededMapFrameMutantsFrameAndParseOrThrow) {
  // Map-frame mutants, one per line, read in chunks of 1 to 64 bytes frame
  // as the whole stream read at once does; each frame parses or throws a
  // std::exception, which serve answers with bad_request.
  const CodecLimits limits;
  ASSERT_EQ(parse_serve_request(kMapFrame, limits, {}).kind, RequestKind::Map);
  std::string stream;
  for (const std::string& mutant : make_mutants({kMapFrame}, 600, 2012)) {
    stream += mutant + '\n';
  }
  std::vector<std::string> whole;
  ASSERT_TRUE(FrameReader(limits.max_frame_bytes).feed(stream, whole));
  FrameReader reader(limits.max_frame_bytes);
  std::vector<std::string> frames;
  Rng rng(2012);
  for (std::size_t at = 0; at < stream.size();) {
    const std::size_t chunk = 1 + rng.uniform_index(64);
    ASSERT_TRUE(
        reader.feed(std::string_view(stream).substr(at, chunk), frames));
    at += chunk;
  }
  EXPECT_EQ(reader.partial_bytes(), 0u);
  EXPECT_EQ(frames, whole);
  expect_parse_or_throw<std::exception>(
      frames, [&limits](const std::string& frame) {
        (void)parse_serve_request(frame, limits, {});
      });
}

/// The fingerprint as first defined: FNV-1a over the contractual integers,
/// then over the bytes of the rendered Trace::to_string().
std::string fingerprint_of_rendered_trace(const MapResult& result) {
  Fnv1a hash;
  const auto mix = [&hash](long long v) {
    hash.u64(static_cast<std::uint64_t>(v));
  };
  const auto mix_placement = [&mix](const Placement& placement) {
    mix(static_cast<long long>(placement.qubit_count()));
    for (std::size_t q = 0; q < placement.qubit_count(); ++q) {
      mix(placement.trap_of(QubitId::from_index(q)).value());
    }
  };
  mix(result.latency);
  mix(result.ideal_latency);
  mix(result.placement_runs);
  mix_placement(result.initial_placement);
  mix_placement(result.final_placement);
  hash.bytes(result.trace.to_string());
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash.value()));
  return hex;
}

TEST(ResultFingerprintTest, StreamedTraceHashesTheBytesOfItsText) {
  // The baseline mapper models no movement: an empty trace.
  MapperOptions baseline;
  baseline.kind = MapperKind::IdealBaseline;
  const MapResult empty = map_program(make_encoder(QeccCode::Q5_1_3),
                                      make_paper_fabric(), baseline);
  ASSERT_EQ(empty.trace.size(), 0u);
  EXPECT_EQ(map_result_fingerprint(empty),
            fingerprint_of_rendered_trace(empty));

  // One op of each kind, with multi-digit fields.
  MapResult built;
  built.latency = 1234;
  built.ideal_latency = 56;
  built.placement_runs = 3;
  built.initial_placement = Placement(2);
  built.initial_placement.set(QubitId(0), TrapId(17));
  built.initial_placement.set(QubitId(1), TrapId(4));
  built.final_placement = built.initial_placement;
  built.trace.add({MicroOpKind::Move, InstructionId(7), QubitId(12),
                   {10, 3}, {10, 140}, 0, 11});
  built.trace.add({MicroOpKind::Turn, InstructionId(7), QubitId(12),
                   {10, 140}, {10, 140}, 11, 21});
  built.trace.add({MicroOpKind::Gate, InstructionId(305), QubitId(),
                   {9, 140}, {9, 140}, 21, 1031});
  ASSERT_EQ(built.trace.to_string(),
            "[0,11] move  q12 (10,3) -> (10,140)\n"
            "[11,21] turn  q12 at (10,140)\n"
            "[21,1031] gate  #305 at (9,140)\n");
  EXPECT_EQ(map_result_fingerprint(built),
            fingerprint_of_rendered_trace(built));
}

}  // namespace
}  // namespace qspr

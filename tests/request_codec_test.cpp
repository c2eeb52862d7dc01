// Wire-codec regressions for qspr_serve's newline-delimited JSON protocol.
// The FrameReader CRLF cases and the "m"/"seed" range cases are regression
// tests: each failed before its fix (CR counted against the frame cap; m=0
// rejected instead of meaning "server default"; a fractional m truncated to
// a different trial count, 0.5 to a map that could only fail; seeds above
// 2^53 silently rounded by the double-typed JSON reader).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
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

TEST_F(ParseRequestTest, HeuristicWeightAppliesInsideItsRange) {
  defaults_.route_heuristic_weight = 1.25;
  EXPECT_EQ(parse(R"({"type":"map","id":"r1","qasm":"q"})")
                .options.route_heuristic_weight,
            1.25);
  const std::string head =
      R"({"type":"map","id":"r1","qasm":"q","heuristic_weight":)";
  for (const double weight : {1.0, 1.5, 16.0}) {
    EXPECT_EQ(parse(head + std::to_string(weight) + "}")
                  .options.route_heuristic_weight,
              weight);
  }
  for (const char* weight : {"0.5", "0.999", "16.5", "\"1.5\""}) {
    EXPECT_THROW(parse(head + weight + "}"), Error)
        << "heuristic_weight = " << weight;
  }
}

TEST_F(ParseRequestTest, OldClientLandmarksFieldIsIgnored) {
  // Older clients may still send the removed "landmarks" knob; like every
  // other unknown field, it changes nothing.
  const ServeRequest plain =
      parse(R"({"type":"map","id":"r1","qasm":"q","m":3,"seed":2})");
  const ServeRequest with_landmarks = parse(
      R"({"type":"map","id":"r1","qasm":"q","m":3,"seed":2,"landmarks":4})");
  EXPECT_EQ(mapper_options_fingerprint(with_landmarks.options),
            mapper_options_fingerprint(plain.options));
  EXPECT_NO_THROW(parse(
      R"({"type":"map","id":"r1","qasm":"q","landmarks":"bogus"})"));
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

}  // namespace
}  // namespace qspr

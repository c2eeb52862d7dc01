// Unit tests for the common substrate: ids, FNV-1a, geometry, strings,
// table, stats, rng, technology parameters.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string_view>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/geometry.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

namespace qspr {
namespace {

TEST(Ids, DefaultConstructedIsInvalid) {
  QubitId id;
  EXPECT_FALSE(id.is_valid());
  EXPECT_EQ(id, QubitId::invalid());
}

TEST(Ids, FromIndexRoundTrips) {
  const TrapId id = TrapId::from_index(42);
  EXPECT_TRUE(id.is_valid());
  EXPECT_EQ(id.value(), 42);
  EXPECT_EQ(id.index(), 42u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(QubitId(1), QubitId(2));
  EXPECT_EQ(QubitId(3), QubitId(3));
  EXPECT_NE(QubitId(3), QubitId(4));
}

TEST(Ids, StreamingPrintsValueOrInvalid) {
  std::ostringstream os;
  os << QubitId(7) << ' ' << QubitId::invalid();
  EXPECT_EQ(os.str(), "7 <invalid>");
}

TEST(Ids, HashDistinguishesValues) {
  std::set<std::size_t> hashes;
  for (int i = 0; i < 100; ++i) {
    hashes.insert(std::hash<SegmentId>()(SegmentId(i)));
  }
  EXPECT_EQ(hashes.size(), 100u);
}

TEST(Fnv1a, OffsetBasisIsTheStandardOneWithoutItsLastDigit) {
  // The fingerprint basis every recorded result_fp and shard routing key
  // derives from; see common/fnv.hpp.
  EXPECT_EQ(Fnv1a::kOffsetBasis, 14695981039346656037ULL / 10);
  EXPECT_EQ(Fnv1a::kOffsetBasis, 0x14650fb0739d0383ULL);
  EXPECT_EQ(Fnv1a::kPrime, 0x100000001b3ULL);
}

TEST(Fnv1a, MatchesRecordedVectors) {
  EXPECT_EQ(Fnv1a().value(), 0x14650fb0739d0383ULL);
  EXPECT_EQ(Fnv1a().bytes("").value(), 0x14650fb0739d0383ULL);
  EXPECT_EQ(Fnv1a().bytes("a").value(), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(Fnv1a().bytes("paper").value(), 0x1862053476e6d74fULL);
  static_assert(Fnv1a().bytes("paper").value() == 0x1862053476e6d74fULL);
}

TEST(Fnv1a, ByteBytesAndU64Agree) {
  EXPECT_EQ(Fnv1a().byte('a').value(), Fnv1a().bytes("a").value());
  // u64 feeds the eight bytes least significant first.
  EXPECT_EQ(Fnv1a().u64(0x0807060504030201ULL).value(),
            Fnv1a().bytes("\x01\x02\x03\x04\x05\x06\x07\x08").value());
  const std::string_view zeros("\0\0\0\0\0\0\0\0", 8);
  EXPECT_EQ(Fnv1a().u64(0).value(), Fnv1a().bytes(zeros).value());
}

TEST(Geometry, StepMovesOneCell) {
  const Position p{3, 4};
  EXPECT_EQ(step(p, Direction::North), (Position{2, 4}));
  EXPECT_EQ(step(p, Direction::South), (Position{4, 4}));
  EXPECT_EQ(step(p, Direction::East), (Position{3, 5}));
  EXPECT_EQ(step(p, Direction::West), (Position{3, 3}));
}

TEST(Geometry, OppositeAndAxis) {
  EXPECT_EQ(opposite(Direction::North), Direction::South);
  EXPECT_EQ(opposite(Direction::East), Direction::West);
  EXPECT_EQ(axis_of(Direction::East), Orientation::Horizontal);
  EXPECT_EQ(axis_of(Direction::North), Orientation::Vertical);
  EXPECT_EQ(perpendicular(Orientation::Horizontal), Orientation::Vertical);
}

TEST(Geometry, ManhattanDistance) {
  EXPECT_EQ(manhattan_distance({0, 0}, {3, 4}), 7);
  EXPECT_EQ(manhattan_distance({2, 2}, {2, 2}), 0);
  EXPECT_TRUE(are_adjacent({1, 1}, {1, 2}));
  EXPECT_FALSE(are_adjacent({1, 1}, {2, 2}));
}

TEST(Geometry, DirectionBetweenAdjacentCells) {
  EXPECT_EQ(direction_between({5, 5}, {4, 5}), Direction::North);
  EXPECT_EQ(direction_between({5, 5}, {5, 6}), Direction::East);
  EXPECT_THROW(direction_between({0, 0}, {2, 2}), Error);
}

TEST(Geometry, RoundTripStepDirection) {
  const Position origin{10, 10};
  for (const Direction d : kAllDirections) {
    const Position moved = step(origin, d);
    EXPECT_EQ(direction_between(origin, moved), d);
    EXPECT_EQ(step(moved, opposite(d)), origin);
  }
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto fields = split("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  const auto fields = split_whitespace("  one\t two  three ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "one");
  EXPECT_EQ(fields[2], "three");
}

TEST(Strings, ParseInteger) {
  EXPECT_EQ(parse_integer("42"), 42);
  EXPECT_EQ(parse_integer("-17"), -17);
  EXPECT_THROW(parse_integer("4x2"), Error);
  EXPECT_THROW(parse_integer(""), Error);
  EXPECT_TRUE(is_integer("123"));
  EXPECT_TRUE(is_integer("-5"));
  EXPECT_FALSE(is_integer("12.5"));
  EXPECT_FALSE(is_integer("abc"));
}

TEST(Strings, ParseIntFlagChecksTheRangeBeforeNarrowing) {
  EXPECT_EQ(parse_int_flag("--m", "7", 1), 7);
  EXPECT_EQ(parse_int_flag("--port", "65535", 0, 65535), 65535);
  // 2^31 would narrow to INT_MIN and 2^32 + 1 to 1: both out of range.
  EXPECT_THROW(parse_int_flag("--m", "2147483648", 1), Error);
  EXPECT_THROW(parse_int_flag("--m", "4294967297", 1), Error);
  EXPECT_THROW(parse_int_flag("--jobs", "-1", 1), Error);
  EXPECT_THROW(parse_int_flag("--port", "65536", 0, 65535), Error);
  EXPECT_THROW(parse_int_flag("--m", "4x2", 1), Error);
  try {
    parse_int_flag("--jobs", "4294967297", 1);
    FAIL() << "expected an out-of-range error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "--jobs must be in [1, 2147483647]");
  }
}

TEST(Strings, ParseRealAcceptsOnlyFiniteNumbers) {
  EXPECT_DOUBLE_EQ(parse_real("1.5"), 1.5);
  EXPECT_THROW(parse_real("1.5x"), Error);
  // std::from_chars parses these spellings; a flag value must not be one.
  for (const char* text : {"inf", "-inf", "Infinity", "nan"}) {
    EXPECT_THROW(parse_real(text), Error) << text;
  }
}

TEST(Strings, JoinAndUpper) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(to_upper("c-x q1,q2"), "C-X Q1,Q2");
}

TEST(Table, AlignsColumns) {
  TextTable table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "22"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| name   | value |"), std::string::npos);
  EXPECT_NE(text.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_percent(25.0, 100.0), "25.0%");
  EXPECT_EQ(format_percent(1.0, 0.0), "n/a");
}

TEST(Stats, WelfordMoments) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(x);
  }
  EXPECT_EQ(stats.count(), 8);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 1e-3);
}

TEST(Stats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int x = rng.uniform_int(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
  }
  EXPECT_THROW(rng.uniform_int(5, 4), Error);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(99);
  Rng child = parent.fork();
  // Child stream differs from the parent's continued stream.
  bool any_different = false;
  for (int i = 0; i < 16; ++i) {
    if (parent.next() != child.next()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_TRUE(std::is_permutation(values.begin(), values.end(),
                                  shuffled.begin()));
}

TEST(TechnologyParams, DefaultsMatchPaper) {
  const TechnologyParams params;
  EXPECT_EQ(params.t_move, 1);
  EXPECT_EQ(params.t_turn, 10);
  EXPECT_EQ(params.t_gate_1q, 10);
  EXPECT_EQ(params.t_gate_2q, 100);
  EXPECT_EQ(params.channel_capacity, 2);
  EXPECT_NO_THROW(params.validate());
}

TEST(TechnologyParams, ValidationRejectsNonPhysical) {
  TechnologyParams params;
  params.t_move = 0;
  EXPECT_THROW(params.validate(), ValidationError);
  params = {};
  params.channel_capacity = 0;
  EXPECT_THROW(params.validate(), ValidationError);
  params = {};
  params.trap_capacity = 1;
  EXPECT_THROW(params.validate(), ValidationError);
}

}  // namespace
}  // namespace qspr

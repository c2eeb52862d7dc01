// Unit tests for the ion-trap fabric model, the QUALE fabric generator
// (Fig. 4) and the fabric text I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "fabric/fabric.hpp"
#include "fabric/quale_fabric.hpp"
#include "fabric/text_io.hpp"
#include "mutants.hpp"

namespace qspr {
namespace {

TEST(QualeFabric, PaperFabricDimensions) {
  const Fabric fabric = make_paper_fabric();
  // Fig. 4: a 45x85 fabric with a 12x22 junction lattice at pitch 4.
  EXPECT_EQ(fabric.rows(), 45);
  EXPECT_EQ(fabric.cols(), 85);
  EXPECT_EQ(fabric.junction_count(), 12u * 22u);
  // Segments: 12 rows x 21 horizontal + 22 cols x 11 vertical.
  EXPECT_EQ(fabric.segment_count(), 12u * 21u + 22u * 11u);
  // Traps: 4 per tile, 11x21 tiles.
  EXPECT_EQ(fabric.trap_count(), 4u * 11u * 21u);
}

TEST(QualeFabric, ChannelsHaveUniformLength) {
  const Fabric fabric = make_paper_fabric();
  for (const ChannelSegment& segment : fabric.segments()) {
    EXPECT_EQ(segment.length(), 3);
    // Every segment of the lattice ends in junctions on both sides.
    EXPECT_TRUE(segment.junction_before.is_valid());
    EXPECT_TRUE(segment.junction_after.is_valid());
  }
}

TEST(QualeFabric, TrapsHaveTwoPorts) {
  const Fabric fabric = make_paper_fabric();
  for (const Trap& trap : fabric.traps()) {
    // Tile-corner traps touch one horizontal and one vertical channel.
    ASSERT_EQ(trap.ports.size(), 2u);
    const Orientation a = axis_of(trap.ports[0].direction_from_trap);
    const Orientation b = axis_of(trap.ports[1].direction_from_trap);
    EXPECT_NE(a, b);
    for (const TrapPort& port : trap.ports) {
      EXPECT_EQ(fabric.cell(port.channel_cell), CellType::Channel);
      EXPECT_TRUE(are_adjacent(trap.position, port.channel_cell));
    }
  }
}

TEST(QualeFabric, SmallLatticeAndPitchTwo) {
  const Fabric small = make_quale_fabric({2, 2, 4});
  EXPECT_EQ(small.rows(), 5);
  EXPECT_EQ(small.cols(), 5);
  EXPECT_EQ(small.junction_count(), 4u);
  EXPECT_EQ(small.trap_count(), 4u);

  const Fabric dense = make_quale_fabric({3, 3, 2});
  EXPECT_EQ(dense.rows(), 5);
  EXPECT_EQ(dense.trap_count(), 4u);  // one trap per tile at pitch 2
  for (const Trap& trap : dense.traps()) {
    EXPECT_EQ(trap.ports.size(), 4u);  // surrounded by channels
  }
}

TEST(QualeFabric, RejectsBadParameters) {
  EXPECT_THROW(make_quale_fabric({1, 5, 4}), ValidationError);
  EXPECT_THROW(make_quale_fabric({5, 1, 4}), ValidationError);
  EXPECT_THROW(make_quale_fabric({3, 3, 1}), ValidationError);
}

TEST(Fabric, CellLookups) {
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  EXPECT_EQ(fabric.cell({0, 0}), CellType::Junction);
  EXPECT_EQ(fabric.cell({0, 1}), CellType::Channel);
  EXPECT_EQ(fabric.cell({1, 1}), CellType::Trap);
  EXPECT_EQ(fabric.cell({2, 2}), CellType::Empty);
  EXPECT_EQ(fabric.cell({-1, 0}), CellType::Empty);  // out of bounds
  EXPECT_EQ(fabric.cell({99, 99}), CellType::Empty);

  EXPECT_TRUE(fabric.junction_at({0, 0}).is_valid());
  EXPECT_FALSE(fabric.junction_at({0, 1}).is_valid());
  EXPECT_TRUE(fabric.trap_at({1, 1}).is_valid());
  EXPECT_TRUE(fabric.segment_at({0, 2}).is_valid());
  EXPECT_FALSE(fabric.segment_at({0, 0}).is_valid());
}

TEST(Fabric, SegmentEndpointsAndOrientation) {
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const SegmentId top = fabric.segment_at({0, 2});
  ASSERT_TRUE(top.is_valid());
  const ChannelSegment& segment = fabric.segment(top);
  EXPECT_EQ(segment.orientation, Orientation::Horizontal);
  EXPECT_EQ(segment.cells.size(), 3u);
  EXPECT_EQ(segment.cells.front(), (Position{0, 1}));
  EXPECT_EQ(segment.cells.back(), (Position{0, 3}));
  EXPECT_EQ(fabric.junction(segment.junction_before).position,
            (Position{0, 0}));
  EXPECT_EQ(fabric.junction(segment.junction_after).position,
            (Position{0, 4}));
}

/// The trap order written out: every trap, sorted by (Manhattan distance
/// from `from`, position).
std::vector<TrapId> sorted_trap_order(const Fabric& fabric, Position from) {
  std::vector<TrapId> order;
  for (const Trap& trap : fabric.traps()) order.push_back(trap.id);
  std::sort(order.begin(), order.end(), [&](TrapId a, TrapId b) {
    const Position pa = fabric.trap(a).position;
    const Position pb = fabric.trap(b).position;
    return std::pair(manhattan_distance(pa, from), pa) <
           std::pair(manhattan_distance(pb, from), pb);
  });
  return order;
}

TEST(Fabric, TrapsByDistanceEqualsSortedOrderFromEveryCell) {
  // The tie order decides which of several equally near traps a gate gets,
  // so it is compared element for element, not only for monotone distance.
  std::vector<Fabric> fabrics;
  fabrics.push_back(make_paper_fabric());
  fabrics.push_back(make_quale_fabric({2, 2, 4}));
  fabrics.push_back(make_quale_fabric({7, 12, 4}));
  // Asymmetric: uneven tiles, traps on both sides of a channel, a short
  // appendix below the main block.
  fabrics.push_back(parse_fabric("J---J-----J\n"
                                 "|T.T|....T|\n"
                                 "|...|.....|\n"
                                 "|T..|T....|\n"
                                 "J---J-----J\n"
                                 "|.T.|\n"
                                 "|...|\n"
                                 "J---J\n",
                                 "asymmetric"));
  for (const Fabric& fabric : fabrics) {
    std::vector<Position> anchors;
    for (int row = 0; row < fabric.rows(); ++row) {
      for (int col = 0; col < fabric.cols(); ++col) {
        anchors.push_back({row, col});
      }
    }
    // Off-fabric anchors take the same order.
    anchors.push_back({-3, -2});
    anchors.push_back({fabric.rows() + 1, fabric.cols() / 2});
    anchors.push_back({fabric.rows() / 2, fabric.cols() + 4});
    for (const Position from : anchors) {
      ASSERT_EQ(fabric.traps_by_distance(from), sorted_trap_order(fabric, from))
          << fabric.name() << " from " << from;
    }
  }
}

TEST(Fabric, FindNearestTrapOffersExactlyThePrefixUpToItsAnswer) {
  const Fabric fabric = make_quale_fabric({7, 12, 4});
  const Position from{9, 20};
  const std::vector<TrapId> order = fabric.traps_by_distance(from);
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              order.size() - 1}) {
    std::vector<TrapId> offered;
    const TrapId found = fabric.find_nearest_trap(from, [&](TrapId trap) {
      offered.push_back(trap);
      return trap == order[k];
    });
    EXPECT_EQ(found, order[k]);
    EXPECT_EQ(offered, std::vector<TrapId>(order.begin(),
                                           order.begin() + k + 1))
        << "k = " << k;
  }

  std::size_t offered = 0;
  const TrapId none = fabric.find_nearest_trap(from, [&](TrapId) {
    ++offered;
    return false;
  });
  EXPECT_FALSE(none.is_valid());
  EXPECT_EQ(offered, fabric.trap_count());
}

TEST(Fabric, ValidationRejectsCrossingWithoutJunction) {
  // Vertical channel crossing a horizontal one through a plain channel cell.
  EXPECT_THROW(parse_fabric("J-C-J\n"
                            "..C..\n"),
               ValidationError);
}

TEST(Fabric, ValidationRejectsIsolatedChannel) {
  EXPECT_THROW(parse_fabric(".C.\n"), ValidationError);
}

TEST(Fabric, ValidationRejectsUnreachableTrap) {
  EXPECT_THROW(parse_fabric("T.J-J\n"), ValidationError);
}

TEST(Fabric, ValidationRejectsEmptyDrawing) {
  EXPECT_THROW(parse_fabric("\n\n"), ValidationError);
  EXPECT_THROW(Fabric::from_cells(0, 5, {}), ValidationError);
  EXPECT_THROW(Fabric::from_cells(2, 2, {CellType::Empty}), ValidationError);
}

TEST(FabricTextIo, ParsesHandDrawnFabric) {
  const Fabric fabric = parse_fabric("J---J\n"
                                     "|T..|\n"
                                     "|..T|\n"
                                     "J---J\n",
                                     "toy");
  EXPECT_EQ(fabric.name(), "toy");
  EXPECT_EQ(fabric.rows(), 4);
  EXPECT_EQ(fabric.cols(), 5);
  EXPECT_EQ(fabric.junction_count(), 4u);
  EXPECT_EQ(fabric.trap_count(), 2u);
  EXPECT_EQ(fabric.segment_count(), 4u);
}

TEST(FabricTextIo, RenderParseRoundTrip) {
  const Fabric original = make_quale_fabric({3, 4, 4});
  const std::string drawing = render_fabric(original);
  const Fabric reparsed = parse_fabric(drawing);
  EXPECT_EQ(reparsed.rows(), original.rows());
  EXPECT_EQ(reparsed.cols(), original.cols());
  EXPECT_EQ(reparsed.trap_count(), original.trap_count());
  EXPECT_EQ(reparsed.junction_count(), original.junction_count());
  EXPECT_EQ(reparsed.segment_count(), original.segment_count());
  EXPECT_EQ(render_fabric(reparsed), drawing);
}

TEST(FabricTextIo, RejectsUnknownCharacters) {
  EXPECT_THROW(parse_fabric("J?J\n"), ParseError);
}

TEST(FabricTextIo, CommentsAndPaddingAreHandled) {
  const Fabric fabric = parse_fabric("# a comment line\n"
                                     "J---J   # trailing comment\n"
                                     "|T..|\n"
                                     "J---J\n");
  EXPECT_EQ(fabric.rows(), 3);
  EXPECT_EQ(fabric.trap_count(), 1u);
}

TEST(FabricTextIo, Describe) {
  const std::string description = describe_fabric(make_paper_fabric());
  EXPECT_NE(description.find("45x85"), std::string::npos);
  EXPECT_NE(description.find("924 traps"), std::string::npos);
}

TEST(FabricTextIo, SeededMutantsParseOrThrow) {
  // Byte-level mutants of a rendered tile parse or throw a std::exception
  // (serve's bad_request for a fabric it cannot load). A mutant that parses
  // renders to a drawing that parses back to itself.
  expect_parse_or_throw<std::exception>(
      make_mutants({render_fabric(make_quale_fabric({3, 3, 4}))}, 600, 2012),
      [](const std::string& text) {
        const std::string drawing = render_fabric(parse_fabric(text));
        EXPECT_EQ(render_fabric(parse_fabric(drawing)), drawing) << text;
      });
}

}  // namespace
}  // namespace qspr

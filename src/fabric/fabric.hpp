// The ion-trap quantum circuit fabric (paper §II.B, Fig. 4): a finite 2-D
// grid of unit cells, each a junction (J), a channel square (C), a trap (T)
// or empty. On construction the fabric derives and validates the structures
// the router needs:
//
//  * traps, each with its access ports (adjacent channel cells);
//  * junctions, where qubits turn between horizontal and vertical travel;
//  * channel segments — maximal straight runs of channel cells delimited by
//    junctions (or dead ends). A segment is the capacity-limited resource of
//    the paper's Eq. 2 ("channel"); its length is its cell count.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/geometry.hpp"
#include "common/ids.hpp"

namespace qspr {

enum class CellType : std::uint8_t { Empty, Channel, Junction, Trap };

/// One access port of a trap: the adjacent channel cell through which qubits
/// enter and leave, and the direction of that cell as seen from the trap.
struct TrapPort {
  Position channel_cell;
  Direction direction_from_trap;
};

struct Trap {
  TrapId id;
  Position position;
  std::vector<TrapPort> ports;
};

struct Junction {
  JunctionId id;
  Position position;
};

struct ChannelSegment {
  SegmentId id;
  Orientation orientation = Orientation::Horizontal;
  /// Cells ordered by increasing row (vertical) or column (horizontal).
  std::vector<Position> cells;
  /// Junction adjacent to cells.front() / cells.back() along the axis, or
  /// invalid for a dead end.
  JunctionId junction_before;
  JunctionId junction_after;

  [[nodiscard]] int length() const { return static_cast<int>(cells.size()); }
};

class Fabric {
 public:
  /// Builds a fabric from a row-major cell array and derives all structures.
  /// Throws ValidationError when the layout is malformed (crossing channels
  /// without a junction, traps without channel access, ...).
  static Fabric from_cells(int rows, int cols, std::vector<CellType> cells,
                           std::string name = "");

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] Position center() const { return {rows_ / 2, cols_ / 2}; }

  [[nodiscard]] bool in_bounds(Position p) const {
    return p.row >= 0 && p.row < rows_ && p.col >= 0 && p.col < cols_;
  }
  /// Cell type at `p`; out-of-bounds positions read as Empty.
  [[nodiscard]] CellType cell(Position p) const {
    return in_bounds(p) ? cells_[cell_index(p)] : CellType::Empty;
  }

  [[nodiscard]] std::size_t trap_count() const { return traps_.size(); }
  [[nodiscard]] const Trap& trap(TrapId id) const;
  [[nodiscard]] const std::vector<Trap>& traps() const { return traps_; }
  /// Trap occupying `p`, or an invalid id.
  [[nodiscard]] TrapId trap_at(Position p) const;

  [[nodiscard]] std::size_t junction_count() const { return junctions_.size(); }
  [[nodiscard]] const Junction& junction(JunctionId id) const;
  [[nodiscard]] const std::vector<Junction>& junctions() const {
    return junctions_;
  }
  [[nodiscard]] JunctionId junction_at(Position p) const;

  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] const ChannelSegment& segment(SegmentId id) const;
  [[nodiscard]] const std::vector<ChannelSegment>& segments() const {
    return segments_;
  }
  /// Segment containing channel cell `p`, or an invalid id.
  [[nodiscard]] SegmentId segment_at(Position p) const;

  /// Offers the traps to `stop` in order of Manhattan distance from `from`
  /// (ties by position) and returns the first one it accepts, or an invalid
  /// id when it accepts none. This is the target-trap search of paper §IV.B;
  /// it allocates nothing and reads no cell past its answer.
  template <class Stop>
  TrapId find_nearest_trap(Position from, Stop&& stop) const;

  /// All traps in find_nearest_trap order: the order used by center
  /// placement (paper §I).
  [[nodiscard]] std::vector<TrapId> traps_by_distance(Position from) const;

 private:
  Fabric() = default;

  [[nodiscard]] std::size_t cell_index(Position p) const {
    return static_cast<std::size_t>(p.row) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(p.col);
  }

  void derive_structures();
  void derive_traps();
  void derive_junctions();
  void derive_segments();

  std::string name_;
  int rows_ = 0;
  int cols_ = 0;
  std::vector<CellType> cells_;

  std::vector<Trap> traps_;
  std::vector<Junction> junctions_;
  std::vector<ChannelSegment> segments_;
  // Per-cell reverse lookups (-1 when not applicable).
  std::vector<std::int32_t> trap_index_;
  std::vector<std::int32_t> junction_index_;
  std::vector<std::int32_t> segment_index_;
};

template <class Stop>
TrapId Fabric::find_nearest_trap(Position from, Stop&& stop) const {
  // Ring d holds the cells at Manhattan distance d from `from`: at most two
  // per row, at columns from.col -/+ (d - |row - from.row|). Taking the rows
  // top to bottom and the left cell before the right visits a ring in
  // ascending (row, col) order, so ring after ring is exactly the
  // (distance, position) order.
  const auto offer = [&](int row, int col) {
    if (col < 0 || col >= cols_) return TrapId::invalid();
    const std::int32_t index = trap_index_[cell_index({row, col})];
    return index >= 0 && stop(TrapId(index)) ? TrapId(index)
                                             : TrapId::invalid();
  };
  const int farthest =
      std::max(std::abs(from.row), std::abs(from.row - (rows_ - 1))) +
      std::max(std::abs(from.col), std::abs(from.col - (cols_ - 1)));
  for (int d = 0; d <= farthest; ++d) {
    const int last_row = std::min(from.row + d, rows_ - 1);
    for (int row = std::max(from.row - d, 0); row <= last_row; ++row) {
      const int reach = d - std::abs(row - from.row);
      TrapId found = offer(row, from.col - reach);
      if (!found.is_valid() && reach > 0) found = offer(row, from.col + reach);
      if (found.is_valid()) return found;
    }
  }
  return TrapId::invalid();
}

}  // namespace qspr

#include "fabric/fabric.hpp"

#include "common/error.hpp"

namespace qspr {

namespace {

bool is_channel_or_junction(CellType type) {
  return type == CellType::Channel || type == CellType::Junction;
}

}  // namespace

Fabric Fabric::from_cells(int rows, int cols, std::vector<CellType> cells,
                          std::string name) {
  if (rows <= 0 || cols <= 0) {
    throw ValidationError("fabric dimensions must be positive");
  }
  if (cells.size() != static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)) {
    throw ValidationError("fabric cell array size does not match dimensions");
  }
  Fabric fabric;
  fabric.name_ = std::move(name);
  fabric.rows_ = rows;
  fabric.cols_ = cols;
  fabric.cells_ = std::move(cells);
  fabric.derive_structures();
  return fabric;
}

void Fabric::derive_structures() {
  const std::size_t n = cells_.size();
  trap_index_.assign(n, -1);
  junction_index_.assign(n, -1);
  segment_index_.assign(n, -1);
  derive_traps();
  derive_junctions();
  derive_segments();
}

void Fabric::derive_traps() {
  for (int row = 0; row < rows_; ++row) {
    for (int col = 0; col < cols_; ++col) {
      const Position p{row, col};
      if (cell(p) != CellType::Trap) continue;
      Trap trap;
      trap.id = TrapId::from_index(traps_.size());
      trap.position = p;
      for (const Direction d : kAllDirections) {
        const Position neighbour = step(p, d);
        if (cell(neighbour) == CellType::Channel) {
          trap.ports.push_back(TrapPort{neighbour, d});
        }
      }
      if (trap.ports.empty()) {
        throw ValidationError("trap at " + to_string(p) +
                              " has no adjacent channel (unreachable)");
      }
      trap_index_[cell_index(p)] = trap.id.value();
      traps_.push_back(std::move(trap));
    }
  }
}

void Fabric::derive_junctions() {
  for (int row = 0; row < rows_; ++row) {
    for (int col = 0; col < cols_; ++col) {
      const Position p{row, col};
      if (cell(p) != CellType::Junction) continue;
      const JunctionId id = JunctionId::from_index(junctions_.size());
      junction_index_[cell_index(p)] = id.value();
      junctions_.push_back(Junction{id, p});
    }
  }
}

void Fabric::derive_segments() {
  std::vector<bool> visited(cells_.size(), false);
  for (int row = 0; row < rows_; ++row) {
    for (int col = 0; col < cols_; ++col) {
      const Position p{row, col};
      if (cell(p) != CellType::Channel || visited[cell_index(p)]) continue;

      // Determine the axis of the run through this cell. A channel cell may
      // connect (to channels or junctions) along exactly one axis; anything
      // else is a crossing without a junction and is rejected.
      const bool connects_horizontally =
          is_channel_or_junction(cell(step(p, Direction::East))) ||
          is_channel_or_junction(cell(step(p, Direction::West)));
      const bool connects_vertically =
          is_channel_or_junction(cell(step(p, Direction::North))) ||
          is_channel_or_junction(cell(step(p, Direction::South)));
      if (connects_horizontally && connects_vertically) {
        throw ValidationError("channel crossing without a junction at " +
                              to_string(p));
      }
      if (!connects_horizontally && !connects_vertically) {
        throw ValidationError("isolated channel cell at " + to_string(p));
      }

      ChannelSegment segment;
      segment.id = SegmentId::from_index(segments_.size());
      segment.orientation = connects_horizontally ? Orientation::Horizontal
                                                  : Orientation::Vertical;
      const Direction backward = connects_horizontally ? Direction::West
                                                       : Direction::North;
      const Direction forward = opposite(backward);

      // Walk to the start of the maximal run, then collect forward.
      Position start = p;
      while (cell(step(start, backward)) == CellType::Channel) {
        start = step(start, backward);
      }
      for (Position q = start; cell(q) == CellType::Channel;
           q = step(q, forward)) {
        // Every cell of the run must agree with the segment axis.
        const Direction side_a = connects_horizontally ? Direction::North
                                                       : Direction::West;
        const Direction side_b = opposite(side_a);
        if (is_channel_or_junction(cell(step(q, side_a))) ||
            is_channel_or_junction(cell(step(q, side_b)))) {
          throw ValidationError("channel crossing without a junction at " +
                                to_string(q));
        }
        visited[cell_index(q)] = true;
        segment_index_[cell_index(q)] = segment.id.value();
        segment.cells.push_back(q);
      }

      segment.junction_before =
          junction_at(step(segment.cells.front(), backward));
      segment.junction_after = junction_at(step(segment.cells.back(), forward));
      segments_.push_back(std::move(segment));
    }
  }
}

const Trap& Fabric::trap(TrapId id) const {
  require(id.is_valid() && id.index() < traps_.size(), "trap id out of range");
  return traps_[id.index()];
}

TrapId Fabric::trap_at(Position p) const {
  if (!in_bounds(p)) return TrapId::invalid();
  const std::int32_t index = trap_index_[cell_index(p)];
  return index < 0 ? TrapId::invalid() : TrapId(index);
}

const Junction& Fabric::junction(JunctionId id) const {
  require(id.is_valid() && id.index() < junctions_.size(),
          "junction id out of range");
  return junctions_[id.index()];
}

JunctionId Fabric::junction_at(Position p) const {
  if (!in_bounds(p)) return JunctionId::invalid();
  const std::int32_t index = junction_index_[cell_index(p)];
  return index < 0 ? JunctionId::invalid() : JunctionId(index);
}

const ChannelSegment& Fabric::segment(SegmentId id) const {
  require(id.is_valid() && id.index() < segments_.size(),
          "segment id out of range");
  return segments_[id.index()];
}

SegmentId Fabric::segment_at(Position p) const {
  if (!in_bounds(p)) return SegmentId::invalid();
  const std::int32_t index = segment_index_[cell_index(p)];
  return index < 0 ? SegmentId::invalid() : SegmentId(index);
}

std::vector<TrapId> Fabric::traps_by_distance(Position from) const {
  std::vector<TrapId> order;
  order.reserve(traps_.size());
  find_nearest_trap(from, [&](TrapId trap) {
    order.push_back(trap);
    return false;
  });
  return order;
}

}  // namespace qspr

// The admissible A* lower bound on the remaining routing cost (paper §IV.B),
// shared by the Router and by the negotiated PathFinder.
//
// The grid bound charges one uncongested move (t_move) per Manhattan cell
// and, when the remaining displacement provably forces an orientation
// change, one turn. It is admissible because congestion penalties only
// inflate move costs (penalty >= 1), traps are endpoints only, and any path
// that must travel both axes — or travel an axis perpendicular to the
// node's current orientation — has to cross at least one turn edge. It is
// consistent: a move edge (weight >= t_move) lowers the bound by at most
// t_move, and a turn edge (weight == turn_cost) by at most turn_cost, so
// settled nodes are never re-expanded.
#pragma once

#include <cstdlib>

#include "common/geometry.hpp"
#include "route/routing_graph.hpp"

namespace qspr {

/// Lower bound on the cost of reaching the trap at `target` from `node`.
/// `turn_cost` is the selection cost of one turn edge (t_turn when
/// turn-aware; the router's or PathFinder's nominal turn weight otherwise).
template <typename Cost>
[[nodiscard]] Cost grid_lower_bound(const RouteNode& node, Position target,
                                    Cost t_move, Cost turn_cost) {
  const int dr = std::abs(node.cell.row - target.row);
  const int dc = std::abs(node.cell.col - target.col);
  Cost bound = static_cast<Cost>(dr + dc) * t_move;
  if (node.is_trap) {
    // Orientation is meaningless inside a trap; only a genuinely L-shaped
    // remaining displacement forces a turn.
    if (dr != 0 && dc != 0) bound += turn_cost;
    return bound;
  }
  const bool needs_horizontal = dc != 0;
  const bool needs_vertical = dr != 0;
  if ((needs_horizontal && needs_vertical) ||
      (needs_horizontal && node.orientation == Orientation::Vertical) ||
      (needs_vertical && node.orientation == Orientation::Horizontal)) {
    bound += turn_cost;
  }
  return bound;
}

}  // namespace qspr

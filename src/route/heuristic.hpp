// Admissible A* lower bounds on the remaining routing cost (paper §IV.B).
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

/// Congestion-adaptive variant of the grid bound (the PathFinder's scaled
/// A* heuristic). `floor` must be a proven lower bound on the negotiated
/// penalty of entering *any* channel/junction resource under the current
/// congestion state (CongestionLedger::penalty_floor, >= 1). Every one of
/// the remaining Manhattan moves enters a capacity-priced resource — except
/// the final move when the path ends inside a trap (trap entries cost a flat
/// t_move) — so the per-move term scales by `floor` without losing
/// admissibility, and the bound stops collapsing to the uncongested grid
/// distance when penalties dominate the true cost. The turn term is
/// unchanged: turn edges carry no congestion penalty.
///
/// `moves_end_in_trap` says whether the bounded path terminates inside a
/// trap: true for the forward frontier (the search target is a trap) and for
/// backward bounds evaluated *at* trap nodes; false for backward bounds at
/// channel/junction nodes (every move of a source->node path is priced).
/// With floor == 1 both variants reduce exactly to grid_lower_bound.
/// Consistency (h(u) <= w_min(u,v) + h(v) under the floored edge weights)
/// holds for both frontiers; tests/search_equivalence_test.cpp checks it
/// edge-exhaustively.
[[nodiscard]] inline double congestion_scaled_bound(const RouteNode& node,
                                                    Position endpoint,
                                                    double t_move,
                                                    double turn_cost,
                                                    double floor,
                                                    bool moves_end_in_trap) {
  const int dr = std::abs(node.cell.row - endpoint.row);
  const int dc = std::abs(node.cell.col - endpoint.col);
  const int distance = dr + dc;
  double bound = 0.0;
  if (distance > 0) {
    const double scaled_moves =
        moves_end_in_trap ? static_cast<double>(distance - 1) * floor + 1.0
                          : static_cast<double>(distance) * floor;
    bound = scaled_moves * t_move;
  }
  if (node.is_trap) {
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

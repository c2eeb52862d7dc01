// A routed path lowered to the primitive relocations of §II.B — moves (one
// cell, keep direction) and turns (change direction in place) — plus the
// schedule of capacity-limited resources the qubit occupies along the way.
#pragma once

#include <vector>

#include "common/geometry.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "fabric/fabric.hpp"
#include "route/congestion.hpp"
#include "route/routing_graph.hpp"

namespace qspr {

enum class StepKind : std::uint8_t { Move, Turn };

struct PathStep {
  StepKind kind = StepKind::Move;
  Position from;
  Position to;  // == from for turns
  Duration duration = 0;
};

/// Occupancy interval of one resource, relative to the path's start time.
/// A qubit holds a resource from the moment it starts moving into it until
/// the moment it has fully moved out (or forever if the path ends inside —
/// expressed as exit_offset == total delay; traps are tracked separately).
struct ResourceUse {
  ResourceRef resource;
  Duration enter_offset = 0;
  Duration exit_offset = 0;
};

/// Reusable as a buffer: a query or lower_path overwrites every field and
/// keeps each vector's capacity.
struct RoutedPath {
  /// Vertices visited, from source to target (useful for tests/debugging).
  std::vector<RouteNodeId> nodes;
  std::vector<PathStep> steps;
  std::vector<ResourceUse> resource_uses;

  [[nodiscard]] Duration total_delay() const;
  [[nodiscard]] int move_count() const;
  [[nodiscard]] int turn_count() const;
  [[nodiscard]] bool empty() const { return steps.empty(); }
};

/// Lowers `path.nodes` in place into timed steps and resource-use
/// intervals, replacing whatever steps and uses `path` held before.
/// `params` supplies the physical t_move / t_turn (turn durations are always
/// physical here, even when the router *selected* the path turn-unaware).
void lower_path(const RoutingGraph& graph, const TechnologyParams& params,
                RoutedPath& path);

/// Value-returning form of the above over a copy of `nodes`.
RoutedPath lower_path(const RoutingGraph& graph,
                      const std::vector<RouteNodeId>& nodes,
                      const TechnologyParams& params);

}  // namespace qspr

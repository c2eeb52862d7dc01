#include "route/path.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qspr {

namespace {

/// Capacity-limited resource of a graph vertex, if any (traps excluded).
ResourceRef resource_of(const RouteNode& node) {
  if (node.is_trap) return ResourceRef{};
  if (node.junction.is_valid()) return ResourceRef::junction(node.junction);
  if (node.segment.is_valid()) return ResourceRef::segment(node.segment);
  return ResourceRef{};
}

}  // namespace

Duration RoutedPath::total_delay() const {
  Duration total = 0;
  for (const PathStep& step : steps) total += step.duration;
  return total;
}

int RoutedPath::move_count() const {
  return static_cast<int>(std::count_if(
      steps.begin(), steps.end(),
      [](const PathStep& s) { return s.kind == StepKind::Move; }));
}

int RoutedPath::turn_count() const {
  return static_cast<int>(steps.size()) - move_count();
}

void lower_path(const RoutingGraph& graph, const TechnologyParams& params,
                RoutedPath& path) {
  const std::vector<RouteNodeId>& nodes = path.nodes;
  std::vector<ResourceUse>& uses = path.resource_uses;
  path.steps.clear();
  uses.clear();
  if (nodes.size() < 2) return;

  // Resource intervals: a resource opens when the qubit starts moving into
  // one of its cells and closes when the qubit has fully moved out.
  const auto find_open = [&uses](ResourceRef r) -> ResourceUse* {
    for (auto it = uses.rbegin(); it != uses.rend(); ++it) {
      if (it->resource == r && it->exit_offset < 0) return &*it;
    }
    return nullptr;
  };

  // One pass: each step with its offset, then the resources it enters and
  // leaves.
  Duration offset = 0;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const RouteNode& a = graph.node(nodes[i]);
    const RouteNode& b = graph.node(nodes[i + 1]);
    PathStep step;
    if (a.cell == b.cell) {
      step.kind = StepKind::Turn;
      step.from = a.cell;
      step.to = a.cell;
      step.duration = params.t_turn;
    } else {
      require(are_adjacent(a.cell, b.cell),
              "path vertices must be cell-adjacent");
      step.kind = StepKind::Move;
      step.from = a.cell;
      step.to = b.cell;
      step.duration = params.t_move;
    }
    path.steps.push_back(step);
    const Duration start = offset;
    const Duration end = start + step.duration;

    const ResourceRef ra = resource_of(a);
    const ResourceRef rb = resource_of(b);
    if (rb.index >= 0 && !(rb == ra)) {
      // Entering rb: open at move start (occupies both cells while moving).
      if (find_open(rb) == nullptr) {
        uses.push_back(ResourceUse{rb, start, -1});
      }
    }
    if (ra.index >= 0 && !(ra == rb)) {
      if (ResourceUse* open = find_open(ra)) open->exit_offset = end;
    }
    offset = end;
  }
  // Anything still open is held until the path completes.
  for (ResourceUse& use : uses) {
    if (use.exit_offset < 0) use.exit_offset = offset;
  }
}

RoutedPath lower_path(const RoutingGraph& graph,
                      const std::vector<RouteNodeId>& nodes,
                      const TechnologyParams& params) {
  RoutedPath path;
  path.nodes = nodes;
  lower_path(graph, params, path);
  return path;
}

}  // namespace qspr

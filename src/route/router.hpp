// Congestion-aware shortest-path router (paper §IV.B).
//
// Runs Dijkstra (with an admissible Manhattan-distance A* bound) over the
// RoutingGraph, weighting edges at query time against the current
// CongestionState:
//
//   move into a channel cell of segment s :  t_move * (n_s + 1)   if n_s < cap
//                                            infinity (pruned)    otherwise
//   move into a junction cell j           :  t_move               if n_j < cap
//   turn in place                         :  t_turn  (or 0 when turn-unaware)
//
// The per-cell weight t_move*(n+1) is the cell-granular decomposition of the
// paper's Eq. 2 per-channel weight (n+1)*length. Turn-unaware mode reproduces
// the prior-art cost model of Fig. 5.b: turns are free during *selection* but
// still cost t_turn when the chosen path is executed.
//
// A Router is an immutable view over the graph and physics parameters: every
// query threads the caller's SearchArena through, so one Router can serve
// any number of threads as long as each passes its own arena (the
// thread-confined scratch of the trial-parallel mapping pipeline).
#pragma once

#include <optional>
#include <vector>

#include "common/time.hpp"
#include "route/congestion.hpp"
#include "route/path.hpp"
#include "route/routing_graph.hpp"
#include "route/search_arena.hpp"

namespace qspr {

struct RouterOptions {
  /// Model turn delays in the path cost (the QSPR enhancement of Fig. 5.c).
  bool turn_aware = true;
};

class Router {
 public:
  Router(const RoutingGraph& graph, const TechnologyParams& params,
         RouterOptions options = {});

  /// Vertex sequence plus the cost the search minimized (the *selection*
  /// cost, which in turn-unaware mode differs from the physical delay).
  struct NodePath {
    std::vector<RouteNodeId> nodes;
    Duration cost = 0;
  };

  /// Minimum-cost path between two traps under the given congestion,
  /// written into the caller's `path` (its buffers are reused). Returns
  /// false, leaving `path` empty, when every route is blocked by fully-loaded
  /// resources; when every port cell of `to` is full it does so without
  /// searching. A path from a trap to itself has one node and no steps.
  /// `arena` is the caller's reusable search workspace (one per thread);
  /// when `selection_cost` is non-null it receives the minimized cost of the
  /// path.
  [[nodiscard]] bool route_trap_to_trap(
      TrapId from, TrapId to, const CongestionState& congestion,
      SearchArena<Duration>& arena, RoutedPath& path,
      Duration* selection_cost = nullptr) const;

  /// The same query returning a fresh path, or nullopt when no route exists.
  [[nodiscard]] std::optional<RoutedPath> route_trap_to_trap(
      TrapId from, TrapId to, const CongestionState& congestion,
      SearchArena<Duration>& arena, Duration* selection_cost = nullptr) const;

  /// Generic vertex-to-vertex search. Intermediate trap vertices are never
  /// traversed; `allowed_trap` additionally admits one trap as an endpoint.
  [[nodiscard]] std::optional<NodePath> shortest_node_path(
      RouteNodeId from, RouteNodeId to, const CongestionState& congestion,
      SearchArena<Duration>& arena,
      TrapId allowed_trap = TrapId::invalid()) const;

  /// True when a channel segment or junction holding `load` qubits admits
  /// no further qubit. The one capacity test: the search prunes every edge
  /// into such a resource, and the event simulator watches resources leave
  /// this state.
  [[nodiscard]] bool at_capacity(ResourceRef::Kind kind, int load) const {
    return load >= (kind == ResourceRef::Kind::Segment
                        ? params_.channel_capacity
                        : params_.junction_capacity);
  }

  [[nodiscard]] const RouterOptions& options() const { return options_; }
  [[nodiscard]] const TechnologyParams& params() const { return params_; }
  [[nodiscard]] const RoutingGraph& graph() const { return *graph_; }

 private:
  /// The one search core behind both queries: writes the minimum-cost
  /// vertex sequence from `from` to `to` into `nodes` and returns its cost,
  /// or returns nullopt (leaving `nodes` as it was) when no route exists.
  std::optional<Duration> search(RouteNodeId from, RouteNodeId to,
                                 const CongestionState& congestion,
                                 SearchArena<Duration>& arena,
                                 TrapId allowed_trap,
                                 std::vector<RouteNodeId>& nodes) const;

  const RoutingGraph* graph_;
  TechnologyParams params_;
  RouterOptions options_;
};

}  // namespace qspr

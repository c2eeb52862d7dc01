// PathFinder: the negotiated-congestion router of McMurchie & Ebeling that
// QUALE used for routing and "dealing with resource contentions" (paper §I,
// ref. [3]).
//
// All nets (qubit relocations) are routed simultaneously: resources may be
// over-subscribed at first, then every iteration re-routes each net against
// a cost that multiplies the base delay by a *present congestion* penalty
// (grows within an iteration as resources fill) and a *history* penalty
// (accumulates across iterations on chronically over-used resources), until
// no channel or junction exceeds its capacity.
//
// The optimized loop is congestion-adaptive: a dirty-net worklist rips up
// and re-routes only nets overlapping over-subscribed resources (partial
// rip-up), and a capped schedule with a ramped history increment stops a
// saturated negotiation early. Each mechanism toggles independently via
// PathFinderOptions. Every search is one A* from source to target under the
// Router's grid lower bound (route/heuristic.hpp). Nets route one at a time,
// in net order, so a negotiation is a pure function of its inputs.
//
// The event-driven simulator routes incrementally instead (one instruction
// at a time, Eq. 2 weights); this module provides the classic batch
// formulation for comparison and for users who want whole-layer routing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "route/congestion.hpp"
#include "route/path.hpp"
#include "route/routing_graph.hpp"
#include "route/search_arena.hpp"

namespace qspr {

struct NetRequest {
  TrapId from;
  TrapId to;
};

/// Inner shortest-path engine of the negotiation loop.
enum class PathFinderEngine : std::uint8_t {
  /// Plain Dijkstra allocating its search state per query. Kept as the
  /// equivalence/benchmark baseline; produces the same negotiated costs.
  ReferenceDijkstra,
  /// A* with the admissible grid lower bound over a generation-stamped
  /// SearchArena reused across all nets and iterations (the fast path).
  AStarArena,
};

/// The penalty constants (present factor, history increment) and the
/// adaptive schedule's present-factor cap and stagnation limit are fixed in
/// pathfinder.cpp.
struct PathFinderOptions {
  int max_iterations = 30;
  /// Model turn delays in the cost (QSPR's enhancement; QUALE ran without).
  bool turn_aware = true;
  /// Inner search engine; the default is the optimized arena-backed A*.
  PathFinderEngine engine = PathFinderEngine::AStarArena;

  // --- congestion-adaptive mechanisms (each independently toggleable; the
  // --- saturated_overload bench suite records their ablation) ---

  /// Partial rip-up/re-route: after the first iteration only *dirty* nets —
  /// nets whose current path overlaps an over-subscribed resource — are
  /// ripped up and re-routed; converged nets keep their paths. Applies to
  /// both engines (it is an outer-loop mechanism).
  bool partial_ripup = true;
  /// Congestion-adaptive negotiation schedule (engine-agnostic, so engine
  /// equivalence is preserved): (a) the geometric present-factor schedule is
  /// capped at kPresentFactorMax, keeping saturated-regime edge weights
  /// distance-commensurate instead of letting every late search degenerate
  /// into a whole-fabric Dijkstra flood; (b) when the total capacity excess
  /// stagnates, the history increment ramps geometrically until the plateau
  /// breaks (the permanent pressure classic PathFinder gets from its
  /// unbounded present factor, without the flood); (c) the loop stops as
  /// soon as the residual excess reaches the provable structural floor
  /// (endpoint port demand over port capacity — no negotiation can do
  /// better), or after kStagnationLimit consecutive iterations without
  /// excess improvement despite the ramp.
  bool adaptive_schedule = true;

  // --- bounded-suboptimal knob (AStarArena only) ---

  /// Bounded-suboptimal search: A* orders the frontier by g + w*h instead
  /// of g + h, so each inner search returns a path of cost <= w * optimal.
  /// Must be finite and >= 1. 1.0 is exact and bit-identical to the
  /// unweighted search (IEEE: h * 1.0 == h); > 1 trades bounded
  /// path-quality slack for fewer expansions on saturated loads. Applies to
  /// AStarArena; ReferenceDijkstra has no heuristic.
  double heuristic_weight = 1.0;
};

struct PathFinderResult {
  std::vector<RoutedPath> paths;  // one per net, in request order
  int iterations_used = 0;        // negotiation iterations actually run
  bool converged = false;         // true when no resource is over capacity
  Duration total_delay = 0;       // sum of physical path delays
  int overused_resources = 0;     // at the final iteration
  int max_overuse = 0;            // worst excess over capacity, final iteration
  int total_excess = 0;           // sum of excess over capacity, final iteration
  /// Provable lower bound on the residual excess of *any* routing of this
  /// net set (endpoint port demand over port capacity). total_excess can
  /// never go below it; converged implies it is 0.
  int min_feasible_excess = 0;
  /// Inner shortest-path searches actually performed; with partial rip-up
  /// this is <= nets * iterations_used (clean nets are skipped).
  long long searches_performed = 0;
  /// Nodes settled (accepted heap pops) across all searches — the
  /// heuristic-quality metric.
  long long nodes_settled = 0;
};

/// Per-node negotiated move weights of the optimized engine, kept in sync
/// with the ledger so the inner search loop prices an edge with one array
/// read instead of resolving and pricing the entered resource per edge
/// visit. The structure (node -> resource, resource -> nodes) is rebuilt at
/// every negotiation start — O(nodes), reusing storage — so a scratch can
/// be safely reused across batches on *different* graphs; weights refresh
/// per iteration (O(nodes)) plus per ripped/re-inserted resource (O(cells
/// of that resource)).
class NodeWeightCache {
 public:
  void build(const RoutingGraph& graph, const CongestionLedger& ledger);
  void refresh_all(const CongestionLedger& ledger, double t_move);
  void refresh_resource(const CongestionLedger& ledger, std::size_t index);

  std::vector<std::int32_t> node_resource;  // dense ledger index or -1
  std::vector<double> node_weight;          // t_move * entering_penalty
  std::vector<std::vector<std::uint32_t>> resource_nodes;

 private:
  double t_move_ = 0.0;
};

/// Thread-confined scratch state of one negotiation run: the search arena,
/// the path-resource dedup set, and the per-net occupancy buffers. Owning it
/// outside the call lets a worker reuse the allocations across many batches
/// (one scratch per thread; never share one between concurrent calls).
struct PathFinderScratch {
  SearchArena<double> arena;
  StampedSet membership;
  std::vector<RouteNodeId> node_buffer;
  std::vector<std::vector<std::uint32_t>> net_resources;
  /// Dirty-net worklist of the partial rip-up (1 = re-route next iteration).
  std::vector<std::uint8_t> net_dirty;
  /// Per-trap endpoint demand buffer of the structural-floor analysis.
  std::vector<int> trap_demand;
  /// Ledger-synchronised per-node move weights of the optimized engine.
  NodeWeightCache weights;
};

/// Routes all nets with negotiated congestion. Nets with from == to receive
/// empty paths. Throws RoutingError when some net has no route at all
/// (disconnected fabric).
PathFinderResult route_nets_negotiated(const RoutingGraph& graph,
                                       const TechnologyParams& params,
                                       const std::vector<NetRequest>& nets,
                                       const PathFinderOptions& options = {});

/// As above, reusing the caller's scratch buffers across calls.
PathFinderResult route_nets_negotiated(const RoutingGraph& graph,
                                       const TechnologyParams& params,
                                       const std::vector<NetRequest>& nets,
                                       const PathFinderOptions& options,
                                       PathFinderScratch& scratch);

}  // namespace qspr

#include "core/negotiation.hpp"

#include <cstddef>
#include <vector>

namespace qspr {

std::vector<NetRequest> relocation_nets(const Trace& trace,
                                        const Fabric& fabric) {
  std::vector<NetRequest> legs;
  // Per qubit: index into `legs` of its open leg, -1 while it is parked.
  std::vector<std::ptrdiff_t> open_leg;
  for (const MicroOp& op : trace.ops()) {
    if (op.kind != MicroOpKind::Move) continue;
    const std::size_t qubit = op.qubit.index();
    if (qubit >= open_leg.size()) open_leg.resize(qubit + 1, -1);
    const TrapId departed = fabric.trap_at(op.from);
    if (departed.is_valid()) {
      open_leg[qubit] = static_cast<std::ptrdiff_t>(legs.size());
      legs.push_back({departed, TrapId::invalid()});
    }
    const TrapId arrived = fabric.trap_at(op.to);
    if (arrived.is_valid() && open_leg[qubit] >= 0) {
      legs[static_cast<std::size_t>(open_leg[qubit])].to = arrived;
      open_leg[qubit] = -1;
    }
  }
  std::erase_if(legs, [](const NetRequest& leg) {
    return !leg.to.is_valid() || leg.from == leg.to;
  });
  return legs;
}

NegotiationDiagnostics diagnose_negotiation(const FabricArtifacts& artifacts,
                                            const TechnologyParams& tech,
                                            const Trace& trace,
                                            const MapperOptions& mapper) {
  NegotiationDiagnostics diagnostics;
  diagnostics.heuristic_weight = mapper.route_heuristic_weight;
  const RoutingGraph& routing_graph = artifacts.graph;
  const std::vector<NetRequest> nets =
      relocation_nets(trace, routing_graph.fabric());
  diagnostics.nets = static_cast<int>(nets.size());
  if (nets.empty()) {
    diagnostics.converged = true;
    return diagnostics;
  }
  PathFinderOptions options;
  options.heuristic_weight = mapper.route_heuristic_weight;
  const PathFinderResult negotiated =
      route_nets_negotiated(routing_graph, tech, nets, options);
  diagnostics.iterations_used = negotiated.iterations_used;
  diagnostics.converged = negotiated.converged;
  diagnostics.overused_resources = negotiated.overused_resources;
  diagnostics.max_overuse = negotiated.max_overuse;
  diagnostics.total_excess = negotiated.total_excess;
  diagnostics.min_feasible_excess = negotiated.min_feasible_excess;
  diagnostics.searches_performed = negotiated.searches_performed;
  diagnostics.total_delay = negotiated.total_delay;
  diagnostics.nodes_settled = negotiated.nodes_settled;
  return diagnostics;
}

}  // namespace qspr

// Minimal downstream program: build a fabric and route one net through the
// negotiated PathFinder — touching enough of the public surface (fabric,
// routing graph, options, result) that a packaging break in headers, link
// line or the exported target shows up as a compile/link/run failure rather
// than passing vacuously.
#include <cstdio>

#include "fabric/quale_fabric.hpp"
#include "route/pathfinder.hpp"

int main() {
  const qspr::Fabric fabric = qspr::make_quale_fabric({2, 2, 4});
  const qspr::RoutingGraph graph(fabric);
  const qspr::TechnologyParams params;

  const qspr::PathFinderOptions options;
  const auto traps = fabric.traps_by_distance(fabric.center());
  const qspr::PathFinderResult result = qspr::route_nets_negotiated(
      graph, params, {{traps.front(), traps.back()}}, options);

  std::printf("consumer: routed 1 net, delay %lld us, %lld searches\n",
              static_cast<long long>(result.total_delay),
              result.searches_performed);
  return result.paths.size() == 1 && result.converged &&
                 result.total_delay > 0
             ? 0
             : 1;
}

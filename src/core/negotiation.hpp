// The negotiation diagnostic: every trap-to-trap relocation of a mapped
// circuit's control trace, batch-routed at once by the negotiated PathFinder
// (route/pathfinder.hpp). It runs after mapping, when
// MapperOptions::negotiation_report is set, and never feeds back into the
// mapped result.
#pragma once

#include <vector>

#include "common/time.hpp"
#include "core/artifact_cache.hpp"
#include "core/mapper.hpp"
#include "fabric/fabric.hpp"
#include "route/pathfinder.hpp"
#include "sim/trace.hpp"

namespace qspr {

/// Trap-to-trap relocations of a control trace, one net per leg in leg-start
/// order. A leg opens when a qubit's move leaves a trap and closes when one
/// of its moves enters a trap; a qubit's ops are chronological within the
/// trace. Keying on legs rather than instructions keeps QUALE's visit and
/// its return home (both under the gate's instruction) as two nets. Legs
/// that end in their starting trap, or never reach a trap, are dropped.
std::vector<NetRequest> relocation_nets(const Trace& trace,
                                        const Fabric& fabric);

/// Negotiates `trace`'s relocation nets on the artifacts' routing graph
/// under `mapper`'s heuristic weight, and reports the outcome. A trace with
/// no trap-to-trap leg reports zero nets, converged.
NegotiationDiagnostics diagnose_negotiation(const FabricArtifacts& artifacts,
                                            const TechnologyParams& tech,
                                            const Trace& trace,
                                            const MapperOptions& mapper);

}  // namespace qspr

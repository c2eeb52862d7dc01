// Independent validation of control traces. Reconstructs every qubit's
// trajectory from the micro-ops and checks the physical invariants of the
// ion-trap fabric model, without reusing any simulator state:
//
//  * temporal consistency — a qubit's ops never overlap in time;
//  * spatial continuity — moves start where the previous op ended, are
//    cell-adjacent, travel over channels/junctions and end in traps;
//  * correct durations — moves take t_move, turns t_turn, gates t_gate;
//  * capacity — channel segments and junctions never hold more qubits than
//    their capacity, traps never more than trap_capacity;
//  * gate correctness — each instruction executes exactly once, in a trap,
//    with all its operand qubits present.
//
// Used by the test suite on every mapper's output and available to users as
// a debugging aid.
#pragma once

#include <string>
#include <vector>

#include "circuit/dependency_graph.hpp"
#include "fabric/fabric.hpp"
#include "sim/placement.hpp"
#include "sim/trace.hpp"

namespace qspr {

/// Returns human-readable violations; an empty vector means the trace is a
/// physically consistent execution of `graph` from `initial`. A qubit with
/// no trap in `initial` is idle: no op of the trace may move it or use it.
std::vector<std::string> validate_trace(const Trace& trace,
                                        const DependencyGraph& graph,
                                        const Fabric& fabric,
                                        const Placement& initial,
                                        const TechnologyParams& params);

}  // namespace qspr

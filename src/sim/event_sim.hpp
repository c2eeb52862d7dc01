// Event-driven execution of a scheduled QIDG on a fabric (paper §III-§IV).
//
// The simulator issues ready instructions in schedule-priority order,
// selects a target trap for each gate, routes the operand qubits with the
// congestion-aware router, reserves every channel/junction on their paths
// ("already using or will use", Eq. 2), and releases each resource the moment
// the qubit exits it — firing the paper's two event kinds ("execution of an
// instruction finishes" and "a qubit exits a channel"). Instructions whose
// routes are fully congested, or for which no target trap is available, wait
// in the busy queue and are retried whenever the fabric state changes.
//
// Policy knobs reproduce the differences between QSPR and the prior art:
//   * dual_move   — QSPR moves both operands to a trap near their median
//                   position; QUALE/QPOS keep the destination qubit fixed.
//   * router.turn_aware — QSPR models turn delays during path selection.
//   * tech.channel_capacity — QSPR exploits ion multiplexing (2), prior art 1.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "circuit/dependency_graph.hpp"
#include "common/time.hpp"
#include "fabric/fabric.hpp"
#include "route/router.hpp"
#include "sim/placement.hpp"
#include "sim/trace.hpp"

namespace qspr {

struct ExecutionOptions {
  TechnologyParams tech;
  RouterOptions router;
  /// Move both operands toward the median trap (QSPR) instead of moving only
  /// the source toward the fixed destination qubit (QUALE/QPOS).
  bool dual_move = true;
  /// QUALE's storage discipline: after a 2-qubit gate, the visiting ion
  /// shuttles back to its home trap and dependent instructions wait for the
  /// round trip. This keeps the placement static — exactly the property the
  /// paper criticises ("two qubits that have a lot of interactions may be
  /// placed far from each other", §I). QSPR and QPOS instead leave qubits
  /// where they interacted.
  bool return_home_after_gate = false;
};

/// Lifecycle timestamps of one instruction, decomposing the paper's Eq. 1:
/// T_congestion = issue - ready, T_routing = gate_start - issue,
/// T_gate = gate_end - gate_start.
struct InstructionTiming {
  TimePoint ready = 0;
  TimePoint issue = 0;
  TimePoint gate_start = 0;
  TimePoint gate_end = 0;
  /// Trap in which the gate executed.
  TrapId trap;

  [[nodiscard]] Duration t_gate() const { return gate_end - gate_start; }
  [[nodiscard]] Duration t_routing() const { return gate_start - issue; }
  [[nodiscard]] Duration t_congestion() const { return issue - ready; }
};

struct ExecutionStats {
  long long moves = 0;
  long long turns = 0;
  /// Sum of per-instruction routing / congestion delays (Eq. 1 terms).
  Duration total_routing = 0;
  Duration total_congestion = 0;
  /// Times an instruction was parked in / re-fetched from the busy queue.
  long long busy_enqueues = 0;
  /// Dijkstra nodes the run's routing searches settled (the work the
  /// frontier-queue/arena layer exists to make cheap). Observability only:
  /// never part of the mapped result.
  long long nodes_settled = 0;
};

struct ExecutionResult {
  Duration latency = 0;
  Trace trace;
  Placement initial_placement;
  Placement final_placement;
  std::vector<InstructionTiming> timings;
  ExecutionStats stats;
};

class EventSimulator {
 public:
  class Workspace;

  /// `schedule_rank[i]` orders instruction issue among simultaneously-ready
  /// instructions: lower rank issues first. One rank per graph node.
  EventSimulator(const DependencyGraph& graph, const Fabric& fabric,
                 const RoutingGraph& routing_graph,
                 std::vector<int> schedule_rank, ExecutionOptions options);

  /// Executes from `initial` placement. Throws SimulationError when the
  /// execution stalls (e.g. the fabric cannot host the circuit) and
  /// ValidationError on inconsistent inputs. Each call is an independent run
  /// over thread-confined state: one simulator may serve concurrent callers
  /// as long as each passes its own `workspace` (typically owned by the
  /// worker's TrialContext). The returned trace is in issue order, not time
  /// order: a placer sorts (Trace::sort_by_time) only the run it keeps.
  ExecutionResult run(const Placement& initial, Workspace& workspace) const;

  /// Convenience overload with a one-shot workspace; the trace is sorted by
  /// time.
  ExecutionResult run(const Placement& initial) const;

 private:
  struct Event {
    enum class Kind : std::uint8_t {
      ResourceRelease,
      QubitArrived,
      GateFinished,
      ReturnArrived,
    };
    TimePoint time = 0;
    std::uint64_t seq = 0;
    Kind kind = Kind::ResourceRelease;
    InstructionId instruction;
    QubitId qubit;
    ResourceRef resource;

    friend bool operator>(const Event& a, const Event& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void initialise(Workspace& state, const Placement& initial) const;
  void become_ready(Workspace& state, InstructionId id, TimePoint now) const;
  void try_issue(Workspace& state, TimePoint now) const;
  void retry_busy(Workspace& state, TimePoint now) const;
  bool attempt_issue(Workspace& state, InstructionId id, TimePoint now) const;
  bool issue_one_qubit(Workspace& state, InstructionId id, TimePoint now) const;
  bool issue_two_qubit(Workspace& state, InstructionId id, TimePoint now) const;
  void start_gate(Workspace& state, InstructionId id, TrapId trap,
                  TimePoint now) const;
  void finish_gate(Workspace& state, InstructionId id, TimePoint now) const;
  /// Releases dependents once the gate (and any pending returns) are done.
  void complete_instruction(Workspace& state, InstructionId id,
                            TimePoint now) const;
  /// Starts (or defers) the shuttle of `qubit` back to its home trap.
  bool initiate_return(Workspace& state, InstructionId id, QubitId qubit,
                       TimePoint now) const;
  void retry_deferred_returns(Workspace& state, TimePoint now) const;
  /// Attempts to route an issued instruction's operand toward its reserved
  /// target trap; on success the qubit departs.
  bool try_dispatch_operand(Workspace& state, InstructionId id, QubitId qubit,
                            TimePoint now) const;
  void retry_pending_routes(Workspace& state, TimePoint now) const;
  /// The simulator's one route query: Router::route_trap_to_trap into
  /// state.path, except that a pair on state.blocked_routes fails without
  /// searching, and a pair whose search fails joins the list.
  bool route(Workspace& state, TrapId from, TrapId to) const;
  static void push_event(Workspace& state, const Event& event);
  /// Takes the resources of state.path and sends `qubit` along it.
  void dispatch_qubit(Workspace& state, InstructionId id, QubitId qubit,
                      TimePoint now,
                      Event::Kind arrival_kind = Event::Kind::QubitArrived) const;

  /// True when `trap` can host `id`'s operation: unreserved and occupied only
  /// by operand qubits.
  bool trap_available(const Workspace& state, TrapId trap,
                      const Instruction& instr) const;

  /// Nearest trap to `anchor` that can host `instr` (invalid when no trap is
  /// available).
  TrapId find_target_trap(const Workspace& state, Position anchor,
                          const Instruction& instr) const;

  /// Nearest empty, unreserved trap to `anchor` (for 1-qubit relocations;
  /// invalid when none exists).
  TrapId find_empty_trap(const Workspace& state, Position anchor) const;

  Position qubit_position(const Workspace& state, QubitId qubit) const;

  const DependencyGraph* graph_;
  const Fabric* fabric_;
  std::vector<int> rank_;
  ExecutionOptions options_;
  Router router_;
};

/// Everything one run mutates, kept between runs so their buffers keep
/// their capacity: once warm, a run allocates only the buffers of the
/// ExecutionResult it returns. Any simulator (any circuit, fabric or
/// options) may use a workspace for its next run; each run resets the whole
/// state first, so nothing carries over, not even from a run that threw.
/// Thread-confined: one workspace per thread, like the SearchArena it owns.
class EventSimulator::Workspace {
 private:
  friend class EventSimulator;

  /// Qubits in `trap`, in arrival order.
  [[nodiscard]] std::span<const QubitId> occupants(TrapId trap) const {
    return {occupant_slots.data() + trap.index() * trap_capacity,
            occupant_count[trap.index()]};
  }
  void add_occupant(TrapId trap, QubitId qubit);
  void remove_occupant(TrapId trap, QubitId qubit);

  SearchArena<Duration> arena;
  CongestionState congestion{0, 0};
  std::vector<TrapId> qubit_trap;  // invalid while in transit
  // Trap t's occupants fill occupant_slots[t * trap_capacity, +count).
  std::size_t trap_capacity = 0;
  std::vector<QubitId> occupant_slots;
  std::vector<std::size_t> occupant_count;
  std::vector<InstructionId> trap_reserved_by;
  std::vector<int> remaining_preds;
  std::vector<int> pending_arrivals;
  // (rank, id) of ready instructions, sorted by each issue pass.
  std::vector<std::pair<int, InstructionId>> ready;
  std::vector<InstructionId> busy;
  std::vector<Event> events;  // min-heap on (time, seq)
  std::uint64_t next_seq = 0;
  std::size_t done_count = 0;
  // The timings and the trace move into the run's result. The next run
  // reserves the last trace's size, so a trace costs one allocation without
  // the workspace holding a buffer between runs.
  std::vector<InstructionTiming> timings;
  Trace trace;
  std::size_t last_trace_size = 0;
  ExecutionStats stats;
  // Operands of issued instructions whose departure is blocked by channel
  // congestion; they wait in their traps and route when resources free up
  // (this waiting is the paper's T_congestion in the channels).
  std::vector<std::pair<InstructionId, QubitId>> pending_routes;
  // --- return_home_after_gate bookkeeping ---
  std::vector<TrapId> home_trap;      // per qubit
  std::vector<TrapId> return_target;  // per qubit, while shuttling home
  std::vector<int> pending_returns;   // per instruction
  std::vector<bool> gate_done;        // per instruction (gate op finished)
  std::vector<std::pair<InstructionId, QubitId>> deferred_returns;
  // The list a retry pass walks while the live list refills; empty between
  // passes.
  std::vector<std::pair<InstructionId, QubitId>> retrying;
  // (from, to) trap pairs whose route search failed since a segment or
  // junction last left capacity. A failed search's reachable region is
  // walled only by full resources and by traps, which it never crosses.
  // Acquires only shrink that region, and only a resource leaving capacity
  // can grow it, so until then a listed pair stays unroutable and route()
  // answers it without searching.
  std::vector<std::pair<TrapId, TrapId>> blocked_routes;
  // The last route() result.
  RoutedPath path;
};

/// One-shot convenience wrapper.
ExecutionResult execute_circuit(const DependencyGraph& graph,
                                const Fabric& fabric,
                                const RoutingGraph& routing_graph,
                                const std::vector<int>& schedule_rank,
                                const Placement& initial,
                                const ExecutionOptions& options);

}  // namespace qspr

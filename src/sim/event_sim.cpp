#include "sim/event_sim.hpp"

#include <algorithm>
#include <array>
#include <functional>

#include "common/error.hpp"

namespace qspr {

void EventSimulator::Workspace::add_occupant(TrapId trap, QubitId qubit) {
  std::size_t& count = occupant_count[trap.index()];
  require(count < trap_capacity, "trap holds more qubits than its capacity");
  occupant_slots[trap.index() * trap_capacity + count++] = qubit;
}

void EventSimulator::Workspace::remove_occupant(TrapId trap, QubitId qubit) {
  const auto first =
      occupant_slots.begin() +
      static_cast<std::ptrdiff_t>(trap.index() * trap_capacity);
  std::size_t& count = occupant_count[trap.index()];
  const auto last = first + static_cast<std::ptrdiff_t>(count);
  const auto it = std::find(first, last, qubit);
  require(it != last, "qubit not in expected trap");
  std::copy(it + 1, last, it);
  --count;
}

EventSimulator::EventSimulator(const DependencyGraph& graph,
                               const Fabric& fabric,
                               const RoutingGraph& routing_graph,
                               std::vector<int> schedule_rank,
                               ExecutionOptions options)
    : graph_(&graph),
      fabric_(&fabric),
      rank_(std::move(schedule_rank)),
      options_(options),
      router_(routing_graph, options.tech, options.router) {
  options_.tech.validate();
  require(rank_.size() == graph.node_count(),
          "schedule rank size does not match instruction count");
  require(&routing_graph.fabric() == &fabric,
          "routing graph was built for a different fabric");
}

void EventSimulator::initialise(Workspace& state,
                                const Placement& initial) const {
  if (initial.qubit_count() != graph_->qubit_count()) {
    throw ValidationError("placement qubit count does not match circuit");
  }
  initial.validate(*fabric_, options_.tech.trap_capacity);

  const std::size_t traps = fabric_->trap_count();
  state.congestion.reset(fabric_->segment_count(), fabric_->junction_count());
  state.trap_capacity =
      static_cast<std::size_t>(options_.tech.trap_capacity);
  state.occupant_slots.resize(traps * state.trap_capacity);
  state.occupant_count.assign(traps, 0);
  state.trap_reserved_by.assign(traps, InstructionId::invalid());
  state.qubit_trap.resize(graph_->qubit_count());
  for (std::size_t q = 0; q < graph_->qubit_count(); ++q) {
    const QubitId qubit = QubitId::from_index(q);
    const TrapId trap = initial.trap_of(qubit);
    state.qubit_trap[q] = trap;
    state.add_occupant(trap, qubit);
  }

  const std::size_t n = graph_->node_count();
  state.remaining_preds.resize(n);
  state.pending_arrivals.assign(n, 0);
  state.ready.clear();
  state.busy.clear();
  state.events.clear();
  state.next_seq = 0;
  state.done_count = 0;
  state.timings.assign(n, InstructionTiming{});
  state.trace.clear();
  state.trace.reserve(state.last_trace_size);
  state.stats = ExecutionStats{};
  state.pending_routes.clear();
  state.home_trap = state.qubit_trap;
  state.return_target.assign(graph_->qubit_count(), TrapId::invalid());
  state.pending_returns.assign(n, 0);
  state.gate_done.assign(n, false);
  state.deferred_returns.clear();
  state.retrying.clear();
  state.blocked_routes.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = InstructionId::from_index(i);
    state.remaining_preds[i] =
        static_cast<int>(graph_->predecessors(id).size());
    if (state.remaining_preds[i] == 0) become_ready(state, id, 0);
  }
}

void EventSimulator::become_ready(Workspace& state, InstructionId id,
                                  TimePoint now) const {
  state.timings[id.index()].ready = now;
  state.ready.emplace_back(rank_[id.index()], id);
}

void EventSimulator::retry_busy(Workspace& state, TimePoint /*now*/) const {
  for (const InstructionId id : state.busy) {
    state.ready.emplace_back(rank_[id.index()], id);
  }
  state.busy.clear();
}

void EventSimulator::try_issue(Workspace& state, TimePoint now) const {
  // One pass in (rank, id) order. A successful issue only consumes
  // resources, so instructions that fail here cannot become issueable until
  // the next state-changing event; they park in the busy queue. One sort
  // orders the whole pass: (rank, id) pairs are unique, and nothing becomes
  // ready during a pass (instructions complete only in event handlers).
  std::sort(state.ready.begin(), state.ready.end());
  for (const auto& [rank, id] : state.ready) {
    if (!attempt_issue(state, id, now)) {
      state.busy.push_back(id);
      ++state.stats.busy_enqueues;
    }
  }
  state.ready.clear();
}

bool EventSimulator::attempt_issue(Workspace& state, InstructionId id,
                                   TimePoint now) const {
  const Instruction& instr = graph_->instruction(id);
  return instr.is_two_qubit() ? issue_two_qubit(state, id, now)
                              : issue_one_qubit(state, id, now);
}

bool EventSimulator::issue_one_qubit(Workspace& state, InstructionId id,
                                     TimePoint now) const {
  const Instruction& instr = graph_->instruction(id);
  const QubitId qubit = instr.target;
  const TrapId trap = state.qubit_trap[qubit.index()];
  require(trap.is_valid(), "operand qubit is in transit at issue time");

  const auto occupants = state.occupants(trap);
  const bool alone = occupants.size() == 1 && occupants.front() == qubit;
  if (alone && !state.trap_reserved_by[trap.index()].is_valid()) {
    state.timings[id.index()].issue = now;
    start_gate(state, id, trap, now);
    return true;
  }

  // §II.B: a 1-qubit operation requires the qubit alone in a trap, so a
  // co-resident qubit must first relocate to the nearest empty trap.
  const TrapId target = find_empty_trap(state, qubit_position(state, qubit));
  if (!target.is_valid() || !route(state, trap, target)) return false;

  state.timings[id.index()].issue = now;
  state.timings[id.index()].trap = target;
  state.trap_reserved_by[target.index()] = id;
  state.pending_arrivals[id.index()] = 1;
  dispatch_qubit(state, id, qubit, now);
  return true;
}

bool EventSimulator::issue_two_qubit(Workspace& state, InstructionId id,
                                     TimePoint now) const {
  const Instruction& instr = graph_->instruction(id);
  const QubitId a = instr.control;
  const QubitId b = instr.target;
  const TrapId trap_a = state.qubit_trap[a.index()];
  const TrapId trap_b = state.qubit_trap[b.index()];
  require(trap_a.is_valid() && trap_b.is_valid(),
          "operand qubit is in transit at issue time");

  // Operands already share a trap: execute in place.
  if (trap_a == trap_b) {
    state.timings[id.index()].issue = now;
    start_gate(state, id, trap_a, now);
    return true;
  }

  // Target trap selection (§IV.B): the nearest available trap to an anchor.
  // QSPR anchors at the median of the operand positions; the
  // destination-fixed policy of prior art anchors at the destination qubit,
  // whose own trap is the first one the search offers.
  Position anchor = fabric_->trap(trap_b).position;
  if (options_.dual_move) {
    const Position pa = fabric_->trap(trap_a).position;
    anchor = {(pa.row + anchor.row) / 2, (pa.col + anchor.col) / 2};
  }
  const TrapId target = find_target_trap(state, anchor, instr);
  if (!target.is_valid()) return false;

  std::array<QubitId, 2> moving;
  std::size_t moving_count = 0;
  for (const QubitId q : {a, b}) {
    if (state.qubit_trap[q.index()] != target) moving[moving_count++] = q;
  }
  require(moving_count > 0, "2-qubit issue with no moving qubit");

  // Commit to the target trap, then dispatch each operand independently: the
  // second route sees the first one's reservations, and an operand whose
  // departure is fully congested waits in its trap until channels free up.
  state.timings[id.index()].issue = now;
  state.timings[id.index()].trap = target;
  state.trap_reserved_by[target.index()] = id;
  state.pending_arrivals[id.index()] = static_cast<int>(moving_count);
  for (std::size_t i = 0; i < moving_count; ++i) {
    if (!try_dispatch_operand(state, id, moving[i], now)) {
      state.pending_routes.emplace_back(id, moving[i]);
    }
  }
  return true;
}

bool EventSimulator::try_dispatch_operand(Workspace& state, InstructionId id,
                                          QubitId qubit, TimePoint now) const {
  if (!route(state, state.qubit_trap[qubit.index()],
             state.timings[id.index()].trap)) {
    return false;
  }
  dispatch_qubit(state, id, qubit, now);
  return true;
}

void EventSimulator::retry_pending_routes(Workspace& state,
                                          TimePoint now) const {
  if (state.pending_routes.empty()) return;
  state.retrying.swap(state.pending_routes);
  for (const auto& [id, qubit] : state.retrying) {
    if (!try_dispatch_operand(state, id, qubit, now)) {
      state.pending_routes.emplace_back(id, qubit);
    }
  }
  state.retrying.clear();
}

bool EventSimulator::route(Workspace& state, TrapId from, TrapId to) const {
  const std::pair<TrapId, TrapId> pair{from, to};
  auto& blocked = state.blocked_routes;
  if (std::find(blocked.begin(), blocked.end(), pair) != blocked.end()) {
    return false;
  }
  if (!router_.route_trap_to_trap(from, to, state.congestion, state.arena,
                                  state.path)) {
    blocked.push_back(pair);
    return false;
  }
  return true;
}

void EventSimulator::push_event(Workspace& state, const Event& event) {
  state.events.push_back(event);
  std::push_heap(state.events.begin(), state.events.end(), std::greater<>{});
}

void EventSimulator::dispatch_qubit(Workspace& state, InstructionId id,
                                    QubitId qubit, TimePoint now,
                                    Event::Kind arrival_kind) const {
  const RoutedPath& path = state.path;
  for (const ResourceUse& use : path.resource_uses) {
    state.congestion.acquire(use.resource);
  }
  const TrapId origin = state.qubit_trap[qubit.index()];
  state.remove_occupant(origin, qubit);
  state.qubit_trap[qubit.index()] = TrapId::invalid();

  TimePoint t = now;
  for (const PathStep& step : path.steps) {
    MicroOp op;
    op.kind = step.kind == StepKind::Move ? MicroOpKind::Move
                                          : MicroOpKind::Turn;
    op.instruction = id;
    op.qubit = qubit;
    op.from = step.from;
    op.to = step.to;
    op.start = t;
    op.end = t + step.duration;
    state.trace.add(op);
    t = op.end;
    if (step.kind == StepKind::Move) {
      ++state.stats.moves;
    } else {
      ++state.stats.turns;
    }
  }

  for (const ResourceUse& use : path.resource_uses) {
    Event event;
    event.time = now + use.exit_offset;
    event.seq = state.next_seq++;
    event.kind = Event::Kind::ResourceRelease;
    event.resource = use.resource;
    push_event(state, event);
  }

  Event arrival;
  arrival.time = t;  // now + path.total_delay()
  arrival.seq = state.next_seq++;
  arrival.kind = arrival_kind;
  arrival.instruction = id;
  arrival.qubit = qubit;
  push_event(state, arrival);
}

void EventSimulator::start_gate(Workspace& state, InstructionId id, TrapId trap,
                                TimePoint now) const {
  const Instruction& instr = graph_->instruction(id);
  state.trap_reserved_by[trap.index()] = id;
  state.timings[id.index()].gate_start = now;
  state.timings[id.index()].trap = trap;
  const Duration delay = gate_delay(instr.kind, options_.tech);

  MicroOp op;
  op.kind = MicroOpKind::Gate;
  op.instruction = id;
  op.from = fabric_->trap(trap).position;
  op.to = op.from;
  op.start = now;
  op.end = now + delay;
  state.trace.add(op);

  Event finished;
  finished.time = now + delay;
  finished.seq = state.next_seq++;
  finished.kind = Event::Kind::GateFinished;
  finished.instruction = id;
  push_event(state, finished);
}

void EventSimulator::finish_gate(Workspace& state, InstructionId id,
                                 TimePoint now) const {
  state.timings[id.index()].gate_end = now;
  state.gate_done[id.index()] = true;
  const TrapId trap = state.timings[id.index()].trap;
  require(state.trap_reserved_by[trap.index()] == id,
          "gate finished in a trap reserved by someone else");
  state.trap_reserved_by[trap.index()] = InstructionId::invalid();

  if (options_.return_home_after_gate) {
    // QUALE storage discipline: visiting ions shuttle back before dependents
    // may proceed.
    const Instruction& instr = graph_->instruction(id);
    for (const QubitId operand : instr.operands()) {
      if (state.qubit_trap[operand.index()] !=
          state.home_trap[operand.index()]) {
        if (!initiate_return(state, id, operand, now)) {
          state.deferred_returns.emplace_back(id, operand);
          ++state.pending_returns[id.index()];
        }
      }
    }
  }
  if (state.pending_returns[id.index()] == 0) {
    complete_instruction(state, id, now);
  }
}

void EventSimulator::complete_instruction(Workspace& state, InstructionId id,
                                          TimePoint now) const {
  ++state.done_count;
  for (const InstructionId succ : graph_->successors(id)) {
    if (--state.remaining_preds[succ.index()] == 0) {
      become_ready(state, succ, now);
    }
  }
}

bool EventSimulator::initiate_return(Workspace& state, InstructionId id,
                                     QubitId qubit, TimePoint now) const {
  const TrapId origin = state.qubit_trap[qubit.index()];
  require(origin.is_valid(), "returning qubit is not parked");
  const TrapId home = state.home_trap[qubit.index()];

  // Preferred target is the home trap; fall back to the nearest empty trap
  // when something else claimed it in the meantime.
  TrapId target = home;
  const bool home_free = state.occupants(home).empty() &&
                         !state.trap_reserved_by[home.index()].is_valid();
  if (!home_free) {
    target = find_empty_trap(state, fabric_->trap(home).position);
    if (!target.is_valid()) return false;
  }

  if (!route(state, origin, target)) return false;

  state.trap_reserved_by[target.index()] = id;
  state.return_target[qubit.index()] = target;
  ++state.pending_returns[id.index()];
  dispatch_qubit(state, id, qubit, now, Event::Kind::ReturnArrived);
  return true;
}

void EventSimulator::retry_deferred_returns(Workspace& state,
                                            TimePoint now) const {
  if (state.deferred_returns.empty()) return;
  state.retrying.swap(state.deferred_returns);
  for (const auto& [id, qubit] : state.retrying) {
    // The pending_returns slot was counted when the return was deferred.
    --state.pending_returns[id.index()];
    if (!initiate_return(state, id, qubit, now)) {
      state.deferred_returns.emplace_back(id, qubit);
      ++state.pending_returns[id.index()];
    }
  }
  state.retrying.clear();
}

bool EventSimulator::trap_available(const Workspace& state, TrapId trap,
                                    const Instruction& instr) const {
  const InstructionId holder = state.trap_reserved_by[trap.index()];
  if (holder.is_valid() && holder != instr.id) return false;
  for (const QubitId occupant : state.occupants(trap)) {
    if (!instr.uses(occupant)) return false;
  }
  return true;
}

TrapId EventSimulator::find_target_trap(const Workspace& state,
                                        Position anchor,
                                        const Instruction& instr) const {
  return fabric_->find_nearest_trap(anchor, [&](TrapId trap) {
    return trap_available(state, trap, instr);
  });
}

TrapId EventSimulator::find_empty_trap(const Workspace& state,
                                       Position anchor) const {
  return fabric_->find_nearest_trap(anchor, [&](TrapId trap) {
    return state.occupants(trap).empty() &&
           !state.trap_reserved_by[trap.index()].is_valid();
  });
}

Position EventSimulator::qubit_position(const Workspace& state,
                                        QubitId qubit) const {
  const TrapId trap = state.qubit_trap[qubit.index()];
  require(trap.is_valid(), "qubit position queried while in transit");
  return fabric_->trap(trap).position;
}

ExecutionResult EventSimulator::run(const Placement& initial) const {
  Workspace workspace;
  ExecutionResult result = run(initial, workspace);
  result.trace.sort_by_time();
  return result;
}

ExecutionResult EventSimulator::run(const Placement& initial,
                                    Workspace& state) const {
  // The arena's settle counter is monotone across its lifetime (it may be
  // shared by many runs); attribute only this run's searches to the stats.
  const std::uint64_t settles_before = state.arena.settle_count();
  initialise(state, initial);
  try_issue(state, 0);

  while (!state.events.empty()) {
    std::pop_heap(state.events.begin(), state.events.end(), std::greater<>{});
    const Event event = state.events.back();
    state.events.pop_back();
    const TimePoint now = event.time;
    bool fabric_changed = false;

    switch (event.kind) {
      case Event::Kind::ResourceRelease: {
        const ResourceRef resource = event.resource;
        const bool was_full = router_.at_capacity(
            resource.kind, state.congestion.load(resource));
        state.congestion.release(resource);
        // Only a resource leaving capacity can reopen a route whose search
        // failed; see Workspace::blocked_routes.
        if (was_full && !router_.at_capacity(resource.kind,
                                             state.congestion.load(resource))) {
          state.blocked_routes.clear();
        }
        fabric_changed = true;
        break;
      }
      case Event::Kind::QubitArrived: {
        const InstructionId id = event.instruction;
        // The reserved target trap was recorded at issue time.
        const TrapId destination = state.timings[id.index()].trap;
        require(destination.is_valid(),
                "arrival for an instruction with no reserved trap");
        state.qubit_trap[event.qubit.index()] = destination;
        state.add_occupant(destination, event.qubit);
        if (!graph_->instruction(id).is_two_qubit()) {
          // A 1-qubit relocation settles the qubit in a new home.
          state.home_trap[event.qubit.index()] = destination;
        }
        if (--state.pending_arrivals[id.index()] == 0) {
          start_gate(state, id, destination, now);
        }
        break;
      }
      case Event::Kind::ReturnArrived: {
        const InstructionId id = event.instruction;
        const QubitId qubit = event.qubit;
        const TrapId destination = state.return_target[qubit.index()];
        require(destination.is_valid(), "return without a target trap");
        state.return_target[qubit.index()] = TrapId::invalid();
        require(state.trap_reserved_by[destination.index()] == id,
                "return target reservation lost");
        state.trap_reserved_by[destination.index()] =
            InstructionId::invalid();
        state.qubit_trap[qubit.index()] = destination;
        state.add_occupant(destination, qubit);
        state.home_trap[qubit.index()] = destination;
        if (--state.pending_returns[id.index()] == 0 &&
            state.gate_done[id.index()]) {
          complete_instruction(state, id, now);
        }
        fabric_changed = true;  // a trap reservation was freed
        break;
      }
      case Event::Kind::GateFinished:
        finish_gate(state, event.instruction, now);
        fabric_changed = true;
        break;
    }

    if (fabric_changed) {
      retry_pending_routes(state, now);
      retry_deferred_returns(state, now);
      retry_busy(state, now);
      try_issue(state, now);
    }
  }

  if (state.done_count != graph_->node_count()) {
    throw SimulationError(
        "execution stalled: " +
        std::to_string(graph_->node_count() - state.done_count) +
        " instruction(s) cannot be placed/routed on this fabric");
  }

  ExecutionResult result;
  result.initial_placement = initial;
  state.last_trace_size = state.trace.size();
  result.trace = std::move(state.trace);
  result.latency = result.trace.makespan();
  result.timings = std::move(state.timings);
  result.stats = state.stats;
  result.stats.nodes_settled =
      static_cast<long long>(state.arena.settle_count() - settles_before);
  result.stats.total_routing = 0;
  result.stats.total_congestion = 0;
  for (const InstructionTiming& timing : result.timings) {
    result.stats.total_routing += timing.t_routing();
    result.stats.total_congestion += timing.t_congestion();
  }
  result.final_placement = Placement(graph_->qubit_count());
  for (std::size_t q = 0; q < graph_->qubit_count(); ++q) {
    result.final_placement.set(QubitId::from_index(q), state.qubit_trap[q]);
  }
  return result;
}

ExecutionResult execute_circuit(const DependencyGraph& graph,
                                const Fabric& fabric,
                                const RoutingGraph& routing_graph,
                                const std::vector<int>& schedule_rank,
                                const Placement& initial,
                                const ExecutionOptions& options) {
  EventSimulator simulator(graph, fabric, routing_graph, schedule_rank,
                           options);
  return simulator.run(initial);
}

}  // namespace qspr

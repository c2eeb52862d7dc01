#include "sim/trace_validator.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace qspr {

namespace {

struct Interval {
  TimePoint begin = 0;
  TimePoint end = 0;
};

/// Sweep: max simultaneous overlap among intervals (boundaries exclusive:
/// an interval ending at t does not overlap one starting at t).
int max_overlap(std::vector<Interval>& intervals) {
  std::vector<std::pair<TimePoint, int>> events;
  events.reserve(intervals.size() * 2);
  for (const Interval& iv : intervals) {
    events.emplace_back(iv.begin, +1);
    events.emplace_back(iv.end, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // process -1 before +1 at ties
            });
  int current = 0;
  int peak = 0;
  for (const auto& [time, delta] : events) {
    current += delta;
    peak = std::max(peak, current);
  }
  return peak;
}

std::string describe_op(const MicroOp& op) {
  std::ostringstream os;
  os << "op[" << op.start << "," << op.end << "]";
  if (op.qubit.is_valid()) os << " q" << op.qubit.value();
  os << " #" << op.instruction.value();
  return os.str();
}

}  // namespace

std::vector<std::string> validate_trace(const Trace& trace,
                                        const DependencyGraph& graph,
                                        const Fabric& fabric,
                                        const Placement& initial,
                                        const TechnologyParams& params) {
  std::vector<std::string> violations;
  const auto report = [&violations](const std::string& message) {
    violations.push_back(message);
  };

  // Partition ops per qubit (moves/turns) and per instruction (gates).
  const std::size_t qubit_count = graph.qubit_count();
  std::vector<std::vector<const MicroOp*>> qubit_ops(qubit_count);
  std::vector<const MicroOp*> gate_ops(graph.node_count(), nullptr);
  for (const MicroOp& op : trace.ops()) {
    if (op.kind == MicroOpKind::Gate) {
      if (!op.instruction.is_valid() ||
          op.instruction.index() >= graph.node_count()) {
        report("gate op with invalid instruction id");
        continue;
      }
      if (gate_ops[op.instruction.index()] != nullptr) {
        report("instruction #" + std::to_string(op.instruction.value()) +
               " executes more than once");
      }
      gate_ops[op.instruction.index()] = &op;
      continue;
    }
    if (!op.qubit.is_valid() || op.qubit.index() >= qubit_count) {
      report("relocation op with invalid qubit id: " + describe_op(op));
      continue;
    }
    qubit_ops[op.qubit.index()].push_back(&op);
  }

  // Every instruction must have executed, with the right duration & trap.
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    const Instruction& instr =
        graph.instruction(InstructionId::from_index(i));
    const MicroOp* gate = gate_ops[i];
    if (gate == nullptr) {
      report("instruction #" + std::to_string(i) + " never executed");
      continue;
    }
    if (gate->end - gate->start != gate_delay(instr.kind, params)) {
      report("instruction #" + std::to_string(i) + " has wrong gate delay");
    }
    if (!fabric.trap_at(gate->from).is_valid()) {
      report("instruction #" + std::to_string(i) +
             " executed outside a trap at " + to_string(gate->from));
    }
  }

  // Per-qubit trajectory checks; also reconstruct trap-residency and
  // channel/junction occupancy intervals. Occupancy is collected per
  // (resource, qubit) and merged, so that one qubit traversing several cells
  // of a segment counts once, not once per cell.
  std::map<std::int32_t, std::vector<Interval>> trap_residency;
  std::map<std::pair<std::int32_t, std::size_t>, std::vector<Interval>>
      segment_touches;
  std::map<std::pair<std::int32_t, std::size_t>, std::vector<Interval>>
      junction_touches;

  std::size_t current_qubit = 0;
  const auto record_cell = [&](Position cell, TimePoint begin, TimePoint end) {
    const SegmentId segment = fabric.segment_at(cell);
    if (segment.is_valid()) {
      segment_touches[{segment.value(), current_qubit}].push_back(
          {begin, end});
    }
    const JunctionId junction = fabric.junction_at(cell);
    if (junction.is_valid()) {
      junction_touches[{junction.value(), current_qubit}].push_back(
          {begin, end});
    }
  };

  const TimePoint makespan = trace.makespan();
  for (std::size_t q = 0; q < qubit_count; ++q) {
    current_qubit = q;
    auto& ops = qubit_ops[q];
    std::stable_sort(ops.begin(), ops.end(),
                     [](const MicroOp* a, const MicroOp* b) {
                       return a->start < b->start;
                     });
    const TrapId start_trap = initial.trap_of(QubitId::from_index(q));
    if (!start_trap.is_valid()) {  // idle: it must stay out of the trace
      if (!ops.empty()) {
        report("q" + std::to_string(q) +
               " has no initial trap but the trace relocates it");
      }
      continue;
    }
    Position position = fabric.trap(start_trap).position;
    TimePoint clock = 0;

    // Collect gate ops of instructions using q to interleave position checks.
    for (const MicroOp* op : ops) {
      if (op->start < clock) {
        report("q" + std::to_string(q) + " ops overlap in time: " +
               describe_op(*op));
      }
      // If the qubit was parked in a trap, record the residency interval.
      if (fabric.trap_at(position).is_valid() && op->start > clock) {
        trap_residency[fabric.trap_at(position).value()].push_back(
            {clock, op->start});
      }
      if (op->kind == MicroOpKind::Move) {
        if (!(op->from == position)) {
          report("q" + std::to_string(q) + " move starts at " +
                 to_string(op->from) + " but qubit is at " +
                 to_string(position));
        }
        if (!are_adjacent(op->from, op->to)) {
          report("q" + std::to_string(q) + " non-adjacent move " +
                 describe_op(*op));
        }
        if (op->end - op->start != params.t_move) {
          report("q" + std::to_string(q) + " move with wrong duration");
        }
        const CellType to_type = fabric.cell(op->to);
        if (to_type == CellType::Empty) {
          report("q" + std::to_string(q) + " moves into an empty cell at " +
                 to_string(op->to));
        }
        record_cell(op->from, op->start, op->end);
        record_cell(op->to, op->start, op->end);
        position = op->to;
      } else {  // Turn
        if (!(op->from == position) || !(op->to == position)) {
          report("q" + std::to_string(q) + " turn not in place: " +
                 describe_op(*op));
        }
        if (op->end - op->start != params.t_turn) {
          report("q" + std::to_string(q) + " turn with wrong duration");
        }
        record_cell(op->from, op->start, op->end);
      }
      clock = std::max(clock, op->end);
    }
    // Trailing residency until the end of execution.
    if (fabric.trap_at(position).is_valid()) {
      trap_residency[fabric.trap_at(position).value()].push_back(
          {clock, makespan + 1});
    } else {
      report("q" + std::to_string(q) + " does not end parked in a trap");
    }
  }

  // Gate preconditions: all operand qubits resident at the gate's trap for
  // the whole gate interval.
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    const MicroOp* gate = gate_ops[i];
    if (gate == nullptr) continue;
    const Instruction& instr =
        graph.instruction(InstructionId::from_index(i));
    const TrapId trap = fabric.trap_at(gate->from);
    if (!trap.is_valid()) continue;  // already reported
    for (const QubitId operand : instr.operands()) {
      if (!initial.trap_of(operand).is_valid()) {
        report("q" + std::to_string(operand.value()) +
               " has no initial trap but gate #" + std::to_string(i) +
               " uses it");
        continue;
      }
      // Replay the operand's trajectory to find its position at gate time.
      Position position =
          fabric.trap(initial.trap_of(operand)).position;
      for (const MicroOp* op : qubit_ops[operand.index()]) {
        if (op->end <= gate->start) {
          if (op->kind == MicroOpKind::Move) position = op->to;
        } else if (op->start < gate->end) {
          report("q" + std::to_string(operand.value()) +
                 " relocates during gate #" + std::to_string(i));
        }
      }
      if (!(position == gate->from)) {
        report("q" + std::to_string(operand.value()) +
               " is at " + to_string(position) + " but gate #" +
               std::to_string(i) + " executes at " + to_string(gate->from));
      }
    }
  }

  // Capacity checks. First merge each qubit's touches of a resource into
  // contiguous presence episodes, then sweep across qubits.
  const auto merge_episodes = [](std::vector<Interval>& intervals) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin < b.begin;
              });
    std::vector<Interval> merged;
    for (const Interval& iv : intervals) {
      if (!merged.empty() && iv.begin <= merged.back().end) {
        merged.back().end = std::max(merged.back().end, iv.end);
      } else {
        merged.push_back(iv);
      }
    }
    return merged;
  };
  std::map<std::int32_t, std::vector<Interval>> segment_occupancy;
  for (auto& [key, intervals] : segment_touches) {
    for (const Interval& iv : merge_episodes(intervals)) {
      segment_occupancy[key.first].push_back(iv);
    }
  }
  std::map<std::int32_t, std::vector<Interval>> junction_occupancy;
  for (auto& [key, intervals] : junction_touches) {
    for (const Interval& iv : merge_episodes(intervals)) {
      junction_occupancy[key.first].push_back(iv);
    }
  }
  for (auto& [segment, intervals] : segment_occupancy) {
    const int peak = max_overlap(intervals);
    if (peak > params.channel_capacity) {
      report("segment " + std::to_string(segment) + " holds " +
             std::to_string(peak) + " qubits (capacity " +
             std::to_string(params.channel_capacity) + ")");
    }
  }
  for (auto& [junction, intervals] : junction_occupancy) {
    const int peak = max_overlap(intervals);
    if (peak > params.junction_capacity) {
      report("junction " + std::to_string(junction) + " holds " +
             std::to_string(peak) + " qubits (capacity " +
             std::to_string(params.junction_capacity) + ")");
    }
  }
  for (auto& [trap, intervals] : trap_residency) {
    const int peak = max_overlap(intervals);
    if (peak > params.trap_capacity) {
      report("trap " + std::to_string(trap) + " holds " +
             std::to_string(peak) + " qubits (capacity " +
             std::to_string(params.trap_capacity) + ")");
    }
  }

  return violations;
}

}  // namespace qspr

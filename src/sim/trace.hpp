// The control trace: the timed micro-commands the quantum system controller
// would issue to realise the mapped circuit (paper §IV.A calls this "a trace
// of quantum control micro-commands, specifying the moves and turns of
// individual qubits and the gate level operations").
//
// Because quantum computation is reversible, a trace can be *time-reversed*:
// when MVFB's best result comes from a backward (UIDG) execution, the
// reported solution is the reverse of that backward trace (§IV.A).
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

#include "common/geometry.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"

namespace qspr {

enum class MicroOpKind : std::uint8_t { Move, Turn, Gate };

struct MicroOp {
  MicroOpKind kind = MicroOpKind::Move;
  /// Instruction this op serves.
  InstructionId instruction;
  /// Relocating qubit (invalid for Gate ops, which involve all operands).
  QubitId qubit;
  Position from;
  Position to;  // == from for turns and gates (the trap cell for gates)
  TimePoint start = 0;
  TimePoint end = 0;
};

class Trace {
 public:
  void add(MicroOp op) { ops_.push_back(op); }
  void clear() { ops_.clear(); }
  void reserve(std::size_t ops) { ops_.reserve(ops); }

  [[nodiscard]] const std::vector<MicroOp>& ops() const { return ops_; }
  [[nodiscard]] std::size_t size() const { return ops_.size(); }

  [[nodiscard]] std::size_t move_count() const;
  [[nodiscard]] std::size_t turn_count() const;
  [[nodiscard]] std::size_t gate_count() const;

  /// Completion time of the last micro-op (0 for an empty trace).
  [[nodiscard]] TimePoint makespan() const;

  /// Stable sort by (start, end); op order within a timestamp is preserved.
  void sort_by_time();

  /// The time-mirrored trace: op times map to [makespan - end, makespan -
  /// start] and moves swap from/to. Result is sorted by time.
  [[nodiscard]] Trace time_reversed() const;

  /// Human-readable rendering, one op per line (debugging / examples).
  [[nodiscard]] std::string to_string() const;

  /// Passes the text of to_string() to `sink` as consecutive
  /// std::string_view pieces, without building it. map_result_fingerprint
  /// hashes these bytes, so every recorded result_fp pins the format.
  template <typename Sink>
  void write_text(Sink&& sink) const;

 private:
  std::vector<MicroOp> ops_;
};

template <typename Sink>
void Trace::write_text(Sink&& sink) const {
  const auto put = [&sink](std::string_view piece) { sink(piece); };
  const auto number = [&put](long long value) {
    char digits[24];
    const char* const end =
        std::to_chars(digits, digits + sizeof digits, value).ptr;
    put(std::string_view(digits, static_cast<std::size_t>(end - digits)));
  };
  const auto position = [&](Position p) {
    put("(");
    number(p.row);
    put(",");
    number(p.col);
    put(")");
  };
  for (const MicroOp& op : ops_) {
    put("[");
    number(op.start);
    put(",");
    number(op.end);
    put("] ");
    switch (op.kind) {
      case MicroOpKind::Move:
        put("move  q");
        number(op.qubit.value());
        put(" ");
        position(op.from);
        put(" -> ");
        position(op.to);
        break;
      case MicroOpKind::Turn:
        put("turn  q");
        number(op.qubit.value());
        put(" at ");
        position(op.from);
        break;
      case MicroOpKind::Gate:
        put("gate  #");
        number(op.instruction.value());
        put(" at ");
        position(op.from);
        break;
    }
    put("\n");
  }
}

}  // namespace qspr

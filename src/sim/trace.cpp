#include "sim/trace.hpp"

#include <algorithm>

namespace qspr {

namespace {

std::size_t count_kind(const std::vector<MicroOp>& ops, MicroOpKind kind) {
  return static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(),
                    [kind](const MicroOp& op) { return op.kind == kind; }));
}

}  // namespace

std::size_t Trace::move_count() const {
  return count_kind(ops_, MicroOpKind::Move);
}

std::size_t Trace::turn_count() const {
  return count_kind(ops_, MicroOpKind::Turn);
}

std::size_t Trace::gate_count() const {
  return count_kind(ops_, MicroOpKind::Gate);
}

TimePoint Trace::makespan() const {
  TimePoint latest = 0;
  for (const MicroOp& op : ops_) latest = std::max(latest, op.end);
  return latest;
}

void Trace::sort_by_time() {
  std::stable_sort(ops_.begin(), ops_.end(),
                   [](const MicroOp& a, const MicroOp& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.end < b.end;
                   });
}

Trace Trace::time_reversed() const {
  const TimePoint total = makespan();
  Trace reversed;
  for (const MicroOp& op : ops_) {
    MicroOp mirrored = op;
    mirrored.start = total - op.end;
    mirrored.end = total - op.start;
    if (op.kind == MicroOpKind::Move) {
      mirrored.from = op.to;
      mirrored.to = op.from;
    }
    reversed.add(mirrored);
  }
  reversed.sort_by_time();
  return reversed;
}

std::string Trace::to_string() const {
  std::string text;
  write_text([&text](std::string_view piece) { text += piece; });
  return text;
}

}  // namespace qspr

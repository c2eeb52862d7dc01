#include "route/congestion.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace qspr {

CongestionLedger::CongestionLedger(std::size_t segment_count,
                                   std::size_t junction_count,
                                   int segment_capacity, int junction_capacity)
    : occupancy_(segment_count + junction_count, 0),
      history_(segment_count + junction_count, 0.0),
      overused_pos_(segment_count + junction_count, -1),
      segment_count_(segment_count),
      segment_capacity_(segment_capacity),
      junction_capacity_(junction_capacity) {
  require(segment_capacity >= 1 && junction_capacity >= 1,
          "resource capacities must be at least 1");
}

void CongestionLedger::acquire(std::size_t index) {
  const int occupancy = ++occupancy_[index];
  if (occupancy > capacity(index) && overused_pos_[index] < 0) {
    overused_pos_[index] = static_cast<std::int32_t>(overused_.size());
    overused_.push_back(static_cast<std::uint32_t>(index));
  }
}

void CongestionLedger::release(std::size_t index) {
  const int occupancy = --occupancy_[index];
  if (occupancy <= capacity(index) && overused_pos_[index] >= 0) {
    const std::int32_t pos = overused_pos_[index];
    const std::uint32_t last = overused_.back();
    overused_[static_cast<std::size_t>(pos)] = last;
    overused_pos_[last] = pos;
    overused_.pop_back();
    overused_pos_[index] = -1;
  }
}

void CongestionLedger::mark_structural(
    const std::vector<std::uint32_t>& indices) {
  if (indices.empty()) return;
  structural_.assign(occupancy_.size(), 0);
  for (const std::uint32_t index : indices) structural_[index] = 1;
}

CongestionLedger::OveruseSummary CongestionLedger::charge_history(
    double history_increment) {
  OveruseSummary summary;
  summary.overused = static_cast<int>(overused_.size());
  for (const std::uint32_t index : overused_) {
    if (!is_structural(index)) history_[index] += history_increment;
    const int excess = occupancy_[index] - capacity(index);
    summary.max_overuse = std::max(summary.max_overuse, excess);
    summary.total_excess += excess;
  }
  return summary;
}

CongestionState::CongestionState(std::size_t segment_count,
                                 std::size_t junction_count)
    : segment_load_(segment_count, 0), junction_load_(junction_count, 0) {}

void CongestionState::reset(std::size_t segment_count,
                            std::size_t junction_count) {
  segment_load_.assign(segment_count, 0);
  junction_load_.assign(junction_count, 0);
}

int CongestionState::load(ResourceRef resource) const {
  require(resource.index >= 0, "invalid resource");
  if (resource.kind == ResourceRef::Kind::Segment) {
    return segment_load_[static_cast<std::size_t>(resource.index)];
  }
  return junction_load_[static_cast<std::size_t>(resource.index)];
}

void CongestionState::acquire(ResourceRef resource) {
  require(resource.index >= 0, "invalid resource");
  auto& table = resource.kind == ResourceRef::Kind::Segment ? segment_load_
                                                            : junction_load_;
  ++table[static_cast<std::size_t>(resource.index)];
}

void CongestionState::release(ResourceRef resource) {
  require(resource.index >= 0, "invalid resource");
  auto& table = resource.kind == ResourceRef::Kind::Segment ? segment_load_
                                                            : junction_load_;
  int& load = table[static_cast<std::size_t>(resource.index)];
  if (load <= 0) {
    throw SimulationError("releasing a routing resource with zero load");
  }
  --load;
}

long long CongestionState::total_load() const {
  return std::accumulate(segment_load_.begin(), segment_load_.end(), 0LL) +
         std::accumulate(junction_load_.begin(), junction_load_.end(), 0LL);
}

}  // namespace qspr

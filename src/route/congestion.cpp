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

void CongestionLedger::begin_iteration(double present_factor,
                                       bool track_floor) {
  present_factor_ = present_factor;
  track_floor_ = track_floor;
  penalty_floor_ = 1.0;
  if (!track_floor_ || occupancy_.empty()) return;
  double floor = entering_penalty(0);
  for (std::size_t i = 1; i < occupancy_.size(); ++i) {
    floor = std::min(floor, entering_penalty(i));
  }
  penalty_floor_ = std::max(1.0, floor);
}

void CongestionLedger::acquire(std::size_t index) {
  const int occupancy = ++occupancy_[index];
  if (speculating_) update_divergence(index, occupancy - 1, occupancy);
  if (occupancy > capacity(index) && overused_pos_[index] < 0) {
    overused_pos_[index] = static_cast<std::int32_t>(overused_.size());
    overused_.push_back(static_cast<std::uint32_t>(index));
  }
}

void CongestionLedger::release(std::size_t index) {
  const int occupancy = --occupancy_[index];
  if (speculating_) update_divergence(index, occupancy + 1, occupancy);
  if (occupancy <= capacity(index) && overused_pos_[index] >= 0) {
    const std::int32_t pos = overused_pos_[index];
    const std::uint32_t last = overused_.back();
    overused_[static_cast<std::size_t>(pos)] = last;
    overused_pos_[last] = pos;
    overused_.pop_back();
    overused_pos_[index] = -1;
  }
  // Occupancy decrements can lower a resource's penalty below the floor
  // computed at iteration start; min-updating here keeps the floor a true
  // lower bound throughout the iteration (increments only raise penalties).
  if (track_floor_) {
    penalty_floor_ =
        std::max(1.0, std::min(penalty_floor_, entering_penalty(index)));
  }
}

void CongestionLedger::begin_speculation() {
  speculation_base_ = occupancy_;  // copy-assign reuses capacity per wave
  diverged_count_ = 0;
  speculating_ = true;
}

void CongestionLedger::end_speculation() { speculating_ = false; }

void CongestionLedger::update_divergence(std::size_t index, int old_occupancy,
                                         int new_occupancy) {
  // Penalties within one iteration depend on occupancy alone, and two
  // occupancies price identically iff equal or both below capacity.
  const int base = speculation_base_[index];
  const int cap = capacity(index);
  const bool was = old_occupancy != base && std::max(old_occupancy, base) >= cap;
  const bool now = new_occupancy != base && std::max(new_occupancy, base) >= cap;
  diverged_count_ += static_cast<int>(now) - static_cast<int>(was);
}

void CongestionLedger::mark_structural(
    const std::vector<std::uint32_t>& indices) {
  if (indices.empty()) return;
  structural_.assign(occupancy_.size(), 0);
  for (const std::uint32_t index : indices) structural_[index] = 1;
}

void CongestionLedger::seed_history(const std::vector<double>& history) {
  require(history.size() == history_.size(),
          "history seed size does not match the resource table");
  history_ = history;
  max_history_ = 0.0;
  for (const double value : history_) {
    max_history_ = std::max(max_history_, value);
  }
}

CongestionLedger::OveruseSummary CongestionLedger::charge_history(
    double history_increment) {
  OveruseSummary summary;
  summary.overused = static_cast<int>(overused_.size());
  for (const std::uint32_t index : overused_) {
    if (!is_structural(index)) {
      history_[index] += history_increment;
      max_history_ = std::max(max_history_, history_[index]);
    }
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

// Dynamic routing-resource state: how many qubits are using — or have
// reserved for imminent use — each channel segment and junction ("n" in the
// paper's Eq. 2). Reservations are taken for a qubit's whole path when its
// instruction is issued and released as the qubit exits each resource, so a
// fully congested channel's edges weigh infinity until somebody leaves.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"

namespace qspr {

/// A capacity-limited routing resource: a channel segment or a junction.
struct ResourceRef {
  enum class Kind : std::uint8_t { Segment, Junction };
  Kind kind = Kind::Segment;
  std::int32_t index = -1;

  static ResourceRef segment(SegmentId id) {
    return {Kind::Segment, id.value()};
  }
  static ResourceRef junction(JunctionId id) {
    return {Kind::Junction, id.value()};
  }

  friend bool operator==(const ResourceRef&, const ResourceRef&) = default;
};

/// Negotiated-congestion bookkeeping of one PathFinder run, dense over all
/// resources (segments first, then junctions — the same layout the inner
/// searches index by).
///
/// Besides the present occupancy and the cross-iteration history penalty it
/// maintains the **over-use delta set** incrementally: the exact set of
/// currently over-capacity resources, updated in O(1) as paths are ripped up
/// (release) and re-inserted (acquire). Charging history and building the
/// dirty-net worklist of the partial rip-up touch only this set, so the
/// negotiation loop never sweeps every resource per iteration.
class CongestionLedger {
 public:
  CongestionLedger(std::size_t segment_count, std::size_t junction_count,
                   int segment_capacity, int junction_capacity);

  [[nodiscard]] std::size_t size() const { return occupancy_.size(); }

  /// Dense index of a resource: segments first, then junctions.
  [[nodiscard]] std::size_t index_of(ResourceRef resource) const {
    return resource.kind == ResourceRef::Kind::Segment
               ? static_cast<std::size_t>(resource.index)
               : segment_count_ + static_cast<std::size_t>(resource.index);
  }

  [[nodiscard]] int capacity(std::size_t index) const {
    return index < segment_count_ ? segment_capacity_ : junction_capacity_;
  }
  [[nodiscard]] int occupancy(std::size_t index) const {
    return occupancy_[index];
  }
  [[nodiscard]] double history(std::size_t index) const {
    return history_[index];
  }
  [[nodiscard]] bool is_overused(std::size_t index) const {
    return overused_pos_[index] >= 0;
  }

  /// The negotiated cost multiplier one more occupant would pay to enter the
  /// resource: (1 + over * present_factor) * (1 + history), over counted
  /// above capacity. Uses the present factor of the current iteration.
  [[nodiscard]] double entering_penalty(std::size_t index) const {
    const int over = occupancy_[index] + 1 - capacity(index);
    const double present =
        over > 0 ? 1.0 + static_cast<double>(over) * present_factor_ : 1.0;
    return present * (1.0 + history_[index]);
  }

  /// Present-congestion factor fixed by the last begin_iteration().
  [[nodiscard]] double present_factor() const { return present_factor_; }

  /// Starts a negotiation iteration: fixes the present factor.
  void begin_iteration(double present_factor) {
    present_factor_ = present_factor;
  }

  void acquire(std::size_t index);
  void release(std::size_t index);

  /// Marks resources whose over-use is structurally unavoidable (endpoint
  /// port demand above port capacity). They still count as over-used — the
  /// solution stays illegal and is reported as such — but charge_history
  /// skips them: ramping permanent penalties on over-use no negotiation can
  /// remove only poisons the cost landscape and keeps every forced net
  /// dirty forever.
  void mark_structural(const std::vector<std::uint32_t>& indices);
  [[nodiscard]] bool is_structural(std::size_t index) const {
    return !structural_.empty() && structural_[index] != 0;
  }

  /// Currently over-capacity resources (unordered; exact).
  [[nodiscard]] const std::vector<std::uint32_t>& overused() const {
    return overused_;
  }

  struct OveruseSummary {
    int overused = 0;      // resources above capacity
    int max_overuse = 0;   // worst excess over capacity
    int total_excess = 0;  // sum of excess over all over-used resources
  };

  /// Ends an iteration: charges `history_increment` on every over-used
  /// resource and summarises the residual over-use. Touches only the delta
  /// set, not the whole table.
  OveruseSummary charge_history(double history_increment);

 private:
  std::vector<int> occupancy_;
  std::vector<double> history_;
  /// Position of each resource inside overused_, -1 when not over capacity.
  std::vector<std::int32_t> overused_pos_;
  std::vector<std::uint32_t> overused_;
  std::vector<std::uint8_t> structural_;  // sized lazily by mark_structural
  std::size_t segment_count_;
  int segment_capacity_;
  int junction_capacity_;
  double present_factor_ = 0.0;
};

class CongestionState {
 public:
  CongestionState(std::size_t segment_count, std::size_t junction_count);

  /// Zero load on `segment_count` segments and `junction_count` junctions,
  /// reusing the tables' capacity.
  void reset(std::size_t segment_count, std::size_t junction_count);

  [[nodiscard]] int segment_load(SegmentId id) const {
    return segment_load_[id.index()];
  }
  [[nodiscard]] int junction_load(JunctionId id) const {
    return junction_load_[id.index()];
  }
  [[nodiscard]] int load(ResourceRef resource) const;

  void acquire(ResourceRef resource);
  /// Throws SimulationError when releasing a resource with zero load.
  void release(ResourceRef resource);

  /// Sum of loads across all resources (diagnostics).
  [[nodiscard]] long long total_load() const;

 private:
  std::vector<int> segment_load_;
  std::vector<int> junction_load_;
};

}  // namespace qspr

// Reusable shortest-path search workspace (the routing hot path's arena).
//
// Every search over the RoutingGraph needs per-node distance / parent /
// settled state plus a priority-queue buffer. Allocating those per query —
// O(n) per routed net per negotiation iteration — dominated the router's
// runtime on large fabrics. A SearchArena owns them once and invalidates in
// O(1) by bumping a generation counter: a node's state is live only while
// its stamp matches the current generation, so `begin()` costs nothing per
// node and the arrays stay hot in cache across queries.
//
// Layout: per-node state is a single struct-of-records array (dist, parent,
// and one interleaved stamp+settled word), so touching / relaxing / settling
// a node costs one cache line instead of four. The frontier is one binary
// min-heap for every cost type, with hand-written hole sifts and a
// branch-free child pick. It pops the strict (f, g, node) order: entries
// are pairwise distinct because pushes happen only on strict dist
// improvement, so any correct min-heap pops the same sequence, and the heap
// needs no monotone keys. tests/frontier_queue_test.cpp checks the pops
// against the scripted entries sorted by (f, g, node).
//
// An arena holds one frontier, so each search over it runs in one direction,
// source to target. The arena is shared by the incremental Router (integer
// Duration costs) and the PathFinder negotiated search (double congestion
// costs) — hence the cost-type template. Not thread-safe; one arena per
// searching thread.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace qspr {

template <typename Cost>
class SearchArena {
 public:
  /// Heap entry over (f = g + h, g, node); g- and node-tie-breaks keep the
  /// search deterministic across platforms.
  struct HeapEntry {
    Cost f;
    Cost g;
    RouteNodeId node;
  };

  static constexpr Cost infinity() {
    if constexpr (std::is_floating_point_v<Cost>) {
      return std::numeric_limits<Cost>::infinity();
    } else {
      return static_cast<Cost>(kInfiniteDuration);
    }
  }

  /// Starts a fresh search over `node_count` nodes. O(1) except on first use
  /// (or growth), when the arrays are sized; prior state is invalidated by
  /// the generation bump.
  void begin(std::size_t node_count) {
    if (state_.size() < node_count) state_.resize(node_count);
    if (++generation_ == kGenerationLimit) {  // stamps may alias: wipe them
      wipe_stamps();
      generation_ = 1;
    }
    heap_.clear();
  }

  /// Unique nodes settled over this arena's lifetime (monotone; sample a
  /// before/after delta to attribute settles to one simulation or query).
  [[nodiscard]] std::uint64_t settle_count() const { return settles_; }

  /// Prefetches a node's search state (the line the next pop will touch).
  void prefetch(RouteNodeId id) const {
#if defined(__GNUC__) || defined(__clang__)
    if (id.is_valid() && id.index() < state_.size()) {
      __builtin_prefetch(&state_[id.index()]);
    }
#else
    (void)id;
#endif
  }

  [[nodiscard]] Cost dist(RouteNodeId id) {
    NodeState& s = touch(id.index());
    return s.dist;
  }
  [[nodiscard]] RouteNodeId parent(RouteNodeId id) const {
    const NodeState& s = state_[id.index()];
    return (s.tag >> 1) == generation_ ? s.parent : RouteNodeId::invalid();
  }
  [[nodiscard]] bool settled(RouteNodeId id) {
    return (touch(id.index()).tag & 1u) != 0;
  }
  void settle(RouteNodeId id) {
    state_[id.index()].tag |= 1u;
    ++settles_;
  }
  /// Records a relaxation: `id` is now reached at `g` via `from`.
  void relax(RouteNodeId id, Cost g, RouteNodeId from) {
    NodeState& s = touch(id.index());
    s.dist = g;
    s.parent = from;
  }

  [[nodiscard]] bool heap_empty() const { return heap_.empty(); }

  /// Hole-based sift-up: parents move down until the entry's slot is found.
  void heap_push(Cost f, Cost g, RouteNodeId node) {
    const HeapEntry entry{f, g, node};
    std::size_t hole = heap_.size();
    heap_.push_back(entry);
    HeapEntry* const h = heap_.data();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(entry, h[parent])) break;
      h[hole] = h[parent];
      hole = parent;
    }
    h[hole] = entry;
  }

  /// Pops the minimum. The hole left at the root walks down to a leaf along
  /// the smaller children, picked without a branch, and the old last entry
  /// sifts up from there: it usually belongs near the bottom, so a pop costs
  /// about one comparison per level instead of a plain sift-down's two.
  HeapEntry heap_pop() {
    const HeapEntry top = heap_.front();
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return top;
    HeapEntry* const h = heap_.data();
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child + 1 < n) {
      child += before(h[child + 1], h[child]);
      h[hole] = h[child];
      hole = child;
      child = 2 * hole + 1;
    }
    if (child < n) {  // a lone left child at the bottom
      h[hole] = h[child];
      hole = child;
    }
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(last, h[parent])) break;
      h[hole] = h[parent];
      hole = parent;
    }
    h[hole] = last;
    assert(!before(h[0], top));
    return top;
  }

  /// The node the next pop returns (invalid when empty); the searches
  /// prefetch its state and adjacency while they expand the current pop.
  [[nodiscard]] RouteNodeId heap_peek_node() const {
    return heap_.empty() ? RouteNodeId::invalid() : heap_.front().node;
  }

  /// Test hook: jump the generation counter (e.g. to just below the wrap
  /// limit) so wrap-around reuse is exercisable without 2^31 begins.
  void debug_set_generation(std::uint32_t generation) {
    generation_ = generation;
  }
  [[nodiscard]] std::uint32_t debug_generation() const { return generation_; }

 private:
  // One cache-line-friendly record per node: 16 bytes for 8-byte costs. The
  // tag packs (generation << 1) | settled so a settle flips one bit in a
  // line already resident from the preceding dist/relax touch.
  struct NodeState {
    Cost dist = Cost{};
    RouteNodeId parent = RouteNodeId::invalid();
    std::uint32_t tag = 0;
  };

  // Generation lives in the tag's upper 31 bits.
  static constexpr std::uint32_t kGenerationLimit = 1u << 31;

  NodeState& touch(std::size_t i) {
    NodeState& s = state_[i];
    if ((s.tag >> 1) != generation_) {
      s.dist = infinity();
      s.parent = RouteNodeId::invalid();
      s.tag = generation_ << 1;
    }
    return s;
  }

  void wipe_stamps() {
    for (NodeState& s : state_) s.tag = 0;
  }

  /// The strict (f, g, node) order, combined with `&` and `|` so that the
  /// heap's child pick compiles without branches.
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return (a.f < b.f) |
           ((a.f == b.f) & ((a.g < b.g) | ((a.g == b.g) & (a.node < b.node))));
  }

  std::vector<NodeState> state_;
  std::vector<HeapEntry> heap_;
  std::uint32_t generation_ = 0;
  std::uint64_t settles_ = 0;
};

/// Generation-stamped membership set over a dense index range: O(1) insert /
/// contains / clear, no per-use allocation. Replaces the O(P²) repeated
/// std::find dedup when collecting the distinct resources of a path.
class StampedSet {
 public:
  void reset(std::size_t universe) {
    if (stamp_.size() < universe) stamp_.resize(universe, 0);
    if (++generation_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      generation_ = 1;
    }
  }

  /// Inserts `i`; returns true when `i` was not yet a member.
  bool insert(std::size_t i) {
    if (stamp_[i] == generation_) return false;
    stamp_[i] = generation_;
    return true;
  }

  [[nodiscard]] bool contains(std::size_t i) const {
    return stamp_[i] == generation_;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t generation_ = 0;
};

}  // namespace qspr

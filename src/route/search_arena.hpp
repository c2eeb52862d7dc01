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
// a node costs one cache line instead of four. The frontier follows the cost
// type at compile time: a monotone bucket queue for integer costs (the
// Router's Duration searches) and a std::push_heap binary heap for
// floating-point costs (the PathFinder's congestion searches). Both pop the
// exact strict (f, g, node) order — entries are pairwise distinct because
// pushes happen only on strict dist improvement — which
// tests/frontier_queue_test.cpp checks by replaying one script into a
// SearchArena<Duration> and a SearchArena<double>.
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
#include <functional>
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

    friend bool operator>(const HeapEntry& a, const HeapEntry& b) {
      if (a.f != b.f) return a.f > b.f;
      if (a.g != b.g) return a.g > b.g;
      return a.node > b.node;
    }
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
    frontier_.clear();
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

  [[nodiscard]] bool heap_empty() const { return frontier_.empty(); }
  void heap_push(Cost f, Cost g, RouteNodeId node) {
    frontier_.push(HeapEntry{f, g, node});
  }
  HeapEntry heap_pop() { return frontier_.pop(); }
  /// Cheap guess at a node the frontier will pop soon (invalid when empty);
  /// prefetch hint only — no ordering guarantee for the bucket queue.
  [[nodiscard]] RouteNodeId heap_peek_node() const {
    return frontier_.peek_node();
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

  /// Binary heap: the frontier of floating-point costs (no bucket keys).
  struct BinaryHeap {
    std::vector<HeapEntry> heap_;

    void clear() { heap_.clear(); }
    [[nodiscard]] bool empty() const { return heap_.empty(); }
    void push(HeapEntry entry) {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    HeapEntry pop() {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const HeapEntry top = heap_.back();
      heap_.pop_back();
      return top;
    }
    [[nodiscard]] RouteNodeId peek_node() const {
      return heap_.empty() ? RouteNodeId::invalid() : heap_.front().node;
    }
  };

  /// Monotone bucket queue, indexed by the (small, bounded) integer f: the
  /// frontier of integer costs, legal because their heuristic is consistent
  /// (popped keys never decrease). Only buckets in [cursor_, high_] can be
  /// non-empty: pops drain the cursor bucket before advancing, and pushes
  /// never land below the cursor — which bounds both pop scans and clears.
  /// Until the first pop the cursor is the smallest key pushed so far
  /// (clear parks it past every bucket), so the first pop starts its scan
  /// there instead of at key 0. After a pop the cursor is the popped key,
  /// and the monotone discipline (asserted) keeps every later push at or
  /// above it. Each bucket is itself a tiny (g, node) min-heap: unit-cost
  /// grids pile many ties into one f, and a linear min-scan per pop would go
  /// quadratic in that pile (measurably slower than the binary heap); the
  /// per-bucket heap keeps pops at O(log bucket) while preserving the exact
  /// (f, g, node) order — every entry in a bucket shares f.
  struct BucketQueue {
    static constexpr std::size_t kNoCursor =
        std::numeric_limits<std::size_t>::max();
    std::vector<std::vector<HeapEntry>> buckets_;
    std::size_t cursor_ = kNoCursor;
    std::size_t high_ = 0;
    std::size_t live_ = 0;
    bool popped_ = false;

    void clear() {
      if (live_ > 0) {
        for (std::size_t i = cursor_; i <= high_ && live_ > 0; ++i) {
          live_ -= buckets_[i].size();
          buckets_[i].clear();
        }
      }
      cursor_ = kNoCursor;
      high_ = 0;
      live_ = 0;
      popped_ = false;
    }

    [[nodiscard]] bool empty() const { return live_ == 0; }

    void push(HeapEntry entry) {
      assert(entry.f >= Cost{0});
      const auto key = static_cast<std::size_t>(entry.f);
      // Monotonicity: with a consistent heuristic every push's f is at
      // least the last popped f, which is where the cursor stands after a
      // pop, so no push after the first pop moves it. The frontier may
      // transiently drain mid-expansion; later sibling pushes are bounded
      // by the popped key, not each other.
      assert(!popped_ || key >= cursor_);
      cursor_ = std::min(cursor_, key);
      if (key >= buckets_.size()) {
        buckets_.resize(std::max<std::size_t>(key + 1, buckets_.size() * 2));
      }
      auto& bucket = buckets_[key];
      bucket.push_back(entry);
      std::push_heap(bucket.begin(), bucket.end(), std::greater<>{});
      high_ = std::max(high_, key);
      ++live_;
    }

    HeapEntry pop() {
      while (buckets_[cursor_].empty()) ++cursor_;
      popped_ = true;
      auto& bucket = buckets_[cursor_];
      // All entries here share f == cursor_; the per-bucket heap pops the
      // (g, node) minimum, so the strict (f, g, node) order matches the
      // binary heap exactly.
      std::pop_heap(bucket.begin(), bucket.end(), std::greater<>{});
      const HeapEntry top = bucket.back();
      bucket.pop_back();
      --live_;
      return top;
    }

    [[nodiscard]] RouteNodeId peek_node() const {
      if (live_ == 0) return RouteNodeId::invalid();
      for (std::size_t i = cursor_; i <= high_; ++i) {
        if (!buckets_[i].empty()) return buckets_[i].front().node;
      }
      return RouteNodeId::invalid();
    }
  };

  std::vector<NodeState> state_;
  std::uint32_t generation_ = 0;
  std::uint64_t settles_ = 0;
  std::conditional_t<std::is_integral_v<Cost>, BucketQueue, BinaryHeap>
      frontier_;
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

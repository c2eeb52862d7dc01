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
// a node costs one cache line instead of four. The frontier is pluggable
// (FrontierKind): a monotone bucket queue for integer Duration costs, a
// 4-ary heap for double congestion costs, and the original std::push_heap
// binary heap kept as the reference implementation. All three pop the exact
// same (f, g, node) total order — entries are pairwise distinct because
// pushes happen only on strict dist improvement — so the choice is purely a
// constant-factor knob: searches are bit-identical across kinds (asserted by
// tests/frontier_queue_test.cpp and the fuzz differential).
//
// The arena is shared by the incremental Router (integer Duration costs),
// the PathFinder negotiated search (double congestion costs), and the ALT
// landmark-table builders (route/landmarks.hpp), whose 2K+K Dijkstras per
// fabric reuse one double arena across every source — hence the cost-type
// template. Not thread-safe; one arena per searching thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace qspr {

/// Which priority structure backs a SearchArena's frontier.
///   Binary — std::push_heap/pop_heap binary heap (reference).
///   Bucket — monotone bucket queue keyed by integer f; legal only for
///            integer costs under a consistent heuristic (popped keys never
///            decrease). Requests for Bucket on a floating-point arena are
///            resolved to Dary4.
///   Dary4  — 4-ary implicit heap; fewer levels and better cache locality
///            per sift than the binary heap, valid for any cost type.
enum class FrontierKind : std::uint8_t { Binary, Bucket, Dary4 };

[[nodiscard]] constexpr const char* to_string(FrontierKind kind) {
  switch (kind) {
    case FrontierKind::Binary: return "binary";
    case FrontierKind::Bucket: return "bucket";
    case FrontierKind::Dary4: return "dary4";
  }
  return "?";
}

[[nodiscard]] inline std::optional<FrontierKind> frontier_kind_from_name(
    std::string_view name) {
  if (name == "binary") return FrontierKind::Binary;
  if (name == "bucket") return FrontierKind::Bucket;
  if (name == "dary" || name == "dary4") return FrontierKind::Dary4;
  return std::nullopt;
}

namespace detail {
/// Process-global frontier override (-1 = none). Set programmatically by
/// tests/benches via force_frontier_kind, or once from QSPR_FRONTIER_QUEUE.
inline std::atomic<int>& frontier_override() {
  static std::atomic<int> value{-1};
  return value;
}

[[nodiscard]] inline int frontier_env_request() {
  static const int parsed = [] {
    const char* env = std::getenv("QSPR_FRONTIER_QUEUE");
    if (env == nullptr) return -1;
    const auto kind = frontier_kind_from_name(env);
    return kind ? static_cast<int>(*kind) : -1;
  }();
  return parsed;
}
}  // namespace detail

/// Forces every arena (from its next begin()) onto one frontier kind.
/// Test/bench hook; production selection is the per-cost default or the
/// QSPR_FRONTIER_QUEUE environment variable.
inline void force_frontier_kind(FrontierKind kind) {
  detail::frontier_override().store(static_cast<int>(kind),
                                    std::memory_order_relaxed);
}
inline void clear_frontier_kind_override() {
  detail::frontier_override().store(-1, std::memory_order_relaxed);
}

/// The frontier an arena of the given cost class uses absent a per-arena
/// pin: override > environment > (Bucket for integers, Dary4 for doubles).
/// Bucket on a floating-point arena resolves to Dary4 — bucket indexing
/// requires integer keys.
[[nodiscard]] inline FrontierKind default_frontier_kind(bool integer_cost) {
  int requested = detail::frontier_override().load(std::memory_order_relaxed);
  if (requested < 0) requested = detail::frontier_env_request();
  if (requested >= 0) {
    const auto kind = static_cast<FrontierKind>(requested);
    if (kind == FrontierKind::Bucket && !integer_cost) {
      return FrontierKind::Dary4;
    }
    return kind;
  }
  return integer_cost ? FrontierKind::Bucket : FrontierKind::Dary4;
}

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
    if (!kind_pinned_) {
      kind_ = default_frontier_kind(!std::is_floating_point_v<Cost>);
    }
    forward_.clear_all();
  }

  /// Starts a fresh *bidirectional* search: the primary (forward) frontier
  /// plus a second generation-stamped frontier sharing the same generation
  /// counter. Callers that never go bidirectional pay nothing — the backward
  /// arrays are sized on first begin_dual only.
  void begin_dual(std::size_t node_count) {
    begin(node_count);
    if (state_b_.size() < node_count) state_b_.resize(node_count);
    backward_.clear_all();
  }

  /// Pins this arena to one frontier kind (begin() stops consulting the
  /// global default). Bucket on a floating-point arena resolves to Dary4.
  void set_frontier(FrontierKind kind) {
    if constexpr (std::is_floating_point_v<Cost>) {
      if (kind == FrontierKind::Bucket) kind = FrontierKind::Dary4;
    }
    kind_ = kind;
    kind_pinned_ = true;
  }
  [[nodiscard]] FrontierKind frontier() const { return kind_; }

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

  [[nodiscard]] bool heap_empty() const { return forward_.empty(kind_); }
  void heap_push(Cost f, Cost g, RouteNodeId node) {
    forward_.push(kind_, HeapEntry{f, g, node});
  }
  HeapEntry heap_pop() { return forward_.pop(kind_); }
  /// Smallest entry without removal (frontier must be non-empty) — the
  /// meet-in-the-middle termination test reads both tops every step.
  [[nodiscard]] const HeapEntry& heap_top() { return forward_.top(kind_); }
  /// Cheap guess at a node the frontier will pop soon (invalid when empty);
  /// prefetch hint only — no ordering guarantee for the bucket queue.
  [[nodiscard]] RouteNodeId heap_peek_node() const {
    return forward_.peek_node(kind_);
  }

  // --- second (backward) frontier; live only after begin_dual ---

  [[nodiscard]] Cost dist_b(RouteNodeId id) {
    NodeState& s = touch_b(id.index());
    return s.dist;
  }
  [[nodiscard]] RouteNodeId parent_b(RouteNodeId id) const {
    const NodeState& s = state_b_[id.index()];
    return (s.tag >> 1) == generation_ ? s.parent : RouteNodeId::invalid();
  }
  [[nodiscard]] bool settled_b(RouteNodeId id) {
    return (touch_b(id.index()).tag & 1u) != 0;
  }
  void settle_b(RouteNodeId id) {
    state_b_[id.index()].tag |= 1u;
    ++settles_;
  }
  void relax_b(RouteNodeId id, Cost g, RouteNodeId from) {
    NodeState& s = touch_b(id.index());
    s.dist = g;
    s.parent = from;
  }
  void prefetch_b(RouteNodeId id) const {
#if defined(__GNUC__) || defined(__clang__)
    if (id.is_valid() && id.index() < state_b_.size()) {
      __builtin_prefetch(&state_b_[id.index()]);
    }
#else
    (void)id;
#endif
  }

  [[nodiscard]] bool heap_empty_b() const { return backward_.empty(kind_); }
  void heap_push_b(Cost f, Cost g, RouteNodeId node) {
    backward_.push(kind_, HeapEntry{f, g, node});
  }
  HeapEntry heap_pop_b() { return backward_.pop(kind_); }
  [[nodiscard]] const HeapEntry& heap_top_b() { return backward_.top(kind_); }
  [[nodiscard]] RouteNodeId heap_peek_node_b() const {
    return backward_.peek_node(kind_);
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
  NodeState& touch_b(std::size_t i) {
    NodeState& s = state_b_[i];
    if ((s.tag >> 1) != generation_) {
      s.dist = infinity();
      s.parent = RouteNodeId::invalid();
      s.tag = generation_ << 1;
    }
    return s;
  }

  void wipe_stamps() {
    for (NodeState& s : state_) s.tag = 0;
    for (NodeState& s : state_b_) s.tag = 0;
  }

  /// One frontier: heap storage shared by Binary/Dary4, bucket array for
  /// Bucket. All three implementations pop the strict (f, g, node) minimum;
  /// entries are pairwise distinct (pushes only on strict improvement), so
  /// the pop sequence — and therefore the search — is identical across
  /// kinds.
  struct Frontier {
    std::vector<HeapEntry> heap_;
    // Monotone bucket queue, indexed by the (small, bounded) integer f.
    // Only buckets in [cursor_, high_] can be non-empty: pops drain the
    // cursor bucket before advancing, and pushes never land below the
    // cursor — which bounds both pop scans and clears. Until the first pop
    // the cursor is the smallest key pushed so far (clear_all parks it past
    // every bucket), so the first pop starts its scan there instead of at
    // key 0. After a pop the cursor is the popped key, and the monotone
    // discipline (asserted) keeps every later push at or above it. Each
    // bucket is itself a tiny (g, node) min-heap: unit-cost grids pile many
    // ties into one f, and a linear min-scan per pop would go quadratic in
    // that pile (measurably slower than the binary heap); the per-bucket
    // heap keeps pops at O(log bucket) while preserving the exact
    // (f, g, node) order — every entry in a bucket shares f.
    static constexpr std::size_t kNoCursor =
        std::numeric_limits<std::size_t>::max();
    std::vector<std::vector<HeapEntry>> buckets_;
    std::size_t cursor_ = kNoCursor;
    std::size_t high_ = 0;
    std::size_t live_ = 0;
    bool popped_ = false;

    void clear_all() {
      heap_.clear();
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

    [[nodiscard]] bool empty(FrontierKind kind) const {
      return kind == FrontierKind::Bucket ? live_ == 0 : heap_.empty();
    }

    void push(FrontierKind kind, HeapEntry entry) {
      switch (kind) {
        case FrontierKind::Binary:
          heap_.push_back(entry);
          std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
          return;
        case FrontierKind::Bucket: {
          const auto key = bucket_key(entry.f);
          // Monotonicity: with a consistent heuristic every push's f is at
          // least the last popped f, which is where the cursor stands after
          // a pop, so no push after the first pop moves it. The frontier
          // may transiently drain mid-expansion; later sibling pushes are
          // bounded by the popped key, not each other.
          assert(!popped_ || key >= cursor_);
          cursor_ = std::min(cursor_, key);
          if (key >= buckets_.size()) {
            buckets_.resize(std::max<std::size_t>(key + 1,
                                                  buckets_.size() * 2));
          }
          auto& bucket = buckets_[key];
          bucket.push_back(entry);
          std::push_heap(bucket.begin(), bucket.end(), std::greater<>{});
          high_ = std::max(high_, key);
          ++live_;
          return;
        }
        case FrontierKind::Dary4:
          dary_push(entry);
          return;
      }
    }

    HeapEntry pop(FrontierKind kind) {
      switch (kind) {
        case FrontierKind::Binary: {
          std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
          const HeapEntry top = heap_.back();
          heap_.pop_back();
          return top;
        }
        case FrontierKind::Bucket: {
          advance_cursor();
          popped_ = true;
          auto& bucket = buckets_[cursor_];
          // All entries here share f == cursor_; the per-bucket heap pops
          // the (g, node) minimum, so the strict (f, g, node) order matches
          // the whole-frontier heaps exactly.
          std::pop_heap(bucket.begin(), bucket.end(), std::greater<>{});
          const HeapEntry top = bucket.back();
          bucket.pop_back();
          --live_;
          return top;
        }
        case FrontierKind::Dary4:
          return dary_pop();
      }
      return HeapEntry{};  // unreachable
    }

    [[nodiscard]] const HeapEntry& top(FrontierKind kind) {
      if (kind != FrontierKind::Bucket) return heap_.front();
      advance_cursor();
      return buckets_[cursor_].front();  // per-bucket heap root = min
    }

    [[nodiscard]] RouteNodeId peek_node(FrontierKind kind) const {
      if (kind != FrontierKind::Bucket) {
        return heap_.empty() ? RouteNodeId::invalid() : heap_.front().node;
      }
      if (live_ == 0) return RouteNodeId::invalid();
      for (std::size_t i = cursor_; i <= high_; ++i) {
        if (!buckets_[i].empty()) return buckets_[i].front().node;
      }
      return RouteNodeId::invalid();
    }

   private:
    [[nodiscard]] static std::size_t bucket_key(Cost f) {
      assert(f >= Cost{0});
      return static_cast<std::size_t>(f);
    }

    void advance_cursor() {
      while (buckets_[cursor_].empty()) ++cursor_;
    }

    void dary_push(HeapEntry entry) {
      heap_.push_back(entry);
      std::size_t i = heap_.size() - 1;
      while (i > 0) {
        const std::size_t parent = (i - 1) >> 2;
        if (!(heap_[parent] > heap_[i])) break;
        std::swap(heap_[parent], heap_[i]);
        i = parent;
      }
    }

    HeapEntry dary_pop() {
      const HeapEntry top = heap_.front();
      heap_.front() = heap_.back();
      heap_.pop_back();
      const std::size_t n = heap_.size();
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = (i << 2) + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t last = std::min(first + 4, n);
        for (std::size_t child = first + 1; child < last; ++child) {
          if (heap_[best] > heap_[child]) best = child;
        }
        if (!(heap_[i] > heap_[best])) break;
        std::swap(heap_[i], heap_[best]);
        i = best;
      }
      return top;
    }
  };

  std::vector<NodeState> state_;
  std::uint32_t generation_ = 0;
  std::uint64_t settles_ = 0;
  FrontierKind kind_ =
      default_frontier_kind(!std::is_floating_point_v<Cost>);
  bool kind_pinned_ = false;
  Frontier forward_;
  // Backward-frontier twin state (bidirectional searches only); shares
  // generation_ so one begin_dual invalidates both sides in O(1).
  std::vector<NodeState> state_b_;
  Frontier backward_;
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

/// Pool of per-worker scratch objects indexed by an Executor worker id.
/// Slots live behind stable unique_ptrs, so growing the pool never moves a
/// scratch another worker is using, and two workers never share a cache line
/// through adjacent slots. Confinement contract: slot `w` is only ever
/// touched by the thread currently acting as worker `w` of one owning
/// context — a pool must not be shared by two *concurrent* parallel calls
/// (hold one pool per negotiation context, exactly like a single scratch).
template <typename Scratch>
class WorkerScratchPool {
 public:
  WorkerScratchPool() = default;
  explicit WorkerScratchPool(std::size_t workers) { grow_to(workers); }

  /// Ensures at least `workers` slots exist; existing slots are preserved
  /// (their warmed allocations survive across batches).
  void grow_to(std::size_t workers) {
    while (slots_.size() < workers) {
      slots_.push_back(std::make_unique<Scratch>());
    }
  }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  [[nodiscard]] Scratch& for_worker(std::size_t worker) {
    return *slots_[worker];
  }

 private:
  std::vector<std::unique_ptr<Scratch>> slots_;
};

}  // namespace qspr

// Read-only per-fabric mapping artifacts and the cache that shares them
// across jobs.
//
// Every mapping job derives the same heavyweight structures from its fabric:
// the CSR routing graph (the dominant build), the traps-by-distance-to-
// center table the placers draw initial placements from, and the per-trap
// port-capacity table behind the PathFinder's structural-excess floor. A
// batch service mapping many programs against few fabrics should build them
// once per *distinct* fabric and share them const across jobs — which is
// sound because PR 2 made every consumer (Router, EventSimulator,
// PathFinder) const-callable over shared graphs, with all mutable search
// state thread-confined in per-worker arenas.
//
// The cache keys on a fingerprint of the fabric *layout* (cell grid), not on
// object identity or name: two Fabric instances parsed from the same drawing
// hit the same entry. Each entry owns a private copy of the fabric so the
// artifacts never dangle when a caller's Fabric goes out of scope; derived
// structures (trap ids, segments, routing nodes) are deterministic functions
// of the layout, so mapping against the owned copy is bit-identical to
// mapping against the caller's original.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fabric/fabric.hpp"
#include "route/routing_graph.hpp"

namespace qspr {

/// Immutable bundle of everything the mapping pipeline derives from one
/// fabric. Shared const across concurrent jobs.
struct FabricArtifacts {
  explicit FabricArtifacts(const Fabric& source);

  /// Owned copy: the artifacts outlive any caller's Fabric instance.
  Fabric fabric;
  /// CSR routing graph over `fabric` (paper §IV.B enhanced model).
  RoutingGraph graph;
  /// All traps ordered by Manhattan distance from the fabric center — the
  /// table every center/random-center placement draws from (paper §I).
  std::vector<TrapId> traps_near_center;
  /// Per-trap access-port count: the port-capacity input of the structural
  /// excess floor (a trap with endpoint demand above port capacity forces
  /// residual over-use no router can remove).
  std::vector<int> trap_port_count;

  /// Estimated resident bytes of this bundle: fabric grid + routing graph +
  /// placement tables.
  [[nodiscard]] std::size_t memory_bytes() const;
};

/// 64-bit FNV-1a fingerprint of the fabric layout (dimensions + cell grid).
[[nodiscard]] std::uint64_t fabric_fingerprint(const Fabric& fabric);

/// Exact layout equality (dimensions + every cell) — what the fingerprint
/// approximates.
[[nodiscard]] bool same_fabric_layout(const Fabric& a, const Fabric& b);

/// Thread-safe fingerprint-keyed cache of FabricArtifacts with an optional
/// LRU memory budget (set_budget_bytes). Eviction drops the cache's
/// reference only: jobs holding a shared_ptr to an evicted bundle keep it
/// alive until they finish.
class FabricArtifactCache {
 public:
  struct Stats {
    long long builds = 0;     // cache misses: artifact bundles constructed
    long long hits = 0;       // lookups served from an existing bundle
    long long evictions = 0;  // bundles dropped by the memory budget
    /// Estimated resident bytes of the cached bundles at the last lookup.
    std::size_t bytes = 0;
  };

  /// Returns the artifacts for `fabric`, building them on first sight of
  /// this layout.
  std::shared_ptr<const FabricArtifacts> get(const Fabric& fabric);

  /// LRU memory budget in bytes (0 = unlimited, the default). When the
  /// estimated total exceeds it, least-recently-used bundles are evicted —
  /// never the one the current lookup is about to return, so a budget
  /// smaller than one bundle degrades to "cache of one", not thrash-to-
  /// empty.
  void set_budget_bytes(std::size_t budget);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  struct Entry {
    std::shared_ptr<const FabricArtifacts> artifacts;
    std::uint64_t last_used = 0;  // lookup tick, for LRU ordering
  };

  /// Evicts LRU entries until the estimated total fits the budget, keeping
  /// `keep` alive. Caller holds mutex_.
  void enforce_budget_locked(const FabricArtifacts* keep);

  // Fingerprint buckets hold every distinct layout that hashed there; hits
  // verify exact layout equality, so a 64-bit collision costs one extra
  // build instead of silently mapping against the wrong fabric.
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::vector<Entry>> entries_;
  Stats stats_;
  std::size_t budget_bytes_ = 0;
  std::uint64_t tick_ = 0;
};

}  // namespace qspr

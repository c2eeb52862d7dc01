// Program-level result cache of the mapping daemon, owned by MappingServer
// beside the engine's FabricArtifactCache (which shares per-fabric
// structures).
//
// A service sees duplicate circuits — retries, unchanged resubmissions.
// Every map request, stateless or in a session, looks up its key before
// mapping and inserts its reply after a successful miss. The key is a
// fingerprint of the program's instruction sequence (in program order,
// since reordering even independent gates can change the mapped result),
// the fabric-layout fingerprint, and a fingerprint of the *contractual*
// mapper options — the knobs that change the mapped result, deliberately
// excluding jobs, which is bit-identity-neutral by the trial-parallel
// determinism contract. Exact resubmission is a pure hit: no placement, no
// routing, and no program text compared — a hit trusts the three 64-bit
// fingerprints.
//
// An entry is the reply, not the mapped result: a MapReply holds the fields
// serve_result_json writes and the fingerprint computed once, so every
// entry costs the same few bytes whatever the circuit, and a hit writes the
// reply the miss wrote, apart from the request id and the timings. Entries
// sit on a most-recent-first list indexed by key: lookup, insert and
// eviction are O(1).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "circuit/program.hpp"
#include "core/mapper.hpp"
#include "fabric/fabric.hpp"
#include "service/request_codec.hpp"

namespace qspr {

/// FNV-1a over the instruction sequence in program order: qubit count, each
/// qubit's init value, then each instruction's gate kind and operands. It is
/// deliberately order-sensitive even for independent gates, because the
/// mapped result is: instruction ids order the simulator's ready set and
/// label the trace. Qubit names are ignored (placement is index-based).
[[nodiscard]] std::uint64_t program_fingerprint(const Program& program);

/// Fingerprint of the MapperOptions fields that are contractual for the
/// mapped result: kind, technology parameters, priorities, placer and trial
/// budgets, rng_seed, and the ablation overrides. jobs is excluded — results
/// are bit-identical at any value — and so are negotiation_report and
/// route_heuristic_weight: they only shape the negotiation diagnostic, which
/// no MapReply field carries.
[[nodiscard]] std::uint64_t mapper_options_fingerprint(
    const MapperOptions& options);

/// Thread-safe LRU cache of map replies keyed on (program, fabric, options)
/// fingerprints, with the same memory-budget semantics as
/// FabricArtifactCache: set_budget_bytes(0) = unlimited; eviction drops the
/// least recently used entry and never the most recent one, which is the
/// entry the current insert writes, so a budget smaller than one entry
/// degrades to a cache of one.
class ResultCache {
 public:
  struct Key {
    std::uint64_t program_fp = 0;
    std::uint64_t fabric_fp = 0;
    std::uint64_t options_fp = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  struct Stats {
    long long hits = 0;
    long long misses = 0;
    long long insertions = 0;
    long long evictions = 0;
    /// Estimated resident bytes (entries x entry_bytes()).
    std::size_t bytes = 0;
    std::size_t entries = 0;
  };

  /// The key of mapping `program` onto `fabric` under `options`.
  [[nodiscard]] static Key key_of(const Program& program, const Fabric& fabric,
                                  const MapperOptions& options);

  /// Estimated resident bytes of one entry — the same for every circuit:
  /// its (key, reply) pair and the index's iterator to it.
  [[nodiscard]] static constexpr std::size_t entry_bytes() {
    return sizeof(Entry) + sizeof(Lru::iterator);
  }

  /// nullopt on miss (counted). A hit becomes the most recently used entry.
  [[nodiscard]] std::optional<MapReply> find(const Key& key);

  /// Inserts (or replaces) the entry for `key` as the most recently used
  /// one and enforces the budget, never evicting the entry just inserted.
  void insert(const Key& key, const MapReply& reply);

  /// LRU memory budget in bytes (0 = unlimited, the default).
  void set_budget_bytes(std::size_t budget);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      std::uint64_t hash = key.program_fp;
      hash ^= key.fabric_fp + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
      hash ^= key.options_fp + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
      return static_cast<std::size_t>(hash);
    }
  };

  using Entry = std::pair<Key, MapReply>;
  using Lru = std::list<Entry>;

  /// Caller holds mutex_. Evicts from the back of lru_ (never its front)
  /// until the estimated total fits the budget.
  void enforce_budget_locked();

  mutable std::mutex mutex_;
  /// Most recently used first; find() and insert() splice to the front.
  Lru lru_;
  std::unordered_map<Key, Lru::iterator, KeyHash> index_;
  Stats stats_;
  std::size_t budget_bytes_ = 0;
};

}  // namespace qspr

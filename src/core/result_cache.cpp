#include "core/result_cache.hpp"

#include <limits>

namespace qspr {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffULL;
    hash *= kFnvPrime;
  }
}

std::uint64_t double_bits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return bits;
}

template <typename T>
void mix_optional(std::uint64_t& hash, const std::optional<T>& value) {
  if (value.has_value()) {
    mix(hash, 1);
    mix(hash, static_cast<std::uint64_t>(*value));
  } else {
    mix(hash, 0);
  }
}

}  // namespace

std::uint64_t program_fingerprint(const Program& program) {
  std::uint64_t hash = kFnvOffset;
  mix(hash, static_cast<std::uint64_t>(program.qubit_count()));
  for (const QubitDecl& qubit : program.qubits()) {
    mix(hash, qubit.init_value.has_value()
                  ? static_cast<std::uint64_t>(*qubit.init_value) + 2
                  : 1);
  }
  mix(hash, static_cast<std::uint64_t>(program.instruction_count()));
  for (const Instruction& instruction : program.instructions()) {
    // Control/target order is contractual (source vs destination); the
    // control of a 1-qubit gate is the invalid id.
    mix(hash, static_cast<std::uint64_t>(instruction.kind));
    mix(hash, static_cast<std::uint64_t>(instruction.control.value()));
    mix(hash, static_cast<std::uint64_t>(instruction.target.value()));
  }
  return hash;
}

std::uint64_t mapper_options_fingerprint(const MapperOptions& options) {
  std::uint64_t hash = kFnvOffset;
  mix(hash, static_cast<std::uint64_t>(options.kind));
  mix(hash, static_cast<std::uint64_t>(options.tech.t_move));
  mix(hash, static_cast<std::uint64_t>(options.tech.t_turn));
  mix(hash, static_cast<std::uint64_t>(options.tech.t_gate_1q));
  mix(hash, static_cast<std::uint64_t>(options.tech.t_gate_2q));
  mix(hash, static_cast<std::uint64_t>(options.tech.channel_capacity));
  mix(hash, static_cast<std::uint64_t>(options.tech.junction_capacity));
  mix(hash, static_cast<std::uint64_t>(options.tech.trap_capacity));
  mix(hash, double_bits(options.priority_alpha));
  mix(hash, double_bits(options.priority_beta));
  mix(hash, static_cast<std::uint64_t>(options.placer));
  mix(hash, static_cast<std::uint64_t>(options.mvfb_seeds));
  mix(hash, static_cast<std::uint64_t>(options.monte_carlo_trials));
  mix(hash, options.rng_seed);
  mix(hash, double_bits(options.route_heuristic_weight));
  mix(hash, options.negotiation_report ? 1 : 0);
  mix_optional(hash, options.turn_aware);
  mix_optional(hash, options.dual_move);
  mix_optional(hash, options.return_home);
  mix_optional(hash, options.channel_capacity);
  mix_optional(hash, options.schedule_policy);
  mix_optional(hash, options.trap_selection);
  return hash;
}

std::size_t CachedMapResult::memory_bytes() const {
  std::size_t bytes = sizeof(CachedMapResult);
  bytes += result.trace.size() * sizeof(MicroOp);
  bytes += result.timings.size() * sizeof(InstructionTiming);
  return bytes;
}

std::shared_ptr<const CachedMapResult> ResultCache::find(const Key& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  it->second.last_used = ++tick_;
  return it->second.cached;
}

void ResultCache::insert(const Key& key,
                         std::shared_ptr<const CachedMapResult> entry) {
  if (!entry) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const CachedMapResult* keep = entry.get();
  entries_[key] = Entry{std::move(entry), ++tick_};
  ++stats_.insertions;
  enforce_budget_locked(keep);
}

void ResultCache::set_budget_bytes(std::size_t budget) {
  const std::lock_guard<std::mutex> lock(mutex_);
  budget_bytes_ = budget;
  enforce_budget_locked(nullptr);
}

void ResultCache::enforce_budget_locked(const CachedMapResult* keep) {
  std::size_t total = 0;
  for (const auto& [key, entry] : entries_) {
    total += entry.cached->memory_bytes();
  }
  while (budget_bytes_ > 0 && total > budget_bytes_) {
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    const Key* victim = nullptr;
    for (const auto& [key, entry] : entries_) {
      if (entry.cached.get() == keep) continue;
      if (entry.last_used < oldest) {
        oldest = entry.last_used;
        victim = &key;
      }
    }
    if (victim == nullptr) break;  // only the protected entry remains
    const auto it = entries_.find(*victim);
    total -= it->second.cached->memory_bytes();
    entries_.erase(it);
    ++stats_.evictions;
  }
  stats_.bytes = total;
  stats_.entries = entries_.size();
}

ResultCache::Stats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ResultCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void ResultCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  stats_ = Stats{};
}

}  // namespace qspr

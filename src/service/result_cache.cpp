#include "service/result_cache.hpp"

#include "common/fnv.hpp"
#include "core/artifact_cache.hpp"

namespace qspr {

namespace {

std::uint64_t double_bits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return bits;
}

template <typename T>
void mix_optional(Fnv1a& hash, const std::optional<T>& value) {
  if (value.has_value()) {
    hash.u64(1);
    hash.u64(static_cast<std::uint64_t>(*value));
  } else {
    hash.u64(0);
  }
}

}  // namespace

std::uint64_t program_fingerprint(const Program& program) {
  Fnv1a hash;
  hash.u64(static_cast<std::uint64_t>(program.qubit_count()));
  for (const QubitDecl& qubit : program.qubits()) {
    hash.u64(qubit.init_value.has_value()
                 ? static_cast<std::uint64_t>(*qubit.init_value) + 2
                 : 1);
  }
  hash.u64(static_cast<std::uint64_t>(program.instruction_count()));
  for (const Instruction& instruction : program.instructions()) {
    // Control/target order is contractual (source vs destination); the
    // control of a 1-qubit gate is the invalid id.
    hash.u64(static_cast<std::uint64_t>(instruction.kind));
    hash.u64(static_cast<std::uint64_t>(instruction.control.value()));
    hash.u64(static_cast<std::uint64_t>(instruction.target.value()));
  }
  return hash.value();
}

std::uint64_t mapper_options_fingerprint(const MapperOptions& options) {
  Fnv1a hash;
  hash.u64(static_cast<std::uint64_t>(options.kind));
  hash.u64(static_cast<std::uint64_t>(options.tech.t_move));
  hash.u64(static_cast<std::uint64_t>(options.tech.t_turn));
  hash.u64(static_cast<std::uint64_t>(options.tech.t_gate_1q));
  hash.u64(static_cast<std::uint64_t>(options.tech.t_gate_2q));
  hash.u64(static_cast<std::uint64_t>(options.tech.channel_capacity));
  hash.u64(static_cast<std::uint64_t>(options.tech.junction_capacity));
  hash.u64(static_cast<std::uint64_t>(options.tech.trap_capacity));
  hash.u64(double_bits(options.priority_alpha));
  hash.u64(double_bits(options.priority_beta));
  hash.u64(static_cast<std::uint64_t>(options.placer));
  hash.u64(static_cast<std::uint64_t>(options.mvfb_seeds));
  hash.u64(static_cast<std::uint64_t>(options.monte_carlo_trials));
  hash.u64(options.rng_seed);
  mix_optional(hash, options.turn_aware);
  mix_optional(hash, options.dual_move);
  mix_optional(hash, options.return_home);
  mix_optional(hash, options.channel_capacity);
  mix_optional(hash, options.schedule_policy);
  return hash.value();
}

ResultCache::Key ResultCache::key_of(const Program& program,
                                     const Fabric& fabric,
                                     const MapperOptions& options) {
  return Key{program_fingerprint(program), fabric_fingerprint(fabric),
             mapper_options_fingerprint(options)};
}

std::optional<MapReply> ResultCache::find(const Key& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  it->second.last_used = ++tick_;
  return it->second.reply;
}

void ResultCache::insert(const Key& key, const MapReply& reply) {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_[key] = Entry{reply, ++tick_};
  ++stats_.insertions;
  enforce_budget_locked(&key);
}

void ResultCache::set_budget_bytes(std::size_t budget) {
  const std::lock_guard<std::mutex> lock(mutex_);
  budget_bytes_ = budget;
  enforce_budget_locked(nullptr);
}

void ResultCache::enforce_budget_locked(const Key* keep) {
  while (budget_bytes_ > 0 && entries_.size() * entry_bytes() > budget_bytes_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (keep != nullptr && it->first == *keep) continue;
      if (victim == entries_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) break;  // only the protected entry remains
    entries_.erase(victim);
    ++stats_.evictions;
  }
  stats_.entries = entries_.size();
  stats_.bytes = entries_.size() * entry_bytes();
}

ResultCache::Stats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ResultCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace qspr

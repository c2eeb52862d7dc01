// FNV-1a 64: the one process-stable hash behind every QSPR fingerprint — a
// map reply's `result_fp`, the shard routing key, and the result-cache and
// fabric-artifact cache keys.
#pragma once

#include <cstdint>
#include <string_view>

namespace qspr {

/// Incremental FNV-1a 64 hasher: xor each byte in, then multiply by the
/// prime.
///
/// The offset basis is 1469598103934665603 (0x14650fb0739d0383). That is not
/// the standard FNV-1a 64 basis, 14695981039346656037 (0xcbf29ce484222325),
/// but the standard decimal value with its last digit dropped. It stays:
/// recorded results, pinned tests and the shard placement of deployed fleets
/// all derive from it, so a client reproducing a fingerprint must start from
/// this basis. The prime is the standard one.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 1469598103934665603ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  constexpr Fnv1a& byte(std::uint8_t value) {
    hash_ = (hash_ ^ value) * kPrime;
    return *this;
  }

  constexpr Fnv1a& bytes(std::string_view data) {
    for (const char c : data) byte(static_cast<std::uint8_t>(c));
    return *this;
  }

  /// The eight bytes of `value`, least significant first.
  constexpr Fnv1a& u64(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      byte(static_cast<std::uint8_t>(value >> shift));
    }
    return *this;
  }

  [[nodiscard]] constexpr std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kOffsetBasis;
};

}  // namespace qspr

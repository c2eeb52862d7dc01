// Seeded byte-level mutants of valid inputs for the parser-robustness tests:
// one to three bit flips, inserted bytes, deleted ranges or duplicated
// ranges per mutant, drawn from one seeded Rng so every run is the same.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace qspr {

/// `per_seed` mutants of every text in `seeds`, drawn from stream `stream`.
inline std::vector<std::string> make_mutants(
    const std::vector<std::string>& seeds, int per_seed,
    std::uint64_t stream) {
  Rng rng(stream);
  std::vector<std::string> mutants;
  for (const std::string& seed : seeds) {
    for (int i = 0; i < per_seed; ++i) {
      std::string text = seed;
      for (std::size_t edit = rng.uniform_index(3); edit < 3 && !text.empty();
           ++edit) {
        const std::size_t at = rng.uniform_index(text.size());
        const std::size_t kind = rng.uniform_index(4);
        if (kind == 0) {  // flip one bit
          text[at] ^= static_cast<char>(1u << rng.uniform_index(8));
        } else if (kind == 1) {  // insert a byte of the text's own alphabet
          text.insert(at, 1, text[rng.uniform_index(text.size())]);
        } else if (kind == 2) {  // delete up to 8 bytes
          text.erase(at, 1 + rng.uniform_index(8));
        } else {  // duplicate up to 32 bytes at another offset
          const std::string range = text.substr(at, 1 + rng.uniform_index(32));
          text.insert(rng.uniform_index(text.size() + 1), range);
        }
      }
      mutants.push_back(std::move(text));
    }
  }
  return mutants;
}

/// Feeds every mutant to `parse`, which must return or throw `Rejection`
/// (anything else fails the test); both outcomes must occur.
template <typename Rejection, typename Parse>
void expect_parse_or_throw(const std::vector<std::string>& mutants,
                           Parse parse) {
  int parsed = 0;
  int rejected = 0;
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    try {
      parse(mutants[i]);
      ++parsed;
    } catch (const Rejection&) {
      ++rejected;
    } catch (...) {
      ADD_FAILURE() << "mutant " << i << " threw outside the contract:\n"
                    << mutants[i];
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace qspr

#include "sim/placement.hpp"

#include "common/error.hpp"

namespace qspr {

void Placement::set(QubitId qubit, TrapId trap) {
  require(qubit.is_valid() && qubit.index() < traps_.size(),
          "qubit id out of range");
  traps_[qubit.index()] = trap;
}

TrapId Placement::trap_of(QubitId qubit) const {
  require(qubit.is_valid() && qubit.index() < traps_.size(),
          "qubit id out of range");
  return traps_[qubit.index()];
}

bool Placement::is_complete() const {
  for (const TrapId trap : traps_) {
    if (!trap.is_valid()) return false;
  }
  return !traps_.empty();
}

void Placement::validate(const Fabric& fabric, int trap_capacity) const {
  std::vector<int> occupancy(fabric.trap_count(), 0);
  for (std::size_t q = 0; q < traps_.size(); ++q) {
    const TrapId trap = traps_[q];
    if (!trap.is_valid() || trap.index() >= fabric.trap_count()) {
      throw ValidationError("qubit " + std::to_string(q) +
                            " is not placed in a valid trap");
    }
    if (++occupancy[trap.index()] > trap_capacity) {
      throw ValidationError("trap " + std::to_string(trap.value()) +
                            " holds more than " +
                            std::to_string(trap_capacity) + " qubit(s)");
    }
  }
}

}  // namespace qspr

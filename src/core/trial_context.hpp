// Thread-confined scratch of one mapping-trial worker.
//
// The trial-parallel flows (MVFB seed loop, Monte-Carlo trial loop) share a
// single immutable view — DependencyGraph, Fabric, RoutingGraph, schedule
// rank, ExecutionOptions, and the EventSimulator built over them — across
// all workers. Everything mutable lives here, one instance per worker:
//
//   * workspace   — the simulator's per-run state and the router's
//                   SearchArena, threaded through every EventSimulator::run
//                   on this worker (one workspace per thread, like the arena
//                   it owns), so the worker's runs reuse its buffers;
//   * rng         — the current trial's RNG, *assigned* per trial from a
//                   stream forked up front by trial index, so results never
//                   depend on which worker ran which trial;
//   * incumbent   — the worker-local best trial, merged across workers by
//                   (latency, trial index) after the loop. Keeping one
//                   ExecutionResult per worker (instead of one per trial)
//                   bounds memory while preserving the deterministic
//                   argmin: a later index never displaces an equal-latency
//                   earlier one.
//
// Workers that batch-route whole layers with the PathFinder own a
// PathFinderScratch the same way, via the scratch-taking overload of
// route_nets_negotiated (route/pathfinder.hpp).
#pragma once

#include <cstddef>
#include <limits>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/event_sim.hpp"

namespace qspr {

struct TrialContext {
  EventSimulator::Workspace workspace;
  Rng rng{0};

  /// Worker-local incumbent over the trials this worker happened to run.
  struct Incumbent {
    Duration latency = kInfiniteDuration;
    std::size_t trial_index = std::numeric_limits<std::size_t>::max();

    /// True when (latency, index) beats the stored incumbent — the total
    /// order that makes the cross-worker merge independent of scheduling.
    [[nodiscard]] bool improved_by(Duration candidate_latency,
                                   std::size_t candidate_index) const {
      if (candidate_latency != latency) return candidate_latency < latency;
      return candidate_index < trial_index;
    }
  };

  /// Aggregate thread-CPU milliseconds this worker spent inside trials.
  double cpu_ms = 0.0;
};

}  // namespace qspr

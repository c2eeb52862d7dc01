// Admission control for the mapping daemon: a bounded job queue with
// explicit backpressure, plus the service metrics a `stats` request reports.
//
// The daemon never buffers unboundedly. A map request either takes a queue
// slot immediately or is rejected with an explicit retry-after reply — the
// load-shedding generalisation of the BatchMapper's bounded in-flight
// pipeline. Slots are released on every exit path: completion, failure,
// cancellation, deadline expiry, and drain, which the fault-injection suite
// asserts by flooding the queue and then demanding it come back empty.
//
// AdmissionQueue is deliberately engine-agnostic (it queues ServeTickets,
// not sockets or programs), so the overload and drain behaviour unit-tests
// without a single byte of network I/O.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/cancel.hpp"
#include "service/request_codec.hpp"

namespace qspr {

/// Server-scoped editing session (the `session_open` API).
/// Ownership split: the poll thread owns the registry and the `busy` flag
/// (one in-flight map per session); the circuit text is written only by the
/// mapper thread running the session's admitted map and read by the poll
/// thread after its completion is delivered — the admission queue and
/// completion queue mutexes order those hand-offs, so the field itself needs
/// no lock.
struct ServeSession {
  std::string name;    ///< wire id ("s<N>")
  std::string fabric;  ///< fabric spec, fixed at session_open
  /// Full QASM text of the circuit after the last successful map.
  std::string qasm;
  /// Poll-thread-only: a map for this session is queued or running.
  bool busy = false;
};

/// One admitted map request, queued between the connection layer and the
/// mapper threads. The cancel source is shared with the connection's
/// in-flight registry so a client cancel / disconnect / drain can fire it
/// while the ticket sits in the queue or runs on a mapper thread.
struct ServeTicket {
  std::uint64_t connection = 0;
  ServeRequest request;
  CancelSource cancel;
  std::chrono::steady_clock::time_point admitted_at;
  /// Session this map runs under (null = stateless request).
  std::shared_ptr<ServeSession> session;
};

/// Test hook gating the moment an admitted map starts mapping: when
/// installed (ServeOptions::map_start_gate), every mapper thread blocks here
/// — after taking its in-flight slot, before touching the engine — until the
/// gate opens or the ticket's cancel fires. Production servers never install
/// one. This is what lets the fault-injection suite hold jobs "running" for
/// a deterministic window instead of racing wall-clock mapping durations.
class MapStartGate {
 public:
  void open() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  /// Returns when the gate is open or `token` fires (poll-granularity: the
  /// cancel has no waiter hook, so the wait wakes every millisecond to
  /// check it).
  void wait(const CancelToken& token) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!open_ && token.reason() == CancelReason::None) {
      cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Why try_admit refused a ticket.
enum class AdmitError : std::uint8_t { QueueFull, Draining };

/// Bounded MPSC/MPMC ticket queue with drain support.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(int max_depth);

  /// Takes a queue slot or reports why not; never blocks.
  [[nodiscard]] bool try_admit(std::shared_ptr<ServeTicket> ticket,
                               AdmitError& why);

  /// Blocks for the next ticket; nullptr once the queue is closed *and*
  /// empty (mapper threads exit on nullptr; close() never drops queued
  /// tickets — drain cancels them instead, and each still flows through a
  /// mapper thread to produce its reply).
  [[nodiscard]] std::shared_ptr<ServeTicket> pop();

  /// Stops admission (try_admit reports Draining) without waking poppers.
  void begin_drain();
  /// Stops admission and wakes every blocked pop() once drained.
  void close();

  /// Fires every queued ticket's cancel source (drain deadline).
  void cancel_queued();

  [[nodiscard]] int depth() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::shared_ptr<ServeTicket>> queue_;
  int max_depth_;
  bool draining_ = false;
  bool closed_ = false;
};

/// Tuning for RetryAfterEstimator. The floor is what the fixed
/// `retry_after_ms` constant used to be; the ceiling stops a momentary cost
/// spike from telling clients to go away for minutes.
struct RetryEstimatorOptions {
  /// EWMA smoothing factor for observed per-request cost (1.0 = latest
  /// sample wins outright, 0.0 = frozen).
  double alpha = 0.2;
  int floor_ms = 50;
  int ceiling_ms = 2000;
};

/// Derives the `retry_after_ms` overload hint from the observed queue drain
/// rate instead of a fixed constant: an EWMA of recent per-request mapping
/// cost times the current queue depth, divided by the threads draining it,
/// clamped to [floor, ceiling]. Monotone by construction in both the queue
/// depth and the observed cost, so a deeper backlog or slower requests can
/// only push the hint up, never down. Thread-safe: mapper threads observe,
/// the poll thread suggests.
class RetryAfterEstimator {
 public:
  explicit RetryAfterEstimator(RetryEstimatorOptions options = {});

  /// Folds one completed request's mapping cost into the EWMA. Negative
  /// samples are ignored (a clock hiccup must not poison the estimate).
  void observe_request_ms(double ms);

  /// The back-off hint for a request shed with `queue_depth` tickets ahead
  /// of it and `drain_threads` mapper threads clearing them. With no
  /// observations yet, returns the floor (the legacy fixed constant).
  [[nodiscard]] int suggest_ms(int queue_depth, int drain_threads) const;

  /// Current smoothed per-request cost estimate (0 until first sample).
  [[nodiscard]] double ewma_ms() const;

 private:
  RetryEstimatorOptions options_;
  mutable std::mutex mutex_;
  double ewma_ = 0.0;
  bool seeded_ = false;
};

/// Monotonic service counters plus a bounded reservoir of recent per-request
/// mapping CPU times for p50/p99. All methods thread-safe.
class ServeMetrics {
 public:
  struct Snapshot {
    long long accepted = 0;
    long long rejected = 0;    // backpressure replies (queue full / draining)
    long long completed = 0;   // ok:true map replies
    long long failed = 0;      // map_failed replies
    long long cancelled = 0;   // client-cancel + drain-cancel replies
    long long expired = 0;     // deadline replies
    long long bad_requests = 0;
    long long health_probes = 0;  // queue-bypassing liveness checks answered
    long long connections_opened = 0;
    long long connections_failed = 0;  // closed for cause (oversize, slow, io)
    int in_flight = 0;
    double p50_trial_cpu_ms = 0.0;
    double p99_trial_cpu_ms = 0.0;
    int latency_samples = 0;
    /// Setup-vs-search split over every completed map: thread-CPU ms spent
    /// in program-derived setup and Dijkstra nodes the routing searches
    /// settled (both monotone totals, not reservoir percentiles).
    double setup_ms_total = 0.0;
    long long nodes_settled_total = 0;
  };

  void count_accepted() { bump(&Counters::accepted); }
  void count_rejected() { bump(&Counters::rejected); }
  void count_completed() { bump(&Counters::completed); }
  void count_failed() { bump(&Counters::failed); }
  void count_cancelled() { bump(&Counters::cancelled); }
  void count_expired() { bump(&Counters::expired); }
  void count_bad_request() { bump(&Counters::bad_requests); }
  void count_health_probe() { bump(&Counters::health_probes); }
  void count_connection_opened() { bump(&Counters::connections_opened); }
  void count_connection_failed() { bump(&Counters::connections_failed); }

  void enter_flight();
  void leave_flight();
  /// Requests between enter_flight and leave_flight, without the reservoir
  /// copy and sort a snapshot() costs.
  [[nodiscard]] int in_flight() const;

  /// Records one completed request's trial CPU time into the percentile
  /// reservoir (ring of the most recent kReservoirCapacity samples).
  void record_trial_cpu_ms(double ms);

  /// Folds one completed request's setup CPU time and settled-node count
  /// into the monotone totals surfaced by the stats endpoint.
  void record_map_work(double setup_ms, long long nodes_settled);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  static constexpr std::size_t kReservoirCapacity = 1024;

  struct Counters {
    long long accepted = 0;
    long long rejected = 0;
    long long completed = 0;
    long long failed = 0;
    long long cancelled = 0;
    long long expired = 0;
    long long bad_requests = 0;
    long long health_probes = 0;
    long long connections_opened = 0;
    long long connections_failed = 0;
  };

  void bump(long long Counters::* counter);

  mutable std::mutex mutex_;
  Counters counters_;
  int in_flight_ = 0;
  double setup_ms_total_ = 0.0;
  long long nodes_settled_total_ = 0;
  std::vector<double> reservoir_;
  std::size_t reservoir_next_ = 0;
};

}  // namespace qspr

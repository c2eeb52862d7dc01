// Cooperative cancellation with optional deadlines, the per-job control
// plane of the mapping service: a CancelSource is held by whoever may stop
// the work (a serve connection, a drain sequence), the CancelToken it hands
// out is carried by the job and *polled* at safe points — between placement
// trials, between a seed's forward/backward runs — never asynchronously.
//
// Cancellation rides the Executor's existing per-job fault capture: a
// polled check() throws CancelledError, which abandons only that job's
// unclaimed indices and surfaces from wait()/finish() exactly like any
// other per-job failure — neighbours on the shared executor are untouched,
// and a job that is never cancelled is bit-identical to one run without a
// token (the check is read-only).
//
// Deadlines are absolute steady-clock points folded into the same token:
// expired() and cancelled() both make check() throw, with the reason
// preserved so a service can answer "cancelled" vs "deadline" distinctly.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "common/error.hpp"

namespace qspr {

enum class CancelReason : std::uint8_t { None, Cancelled, DeadlineExpired };

/// Thrown by CancelToken::check() from inside a cancelled job's trial loop.
class CancelledError : public Error {
 public:
  explicit CancelledError(CancelReason reason)
      : Error(reason == CancelReason::DeadlineExpired
                  ? "job deadline expired"
                  : "job cancelled"),
        reason_(reason) {}

  [[nodiscard]] CancelReason reason() const { return reason_; }

 private:
  CancelReason reason_;
};

namespace detail {
struct CancelState {
  std::atomic<bool> cancelled{false};
  /// Absolute deadline in steady_clock ticks; max() = none. Stored as a
  /// count so the flag and the deadline are both lock-free loads.
  std::atomic<std::chrono::steady_clock::rep> deadline{
      std::chrono::steady_clock::time_point::max().time_since_epoch().count()};
};
}  // namespace detail

/// Read side: copyable, cheap to poll. A default-constructed token never
/// cancels (the no-service path pays one null check).
class CancelToken {
 public:
  CancelToken() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// Why the job should stop, or None to keep going. Deadline expiry is
  /// evaluated lazily against steady_clock on every poll.
  [[nodiscard]] CancelReason reason() const {
    if (state_ == nullptr) return CancelReason::None;
    if (state_->cancelled.load(std::memory_order_relaxed)) {
      return CancelReason::Cancelled;
    }
    const auto deadline = state_->deadline.load(std::memory_order_relaxed);
    if (std::chrono::steady_clock::now().time_since_epoch().count() >=
        deadline) {
      return CancelReason::DeadlineExpired;
    }
    return CancelReason::None;
  }

  /// Polled at trial boundaries: throws CancelledError when the job should
  /// stop, otherwise returns.
  void check() const {
    const CancelReason why = reason();
    if (why != CancelReason::None) throw CancelledError(why);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<detail::CancelState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::CancelState> state_;
};

/// Write side: owns the shared flag. Copies of a source share one state, so
/// a service can keep the source in a registry and cancel from any thread.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<detail::CancelState>()) {}

  [[nodiscard]] CancelToken token() const { return CancelToken(state_); }

  void request_cancel() {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }

  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    state_->deadline.store(deadline.time_since_epoch().count(),
                           std::memory_order_relaxed);
  }

  /// Convenience: deadline_ms <= 0 leaves the token deadline-free.
  void set_deadline_after_ms(double deadline_ms) {
    if (deadline_ms <= 0.0) return;
    set_deadline(std::chrono::steady_clock::now() +
                 std::chrono::microseconds(
                     static_cast<long long>(deadline_ms * 1000.0)));
  }

  [[nodiscard]] CancelReason reason() const { return token().reason(); }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

}  // namespace qspr

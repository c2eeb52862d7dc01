#include "service/admission.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace qspr {

AdmissionQueue::AdmissionQueue(int max_depth) : max_depth_(max_depth) {
  require(max_depth >= 1, "admission queue needs at least one slot");
}

bool AdmissionQueue::try_admit(std::shared_ptr<ServeTicket> ticket,
                               AdmitError& why) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ || closed_) {
      why = AdmitError::Draining;
      return false;
    }
    if (static_cast<int>(queue_.size()) >= max_depth_) {
      why = AdmitError::QueueFull;
      return false;
    }
    queue_.push_back(std::move(ticket));
  }
  ready_.notify_one();
  return true;
}

std::shared_ptr<ServeTicket> AdmissionQueue::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return nullptr;
  std::shared_ptr<ServeTicket> ticket = std::move(queue_.front());
  queue_.pop_front();
  return ticket;
}

void AdmissionQueue::begin_drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
}

void AdmissionQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    closed_ = true;
  }
  ready_.notify_all();
}

void AdmissionQueue::cancel_queued() {
  std::vector<CancelSource> pending;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    pending.reserve(queue_.size());
    for (const std::shared_ptr<ServeTicket>& ticket : queue_) {
      pending.push_back(ticket->cancel);
    }
  }
  // Fire outside the lock: request_cancel is lock-free, but keeping the
  // queue lock narrow costs nothing and never risks ordering surprises.
  for (CancelSource& cancel : pending) cancel.request_cancel();
}

int AdmissionQueue::depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(queue_.size());
}

RetryAfterEstimator::RetryAfterEstimator(RetryEstimatorOptions options)
    : options_(options) {
  require(options_.alpha >= 0.0 && options_.alpha <= 1.0,
          "retry estimator alpha must be in [0, 1]");
  require(options_.floor_ms >= 0, "retry estimator floor must be >= 0");
  require(options_.ceiling_ms >= options_.floor_ms,
          "retry estimator ceiling must be >= floor");
}

void RetryAfterEstimator::observe_request_ms(double ms) {
  if (ms < 0.0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!seeded_) {
    ewma_ = ms;
    seeded_ = true;
    return;
  }
  ewma_ += options_.alpha * (ms - ewma_);
}

int RetryAfterEstimator::suggest_ms(int queue_depth, int drain_threads) const {
  double ewma = 0.0;
  bool seeded = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ewma = ewma_;
    seeded = seeded_;
  }
  if (!seeded) return options_.floor_ms;
  // Expected time until the backlog drains enough to admit a retry: the
  // depth+1 counts the slot the retrying client itself will need.
  const double depth = static_cast<double>(std::max(queue_depth, 0) + 1);
  const double threads = static_cast<double>(std::max(drain_threads, 1));
  const double hint = ewma * depth / threads;
  const double clamped =
      std::min(static_cast<double>(options_.ceiling_ms),
               std::max(static_cast<double>(options_.floor_ms), hint));
  return static_cast<int>(clamped);
}

double RetryAfterEstimator::ewma_ms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ewma_;
}

void ServeMetrics::bump(long long Counters::* counter) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++(counters_.*counter);
}

void ServeMetrics::enter_flight() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++in_flight_;
}

void ServeMetrics::leave_flight() {
  const std::lock_guard<std::mutex> lock(mutex_);
  --in_flight_;
}

int ServeMetrics::in_flight() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

void ServeMetrics::record_trial_cpu_ms(double ms) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (reservoir_.size() < kReservoirCapacity) {
    reservoir_.push_back(ms);
  } else {
    reservoir_[reservoir_next_] = ms;
    reservoir_next_ = (reservoir_next_ + 1) % kReservoirCapacity;
  }
}

void ServeMetrics::record_map_work(double setup_ms, long long nodes_settled) {
  const std::lock_guard<std::mutex> lock(mutex_);
  setup_ms_total_ += setup_ms;
  nodes_settled_total_ += nodes_settled;
}

ServeMetrics::Snapshot ServeMetrics::snapshot() const {
  Snapshot snap;
  std::vector<double> samples;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snap.accepted = counters_.accepted;
    snap.rejected = counters_.rejected;
    snap.completed = counters_.completed;
    snap.failed = counters_.failed;
    snap.cancelled = counters_.cancelled;
    snap.expired = counters_.expired;
    snap.bad_requests = counters_.bad_requests;
    snap.health_probes = counters_.health_probes;
    snap.connections_opened = counters_.connections_opened;
    snap.connections_failed = counters_.connections_failed;
    snap.in_flight = in_flight_;
    snap.setup_ms_total = setup_ms_total_;
    snap.nodes_settled_total = nodes_settled_total_;
    samples = reservoir_;
  }
  snap.latency_samples = static_cast<int>(samples.size());
  if (!samples.empty()) {
    std::sort(samples.begin(), samples.end());
    const auto at = [&](double quantile) {
      const auto rank = static_cast<std::size_t>(
          quantile * static_cast<double>(samples.size() - 1));
      return samples[rank];
    };
    snap.p50_trial_cpu_ms = at(0.50);
    snap.p99_trial_cpu_ms = at(0.99);
  }
  return snap;
}

}  // namespace qspr

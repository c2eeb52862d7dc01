#include "common/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace qspr {

namespace {

/// The executor whose body the current thread is running, if any. wait()
/// refuses to run under it: only a job's external waiter may block on it.
thread_local const Executor* tl_body_executor = nullptr;

}  // namespace

/// All mutable fields are guarded by Executor::Impl::mutex (the index cursor
/// included — bodies are placement trials, milliseconds each, so one lock
/// acquisition per claim is noise).
struct Executor::Job::State {
  Body body;
  std::size_t count = 0;
  std::size_t next = 0;  // first unclaimed index; == count when exhausted
  int running = 0;       // bodies currently executing
  bool done = false;
  std::exception_ptr error;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
};

Executor::Job::Job() = default;
Executor::Job::Job(const Job&) = default;
Executor::Job::Job(Job&&) noexcept = default;
Executor::Job& Executor::Job::operator=(const Job&) = default;
Executor::Job& Executor::Job::operator=(Job&&) noexcept = default;
Executor::Job::~Job() = default;
Executor::Job::Job(std::shared_ptr<State> state) : state_(std::move(state)) {}

struct Executor::Impl {
  std::mutex mutex;
  std::condition_variable work;  // workers: a job gained claimable indices
  std::condition_variable done;  // waiters: some job finished
  bool stop = false;
  /// In-flight jobs with work left or bodies still running.
  std::vector<std::shared_ptr<Job::State>> active;
  /// Round-robin cursor over `active` for fair cross-job claiming.
  std::size_t cursor = 0;
  std::vector<std::thread> threads;

  [[nodiscard]] bool has_claimable() const {
    return std::any_of(active.begin(), active.end(), [](const auto& job) {
      return job->next < job->count;
    });
  }

  /// Claims one index from the next claimable job after the cursor.
  /// Pre: has_claimable(). Returns (job, index).
  std::pair<std::shared_ptr<Job::State>, std::size_t> claim_round_robin() {
    for (std::size_t step = 0; step < active.size(); ++step) {
      const std::size_t at = (cursor + step) % active.size();
      const std::shared_ptr<Job::State>& job = active[at];
      if (job->next < job->count) {
        cursor = at + 1;
        const std::size_t index = job->next++;
        ++job->running;
        return {job, index};
      }
    }
    return {nullptr, 0};  // unreachable under the precondition
  }
};

Executor::Executor(int workers) : impl_(new Impl), workers_(workers) {
  require(workers >= 1, "executor needs at least one worker");
  impl_->threads.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    impl_->threads.emplace_back([this, w] { worker_loop(w); });
  }
}

Executor::~Executor() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work.notify_all();
  for (std::thread& thread : impl_->threads) thread.join();
}

int Executor::default_worker_count() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

Executor::Job Executor::submit(std::size_t count, Body body) {
  auto state = std::make_shared<Job::State>();
  state->body = std::move(body);
  state->count = count;
  if (count == 0) {
    state->done = true;
    return Job(std::move(state));
  }
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->active.push_back(state);
  }
  impl_->work.notify_all();
  return Job(std::move(state));
}

void Executor::wait(const Job& job) {
  require(job.valid(), "cannot wait on an invalid executor job");
  require(tl_body_executor != this,
          "an executor job body cannot wait on its own executor");
  const std::shared_ptr<Job::State>& state = job.state_;
  std::unique_lock<std::mutex> lock(impl_->mutex);
  // Help out on this job's own indices as worker 0, then sleep until its
  // last in-flight body finishes.
  while (!state->done && state->next < state->count) {
    const std::size_t index = state->next++;
    ++state->running;
    lock.unlock();
    execute(state, index, 0);
    lock.lock();
  }
  impl_->done.wait(lock, [&] { return state->done; });
  if (state->error) std::rethrow_exception(state->error);
}

void Executor::run(std::size_t count, const Body& body) {
  if (count == 0) return;
  if (workers_ == 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i, 0);
    return;
  }
  // Non-owning wrapper: run() blocks until the job is done, so the reference
  // outlives every body invocation.
  wait(submit(count, [&body](std::size_t index, int worker) {
    body(index, worker);
  }));
}

void Executor::worker_loop(int worker) {
  for (;;) {
    std::shared_ptr<Job::State> state;
    std::size_t index = 0;
    {
      std::unique_lock<std::mutex> lock(impl_->mutex);
      impl_->work.wait(
          lock, [&] { return impl_->stop || impl_->has_claimable(); });
      if (impl_->stop) return;
      std::tie(state, index) = impl_->claim_round_robin();
    }
    if (state) execute(state, index, worker);
  }
}

void Executor::execute(const std::shared_ptr<Job::State>& state,
                       std::size_t index, int worker) {
  bool failed = false;
  std::exception_ptr error;
  // Saved and restored: a body of another executor may be waiting beneath.
  const Executor* const outer = std::exchange(tl_body_executor, this);
  try {
    state->body(index, worker);
  } catch (...) {
    failed = true;
    error = std::current_exception();
  }
  tl_body_executor = outer;
  bool completed = false;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    if (failed) {
      if (index < state->error_index) {
        state->error_index = index;
        state->error = error;
      }
      // Abandon this job's unclaimed indices; in-flight bodies (of this and
      // every other job) run to completion.
      state->next = state->count;
    }
    --state->running;
    completed = finish_if_complete(state);
  }
  if (completed) impl_->done.notify_all();
}

bool Executor::finish_if_complete(const std::shared_ptr<Job::State>& state) {
  if (state->done || state->running > 0 || state->next < state->count) {
    return false;
  }
  state->done = true;
  auto& active = impl_->active;
  active.erase(std::remove(active.begin(), active.end(), state),
               active.end());
  return true;
}

}  // namespace qspr

// Shared worker executor driving every trial-parallel loop in the mapping
// pipeline — and, through the batch service, many mapping jobs at once.
//
// A *job* is a counted set of independent indices: submit(count, body)
// registers it and returns a handle; the pool's worker threads claim indices
// round-robin across all in-flight jobs, so trials from different jobs
// interleave and one large job cannot starve the queue. wait(job) blocks
// until the job finishes, with the calling thread helping out on that job's
// own indices as worker 0 (a 1-worker executor therefore spawns no threads
// and runs every job strictly in index order — the serial reference the
// parallel runs are tested bit-identical against).
//
// Determinism is the caller's contract: a body's outputs must depend only on
// its index, never on which worker ran it or in what order. Failures are
// captured *per job*: a body that throws abandons only its own job's
// unclaimed indices, and wait()
// rethrows the exception thrown by the lowest index of that job — other
// in-flight jobs are unaffected (the fault-isolation hinge of the batch
// mapping service).
//
// A body may submit() further jobs to its own executor (a mapping job's
// setup submits its trial loop) but never wait() on one: that wait throws
// qspr::Error and fails the body's job, instead of parking a pool thread.
// So a waiter is always an external thread acting as worker 0 of the job it
// waits on, and since at most one thread waits on a given job, no two
// threads ever run bodies of the same job under the same worker id.
//
// Contracts: every submitted job must be waited before the executor is
// destroyed; at most one thread waits on a given job.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace qspr {

class Executor {
 public:
  /// body(index, worker): `worker` is a stable id in [0, worker_count()) for
  /// indexing per-worker scratch. Ids >= 1 are the pool threads; worker 0 is
  /// the external thread waiting on the job.
  using Body = std::function<void(std::size_t index, int worker)>;

  /// Handle to one submitted job. Copyable (all copies refer to the same
  /// job); default-constructed handles are invalid.
  class Job {
   public:
    Job();
    Job(const Job&);
    Job(Job&&) noexcept;
    Job& operator=(const Job&);
    Job& operator=(Job&&) noexcept;
    ~Job();

    [[nodiscard]] bool valid() const { return state_ != nullptr; }

   private:
    friend class Executor;
    struct State;
    explicit Job(std::shared_ptr<State> state);
    std::shared_ptr<State> state_;
  };

  /// Spawns `workers - 1` pool threads (the waiting caller is worker 0).
  /// workers >= 1.
  explicit Executor(int workers);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] int worker_count() const { return workers_; }

  /// The number of workers a CLI should default to.
  [[nodiscard]] static int default_worker_count();

  /// Registers a job of `count` indices; pool threads start claiming its
  /// indices immediately, interleaved round-robin with other in-flight jobs.
  /// Never blocks. The body (and everything it captures) must stay valid
  /// until wait(job) returns.
  [[nodiscard]] Job submit(std::size_t count, Body body);

  /// Blocks until `job` finishes, running its remaining indices on the
  /// calling thread as worker 0. Rethrows the exception captured for the
  /// job's lowest failing index, if any (idempotent: waiting again on a
  /// finished failed job rethrows again). Throws qspr::Error when called
  /// from inside a body of this executor.
  void wait(const Job& job);

  /// submit + wait, with a serial fast path (workers == 1 or count <= 1)
  /// that runs inline without registering a job.
  void run(std::size_t count, const Body& body);

 private:
  void worker_loop(int worker);
  /// Runs one claimed index and does the post-run bookkeeping (error
  /// capture, job completion detection).
  void execute(const std::shared_ptr<Job::State>& state, std::size_t index,
               int worker);
  /// Completion/cleanup under lock_; returns true when the job just
  /// finished.
  bool finish_if_complete(const std::shared_ptr<Job::State>& state);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  const int workers_;
};

}  // namespace qspr

#pragma once
// Fixed-size thread pool with deterministic parallel decomposition.
//
// Design goals, in priority order (see docs/PARALLELISM.md):
//
//  1. Determinism. parallel_for splits [begin, end) into chunks whose
//     boundaries depend only on the range size and the grain — never on the
//     thread count — so callers that keep per-chunk partials and reduce them
//     in chunk order get bit-identical results for any pool size (including
//     a single thread, which executes the same chunks in order).
//  2. No deadlocks under nesting. A thread that waits on a TaskGroup helps
//     execute queued tasks instead of blocking, so tasks may freely submit
//     sub-tasks or call parallel_for (a batch job on the pool runs its
//     flow's candidate fan-out on the same pool).
//  3. Simplicity over peak throughput. One shared FIFO queue guarded by one
//     mutex, no work stealing; tasks are expected to be coarse (the grain
//     thresholds at the call sites keep tiny problems on the inline path,
//     where parallel_for costs nothing but a loop).
//
// Exceptions thrown inside tasks are captured and rethrown from
// TaskGroup::wait() (first one wins; later ones are dropped after the tasks
// finish). The global() pool is sized from APLACE_THREADS or, failing that,
// std::thread::hardware_concurrency(); set_global_threads() resizes it and
// must only be called while no tasks are in flight.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/span.hpp"

namespace aplace::base {

class ThreadPool {
 public:
  /// A pool of `threads` total execution contexts: `threads - 1` workers
  /// plus the caller, which participates while waiting. `threads <= 1`
  /// means fully serial execution (no workers are spawned).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Resolved pool size: the number of execution contexts that actually
  /// exist (spawned workers + the participating caller). This is what
  /// determinism and bench metadata care about.
  [[nodiscard]] unsigned num_threads() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// The thread count the constructor was asked for, before clamping
  /// (e.g. 0 resolves to 1). Bench reports emit both values.
  [[nodiscard]] unsigned requested_threads() const { return requested_; }

  /// A set of tasks whose completion can be awaited together. wait() helps
  /// drain the pool's queue (any group's tasks), so groups nest freely.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    ~TaskGroup() { wait_nothrow(); }
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Submit a task. With a serial pool the task runs immediately on the
    /// calling thread (same code path, deterministic submission order).
    void run(std::function<void()> fn);

    /// Block until every task submitted to this group has finished,
    /// executing queued tasks meanwhile. Rethrows the first exception any
    /// of this group's tasks threw.
    void wait();

   private:
    friend class ThreadPool;
    void wait_nothrow() noexcept;

    ThreadPool& pool_;
    std::condition_variable done_cv_;       // waits on pool_.mu_
    std::size_t pending_ = 0;               // guarded by pool_.mu_
    std::exception_ptr first_error_;        // guarded by pool_.mu_
  };

  /// Chunk count for a range of `n` items at the given grain: depends on
  /// nothing else, which is what makes chunked reductions deterministic.
  [[nodiscard]] static std::size_t chunk_count(std::size_t n,
                                               std::size_t grain) {
    if (n == 0) return 0;
    const std::size_t g = grain == 0 ? 1 : grain;
    return (n + g - 1) / g;
  }

  /// Run fn(chunk_begin, chunk_end) over every chunk of [begin, end).
  /// Chunks may execute concurrently and in any order; each chunk runs on
  /// exactly one thread. Ranges smaller than one grain (or a serial pool)
  /// execute inline with zero synchronization.
  template <class Fn>
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    Fn&& fn) {
    const std::size_t g = grain == 0 ? 1 : grain;
    const std::size_t chunks = chunk_count(end - begin, g);
    if (chunks == 0) return;
    if (chunks == 1 || threads_ <= 1) {
      for (std::size_t c = 0; c < chunks; ++c) {
        fn(begin + c * g, std::min(end, begin + (c + 1) * g));
      }
      return;
    }
    TaskGroup group(*this);
    for (std::size_t c = 1; c < chunks; ++c) {
      const std::size_t lo = begin + c * g;
      const std::size_t hi = std::min(end, lo + g);
      group.run([&fn, lo, hi] { fn(lo, hi); });
    }
    fn(begin, begin + g);  // caller takes the first chunk
    group.wait();
  }

  /// The process-wide pool. Sized on first use from the APLACE_THREADS
  /// environment variable, else hardware_concurrency().
  [[nodiscard]] static ThreadPool& global();

  /// Resize the global pool (tears the old one down). Only call at a
  /// quiescent point — no tasks in flight.
  static void set_global_threads(unsigned threads);

  /// The thread count global() would pick on first use.
  [[nodiscard]] static unsigned default_threads();

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
    /// Submitter's span context, reinstalled on whichever thread runs the
    /// task so spans opened inside parent correctly across the hop.
    obs::SpanContext ctx{};
    double submit_seconds = 0;  ///< obs::now_seconds() at enqueue (0 = off)
  };

  void worker_loop();
  // Pops and runs one queued task. `lock` must hold mu_; it is released
  // while the task runs and re-acquired after. Returns false if the queue
  // was empty.
  bool run_one(std::unique_lock<std::mutex>& lock);

  unsigned requested_;  // raw constructor argument (pre-clamp)
  unsigned threads_;    // resolved size (>= 1)
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Task> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace aplace::base

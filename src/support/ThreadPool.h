//===- support/ThreadPool.h - Fixed-size work-queue thread pool -----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool with a shared work queue, used to parallelize
/// the trace-analysis pipeline: scanning the four view families of a
/// ViewWeb and evaluating independent correlated thread-view pairs.
///
/// Design constraints that matter for correctness of the diff pipeline:
///
///   - *Determinism is the caller's job*: the pool only executes tasks; all
///     pipeline stages submit independent tasks writing disjoint state and
///     merge results in a fixed (submission) order, so `--jobs N` produces
///     byte-identical output to `--jobs 1`.
///   - *Exception propagating*: exceptions thrown by a task are captured
///     and rethrown from wait() on the submitting thread.
///   - *No nesting*: tasks must not submit to (or wait on) their own pool —
///     a worker blocking on the queue it serves can deadlock. Pipeline
///     stages are parallelized one level at a time.
///
/// A pool of size <= 1 runs every task inline on the submitting thread at
/// submit time — no worker threads, no locks taken on the task
/// path — which restores the sequential execution order bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_SUPPORT_THREADPOOL_H
#define RPRISM_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rprism {

/// Fixed-size thread pool. See the file comment for the usage contract.
class ThreadPool {
public:
  /// \p NumThreads of 0 or 1 creates no workers (inline execution).
  explicit ThreadPool(unsigned NumThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads (0 in inline mode).
  unsigned numWorkers() const { return static_cast<unsigned>(Workers.size()); }

  /// Effective parallelism: max(1, numWorkers()).
  unsigned concurrency() const { return numWorkers() == 0 ? 1 : numWorkers(); }

  /// Enqueues \p Task. In inline mode the task runs immediately on the
  /// calling thread (its exception, if any, is captured like a queued
  /// task's and rethrown from the next wait()).
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task has finished. Rethrows the first
  /// exception any task threw since the last wait(); remaining tasks still
  /// run to completion before the rethrow.
  void wait();

  /// The `--jobs` default: hardware_concurrency, with a fallback of 1 when
  /// the runtime reports 0 (permitted by the standard).
  static unsigned defaultConcurrency();

private:
  void workerLoop();
  void recordException(std::exception_ptr E);

  std::vector<std::thread> Workers;
  std::atomic<uint64_t> BusyNanos{0}; ///< Telemetry: summed task run time.
  uint64_t StartNanos = 0;            ///< Telemetry: pool creation time.
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkReady;   ///< Queue non-empty or shutdown.
  std::condition_variable AllDone;     ///< Queue empty and nothing running.
  size_t Pending = 0;                  ///< Queued + currently running tasks.
  std::exception_ptr FirstError;       ///< First task exception since wait().
  bool ShuttingDown = false;
};

} // namespace rprism

#endif // RPRISM_SUPPORT_THREADPOOL_H

//===- support/ThreadPool.h - Fixed-size worker pool -------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal fixed-size worker pool for the merge pipeline's attempt
/// stage. Jobs are opaque callables executed in FIFO order by a fixed set
/// of threads; wait() blocks the caller until every submitted job has
/// finished, establishing a happens-before edge between all worker writes
/// and the caller.
///
/// The pool is deliberately small: no futures, no task stealing, no
/// priorities. A caller that needs an order of its own keeps its work in
/// its own queue and submits one job per item, each taking whichever
/// item comes first when it starts (MergePipeline's attempt stream runs
/// the most urgent task that way).
///
/// A throwing job does NOT terminate the process: the first exception a
/// worker observes is captured (std::exception_ptr) and rethrown from
/// the next wait() on the submitting thread; later exceptions from the
/// same batch are dropped (first-wins). The remaining jobs still run —
/// an exception never wedges the queue — and the pool stays usable after
/// the rethrow. An exception still pending at destruction is dropped
/// (there is no caller left to receive it).
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_SUPPORT_THREADPOOL_H
#define SALSSA_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace salssa {

/// Fixed-size thread pool with FIFO job dispatch and quiescence waiting.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers. 0 resolves to the hardware concurrency
  /// (at least 1).
  explicit ThreadPool(unsigned NumThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues one job. Never blocks (the queue is unbounded).
  void submit(std::function<void()> Job);

  /// Blocks until every job submitted so far has completed, then
  /// rethrows the first exception any of them threw (if one did). Safe
  /// to call repeatedly; the pool stays usable afterwards — including
  /// after a rethrow.
  void wait();

  /// Resolves a user-facing thread-count knob: 0 means "use the
  /// hardware", anything else is taken literally (at least 1).
  static unsigned resolveThreadCount(unsigned Requested);

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable JobAvailable; ///< signalled on submit/stop
  std::condition_variable Quiescent;    ///< signalled when work drains
  size_t InFlight = 0;                  ///< queued + currently executing
  bool Stopping = false;
  std::exception_ptr FirstException;    ///< first job throw, pending wait()
};

} // namespace salssa

#endif // SALSSA_SUPPORT_THREADPOOL_H

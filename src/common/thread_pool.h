#ifndef DISTSKETCH_COMMON_THREAD_POOL_H_
#define DISTSKETCH_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace distsketch {

/// Fixed-size worker pool with a deterministic `ParallelFor` primitive.
///
/// Design rules (they are what make the distributed protocols bit-identical
/// for any thread count, including 1):
///   - `ParallelFor(n, fn)` runs fn(i) exactly once for every i in [0, n);
///     each index writes only to its own output slot, so the schedule can
///     never influence the numbers produced.
///   - Reductions go through `ParallelMap` / `ParallelOrderedReduce`, which
///     combine the per-index slots serially in increasing index order after
///     the parallel phase — never in completion order.
///   - With `num_threads() == 1` (or n == 1) the loop runs inline on the
///     calling thread with no locking, so the serial path costs nothing over
///     a plain for loop.
///
/// The pool is not reentrant: calling ParallelFor from inside a ParallelFor
/// body is not supported (the protocols never nest per-server parallelism).
class ThreadPool {
 public:
  /// Creates a pool that runs ParallelFor bodies on `num_threads` threads.
  /// `num_threads` counts the calling thread: a pool of size t spawns t-1
  /// workers, and size <= 1 spawns none (pure inline execution).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes, including the calling thread (>= 1).
  size_t num_threads() const { return workers_.size() + 1; }

  /// Runs fn(i) for every i in [0, n), distributing indices across the
  /// pool; blocks until every index has completed. The calling thread
  /// participates. Indices are claimed dynamically, so bodies with uneven
  /// cost still balance; determinism comes from per-index isolation, not
  /// from a static schedule.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// The process-wide pool used by the distributed protocols. Sized from
  /// the DS_THREADS environment variable when set, otherwise from
  /// std::thread::hardware_concurrency().
  static ThreadPool& Global();

  /// Resizes the global pool (benches and the determinism tests sweep
  /// this). Must not be called while a ParallelFor is in flight.
  static void SetGlobalThreads(size_t num_threads);

  /// Thread count of the global pool.
  static size_t GlobalThreads();

  /// True while the calling thread is executing a ParallelFor body (on any
  /// pool, including the inline serial path). Kernels that would like to
  /// parallelise internally (e.g. the spectral kernel's Gram accumulation)
  /// consult this to fall back to their serial schedule instead of nesting
  /// a ParallelFor, which the pool does not support.
  static bool InParallelRegion();

  /// The lane running the calling thread's ParallelFor body: 0 for the
  /// thread that called ParallelFor (and any thread outside a pool),
  /// 1 .. num_threads() - 1 for the workers. Bodies running at once see
  /// distinct lanes, so a body may use per-lane scratch the caller made.
  static size_t CurrentLane();

 private:
  void WorkerLoop(size_t lane);
  // Claims indices until the current batch is exhausted; returns with
  // pending_ decremented for every index it ran. `stolen` marks calls
  // from worker threads (vs the ParallelFor caller) for telemetry.
  void RunBatch(bool stolen);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t)>* fn_ = nullptr;  // null = no batch
  size_t batch_size_ = 0;
  size_t next_index_ = 0;   // next unclaimed index of the batch
  size_t in_flight_ = 0;    // indices claimed but not yet finished
  uint64_t batch_id_ = 0;   // wakes workers exactly once per batch
  bool shutdown_ = false;
};

/// Computes fn(i) for i in [0, n) on the global pool and returns the
/// results indexed by i. T must be default-constructible; combination
/// order is index order by construction.
template <typename T, typename Fn>
std::vector<T> ParallelMap(size_t n, Fn&& fn) {
  std::vector<T> out(n);
  ThreadPool::Global().ParallelFor(
      n, [&](size_t i) { out[i] = fn(i); });
  return out;
}

/// Ordered reduction: computes fn(i) in parallel, then folds
/// acc = combine(std::move(acc), slot[i]) serially for i = 0..n-1. The
/// fold order is fixed, so the result is bit-identical for any thread
/// count.
template <typename Acc, typename T, typename Fn, typename Combine>
Acc ParallelOrderedReduce(size_t n, Acc acc, Fn&& fn, Combine&& combine) {
  std::vector<T> slots = ParallelMap<T>(n, std::forward<Fn>(fn));
  for (size_t i = 0; i < n; ++i) {
    acc = combine(std::move(acc), std::move(slots[i]));
  }
  return acc;
}

}  // namespace distsketch

#endif  // DISTSKETCH_COMMON_THREAD_POOL_H_

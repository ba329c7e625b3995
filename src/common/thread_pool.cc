#include "common/thread_pool.h"

#include <cstdlib>
#include <memory>

#include "telemetry/telemetry.h"

namespace distsketch {

namespace {

// Set while the current thread runs a ParallelFor body (worker or inline).
// thread_local so concurrent pools/threads cannot observe each other.
thread_local bool t_in_parallel_region = false;
// This thread's lane in the pool it works for: 0 unless it is a worker.
thread_local size_t t_lane = 0;

struct ParallelRegionScope {
  bool saved = t_in_parallel_region;
  ParallelRegionScope() { t_in_parallel_region = true; }
  ~ParallelRegionScope() { t_in_parallel_region = saved; }
};

}  // namespace

bool ThreadPool::InParallelRegion() { return t_in_parallel_region; }

size_t ThreadPool::CurrentLane() { return t_lane; }

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t spawn = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(spawn);
  for (size_t t = 0; t < spawn; ++t) {
    workers_.emplace_back([this, t] { WorkerLoop(t + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::RunBatch(bool stolen) {
  // Claim indices one at a time under the lock. The per-index work in
  // distsketch (a whole server's local sketch) dwarfs a mutex hop, so a
  // finer-grained atomic counter buys nothing here.
  uint64_t ran = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (fn_ != nullptr && next_index_ < batch_size_) {
    const size_t i = next_index_++;
    ++in_flight_;
    const std::function<void(size_t)>* fn = fn_;
    lock.unlock();
    {
      ParallelRegionScope region;
      (*fn)(i);
    }
    ++ran;
    lock.lock();
    --in_flight_;
  }
  if (ran > 0) {
    // Steal accounting: indices claimed by workers vs run inline by the
    // ParallelFor caller.
    telemetry::Count(stolen ? "pool.indices.stolen" : "pool.indices.inline",
                     ran);
  }
  if (fn_ != nullptr && next_index_ >= batch_size_ && in_flight_ == 0) {
    done_cv_.notify_all();
  }
}

void ThreadPool::WorkerLoop(size_t lane) {
  t_lane = lane;
  uint64_t seen_batch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (fn_ != nullptr && batch_id_ != seen_batch);
      });
      if (shutdown_) return;
      seen_batch = batch_id_;
    }
    RunBatch(/*stolen=*/true);
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (telemetry::Telemetry::Current()->enabled()) {
    telemetry::Count("pool.batches");
    // Queue depth at submission: indices that will wait for a lane.
    telemetry::Observe("pool.queue_depth",
                       n > num_threads() ? n - num_threads() : 0);
    telemetry::Observe("pool.batch_size", n);
  }
  if (workers_.empty() || n == 1) {
    // Serial fast path: no locks, no wakeups — identical cost to a plain
    // loop, which is what keeps the 1-thread protocol path at parity with
    // the pre-pool serial code. The region flag is still raised so nested
    // kernels make the same serial-vs-parallel choice at every pool size —
    // a precondition for bit-identical results across thread counts.
    ParallelRegionScope region;
    for (size_t i = 0; i < n; ++i) fn(i);
    telemetry::Count("pool.indices.inline", n);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    batch_size_ = n;
    next_index_ = 0;
    in_flight_ = 0;
    ++batch_id_;
  }
  work_cv_.notify_all();
  RunBatch(/*stolen=*/false);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock,
                  [&] { return next_index_ >= batch_size_ && in_flight_ == 0; });
    fn_ = nullptr;
  }
}

namespace {

size_t DefaultThreadCount() {
  if (const char* env = std::getenv("DS_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool> pool =
      std::make_unique<ThreadPool>(DefaultThreadCount());
  return pool;
}

std::mutex& GlobalMutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(GlobalMutex());
  return *GlobalSlot();
}

void ThreadPool::SetGlobalThreads(size_t num_threads) {
  std::lock_guard<std::mutex> lock(GlobalMutex());
  GlobalSlot() = std::make_unique<ThreadPool>(num_threads);
}

size_t ThreadPool::GlobalThreads() {
  std::lock_guard<std::mutex> lock(GlobalMutex());
  return GlobalSlot()->num_threads();
}

}  // namespace distsketch

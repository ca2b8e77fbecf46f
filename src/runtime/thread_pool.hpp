// Persistent worker-thread pool and the parallel_for loop used by every
// compute kernel in candle-hpc.
//
// Design notes (see DESIGN.md "runtime"):
//  * One process-wide pool (global_pool()) sized to hardware concurrency;
//    kernels never spawn ad-hoc threads.
//  * parallel_for distributes [begin, end) in `grain`-sized chunks through an
//    atomic cursor, so load imbalance self-schedules.
//  * Nested parallelism is flattened: a parallel_for issued from inside a
//    pool worker runs serially on that worker.  This lets the data-parallel
//    trainer (`src/parallel`) run replicas on pool workers whose GEMMs
//    degrade gracefully to serial instead of deadlocking or oversubscribing.
//  * Exceptions thrown by loop bodies are captured and rethrown on the
//    calling thread (first one wins).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace candle {

/// Fixed-size pool of worker threads executing fork/join style jobs.
class ThreadPool {
 public:
  /// Create a pool with exactly `threads` workers.  With 0 workers every
  /// job runs on the calling thread alone.  Returns once every worker has
  /// reserved kLaneWorkspaceBytes in its workspace arena.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The hardware default: one worker per hardware thread beyond the
  /// caller's, so workers plus caller fill the machine (0 when unknown).
  static unsigned hardware_workers();

  /// Number of worker threads (not counting the caller, which participates).
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Run `body(worker_index)` once on every worker plus the calling thread
  /// (caller gets index 0, workers 1..size()).  Blocks until all return.
  /// The first exception thrown by any body is rethrown here.
  void run_on_all(const std::function<void(unsigned)>& body);

  /// As run_on_all, but if another thread currently owns the pool, returns
  /// false without running anything.  parallel_for uses this to degrade to
  /// serial execution under contention instead of blocking or throwing.
  bool try_run_on_all(const std::function<void(unsigned)>& body);

  /// True when the current thread is one of this pool's workers.
  bool on_worker_thread() const;

 private:
  void worker_main(unsigned index);
  void run_locked(const std::function<void(unsigned)>& body);

  std::vector<std::thread> workers_;
  std::mutex dispatch_mu_;  // serializes concurrent run_on_all callers
  mutable std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned outstanding_ = 0;
  unsigned started_ = 0;  // workers that reserved their arena
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// The process-wide pool.  Constructed on first use.
ThreadPool& global_pool();

/// Total logical lanes = workers + caller.  Used to size chunking.
unsigned parallel_lanes();

/// Parallel loop over [begin, end).  `body(lo, hi)` is invoked on
/// half-open subranges whose length is at most max(grain, 1).  Runs serially
/// when the range is small, the pool has no workers, or the call is nested
/// inside another parallel_for.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

/// Convenience overload with an automatically chosen grain.
inline void parallel_for(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t n = end - begin;
  const std::int64_t lanes = static_cast<std::int64_t>(parallel_lanes());
  const std::int64_t grain = n > 0 ? (n + 4 * lanes - 1) / (4 * lanes) : 1;
  parallel_for(begin, end, grain, body);
}

/// Grain for a loop whose iterations each cost `flops_per_item` flops: large
/// enough that one steal amortizes dispatch overhead (>= min_flops_per_chunk
/// of work per chunk), small enough for ~4 chunks per lane when the work
/// allows it.  GEMM uses this so small-m/large-n shapes stop degenerating to
/// one cheap row per steal, and so tiny loops fall back to serial (the
/// 3-argument parallel_for runs serially when n <= grain).
inline std::int64_t grain_for_flops(std::int64_t n, double flops_per_item,
                                    double min_flops_per_chunk = 262144.0) {
  if (n <= 0) return 1;
  const std::int64_t lanes = static_cast<std::int64_t>(parallel_lanes());
  const std::int64_t balance = (n + 4 * lanes - 1) / (4 * lanes);
  std::int64_t floor_items = 1;
  if (flops_per_item > 0.0 && flops_per_item < min_flops_per_chunk) {
    floor_items =
        static_cast<std::int64_t>(min_flops_per_chunk / flops_per_item) + 1;
  }
  return std::max(balance, floor_items);
}

}  // namespace candle

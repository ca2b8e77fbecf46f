#include "runtime/thread_pool.hpp"

#include <algorithm>

#include "runtime/error.hpp"
#include "runtime/workspace.hpp"

namespace candle {

namespace {
// Set while the current thread is executing a parallel_for body, so nested
// loops collapse to serial execution instead of re-entering the pool.
thread_local bool tls_inside_parallel_region = false;
}  // namespace

unsigned ThreadPool::hardware_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw - 1 : 0;  // caller thread is the extra lane
}

ThreadPool::ThreadPool(unsigned threads) {
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i + 1); });
  }
  // Return only once every lane holds its workspace reserve, so no arena
  // grows behind a caller that already measured the pool as warm.
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return started_ == threads; });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const {
  const auto id = std::this_thread::get_id();
  return std::any_of(workers_.begin(), workers_.end(),
                     [id](const std::thread& t) { return t.get_id() == id; });
}

void ThreadPool::worker_main(unsigned index) {
  WorkspaceArena::local().reserve(kLaneWorkspaceBytes);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++started_;
  }
  cv_done_.notify_all();
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(unsigned)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
    }
    std::exception_ptr err;
    try {
      (*job)(index);
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (err && !first_error_) first_error_ = err;
      if (--outstanding_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::run_on_all(const std::function<void(unsigned)>& body) {
  if (workers_.empty()) {
    body(0);
    return;
  }
  std::lock_guard<std::mutex> dispatch_lock(dispatch_mu_);
  run_locked(body);
}

bool ThreadPool::try_run_on_all(const std::function<void(unsigned)>& body) {
  if (workers_.empty()) {
    body(0);
    return true;
  }
  std::unique_lock<std::mutex> dispatch_lock(dispatch_mu_, std::try_to_lock);
  if (!dispatch_lock.owns_lock()) return false;
  run_locked(body);
  return true;
}

void ThreadPool::run_locked(const std::function<void(unsigned)>& body) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CANDLE_CHECK(job_ == nullptr, "ThreadPool::run_on_all is not reentrant");
    job_ = &body;
    outstanding_ = static_cast<unsigned>(workers_.size());
    first_error_ = nullptr;
    ++generation_;
  }
  cv_start_.notify_all();

  std::exception_ptr caller_err;
  try {
    body(0);
  } catch (...) {
    caller_err = std::current_exception();
  }

  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return outstanding_ == 0; });
  job_ = nullptr;
  std::exception_ptr err = caller_err ? caller_err : first_error_;
  first_error_ = nullptr;
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

ThreadPool& global_pool() {
  static ThreadPool pool(ThreadPool::hardware_workers());
  return pool;
}

unsigned parallel_lanes() { return global_pool().size() + 1; }

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  const std::int64_t n = end - begin;

  ThreadPool& pool = global_pool();
  const bool serial = tls_inside_parallel_region || pool.size() == 0 ||
                      n <= grain;
  if (serial) {
    body(begin, end);
    return;
  }

  // The job lambda captures a single pointer so the std::function fits its
  // small-buffer slot: dispatching a parallel loop performs no heap
  // allocation (the GEMM steady-state path must be allocation-free).
  struct Ctx {
    std::atomic<std::int64_t> cursor;
    std::int64_t end, grain;
    const std::function<void(std::int64_t, std::int64_t)>* body;
  } ctx{{begin}, end, grain, &body};
  const bool dispatched = pool.try_run_on_all([&ctx](unsigned /*worker*/) {
    tls_inside_parallel_region = true;
    for (;;) {
      const std::int64_t lo =
          ctx.cursor.fetch_add(ctx.grain, std::memory_order_relaxed);
      if (lo >= ctx.end) break;
      const std::int64_t hi = std::min(ctx.end, lo + ctx.grain);
      (*ctx.body)(lo, hi);
    }
    tls_inside_parallel_region = false;
  });
  if (!dispatched) body(begin, end);  // pool busy: another thread owns it
}

}  // namespace candle

// Shared helpers of the benchmark driver: clocks, order statistics, the
// benchmark's own seeded random stream, and the metric report.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (mean of the two middle values for even sizes; 0 if empty).
double median(std::vector<double> v);

/// Nearest-rank quantile of raw samples, q in [0, 1] (0 if empty).
double quantile(std::vector<double> v, double q);

/// splitmix64: the benchmark draws every input it generates (arrival gaps,
/// sample ids, derived seeds) from this stream, so the inputs depend only on
/// --seed and not on any generator inside the program under test.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// One reported number.  `samples` is how many measurements the value
/// summarises (repeats for medians, requests for percentiles); `computed`
/// marks values derived from sizes rather than timed.
struct Metric {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double value = 0.0;
  long long samples = 0;
  bool computed = false;
};

class Report {
 public:
  void add(std::string name, std::string unit, bool higher_is_better,
           double value, long long samples, bool computed = false) {
    metrics_.push_back({std::move(name), std::move(unit), higher_is_better,
                        value, samples, computed});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// The open-loop client's thread.  It is created before the benchmark
/// lowers its own scheduling priority (see lower_this_thread_priority), so
/// it keeps the default priority while the system under test -- every
/// thread the benchmark spawns afterwards, engine workers and kernel thread
/// pool included -- runs below it.  A saturated engine then delays the
/// requests it serves, not the client's sending of the next one.
class ClientThread {
 public:
  ClientThread() : thread_([this] { loop(); }) {}
  ~ClientThread() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  ClientThread(const ClientThread&) = delete;
  ClientThread& operator=(const ClientThread&) = delete;

  /// Run `fn` on the client thread and wait for it; rethrows its exception.
  void run(const std::function<void()>& fn) {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = &fn;
    error_ = nullptr;
    cv_.notify_all();
    cv_.wait(lock, [&] { return job_ == nullptr; });
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || job_ != nullptr; });
      if (stop_) return;
      lock.unlock();
      std::exception_ptr error;
      try {
        (*job_)();
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      error_ = error;
      job_ = nullptr;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  const std::function<void()>* job_ = nullptr;
  std::exception_ptr error_;
  bool stop_ = false;
  std::thread thread_;
};

/// Raise the calling thread's nice value; threads it creates inherit it.
/// Returns false where the platform refuses.
bool lower_this_thread_priority(int nice_increment);

}  // namespace perfbench

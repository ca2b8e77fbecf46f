#include "common.hpp"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), static_cast<std::size_t>(rank)) - 1];
}

bool lower_this_thread_priority(int nice_increment) {
  // On Linux the nice value is per thread, and PRIO_PROCESS with a thread
  // id adjusts just that thread.
  const auto tid = static_cast<id_t>(syscall(SYS_gettid));
  errno = 0;
  const int current = getpriority(PRIO_PROCESS, tid);
  if (errno != 0) return false;
  return setpriority(PRIO_PROCESS, tid, current + nice_increment) == 0;
}

}  // namespace perfbench

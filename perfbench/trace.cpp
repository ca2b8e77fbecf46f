#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::uint64_t Tracer::begin() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(std::uint64_t id, const char* name, const char* layer,
                    Clock::time_point start, Clock::time_point end,
                    std::uint64_t parent, std::uint64_t request) {
  if (!enabled_) return;
  const std::uint32_t tid = thread_index();
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0) id = next_id_++;
  spans_.push_back({id, parent, request, name, layer, start, end, tid});
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to this span.
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const Span* c : it->second) {
        const auto lo = std::max(c->start, s.start);
        const auto hi = std::min(c->end, s.end);
        if (lo < hi) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      Clock::time_point cur_lo{}, cur_hi{};
      bool open = false;
      for (const auto& [lo, hi] : iv) {
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += seconds_between(cur_lo, cur_hi);
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += seconds_between(cur_lo, cur_hi);
    }
    self[s.layer] += std::max(0.0, seconds_between(s.start, s.end) - covered);
  }
  return self;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = seconds_between(origin_, s.start) * 1e6;
    const double dur = seconds_between(s.start, s.end) * 1e6;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}%s\n",
                 s.name, s.layer, ts, dur, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

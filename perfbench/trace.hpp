// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only by the benchmark's own code, around each call it
// makes into a layer of the program (core, nn, parallel, data, serve).  A
// span has a name, a layer (its category), start and end times, the span
// that caused it, and an optional request id shared by every span of one
// serving request (fetch -> submit -> resolve).  Nothing is written until
// the run ends; write_chrome_json() then emits Chrome trace-event JSON
// (complete "X" events), which chrome://tracing and Perfetto open offline.
//
// A disabled tracer records nothing: begin() returns 0 and record() returns
// at its first branch, so untraced runs pay one predictable branch per call.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Reserve an id for a span that starts now, so that spans it causes can
  /// name it as their parent before it ends.  0 when disabled.
  std::uint64_t begin();

  /// Record a finished span.  `id` comes from begin() (0 allocates one).
  void record(std::uint64_t id, const char* name, const char* layer,
              Clock::time_point start, Clock::time_point end,
              std::uint64_t parent = 0, std::uint64_t request = 0);

  /// RAII span over a scope on the calling thread.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, const char* layer,
          std::uint64_t parent = 0, std::uint64_t request = 0)
        : t_(t), name_(name), layer_(layer), parent_(parent),
          request_(request), id_(t.begin()), start_(Clock::now()) {}
    ~Scope() {
      t_.record(id_, name_, layer_, start_, Clock::now(), parent_, request_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    Tracer& t_;
    const char* name_;
    const char* layer_;
    std::uint64_t parent_, request_, id_;
    Clock::time_point start_;
  };

  std::size_t span_count() const;

  /// Per layer: summed self time in seconds (a span's duration minus the
  /// part of it its child spans cover).
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Write every span as Chrome trace-event JSON.  Returns false on I/O
  /// failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id, parent, request;
    const char* name;
    const char* layer;
    Clock::time_point start, end;
    std::uint32_t tid;
  };

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

}  // namespace perfbench

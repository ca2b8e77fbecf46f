// Streaming serving statistics: an HDR-style log-bucketed latency histogram
// plus the shed/queue counters that make overload auditable.
//
// The histogram is the serving counterpart of the training-side modeled
// accounting: fixed memory (one counter per log-spaced bucket), wait-free
// concurrent recording (relaxed atomic increments from every engine
// worker), and quantiles read from a consistent snapshot.  Buckets are
// geometric with 24 per decade spanning 1 µs .. 10⁴ s, so any reported
// quantile is within ~10% (10^(1/24) ≈ 1.10) of the true value — the same
// resolution HDR histograms are typically run at, at a fraction of the
// code.  p50/p95/p99/p99.9 of a million-request run cost 240 * 8 bytes.
//
// Snapshot consistency: record() is wait-free (it never blocks and never
// retries), so a snapshot racing a hammering producer cannot lock the
// counters.  Instead, snapshot() brackets its copy with begin/end operation
// counters: if no record was in flight across the copy, the snapshot is
// exact (count/sum consistent to the last bit).  Under sustained concurrent
// recording it retries a bounded number of times, then falls back to
// clamping the sum into the envelope the copied counts imply
// (Σ count·lower_edge .. Σ count·upper_edge) — so a torn read can never
// produce an impossible mean (outside the recorded value range) or a
// quantile inconsistent with its own counts.  Asserted by the hammering
// test in tests/test_serve.cpp.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/tensor.hpp"
#include "runtime/error.hpp"

namespace candle::serve {

class LatencyHistogram {
 public:
  static constexpr double kMinSeconds = 1e-6;   // bucket 0 lower edge
  static constexpr int kBucketsPerDecade = 24;  // ~10% relative resolution
  static constexpr int kDecades = 10;           // 1 µs .. 10^4 s
  static constexpr int kBuckets = kBucketsPerDecade * kDecades;
  static constexpr int kSnapshotRetries = 64;   // stability-loop bound

  /// Record one latency (seconds).  Wait-free; callable from any thread.
  /// Values below 1 µs land in bucket 0, values beyond 10^4 s in the last.
  void record(double seconds);

  /// Bucket index a value falls into (exposed for tests).
  static int bucket_of(double seconds);
  /// Upper edge of a bucket — the value quantile() reports for it.
  static double bucket_upper_edge(int bucket);
  /// Lower edge of a bucket (the previous bucket's upper edge; 0 for
  /// bucket 0) — the floor of the snapshot sum envelope.
  static double bucket_lower_edge(int bucket);

  /// Consistent point-in-time copy for quantile reads.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t total = 0;
    double sum_s = 0.0;
    bool exact = true;  ///< false when the bounded stability loop gave up
                        ///< and sum_s was envelope-clamped

    /// Latency at quantile q in [0, 1]: upper edge of the bucket holding
    /// the ceil(q * total)-th ordered sample (0 when empty).
    double quantile(double q) const;
    double mean_s() const {
      return total > 0 ? sum_s / static_cast<double>(total) : 0.0;
    }
  };

  Snapshot snapshot() const;
  std::uint64_t total() const {
    return finished_.load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<double> sum_s_{0.0};
  // Operation brackets for snapshot stability detection: a record
  // increments started_ before touching the counters and finished_ after.
  // snapshot() saw a quiescent window iff started_ == finished_ before the
  // copy and started_ is unchanged after it.
  std::atomic<std::uint64_t> started_{0};
  std::atomic<std::uint64_t> finished_{0};
};

/// Aggregate engine counters + latency distribution, as returned by
/// serve::SupervisedEngine::stats().  Invariant (checked by tests) once the
/// engine has drained:
///   submitted == completed + shed_total() + failed
/// — every request is accounted for exactly once, including requests that
/// were re-dispatched after a worker crash or raced by a hedged duplicate.
/// Without faults nothing fails, and the invariant reduces to
/// submitted == completed + shed_total().
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;       ///< crash-abandoned past the retry budget
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_shutdown = 0;
  std::uint64_t shed_brownout = 0;
  std::uint64_t batches = 0;      ///< worker iterations (one infer each)
  std::int64_t peak_queue_depth = 0;
  /// Rows acquired by workers and not yet released back.  Exactly zero
  /// after drain() — every acquired row is returned by its worker once
  /// resolved (or lost to a twin), or by the watchdog's crash sweep.
  Index inflight_rows = 0;
  double ewma_row_service_s = 0.0;  ///< admission controller's estimate

  // ---- supervision / resilience --------------------------------------------
  std::uint64_t requeued = 0;          ///< rows re-enqueued after crashes
  std::uint64_t worker_crashes = 0;    ///< workers that died mid-batch
  std::uint64_t worker_hangs = 0;      ///< workers the watchdog declared hung
  std::uint64_t worker_restarts = 0;   ///< replacements actually spawned
  std::uint64_t hedges_launched = 0;   ///< duplicate batch dispatches
  std::uint64_t hedge_wins = 0;        ///< hedged rows resolved (first copy)
  std::uint64_t hedge_losses = 0;      ///< duplicate results discarded
  std::uint64_t corruption_retries = 0;  ///< NaN-poisoned batches recomputed
  std::uint64_t brownout_entries = 0;  ///< times brownout mode engaged
  Index live_workers = 0;              ///< pool size when stats were taken

  // Completed-request latency decomposes into the time spent waiting to
  // join a batch and the time spent being served:
  //   latency ~= queue_wait + service   (per request, exactly; the
  // histograms quantize each term independently).  The split is what makes
  // the continuous scheduler's fill-wait cut directly observable: switching
  // a low-load deployment from coalescing to continuous collapses
  // queue_wait (no max_wait_s window to sit out) while service stays the
  // per-iteration compute time.
  LatencyHistogram::Snapshot latency;      ///< submit -> response
  LatencyHistogram::Snapshot queue_wait;   ///< submit -> worker acquires it
  LatencyHistogram::Snapshot service;      ///< worker acquires it -> response

  std::uint64_t shed_total() const {
    return shed_queue_full + shed_deadline + shed_shutdown + shed_brownout;
  }
  /// The exact-accounting left-over: zero after drain.
  std::int64_t accounting_gap() const {
    return static_cast<std::int64_t>(submitted) -
           static_cast<std::int64_t>(completed + shed_total() + failed);
  }
  double mean_batch_rows() const {
    return batches > 0
               ? static_cast<double>(completed) / static_cast<double>(batches)
               : 0.0;
  }
};

}  // namespace candle::serve

// Concurrent in-memory sample store: the bounded cache between sample
// sources (synthetic generators, staged on-disk datasets) and the batch
// assembly of the ingest reader / the feature-fetch path of the serving
// engine.
//
// Sources can be expensive per sample (generation, decompression,
// augmentation, a disk seek); the store hides that cost two ways:
//   * caching — a fetched sample stays resident until eviction pushes it
//     out of the byte budget.  Eviction takes the entry with the largest
//     key, and the key depends on what the caller knows.  A training
//     reader knows its whole read order (the (seed, epoch)-pure stream of
//     sample_list) and states it through follow() and positioned reads:
//     each entry is keyed by its next read under the NextUseOracle, so the
//     sample needed farthest ahead goes first — Belady's MIN, as in Dryden
//     et al., "Clairvoyant Prefetching for Distributed Machine Learning
//     I/O" (SC'21).  A synchronous cyclic scan over n samples with room
//     for C then fetches n + (E - 1)(n - C) times in E epochs, where LRU
//     fetches on every read.  Callers that state no order (serving's id
//     lookups) get LRU: the key is the age of the last use.  A budget that
//     holds the whole source never evicts, so such a store keys nothing;
//   * background fetchers — prefetch() queues upcoming indices to a small
//     fetch-thread pool, so misses resolve concurrently with the caller's
//     own assembly work instead of serializing in front of it.  A caller
//     that misses on a queued sample fetches it itself and takes it off the
//     queue, so no fetcher fetches it a second time.
//
// Steady-state allocation freedom: every cache entry for one source has the
// same payload size (x_elems + y_elems floats), so evicted buffers park on
// a freelist and are reused verbatim by the next insert — once warm, the
// store allocates no payload even while evicting.
//
// Thread-safety: every public method may be called from any thread.  The
// store never hands out internal pointers; get() copies into caller
// buffers under the lock, which keeps eviction trivially safe.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "data/sample_list.hpp"
#include "nn/dataset.hpp"

namespace candle::data {

/// Random-access sample producer the store fetches through.  fetch() may be
/// called concurrently from multiple fetch threads; implementations either
/// are naturally reentrant (in-memory rows) or serialize internally (a
/// single on-disk stream).
class SampleSource {
 public:
  virtual ~SampleSource() = default;

  virtual Index size() const = 0;
  /// Per-sample shapes (without the leading sample dim; may be empty for
  /// scalar-per-sample targets).
  virtual Shape x_sample_shape() const = 0;
  virtual Shape y_sample_shape() const = 0;
  /// Copy sample `sample`'s features/targets into the caller's buffers
  /// (sized x_elems()/y_elems()).
  virtual void fetch(Index sample, std::span<float> x,
                     std::span<float> y) = 0;

  Index x_elems() const { return shape_numel(x_sample_shape()); }
  Index y_elems() const { return shape_numel(y_sample_shape()); }
};

/// In-memory dataset as a sample source.  `synthetic_cost_s` busy-spins per
/// fetch to model an expensive generator / decompression / augmentation
/// stage — the benchmarking hook that makes ingest cost non-trivial on a
/// host where the real datasets are tiny.  Reentrant (const rows).
class DatasetSource final : public SampleSource {
 public:
  explicit DatasetSource(const Dataset& dataset,
                         double synthetic_cost_s = 0.0);

  Index size() const override { return dataset_->size(); }
  Shape x_sample_shape() const override;
  Shape y_sample_shape() const override;
  void fetch(Index sample, std::span<float> x, std::span<float> y) override;

 private:
  const Dataset* dataset_;
  double synthetic_cost_s_;
  Index x_elems_, y_elems_;
};

/// Staged on-disk dataset (biodata/staging_io format) as a sample source.
/// Row reads seek within one stream, serialized by an internal mutex — the
/// disk is the bottleneck, not the lock.
class StagedSource final : public SampleSource {
 public:
  explicit StagedSource(const std::string& path);
  ~StagedSource() override;
  StagedSource(const StagedSource&) = delete;
  StagedSource& operator=(const StagedSource&) = delete;

  Index size() const override;
  Shape x_sample_shape() const override;
  Shape y_sample_shape() const override;
  void fetch(Index sample, std::span<float> x, std::span<float> y) override;

 private:
  struct Impl;
  Impl* impl_;
};

struct SampleStoreOptions {
  /// Cache payload budget in bytes; at least one entry is always kept.
  std::size_t byte_budget = std::size_t{64} << 20;
  /// Background fetch threads serving prefetch().  0 = no background
  /// fetching: prefetch() is a no-op and every miss resolves inline in
  /// get() — the fully synchronous configuration benchmarks compare
  /// against.
  Index fetch_threads = 1;
};

struct SampleStoreStats {
  std::uint64_t hits = 0;        ///< get()/get_x() served from cache
  std::uint64_t misses = 0;      ///< fetched inline by the caller
  std::uint64_t prefetched = 0;  ///< fetched by a background fetcher
  std::uint64_t evictions = 0;   ///< entries pushed out by the byte budget
  std::uint64_t inserts = 0;     ///< cache entries ever created
  std::size_t bytes_cached = 0;  ///< current resident payload bytes
  std::size_t entries = 0;       ///< current resident entry count
};

/// Where a read falls in the read order its caller follows (see
/// SampleStore::follow).  The default states no position.
struct ReadAt {
  /// follow()'s ticket for the order.  0, or a ticket a later follow()
  /// retired, states no position.
  std::uint64_t ticket = 0;
  /// Stream position of the read, in NextUseOracle's units.
  Index pos = 0;
};

class SampleStore {
 public:
  SampleStore(SampleSource& source, const SampleStoreOptions& options);
  ~SampleStore();
  SampleStore(const SampleStore&) = delete;
  SampleStore& operator=(const SampleStore&) = delete;

  Index x_elems() const { return x_elems_; }
  Index y_elems() const { return y_elems_; }
  SampleSource& source() { return *source_; }

  /// Copy sample `sample` into the caller's buffers: cache hit copies under
  /// the lock; a miss fetches through the source (waiting instead if a
  /// background fetcher already has it in flight) and caches the result.
  /// A read `at` a position of the followed order re-keys the entry to the
  /// sample's next read after it.
  void get(Index sample, std::span<float> x, std::span<float> y,
           ReadAt at = {});

  /// Features only (the serving feature-fetch path; targets stay cached).
  void get_x(Index sample, std::span<float> x);

  /// Queue upcoming samples for the background fetchers.  Already-cached,
  /// in-flight, and already-queued indices are skipped; nothing is queued
  /// when fetch_threads == 0.  Positioned (samples[i] is read at
  /// first.pos + i), every listed sample waits keyed at its read, so it is
  /// evicted last — resident ones included.
  void prefetch(std::span<const Index> samples, ReadAt first = {});

  /// Evict by next use under `order` from now on (Belady's MIN), with every
  /// resident entry re-keyed against stream position `pos` — a reader calls
  /// this when it starts and when it seeks.  Returns the order's ticket for
  /// positioned get()/prefetch() calls and retires the previous one: a
  /// retired ticket's reads leave keys alone and insert with no next use,
  /// so a replaced reader still finishing a batch keys nothing against the
  /// new order.
  std::uint64_t follow(NextUseOracle order, Index pos);

  /// Back to LRU if `ticket` is still the followed order (its reader is
  /// gone, so its keys will never be read).
  void unfollow(std::uint64_t ticket);

  /// Block until the prefetch queue and all in-flight fetches drain.
  void drain();

  SampleStoreStats stats() const;

 private:
  // (key, sample) of every entry; eviction takes the largest.
  using KeyIndex = std::set<std::pair<Index, Index>>;
  struct Entry {
    std::vector<float> xy;  // x_elems then y_elems floats
    KeyIndex::iterator key;  // this entry's element of by_key_
  };

  void fetcher_loop();
  /// get()/get_x(): lookup, wait or fetch, then copy out (an empty `y`
  /// copies features only).
  void read(Index sample, std::span<float> x, std::span<float> y, ReadAt at);
  bool follows_locked(ReadAt at) const {
    return order_.has_value() && at.ticket == ticket_;
  }
  /// Key for `sample` after a read at `at` (after_read) or while it waits
  /// for that read: the next read under the followed order; kNever for a
  /// read with no position in it; the use count, negated, under LRU.
  Index key_locked(Index sample, ReadAt at, bool after_read);
  void rekey_locked(Entry& entry, Index key);
  /// Insert `payload` (moved) as `sample`'s entry, keyed as key_locked()
  /// says, and evict down to the byte budget.  Caller holds `mu_`.
  void insert_locked(Index sample, std::vector<float>&& payload, ReadAt at,
                     bool after_read);
  std::vector<float> take_buffer_locked();

  SampleSource* source_;
  SampleStoreOptions options_;
  Index x_elems_, y_elems_;
  std::size_t entry_bytes_;
  // The byte budget holds every sample of the source, so nothing is ever
  // evicted and entries are not keyed (every key is 0).
  bool holds_all_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // fetchers: queue non-empty or stop
  std::condition_variable done_cv_;   // waiters: fetch completed / drained
  std::unordered_map<Index, Entry> cache_;
  KeyIndex by_key_;
  Index uses_ = 0;                            // LRU clock
  std::optional<NextUseOracle> order_;        // the followed read order
  std::uint64_t ticket_ = 0;                  // its ticket
  std::unordered_set<Index> in_flight_;
  // Queued samples and where they will be read.  queue_ keeps FIFO order;
  // an id no longer in queued_ was fetched inline and is skipped.
  std::unordered_map<Index, ReadAt> queued_;
  std::deque<Index> queue_;
  std::vector<std::vector<float>> free_;  // evicted payload buffers
  SampleStoreStats stats_;
  bool stop_ = false;
  std::vector<std::thread> fetchers_;
};

}  // namespace candle::data

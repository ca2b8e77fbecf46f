// Double-buffered ingest reader: the pipeline stage that turns the
// deterministic sample stream (sample_list) and the concurrent store
// (store) into ready-to-train per-replica batch tensors.
//
// A ring of `prefetch_depth` batch slots is assembled by a background
// producer thread while the consumer trains on the current slot:
//
//   producer:  ... assemble slot (s+1) ... assemble slot (s+2) ...
//   consumer:  acquire(s) -> train -> release(s) -> acquire(s+1) -> ...
//
// At steady state the consumer's acquire() returns immediately (exposed
// ingest time ~0) whenever per-step assembly cost <= per-step compute cost —
// the same drain law as PR 4's comm/compute overlap, modeled analytically
// in hpcsim::ingest_exposed_s_per_step and pinned in bench_e13_ingest.
//
// Determinism: a slot's contents are a pure function of its stream sequence
// number — slot seq holds batch cursor_at(base + seq), whose sample indices
// come from the (seed, epoch)-pure permutation.  Prefetch depth, fetch
// thread count, and thread timing change only *when* a slot is filled,
// never *what* it holds, so training loss is bit-identical to the
// synchronous configuration (prefetch_depth = 1, fetch_threads = 0).
//
// Allocation freedom: every slot's tensors are allocated once at
// construction and refilled in place; the epoch permutation and the store's
// payload freelist reuse their buffers likewise.  Steady-state batch
// assembly performs no heap allocation (asserted in test_ingest via
// workspace_stats and stable data() pointers).
//
// Fetching: the producer queues every row of the batch it assembles to the
// store's fetch threads, then walks the batch from its far end.  The
// fetchers take queued rows from the front, so until the walk meets them
// each miss is a row no fetcher holds: the producer fetches it beside them
// instead of sleeping on a row a fetcher holds, and fetch_threads = N
// gives N + 1 fetch streams.  Rows land in the same slots whatever the
// walk order, so batches stay bit-identical.
//
// Eviction: the reader states its read order to the store (follow() with
// the list's NextUseOracle, then each read's stream position), so the
// store evicts the resident sample whose next read is farthest away.
//
// seek() repositions the stream to an arbitrary StreamCursor in O(1) slot
// bookkeeping (plus one permutation rebuild on next assembly, and a re-key
// of the store against the new position) — this is what lets
// parallel/resilient resume a checkpointed stream position bit-identically
// without replaying prior epochs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "data/sample_list.hpp"
#include "data/store.hpp"

namespace candle::data {

struct ReaderOptions {
  Index replicas = 1;
  Index batch_per_replica = 32;
  bool shuffle = true;
  std::uint64_t seed = 0;
  /// Batch slots in the ring.  1 = fully synchronous: no producer thread,
  /// acquire() assembles inline (the baseline configuration).  2 = classic
  /// double buffering; deeper rings absorb burstier assembly times.
  Index prefetch_depth = 2;
};

/// One replica's slice of a step: [batch_per_replica, sample dims...].
struct ReplicaShard {
  Tensor x, y;
};

/// One assembled global step: `replicas` shards plus the stream position
/// they were cut at.
struct StepBatch {
  StreamCursor cursor;
  std::vector<ReplicaShard> shards;
};

class IngestReader {
 public:
  IngestReader(SampleStore& store, const ReaderOptions& options);
  ~IngestReader();
  IngestReader(const IngestReader&) = delete;
  IngestReader& operator=(const IngestReader&) = delete;

  const ShardedSampleList& list() const { return list_; }
  Index steps_per_epoch() const { return list_.steps_per_epoch(); }
  Index dropped_tail_samples() const { return list_.dropped_tail_samples(); }

  /// Stream position of the batch the next acquire() will return.
  StreamCursor cursor() const;

  /// Block until the next batch slot is assembled and return it.  The
  /// reference stays valid until release().  No acquire() may be issued
  /// while a batch is held.
  const StepBatch& acquire();

  /// Hand the held slot back to the producer for reuse.
  void release();

  /// Reposition the stream so the next acquire() returns the batch at `c`.
  /// Stops and restarts the producer; in-progress slots are discarded.
  void seek(StreamCursor c);

  /// Total consumer time blocked in acquire() (plus inline assembly when
  /// prefetch_depth == 1): the *exposed* ingest cost.
  double exposed_wait_s() const;
  /// Total wall time spent assembling slots, wherever it ran: the ingest
  /// *work*.  overlap = 1 - exposed / busy.
  double assemble_busy_s() const;

 private:
  void assemble(StepBatch& slot, StreamCursor c);
  void producer_loop();
  void start_producer();
  void stop_producer();
  /// Have the store follow this stream from cursor `c` on.
  void follow_from(StreamCursor c);

  SampleStore* store_;
  ReaderOptions options_;
  ShardedSampleList list_;
  // The store's ticket for this stream; written only while no producer runs.
  std::uint64_t ticket_ = 0;
  std::vector<StepBatch> slots_;

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;  // consumer: a slot is filled
  std::condition_variable slot_cv_;   // producer: a slot freed / stop
  Index base_pos_ = 0;    // stream position of sequence number 0
  Index produce_seq_ = 0; // slots filled since seek
  Index consume_seq_ = 0; // slots released since seek
  bool acquired_ = false;
  bool stop_ = false;
  double exposed_wait_s_ = 0.0;
  double assemble_busy_s_ = 0.0;
  std::thread producer_;
};

}  // namespace candle::data

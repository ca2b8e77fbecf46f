// Sharded sample lists: the deterministic "what does rank r train on at
// (epoch, step)?" function behind the ingest layer.
//
// The per-epoch permutation is a *pure function of (seed, epoch)* — computed
// by an explicit Fisher–Yates walk over a Pcg32 stream keyed by both — so
// any thread, any prefetch depth, and any restart reproduce the identical
// sample order with no coordination and no replay.  Contrast BatchIterator
// (nn/dataset), whose shuffle RNG is stateful across epochs: correct for a
// single synchronous consumer, but a background pipeline that must *seek*
// (restart from a checkpointed cursor, refill after a recovery) would have
// to replay every prior epoch to reconstruct the stream.  Here a stream
// position is just a (epoch, step) pair, and repositioning is O(n) for the
// one permutation rebuild instead of O(epochs * n).
//
// Sharding: epoch e's permutation is cut into steps_per_epoch() full global
// batches of replicas * batch_per_replica indices; replica r's shard of
// step s is the r-th contiguous window of batch s.  The tail of the
// permutation that does not fill a full global batch is *dropped*: counted
// and surfaced (dropped_tail_samples), never trained.  This is the only
// sample order the data-parallel step loop reads, whatever its ingest
// options.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/tensor.hpp"

namespace candle::data {

/// Position of the NEXT batch in a sample stream.  (epoch, step) fully
/// determines the batch contents given the list's (seed, width), which is
/// what makes the cursor checkpointable: restart at the cursor and the
/// stream continues bit-identically.
struct StreamCursor {
  Index epoch = 0;
  Index step = 0;  // step within `epoch`, in [0, steps_per_epoch)

  friend bool operator==(const StreamCursor&, const StreamCursor&) = default;
};

/// Fill `out` with epoch `epoch`'s permutation of [0, n).  Pure function of
/// (n, seed, epoch, shuffle): the Pcg32 stream is keyed by splitmix64(seed,
/// epoch) and the swaps are an explicit Fisher–Yates walk — NOT
/// std::shuffle, whose draw pattern is implementation-defined and would
/// break bit-stability across toolchains.  shuffle=false yields identity.
/// Reuses `out`'s capacity (no allocation once it has reached n).
void epoch_permutation(Index n, std::uint64_t seed, Index epoch, bool shuffle,
                       std::vector<Index>& out);

/// Deterministic sharded view over a dataset's sample indices.
///
/// Not thread-safe: each consumer owns its own list (the permutation cache
/// is per-instance scratch).  Determinism across consumers comes from the
/// pure permutation function, not from sharing.
class ShardedSampleList {
 public:
  ShardedSampleList(Index samples, Index replicas, Index batch_per_replica,
                    bool shuffle, std::uint64_t seed);

  Index samples() const { return samples_; }
  Index replicas() const { return replicas_; }
  Index batch_per_replica() const { return batch_; }
  Index global_batch() const { return replicas_ * batch_; }
  /// Full global batches per epoch (the tail is dropped, not trained).
  Index steps_per_epoch() const { return samples_ / global_batch(); }
  /// Samples per epoch that never reach any replica (the permutation tail
  /// shorter than one global batch).  Up to global_batch() - 1.
  Index dropped_tail_samples() const {
    return samples_ - steps_per_epoch() * global_batch();
  }

  /// Sample indices replica `replica` consumes at (epoch, step): a view
  /// into the cached epoch permutation, valid until the next shard() call.
  /// Rebuilds the cached permutation only when `epoch` changes (no
  /// allocation at steady state).
  std::span<const Index> shard(Index epoch, Index step, Index replica);

  /// The whole global batch at (epoch, step), in replica order.
  std::span<const Index> global(Index epoch, Index step);

  /// Cursor arithmetic: position after consuming one batch at `c`.
  StreamCursor next(StreamCursor c) const {
    if (++c.step >= steps_per_epoch()) {
      c.step = 0;
      ++c.epoch;
    }
    return c;
  }

  /// Flat stream position (batches since (0,0)) <-> cursor.
  Index position(StreamCursor c) const {
    return c.epoch * steps_per_epoch() + c.step;
  }
  StreamCursor cursor_at(Index position) const {
    return {position / steps_per_epoch(), position % steps_per_epoch()};
  }

 private:
  void ensure_epoch(Index epoch);

  Index samples_;
  Index replicas_;
  Index batch_;
  bool shuffle_;
  std::uint64_t seed_;
  Index cached_epoch_ = -1;
  std::vector<Index> perm_;
};

/// Next-use oracle over the stream a ShardedSampleList hands out: where
/// does sample s get read next?  A read's stream position counts samples,
/// (epoch * steps_per_epoch + step) * global_batch + row, where row indexes
/// the global batch.  Because the order is a pure function of (seed,
/// epoch), the answer needs no history — only the inverses of two
/// consecutive epoch permutations, so the horizon runs from any position to
/// the end of the next epoch.  A sample not read within it (one that falls
/// in the dropped tail) has no next use: kNever.  The sample store keys its
/// entries by this to evict by Belady's MIN (store.hpp).
///
/// Not thread-safe: the inverse permutations are per-instance scratch.
class NextUseOracle {
 public:
  static constexpr Index kNever = std::numeric_limits<Index>::max();

  NextUseOracle(Index samples, Index global_batch, bool shuffle,
                std::uint64_t seed);

  /// Stream position of the first read of `sample` at or after `pos`,
  /// searched in pos's epoch and the next; kNever if neither reads it.
  Index next_read(Index sample, Index pos);

 private:
  /// rank[s] = s's index in epoch `epoch`'s permutation.  Epochs e and e+1
  /// occupy different slots (e % 2), so a query never evicts its partner.
  const std::vector<Index>& rank_in(Index epoch);

  Index samples_;
  Index reads_per_epoch_ = 0;  // steps_per_epoch * global_batch
  bool shuffle_;
  std::uint64_t seed_;
  std::vector<Index> perm_;
  std::array<std::vector<Index>, 2> rank_;
  std::array<Index, 2> rank_epoch_{-1, -1};
};

}  // namespace candle::data

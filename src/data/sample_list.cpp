#include "data/sample_list.hpp"

#include <numeric>
#include <utility>

#include "runtime/rng.hpp"

namespace candle::data {

namespace {

/// splitmix64 finalizer: decorrelates (seed, epoch) pairs into one RNG key.
std::uint64_t mix_seed_epoch(std::uint64_t seed, Index epoch) {
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(epoch) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void epoch_permutation(Index n, std::uint64_t seed, Index epoch, bool shuffle,
                       std::vector<Index>& out) {
  CANDLE_CHECK(n >= 1, "cannot permute an empty sample set");
  CANDLE_CHECK(epoch >= 0, "negative epoch");
  out.resize(static_cast<std::size_t>(n));
  std::iota(out.begin(), out.end(), Index{0});
  if (!shuffle) return;
  Pcg32 rng(mix_seed_epoch(seed, epoch), 0x5a3b7e1ULL);
  // Explicit Fisher–Yates: the draw sequence (one next_below per position,
  // high to low) is part of the determinism contract.
  for (Index i = n - 1; i > 0; --i) {
    const Index j = static_cast<Index>(
        rng.next_below(static_cast<std::uint32_t>(i + 1)));
    std::swap(out[static_cast<std::size_t>(i)],
              out[static_cast<std::size_t>(j)]);
  }
}

ShardedSampleList::ShardedSampleList(Index samples, Index replicas,
                                     Index batch_per_replica, bool shuffle,
                                     std::uint64_t seed)
    : samples_(samples),
      replicas_(replicas),
      batch_(batch_per_replica),
      shuffle_(shuffle),
      seed_(seed) {
  CANDLE_CHECK(replicas_ >= 1, "need at least one replica");
  CANDLE_CHECK(batch_ >= 1, "empty replica batch");
  CANDLE_CHECK(samples_ >= global_batch(),
               "dataset smaller than one global batch");
}

void ShardedSampleList::ensure_epoch(Index epoch) {
  if (epoch == cached_epoch_) return;
  epoch_permutation(samples_, seed_, epoch, shuffle_, perm_);
  cached_epoch_ = epoch;
}

std::span<const Index> ShardedSampleList::shard(Index epoch, Index step,
                                                Index replica) {
  CANDLE_CHECK(replica >= 0 && replica < replicas_, "replica out of range");
  const std::span<const Index> g = global(epoch, step);
  return g.subspan(static_cast<std::size_t>(replica * batch_),
                   static_cast<std::size_t>(batch_));
}

std::span<const Index> ShardedSampleList::global(Index epoch, Index step) {
  CANDLE_CHECK(epoch >= 0, "negative epoch");
  CANDLE_CHECK(step >= 0 && step < steps_per_epoch(), "step out of range");
  ensure_epoch(epoch);
  return {perm_.data() + step * global_batch(),
          static_cast<std::size_t>(global_batch())};
}

NextUseOracle::NextUseOracle(Index samples, Index global_batch, bool shuffle,
                             std::uint64_t seed)
    : samples_(samples), shuffle_(shuffle), seed_(seed) {
  CANDLE_CHECK(global_batch >= 1, "empty global batch");
  CANDLE_CHECK(samples >= global_batch,
               "dataset smaller than one global batch");
  reads_per_epoch_ = samples / global_batch * global_batch;
}

const std::vector<Index>& NextUseOracle::rank_in(Index epoch) {
  const auto k = static_cast<std::size_t>(epoch % 2);
  std::vector<Index>& rank = rank_[k];
  if (rank_epoch_[k] != epoch) {
    epoch_permutation(samples_, seed_, epoch, shuffle_, perm_);
    rank.resize(static_cast<std::size_t>(samples_));
    for (Index i = 0; i < samples_; ++i) {
      rank[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] = i;
    }
    rank_epoch_[k] = epoch;
  }
  return rank;
}

Index NextUseOracle::next_read(Index sample, Index pos) {
  CANDLE_CHECK(sample >= 0 && sample < samples_, "sample out of range");
  CANDLE_CHECK(pos >= 0, "negative stream position");
  const Index epoch = pos / reads_per_epoch_;
  for (Index e = epoch; e <= epoch + 1; ++e) {
    const Index row = rank_in(e)[static_cast<std::size_t>(sample)];
    const Index at = e * reads_per_epoch_ + row;
    if (row < reads_per_epoch_ && at >= pos) return at;
  }
  return kNever;
}

}  // namespace candle::data

// Parallel data ingestion (src/data): (seed, epoch)-pure permutations and
// shard tiling, the concurrent bounded sample store (hit/miss/eviction
// accounting, fetch-once under concurrency, background prefetch), next-use
// eviction under the reader's known order (the oracle, MIN's fetch count,
// re-keying on seek and rebuild, the producer fetching beside its fetcher),
// the double-buffered reader's bit-identity across prefetch depths / fetch
// threads / seek-resume, v3 checkpoint cursor round-trips, data-parallel and
// resilient training determinism through the reader whatever the ingest
// options (including crash/restart mid-epoch), the hpcsim ingest drain law,
// and the serving feature-fetch path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "biodata/staging_io.hpp"
#include "data/reader.hpp"
#include "data/sample_list.hpp"
#include "data/store.hpp"
#include "hpcsim/perfmodel.hpp"
#include "nn/serialize.hpp"
#include "parallel/data_parallel.hpp"
#include "parallel/resilient.hpp"
#include "runtime/rng.hpp"
#include "runtime/workspace.hpp"
#include "serve/features.hpp"

namespace candle {
namespace {

Dataset blob_dataset(Index n, std::uint64_t seed) {
  Pcg32 rng(seed);
  Dataset d{Tensor({n, 6}), Tensor({n})};
  for (Index i = 0; i < n; ++i) {
    const float cls = static_cast<float>(i % 2);
    d.y[i] = cls;
    for (Index j = 0; j < 6; ++j) {
      d.x.at(i, j) = static_cast<float>(rng.normal(cls * 2.0 - 1.0, 0.8));
    }
  }
  return d;
}

Model small_model(std::uint64_t seed) {
  Model m;
  m.add(make_dense(16)).add(make_relu()).add(make_dense(8)).add(make_relu());
  m.add(make_dense(2));
  m.build({6}, seed);
  return m;
}

parallel::ModelFactory model_factory(std::uint64_t seed) {
  return [seed] { return small_model(seed); };
}

std::vector<float> weights_of(const Model& m) {
  std::vector<float> w(static_cast<std::size_t>(m.num_params()));
  m.copy_weights_to(w);
  return w;
}

/// Flatten one acquired step into a comparable float vector.
std::vector<float> flatten(const data::StepBatch& b) {
  std::vector<float> flat;
  for (const data::ReplicaShard& sh : b.shards) {
    flat.insert(flat.end(), sh.x.data(), sh.x.data() + sh.x.numel());
    flat.insert(flat.end(), sh.y.data(), sh.y.data() + sh.y.numel());
  }
  return flat;
}

/// Consume `steps` batches from a fresh store+reader at one configuration.
std::vector<std::vector<float>> collect_steps(const Dataset& d, Index replicas,
                                              Index bpr, std::uint64_t seed,
                                              Index depth, Index threads,
                                              Index steps) {
  data::DatasetSource src(d);
  data::SampleStoreOptions so;
  so.fetch_threads = threads;
  data::SampleStore store(src, so);
  data::ReaderOptions ro;
  ro.replicas = replicas;
  ro.batch_per_replica = bpr;
  ro.seed = seed;
  ro.prefetch_depth = depth;
  data::IngestReader reader(store, ro);
  std::vector<std::vector<float>> out;
  for (Index s = 0; s < steps; ++s) {
    out.push_back(flatten(reader.acquire()));
    reader.release();
  }
  return out;
}

// ---- (seed, epoch)-pure permutations ----------------------------------------

TEST(EpochPermutation, PureFunctionOfSeedAndEpochAndValid) {
  const Index n = 101;
  std::vector<Index> a, b;
  data::epoch_permutation(n, 42, 3, true, a);
  data::epoch_permutation(n, 42, 3, true, b);
  EXPECT_EQ(a, b) << "same (n, seed, epoch) must reproduce bit-identically";

  // A permutation: sorted copy is the identity.
  std::vector<Index> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (Index i = 0; i < n; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);

  // Epoch and seed both key the stream.
  std::vector<Index> other_epoch, other_seed;
  data::epoch_permutation(n, 42, 4, true, other_epoch);
  data::epoch_permutation(n, 43, 3, true, other_seed);
  EXPECT_NE(a, other_epoch) << "epoch boundary must reshuffle";
  EXPECT_NE(a, other_seed);

  // shuffle=false is the identity stream regardless of seed/epoch.
  std::vector<Index> ident;
  data::epoch_permutation(n, 42, 3, false, ident);
  for (Index i = 0; i < n; ++i) EXPECT_EQ(ident[static_cast<std::size_t>(i)], i);
}

TEST(EpochPermutation, ReusesTheOutputBufferAcrossEpochs) {
  std::vector<Index> out;
  data::epoch_permutation(64, 7, 0, true, out);
  const Index* p = out.data();
  for (Index e = 1; e < 20; ++e) {
    data::epoch_permutation(64, 7, e, true, out);
    EXPECT_EQ(out.data(), p) << "steady-state permutation rebuild allocated";
  }
}

// ---- sharded sample lists ---------------------------------------------------

TEST(ShardedSampleList, ShardsTileTheEpochPermutationAndDropTheTail) {
  const Index n = 100, replicas = 3, bpr = 8;
  data::ShardedSampleList list(n, replicas, bpr, true, 9);
  EXPECT_EQ(list.global_batch(), 24);
  EXPECT_EQ(list.steps_per_epoch(), 4);
  EXPECT_EQ(list.dropped_tail_samples(), 4);

  for (const Index epoch : {Index{0}, Index{2}}) {
    std::vector<Index> perm;
    data::epoch_permutation(n, 9, epoch, true, perm);
    for (Index s = 0; s < list.steps_per_epoch(); ++s) {
      const std::span<const Index> g = list.global(epoch, s);
      ASSERT_EQ(static_cast<Index>(g.size()), list.global_batch());
      for (Index r = 0; r < replicas; ++r) {
        const std::span<const Index> shard = list.shard(epoch, s, r);
        ASSERT_EQ(static_cast<Index>(shard.size()), bpr);
        for (Index j = 0; j < bpr; ++j) {
          // Replica r's shard is the r-th window of the global batch, which
          // is the s-th window of the epoch permutation.
          EXPECT_EQ(shard[static_cast<std::size_t>(j)],
                    perm[static_cast<std::size_t>(s * list.global_batch() +
                                                  r * bpr + j)]);
        }
      }
    }
  }
}

TEST(ShardedSampleList, CursorArithmeticRoundTrips) {
  data::ShardedSampleList list(64, 2, 8, true, 1);  // steps_per_epoch = 4
  data::StreamCursor c;
  for (Index pos = 0; pos < 13; ++pos) {
    EXPECT_EQ(list.position(c), pos);
    EXPECT_EQ(list.cursor_at(pos), c);
    c = list.next(c);
  }
  EXPECT_EQ(c.epoch, 3);
  EXPECT_EQ(c.step, 1);
}

TEST(ShardedSampleList, IndependentInstancesAgreeInAnyQueryOrder) {
  // Determinism comes from the pure permutation, not shared state: a second
  // instance queried in reverse epoch order returns identical shards.
  data::ShardedSampleList fwd(60, 2, 10, true, 5);
  data::ShardedSampleList rev(60, 2, 10, true, 5);
  std::vector<std::vector<Index>> want;
  for (Index e = 0; e < 4; ++e) {
    const std::span<const Index> g = fwd.global(e, 1);
    want.emplace_back(g.begin(), g.end());
  }
  for (Index e = 3; e >= 0; --e) {
    const std::span<const Index> g = rev.global(e, 1);
    EXPECT_EQ(std::vector<Index>(g.begin(), g.end()),
              want[static_cast<std::size_t>(e)]);
  }
}

// ---- sample store -----------------------------------------------------------

TEST(SampleStore, HitMissAccountingAndCorrectPayloads) {
  const Dataset d = blob_dataset(16, 3);
  data::DatasetSource src(d);
  data::SampleStoreOptions so;
  so.fetch_threads = 0;  // fully synchronous
  data::SampleStore store(src, so);
  EXPECT_EQ(store.x_elems(), 6);
  EXPECT_EQ(store.y_elems(), 1);

  std::vector<float> x(6), y(1);
  store.get(5, x, y);
  for (Index j = 0; j < 6; ++j) EXPECT_EQ(x[static_cast<std::size_t>(j)], d.x.at(5, j));
  EXPECT_EQ(y[0], d.y[5]);
  store.get(5, x, y);  // second read: cache hit
  store.get_x(5, std::span<float>(x));
  const data::SampleStoreStats st = store.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.inserts, 1u);
  EXPECT_EQ(st.entries, 1u);
  // prefetch() without fetch threads is a documented no-op.
  const std::vector<Index> ids{1, 2, 3};
  store.prefetch(ids);
  store.drain();
  EXPECT_EQ(store.stats().prefetched, 0u);
}

TEST(SampleStore, EvictsToTheByteBudgetAndKeepsAccountingExact) {
  const Dataset d = blob_dataset(32, 4);
  data::DatasetSource src(d);
  data::SampleStoreOptions so;
  so.fetch_threads = 0;
  const std::size_t entry_bytes = sizeof(float) * (6 + 1);
  so.byte_budget = 3 * entry_bytes;  // room for exactly 3 entries
  data::SampleStore store(src, so);

  std::vector<float> x(6), y(1);
  for (Index i = 0; i < 32; ++i) store.get(i, x, y);
  const data::SampleStoreStats st = store.stats();
  EXPECT_EQ(st.misses, 32u);
  EXPECT_EQ(st.inserts, 32u);
  EXPECT_LE(st.entries, 3u);
  EXPECT_GE(st.entries, 1u);
  EXPECT_EQ(st.evictions, st.inserts - st.entries);
  EXPECT_EQ(st.bytes_cached, st.entries * entry_bytes);
  // Evicted entries refetch correctly (and re-count as misses, not hits).
  store.get(0, x, y);
  for (Index j = 0; j < 6; ++j) EXPECT_EQ(x[static_cast<std::size_t>(j)], d.x.at(0, j));
  EXPECT_EQ(store.stats().misses, 33u);
}

/// Source wrapper that counts fetch() calls (for the fetch-once contract).
class CountingSource final : public data::SampleSource {
 public:
  explicit CountingSource(const Dataset& d) : inner_(d) {}
  Index size() const override { return inner_.size(); }
  Shape x_sample_shape() const override { return inner_.x_sample_shape(); }
  Shape y_sample_shape() const override { return inner_.y_sample_shape(); }
  void fetch(Index sample, std::span<float> x, std::span<float> y) override {
    fetches.fetch_add(1, std::memory_order_relaxed);
    inner_.fetch(sample, x, y);
  }
  std::atomic<std::uint64_t> fetches{0};

 private:
  data::DatasetSource inner_;
};

TEST(SampleStore, ConcurrentColdLookupsOfOneSampleFetchItOnce) {
  const Dataset d = blob_dataset(8, 5);
  CountingSource src(d);
  data::SampleStoreOptions so;
  so.fetch_threads = 2;
  data::SampleStore store(src, so);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::vector<float>> xs(kThreads, std::vector<float>(6));
  std::vector<std::vector<float>> ys(kThreads, std::vector<float>(1));
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      store.get(3, xs[static_cast<std::size_t>(t)],
                ys[static_cast<std::size_t>(t)]);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(src.fetches.load(), 1u)
      << "a cold id hammered concurrently must hit the source exactly once";
  for (int t = 0; t < kThreads; ++t) {
    for (Index j = 0; j < 6; ++j) {
      EXPECT_EQ(xs[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)],
                d.x.at(3, j));
    }
  }
}

TEST(SampleStore, PrefetchWarmsTheCacheInBackground) {
  const Dataset d = blob_dataset(24, 6);
  CountingSource src(d);
  data::SampleStoreOptions so;
  so.fetch_threads = 2;
  data::SampleStore store(src, so);

  std::vector<Index> ids(24);
  for (Index i = 0; i < 24; ++i) ids[static_cast<std::size_t>(i)] = i;
  store.prefetch(ids);
  store.prefetch(ids);  // duplicates dedup against queue/cache
  store.drain();
  data::SampleStoreStats st = store.stats();
  EXPECT_EQ(st.prefetched, 24u);
  EXPECT_EQ(src.fetches.load(), 24u);

  std::vector<float> x(6), y(1);
  for (Index i = 0; i < 24; ++i) store.get(i, x, y);
  st = store.stats();
  EXPECT_EQ(st.hits, 24u);
  EXPECT_EQ(st.misses, 0u);
}

TEST(SampleStore, WholeSourceBudgetServesTheSameWithOrWithoutAnOrder) {
  // A budget that holds every sample never evicts, so the store keys
  // nothing: following the read order (positioned prefetches and reads, as
  // the reader makes them) changes neither the bytes served nor the counts.
  // One entry less, and the followed order evicts.
  const Index n = 48, gb = 8, epochs = 3;
  const Dataset d = blob_dataset(n, 51);
  const std::size_t entry_bytes = sizeof(float) * (6 + 1);
  struct Served {
    std::vector<float> bytes;
    data::SampleStoreStats stats;
  };
  const auto serve = [&](Index room, bool follow) {
    data::DatasetSource src(d);
    data::SampleStoreOptions so;
    so.fetch_threads = 0;
    so.byte_budget = static_cast<std::size_t>(room) * entry_bytes;
    data::SampleStore store(src, so);
    data::ShardedSampleList list(n, 2, gb / 2, true, 9);
    const std::uint64_t ticket =
        follow ? store.follow(data::NextUseOracle(n, gb, true, 9), 0) : 0;
    Served out;
    std::vector<float> x(6), y(1);
    for (Index e = 0; e < epochs; ++e) {
      for (Index s = 0; s < list.steps_per_epoch(); ++s) {
        const std::span<const Index> ids = list.global(e, s);
        const Index pos = (e * list.steps_per_epoch() + s) * gb;
        store.prefetch(ids, {ticket, pos});
        for (Index i = 0; i < gb; ++i) {
          store.get(ids[static_cast<std::size_t>(i)], x, y, {ticket, pos + i});
          out.bytes.insert(out.bytes.end(), x.begin(), x.end());
          out.bytes.push_back(y[0]);
        }
      }
    }
    out.stats = store.stats();
    return out;
  };
  std::vector<float> want;
  data::ShardedSampleList list(n, 2, gb / 2, true, 9);
  for (Index e = 0; e < epochs; ++e) {
    for (Index s = 0; s < list.steps_per_epoch(); ++s) {
      for (const Index id : list.global(e, s)) {
        for (Index j = 0; j < 6; ++j) want.push_back(d.x.at(id, j));
        want.push_back(d.y[id]);
      }
    }
  }
  const Served lru = serve(n, false);
  const Served min = serve(n, true);
  EXPECT_EQ(lru.bytes, want);
  EXPECT_EQ(min.bytes, want);
  EXPECT_EQ(lru.stats.misses, static_cast<std::uint64_t>(n));
  EXPECT_EQ(lru.stats.hits, static_cast<std::uint64_t>((epochs - 1) * n));
  EXPECT_EQ(min.stats.hits, lru.stats.hits);
  EXPECT_EQ(min.stats.misses, lru.stats.misses);
  EXPECT_EQ(lru.stats.evictions, 0u);
  EXPECT_EQ(min.stats.evictions, 0u);
  const Served short_min = serve(n - 1, true);
  EXPECT_EQ(short_min.bytes, want);
  EXPECT_GT(short_min.stats.evictions, 0u);
}

// ---- ingest reader ----------------------------------------------------------

TEST(IngestReader, BitIdenticalAcrossPrefetchDepthsAndFetchThreads) {
  const Dataset d = blob_dataset(64, 7);
  // 10 steps at steps_per_epoch = 4 crosses two epoch boundaries.
  const auto base = collect_steps(d, 2, 8, 21, /*depth=*/1, /*threads=*/0, 10);
  EXPECT_EQ(base, collect_steps(d, 2, 8, 21, 2, 1, 10));
  EXPECT_EQ(base, collect_steps(d, 2, 8, 21, 4, 3, 10));
}

TEST(IngestReader, WrapsEpochsAndReshufflesAtTheBoundary) {
  const Dataset d = blob_dataset(64, 8);
  data::DatasetSource src(d);
  data::SampleStore store(src, data::SampleStoreOptions{});
  data::ReaderOptions ro;
  ro.replicas = 2;
  ro.batch_per_replica = 8;
  ro.seed = 3;
  ro.prefetch_depth = 2;
  data::IngestReader reader(store, ro);
  ASSERT_EQ(reader.steps_per_epoch(), 4);
  EXPECT_EQ(reader.dropped_tail_samples(), 0);

  std::vector<std::vector<float>> epoch0, epoch1;
  for (Index s = 0; s < 8; ++s) {
    const data::StepBatch& b = reader.acquire();
    EXPECT_EQ(b.cursor.epoch, s / 4);
    EXPECT_EQ(b.cursor.step, s % 4);
    (s < 4 ? epoch0 : epoch1).push_back(flatten(b));
    reader.release();
  }
  EXPECT_EQ(reader.cursor(), (data::StreamCursor{2, 0}));
  // Same sample set, different order: the boundary reshuffled.
  EXPECT_NE(epoch0, epoch1);
  auto sorted_flat = [](std::vector<std::vector<float>> v) {
    std::vector<float> all;
    for (auto& s : v) all.insert(all.end(), s.begin(), s.end());
    std::sort(all.begin(), all.end());
    return all;
  };
  EXPECT_EQ(sorted_flat(epoch0), sorted_flat(epoch1));
}

TEST(IngestReader, SeekResumesTheStreamBitIdentically) {
  const Dataset d = blob_dataset(48, 9);
  const Index steps = 12;
  const auto continuous = collect_steps(d, 2, 6, 17, 2, 1, steps);

  // Consume 5 steps, capture the cursor, and resume from it in a brand-new
  // store + reader — the checkpoint/restart shape.
  data::StreamCursor resume_at;
  {
    data::DatasetSource src(d);
    data::SampleStore store(src, data::SampleStoreOptions{});
    data::ReaderOptions ro;
    ro.replicas = 2;
    ro.batch_per_replica = 6;
    ro.seed = 17;
    ro.prefetch_depth = 2;
    data::IngestReader reader(store, ro);
    for (Index s = 0; s < 5; ++s) {
      EXPECT_EQ(flatten(reader.acquire()), continuous[static_cast<std::size_t>(s)]);
      reader.release();
    }
    resume_at = reader.cursor();
  }
  data::DatasetSource src(d);
  data::SampleStore store(src, data::SampleStoreOptions{});
  data::ReaderOptions ro;
  ro.replicas = 2;
  ro.batch_per_replica = 6;
  ro.seed = 17;
  ro.prefetch_depth = 3;  // resume determinism is depth-independent too
  data::IngestReader reader(store, ro);
  reader.seek(resume_at);
  for (Index s = 5; s < steps; ++s) {
    EXPECT_EQ(flatten(reader.acquire()), continuous[static_cast<std::size_t>(s)]);
    reader.release();
  }
  // Seeking backward replays from the top.
  reader.seek({0, 0});
  EXPECT_EQ(flatten(reader.acquire()), continuous[0]);
  reader.release();
}

TEST(IngestReader, SteadyStateAssemblyIsAllocationFree) {
  const Dataset d = blob_dataset(64, 10);
  data::DatasetSource src(d);
  data::SampleStoreOptions so;
  so.fetch_threads = 1;  // budget default holds the whole set
  data::SampleStore store(src, so);
  data::ReaderOptions ro;
  ro.replicas = 2;
  ro.batch_per_replica = 8;
  ro.seed = 11;
  ro.prefetch_depth = 2;
  data::IngestReader reader(store, ro);

  // Warm epoch: slots fill, the store caches every sample.
  std::vector<const float*> slot_ptrs;
  for (Index s = 0; s < 4; ++s) {
    const data::StepBatch& b = reader.acquire();
    for (const data::ReplicaShard& sh : b.shards) {
      slot_ptrs.push_back(sh.x.data());
      slot_ptrs.push_back(sh.y.data());
    }
    reader.release();
  }
  const std::uint64_t inserts0 = store.stats().inserts;
  const std::uint64_t grow0 = workspace_stats().grow_count;

  // Two more epochs: tensors are refilled in place (the same slot pointers
  // recur), the fully-cached store creates no new entries, and no workspace
  // arena grows on the assembly path.
  std::vector<const float*> again;
  for (Index s = 0; s < 8; ++s) {
    const data::StepBatch& b = reader.acquire();
    for (const data::ReplicaShard& sh : b.shards) {
      again.push_back(sh.x.data());
      again.push_back(sh.y.data());
    }
    reader.release();
  }
  for (const float* p : again) {
    EXPECT_NE(std::find(slot_ptrs.begin(), slot_ptrs.end(), p),
              slot_ptrs.end())
        << "batch tensor storage reallocated at steady state";
  }
  EXPECT_EQ(store.stats().inserts, inserts0);
  EXPECT_EQ(workspace_stats().grow_count, grow0);
}

TEST(IngestReader, GuardsAcquireReleaseDiscipline) {
  const Dataset d = blob_dataset(32, 12);
  data::DatasetSource src(d);
  data::SampleStore store(src, data::SampleStoreOptions{});
  data::ReaderOptions ro;
  ro.replicas = 1;
  ro.batch_per_replica = 8;
  data::IngestReader reader(store, ro);
  EXPECT_THROW(reader.release(), std::runtime_error);
  (void)reader.acquire();
  EXPECT_THROW(reader.acquire(), std::runtime_error);
  EXPECT_THROW(reader.seek({0, 0}), std::runtime_error);
  reader.release();
}

TEST(IngestReader, RefusedSeekLeavesTheProducerRunning) {
  const Dataset d = blob_dataset(32, 12);
  data::DatasetSource src(d);
  data::SampleStore store(src, data::SampleStoreOptions{});
  data::ReaderOptions ro;
  ro.replicas = 1;
  ro.batch_per_replica = 8;
  ro.prefetch_depth = 2;
  data::IngestReader reader(store, ro);
  (void)reader.acquire();
  EXPECT_THROW(reader.seek({0, 0}), std::runtime_error);
  reader.release();
  // Without a producer this acquire() would block forever.
  EXPECT_EQ(reader.acquire().cursor, (data::StreamCursor{0, 1}));
  reader.release();
}

// ---- clairvoyant eviction: next use under the known read order --------------

/// The read stream of `epochs` epochs: stream[pos] = sample read at pos.
std::vector<Index> stream_of(data::ShardedSampleList& list, Index epochs) {
  std::vector<Index> stream;
  for (Index e = 0; e < epochs; ++e) {
    for (Index s = 0; s < list.steps_per_epoch(); ++s) {
      const std::span<const Index> g = list.global(e, s);
      stream.insert(stream.end(), g.begin(), g.end());
    }
  }
  return stream;
}

TEST(NextUseOracle, MatchesABruteForceScanAcrossTheEpochBoundary) {
  // 23 samples at global batch 10: 2 steps per epoch and a 3-sample tail.
  const Index n = 23;
  data::ShardedSampleList list(n, 2, 5, true, 77);
  const Index per_epoch = list.steps_per_epoch() * list.global_batch();
  ASSERT_EQ(per_epoch, 20);
  const std::vector<Index> stream = stream_of(list, 4);
  data::NextUseOracle oracle(n, list.global_batch(), true, 77);
  Index never = 0;
  // Descending positions also walk the oracle's epoch cache backward.
  for (Index pos = 3 * per_epoch - 1; pos >= 0; --pos) {
    const Index horizon = (pos / per_epoch + 2) * per_epoch;
    for (Index s = 0; s < n; ++s) {
      Index want = data::NextUseOracle::kNever;
      for (Index p = pos; p < horizon; ++p) {
        if (stream[static_cast<std::size_t>(p)] == s) {
          want = p;
          break;
        }
      }
      never += want == data::NextUseOracle::kNever ? 1 : 0;
      ASSERT_EQ(oracle.next_read(s, pos), want)
          << "sample " << s << " at position " << pos;
    }
  }
  EXPECT_GT(never, 0) << "the dropped tail must yield samples with no next use";
}

/// Fetches from the source (inline misses plus background prefetches) over
/// `epochs` epochs of an unshuffled scan of `n` samples with room for
/// `entries` of them.
std::uint64_t cyclic_scan_fetches(Index n, Index entries, Index epochs,
                                  Index depth, Index threads) {
  const Dataset d = blob_dataset(n, 41);
  data::DatasetSource src(d);
  data::SampleStoreOptions so;
  so.fetch_threads = threads;
  so.byte_budget = static_cast<std::size_t>(entries) * sizeof(float) * 7;
  data::SampleStore store(src, so);
  {
    data::ReaderOptions ro;
    ro.replicas = 2;
    ro.batch_per_replica = 4;
    ro.shuffle = false;
    ro.prefetch_depth = depth;
    data::IngestReader reader(store, ro);
    for (Index s = 0; s < reader.steps_per_epoch() * epochs; ++s) {
      (void)reader.acquire();
      reader.release();
    }
  }
  const data::SampleStoreStats st = store.stats();
  return st.misses + st.prefetched;
}

TEST(ClairvoyantStore, CyclicScanFetchesWhatMinFetches) {
  // LRU fetches every read of a cyclic scan over more than it holds
  // (n * epochs = 256).  MIN keeps C samples across each epoch boundary.
  const Index n = 64, c = 24, epochs = 4;
  const auto want = static_cast<std::uint64_t>(n + (epochs - 1) * (n - c));
  const auto reads = static_cast<std::uint64_t>(n * epochs);
  EXPECT_EQ(cyclic_scan_fetches(n, c, epochs, /*depth=*/1, /*threads=*/0),
            want);
  // With a fetcher, rows waiting in the batch being assembled hold slots,
  // so a few kept samples may give way: no fewer fetches than MIN, and
  // still fewer than reads.  A row the producer fetches inline must leave
  // the queue, or the fetcher fetches it again once MIN has evicted it —
  // more fetches than reads.
  const std::uint64_t prefetching =
      cyclic_scan_fetches(n, c, epochs, /*depth=*/2, /*threads=*/1);
  EXPECT_GE(prefetching, want);
  EXPECT_LT(prefetching, reads);
}

/// Reference Belady's MIN over a stream with known sample order, keyed the
/// way the store keys it: by the stream position of the next read, largest
/// (then largest sample) evicted first, the sample just read included.
class MinModel {
 public:
  explicit MinModel(Index capacity) : capacity_(capacity) {}

  /// Follow `stream` (stream[pos] = sample read at pos) from `pos` on.
  void follow(std::vector<Index> stream, Index pos) {
    stream_ = std::move(stream);
    for (auto& [sample, key] : key_) key = next_use(sample, pos);
  }
  /// One read at `pos`; counts a fetch on a miss.
  void read(Index pos) {
    const Index s = stream_[static_cast<std::size_t>(pos)];
    if (key_.count(s) == 0) ++fetches;
    key_[s] = next_use(s, pos + 1);
    if (static_cast<Index>(key_.size()) > capacity_) {
      std::pair<Index, Index> victim{-1, -1};
      for (const auto& [sample, key] : key_) {
        victim = std::max(victim, {key, sample});
      }
      key_.erase(victim.second);
    }
  }
  std::uint64_t fetches = 0;

 private:
  Index next_use(Index sample, Index pos) const {
    for (Index p = pos; p < static_cast<Index>(stream_.size()); ++p) {
      if (stream_[static_cast<std::size_t>(p)] == sample) return p;
    }
    return data::NextUseOracle::kNever;
  }
  Index capacity_;
  std::vector<Index> stream_;
  std::map<Index, Index> key_;  // resident sample -> key
};

/// Model reads of `steps` steps from `first_step` on, in the reader's order
/// (each batch from its far end).
void model_steps(MinModel& model, Index global_batch, Index first_step,
                 Index steps) {
  for (Index step = first_step; step < first_step + steps; ++step) {
    for (Index i = global_batch - 1; i >= 0; --i) {
      model.read(step * global_batch + i);
    }
  }
}

TEST(ClairvoyantStore, SeekAndRebuildReKeyToTheNewStreamPosition) {
  // 96 samples at global batch 8 (no tail), room for 40: the warm store
  // holds entries keyed at reads in epochs 2 and 3 when the stream jumps.
  const Index n = 96, gb = 8, c = 40, spe = n / gb;
  const Dataset d = blob_dataset(n, 43);
  CountingSource src(d);
  data::SampleStoreOptions so;
  so.fetch_threads = 0;
  so.byte_budget = static_cast<std::size_t>(c) * sizeof(float) * 7;
  data::SampleStore store(src, so);
  data::ReaderOptions ro;
  ro.replicas = 2;
  ro.batch_per_replica = gb / 2;
  ro.seed = 5;
  ro.prefetch_depth = 1;
  auto run = [](data::IngestReader& r, Index steps) {
    for (Index s = 0; s < steps; ++s) {
      (void)r.acquire();
      r.release();
    }
  };

  // Model streams run one epoch past the reads, as the store's horizon does.
  data::ShardedSampleList list_a(n, 2, gb / 2, true, 5);
  MinModel model(c);
  model.follow(stream_of(list_a, 5), 0);
  auto reader = std::make_unique<data::IngestReader>(store, ro);
  run(*reader, 2 * spe + 3);  // warm: into epoch 2
  model_steps(model, gb, 0, 2 * spe + 3);
  ASSERT_EQ(src.fetches.load(), model.fetches);

  // Seek back, as a checkpoint restore does, and read on to the end of
  // epoch 3.  Resident keys point past reads the stream now repeats: left
  // alone, MIN would evict the samples it is about to read.
  reader->seek({1, 2});
  model.follow(stream_of(list_a, 5), (spe + 2) * gb);
  run(*reader, 3 * spe - 2);
  model_steps(model, gb, spe + 2, 3 * spe - 2);
  EXPECT_EQ(src.fetches.load(), model.fetches) << "after seek()";

  // Rebuild on the same store with a new seed, as an elastic shrink does:
  // the new reader exists before the old one is destroyed.
  ro.seed = 6;
  auto rebuilt = std::make_unique<data::IngestReader>(store, ro);
  reader.reset();
  data::ShardedSampleList list_b(n, 2, gb / 2, true, 6);
  model.follow(stream_of(list_b, 3), 0);
  run(*rebuilt, 2 * spe);
  model_steps(model, gb, 0, 2 * spe);
  EXPECT_EQ(src.fetches.load(), model.fetches) << "after a rebuild";
}

/// Source whose fetch sleeps: a priced fetch that leaves the CPU free, so
/// the producer and the fetcher can run side by side on any host.
class SleepSource final : public data::SampleSource {
 public:
  explicit SleepSource(const Dataset& d) : inner_(d) {}
  Index size() const override { return inner_.size(); }
  Shape x_sample_shape() const override { return inner_.x_sample_shape(); }
  Shape y_sample_shape() const override { return inner_.y_sample_shape(); }
  void fetch(Index sample, std::span<float> x, std::span<float> y) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    inner_.fetch(sample, x, y);
  }

 private:
  data::DatasetSource inner_;
};

TEST(IngestReader, ProducerFetchesBesideItsFetcher) {
  // One cold 64-row batch and one fetcher.  Walking from the far end, the
  // producer fetches rows until it meets the fetcher (about half of them);
  // walking from the front it would sleep on the row the fetcher holds.
  const Dataset d = blob_dataset(64, 47);
  SleepSource src(d);
  data::SampleStoreOptions so;
  so.fetch_threads = 1;
  data::SampleStore store(src, so);
  data::ReaderOptions ro;
  ro.replicas = 2;
  ro.batch_per_replica = 32;
  ro.prefetch_depth = 2;
  data::IngestReader reader(store, ro);
  (void)reader.acquire();
  EXPECT_GE(store.stats().misses, 16u)
      << "the producer's inline fetches of the first batch";
  reader.release();
}

// ---- checkpoint v3 cursor ---------------------------------------------------

TEST(CheckpointV3, StreamCursorRoundTripsAndPlainSaveStaysV2) {
  const std::string path = "/tmp/candle_ingest_ckpt.bin";
  const Dataset d = blob_dataset(64, 15);
  SoftmaxCrossEntropy xent;
  Model a = small_model(16);
  Adam opt_a(5e-3f);
  for (Index s = 0; s < 3; ++s) a.train_batch(d.x, d.y, xent, opt_a);

  save_checkpoint(a, &opt_a, /*step=*/7, /*cursor_epoch=*/3, /*cursor_step=*/2,
                  /*stream_seed=*/0xfeedULL, path);
  Model b = small_model(999);
  Adam opt_b(5e-3f);
  const CheckpointMeta meta = load_checkpoint(b, &opt_b, path);
  EXPECT_EQ(meta.version, 3u);
  EXPECT_EQ(meta.step, 7);
  EXPECT_TRUE(meta.has_optimizer);
  EXPECT_TRUE(meta.has_cursor);
  EXPECT_EQ(meta.cursor_epoch, 3);
  EXPECT_EQ(meta.cursor_step, 2);
  EXPECT_EQ(meta.stream_seed, 0xfeedULL);
  EXPECT_EQ(weights_of(b), weights_of(a));

  // The cursor-less writer still emits v2 (existing tooling reads it).
  save_checkpoint(a, &opt_a, 7, path);
  Model c = small_model(998);
  const CheckpointMeta plain = load_checkpoint(c, nullptr, path);
  EXPECT_EQ(plain.version, 2u);
  EXPECT_FALSE(plain.has_cursor);
  EXPECT_EQ(plain.stream_seed, 0u);
  std::filesystem::remove(path);
}

// ---- ingest-enabled training ------------------------------------------------

parallel::DataParallelOptions ingest_dp_options(Index depth, Index threads) {
  parallel::DataParallelOptions o;
  o.replicas = 4;
  o.epochs = 2;
  o.batch_per_replica = 8;
  o.seed = 31;
  o.ingest.enabled = true;
  o.ingest.prefetch_depth = depth;
  o.ingest.fetch_threads = threads;
  return o;
}

TEST(IngestDataParallel, LossBitIdenticalAcrossPrefetchConfigs) {
  const Dataset d = blob_dataset(200, 17);  // global batch 32: 8-sample tail
  SoftmaxCrossEntropy xent;

  Model sync_model;
  const parallel::DataParallelResult sync = parallel::train_data_parallel(
      model_factory(18), [] { return make_adam(5e-3f); }, d, xent,
      ingest_dp_options(/*depth=*/1, /*threads=*/0), &sync_model);
  Model pre_model;
  const parallel::DataParallelResult pre = parallel::train_data_parallel(
      model_factory(18), [] { return make_adam(5e-3f); }, d, xent,
      ingest_dp_options(/*depth=*/3, /*threads=*/2), &pre_model);

  EXPECT_EQ(sync.steps, 12);  // 6 steps/epoch * 2 epochs
  EXPECT_EQ(pre.steps, sync.steps);
  EXPECT_EQ(pre.epoch_loss, sync.epoch_loss)
      << "prefetch depth / fetch threads must not change one bit of training";
  EXPECT_EQ(weights_of(pre_model), weights_of(sync_model));

  EXPECT_EQ(sync.dropped_tail_samples, 8);
  EXPECT_EQ(pre.dropped_tail_samples, 8);
  EXPECT_GT(pre.measured_ingest_busy_s, 0.0);
  EXPECT_GE(pre.measured_ingest_overlap_fraction, 0.0);
  EXPECT_LE(pre.measured_ingest_overlap_fraction, 1.0);
}

TEST(IngestDataParallel, LegacyPathSurfacesDroppedTailToo) {
  const Dataset d = blob_dataset(200, 19);
  SoftmaxCrossEntropy xent;
  parallel::DataParallelOptions o;
  o.replicas = 4;
  o.epochs = 1;
  o.batch_per_replica = 8;
  o.seed = 31;  // ingest stays disabled: the reader in memory, depth 1
  const parallel::DataParallelResult res = parallel::train_data_parallel(
      model_factory(20), [] { return make_adam(5e-3f); }, d, xent, o);
  EXPECT_EQ(res.dropped_tail_samples, 8);
  EXPECT_EQ(res.steps, 6);
  // Depth-1 assembly is inline: busy == exposed, overlap 0.
  EXPECT_GT(res.measured_ingest_busy_s, 0.0);
  EXPECT_DOUBLE_EQ(res.measured_ingest_busy_s, res.measured_exposed_ingest_s);
  EXPECT_EQ(res.measured_ingest_overlap_fraction, 0.0);
}

TEST(IngestDataParallel, IngestOffTrainsTheStreamIngestOnTrains) {
  // Disabled ingest is the same reader in memory at depth 1, so it reads the
  // stream every ingest setting reads: a store for 64 of the 200 rows, two
  // fetch threads and a three-slot ring change no bit of training.
  const Dataset d = blob_dataset(200, 23);  // global batch 32: 8-sample tail
  SoftmaxCrossEntropy xent;
  parallel::DataParallelOptions off = ingest_dp_options(1, 0);
  off.epochs = 3;
  off.ingest = parallel::IngestOptions{};  // enabled = false
  parallel::DataParallelOptions on =
      ingest_dp_options(/*depth=*/3, /*threads=*/2);
  on.epochs = 3;
  on.ingest.store_byte_budget = 64 * (6 + 1) * sizeof(float);  // 64 rows

  Model off_model;
  const parallel::DataParallelResult res_off = parallel::train_data_parallel(
      model_factory(24), [] { return make_adam(5e-3f); }, d, xent, off,
      &off_model);
  Model on_model;
  const parallel::DataParallelResult res_on = parallel::train_data_parallel(
      model_factory(24), [] { return make_adam(5e-3f); }, d, xent, on,
      &on_model);

  EXPECT_EQ(res_off.steps, 18);  // 6 steps/epoch * 3 epochs
  EXPECT_EQ(res_on.steps, res_off.steps);
  EXPECT_EQ(res_on.epoch_loss, res_off.epoch_loss)
      << "ingest settings must not change the sample order";
  EXPECT_EQ(weights_of(on_model), weights_of(off_model));
}

parallel::ResilientOptions ingest_resilient_options(const std::string& tag,
                                                    Index depth,
                                                    Index threads) {
  parallel::ResilientOptions o;
  o.train.replicas = 4;
  o.train.epochs = 4;
  o.train.batch_per_replica = 16;
  o.train.seed = 71;
  o.train.ingest.enabled = true;
  o.train.ingest.prefetch_depth = depth;
  o.train.ingest.fetch_threads = threads;
  o.checkpoint_every_steps = 3;  // checkpoints land mid-epoch
  o.checkpoint_path = "/tmp/candle_ingest_resil_" + tag + ".bin";
  o.collective_timeout = std::chrono::milliseconds(500);
  return o;
}

void cleanup_ckpt(const std::string& tag) {
  std::filesystem::remove("/tmp/candle_ingest_resil_" + tag + ".bin");
  std::filesystem::remove("/tmp/candle_ingest_resil_" + tag + ".bin.tmp");
}

TEST(IngestResilient, CrashRestartMidEpochBitIdenticalToFailureFree) {
  const Dataset d = blob_dataset(256, 61);  // global 64: 4 steps/epoch
  SoftmaxCrossEntropy xent;

  Model clean;
  const parallel::ResilientResult res_clean = parallel::train_resilient(
      model_factory(62), [] { return make_adam(5e-3f); }, d, xent,
      ingest_resilient_options("clean", 2, 1), &clean);

  // Crash at step 5 — epoch 1, step 1 — so the restore seeks to the mid-
  // epoch cursor from the step-3 checkpoint instead of an epoch boundary.
  parallel::ResilientOptions faulted =
      ingest_resilient_options("faulted", 2, 1);
  faulted.faults.crash(5, 1);
  Model recovered;
  const parallel::ResilientResult res_faulted = parallel::train_resilient(
      model_factory(62), [] { return make_adam(5e-3f); }, d, xent, faulted,
      &recovered);

  EXPECT_EQ(res_clean.committed_steps, 16);
  EXPECT_EQ(res_faulted.committed_steps, 16);
  EXPECT_EQ(res_faulted.crashes, 1);
  EXPECT_EQ(res_faulted.restarts, 1);
  EXPECT_EQ(res_faulted.epoch_loss, res_clean.epoch_loss);
  EXPECT_EQ(weights_of(recovered), weights_of(clean))
      << "restart must resume the ingest stream at the checkpointed cursor";
  cleanup_ckpt("clean");
  cleanup_ckpt("faulted");
}

TEST(IngestResilient, IngestOffCheckpointsTheCursorAndSeeksToIt) {
  // With ingest off the loop still reads through the reader: every
  // checkpoint is v3 with the stream cursor, and a restore seeks to it.
  const Dataset d = blob_dataset(256, 61);  // global 64: 4 steps/epoch
  SoftmaxCrossEntropy xent;
  auto opts = [](const std::string& tag) {
    parallel::ResilientOptions o = ingest_resilient_options(tag, 1, 0);
    o.train.ingest = parallel::IngestOptions{};  // enabled = false
    return o;
  };

  const parallel::ResilientOptions clean_opts = opts("off_clean");
  Model clean;
  const parallel::ResilientResult res_clean = parallel::train_resilient(
      model_factory(62), [] { return make_adam(5e-3f); }, d, xent, clean_opts,
      &clean);
  // 16 steps with a checkpoint every 3 leave the step-15 checkpoint: its
  // next batch is epoch 3, step 3 of the run's stream.
  Model probe = small_model(999);
  const CheckpointMeta meta =
      load_checkpoint(probe, nullptr, clean_opts.checkpoint_path);
  EXPECT_EQ(meta.version, 3u);
  EXPECT_TRUE(meta.has_cursor);
  EXPECT_EQ(meta.step, 15);
  EXPECT_EQ(meta.cursor_epoch, 3);
  EXPECT_EQ(meta.cursor_step, 3);
  EXPECT_EQ(meta.stream_seed, clean_opts.train.seed);

  // Crash at step 5 — epoch 1, step 1 — so the restore seeks to the mid-
  // epoch cursor of the step-3 checkpoint.
  parallel::ResilientOptions faulted = opts("off_faulted");
  faulted.faults.crash(5, 1);
  Model recovered;
  const parallel::ResilientResult res_faulted = parallel::train_resilient(
      model_factory(62), [] { return make_adam(5e-3f); }, d, xent, faulted,
      &recovered);

  EXPECT_EQ(res_clean.committed_steps, 16);
  EXPECT_EQ(res_faulted.committed_steps, 16);
  EXPECT_EQ(res_faulted.restarts, 1);
  EXPECT_EQ(res_faulted.epoch_loss, res_clean.epoch_loss);
  EXPECT_EQ(weights_of(recovered), weights_of(clean))
      << "restart must resume the stream at the checkpointed cursor";
  cleanup_ckpt("off_clean");
  cleanup_ckpt("off_faulted");
}

TEST(IngestResilient, ShrinkRecoveryBitIdenticalAcrossPrefetchConfigs) {
  const Dataset d = blob_dataset(256, 61);
  SoftmaxCrossEntropy xent;
  auto opts = [&](const std::string& tag, Index depth, Index threads) {
    parallel::ResilientOptions o = ingest_resilient_options(tag, depth, threads);
    o.policy = parallel::RecoveryPolicy::Shrink;
    o.faults.crash(5, 2);
    return o;
  };

  Model sync_model;
  const parallel::ResilientResult res_sync = parallel::train_resilient(
      model_factory(62), [] { return make_adam(5e-3f); }, d, xent,
      opts("shr_sync", 1, 0), &sync_model);
  Model pre_model;
  const parallel::ResilientResult res_pre = parallel::train_resilient(
      model_factory(62), [] { return make_adam(5e-3f); }, d, xent,
      opts("shr_pre", 3, 2), &pre_model);

  EXPECT_EQ(res_sync.shrinks, 1);
  EXPECT_EQ(res_pre.shrinks, 1);
  EXPECT_EQ(res_pre.final_replicas, res_sync.final_replicas);
  EXPECT_EQ(res_pre.committed_steps, res_sync.committed_steps);
  EXPECT_EQ(weights_of(pre_model), weights_of(sync_model))
      << "the re-anchored post-shrink stream must be depth/thread invariant";
  cleanup_ckpt("shr_sync");
  cleanup_ckpt("shr_pre");
}

// ---- hpcsim ingest drain law ------------------------------------------------

TEST(IngestModelLaw, ClosedFormPins) {
  namespace hs = hpcsim;
  // depth 1 (synchronous): every step pays the full assembly cost.
  EXPECT_NEAR(hs::ingest_exposed_s_per_step(0.3, 0.1, 1, 17), 0.3, 1e-12);
  // depth 2, assembly hidden behind compute: only the pipeline fill shows.
  EXPECT_NEAR(hs::ingest_exposed_s_per_step(0.01, 0.1, 2, 100), 0.01 / 100.0,
              1e-15);
  // depth 2, assembler the bottleneck: fill + steady max(0, a - c) per step.
  EXPECT_NEAR(hs::ingest_exposed_s_per_step(0.3, 0.1, 2, 50),
              (0.3 + 49.0 * 0.2) / 50.0, 1e-12);
  // A deeper ring cannot beat the serial assembler's steady state.
  EXPECT_NEAR(hs::ingest_exposed_s_per_step(0.3, 0.1, 4, 50),
              (0.3 + 49.0 * 0.2) / 50.0, 1e-12);
  // Free assembly is never exposed; depth is monotone non-increasing.
  EXPECT_DOUBLE_EQ(hs::ingest_exposed_s_per_step(0.0, 0.1, 2, 64), 0.0);
  double prev = hs::ingest_exposed_s_per_step(0.2, 0.1, 1, 64);
  for (const Index depth : {Index{2}, Index{4}, Index{8}}) {
    const double e = hs::ingest_exposed_s_per_step(0.2, 0.1, depth, 64);
    EXPECT_LE(e, prev + 1e-15);
    prev = e;
  }
}

TEST(IngestModelLaw, EstimateStepComposesAndDefaultsUnchanged) {
  namespace hs = hpcsim;
  const hs::NodeSpec node = hs::summit_node();
  const hs::Fabric fabric = hs::fat_tree_fabric();
  hs::TrainingWorkload w;
  w.name = "ingest-bound";
  w.flops_per_sample = 1e8;
  w.parameters = 1e6;
  w.bytes_per_sample = 1e4;
  w.activation_bytes_per_sample = 1e5;
  hs::ParallelPlan plan;
  plan.data_replicas = 4;

  const hs::StepEstimate base = hs::estimate_step(node, fabric, w, plan);
  EXPECT_EQ(base.ingest_s, 0.0);
  EXPECT_EQ(base.ingest_exposed_s, 0.0);

  hs::IngestModel ing;
  ing.assemble_s_per_step = 10.0 * base.step_s;  // assembly dominates
  ing.prefetch_depth = 2;
  ing.steps = 256;
  const hs::StepEstimate e =
      hs::estimate_step_with_ingest(node, fabric, w, plan, ing);
  EXPECT_DOUBLE_EQ(e.ingest_s, ing.assemble_s_per_step);
  EXPECT_DOUBLE_EQ(e.step_s, base.step_s + e.ingest_exposed_s);
  EXPECT_NEAR(e.ingest_exposed_s,
              hs::ingest_exposed_s_per_step(ing.assemble_s_per_step,
                                            base.step_s, 2, 256),
              1e-15);

  // Cheap assembly hides entirely (steady state): step time ~unchanged.
  hs::IngestModel cheap;
  cheap.assemble_s_per_step = 0.01 * base.step_s;
  cheap.steps = 1 << 14;
  const hs::StepEstimate h =
      hs::estimate_step_with_ingest(node, fabric, w, plan, cheap);
  EXPECT_LT(h.ingest_exposed_s, 1e-4 * base.step_s);
}

// ---- serving feature-fetch path ---------------------------------------------

TEST(FeatureService, FetchesRequestReadyFeaturesThroughTheStore) {
  const Dataset d = blob_dataset(32, 23);
  data::DatasetSource src(d);
  data::SampleStoreOptions so;
  so.fetch_threads = 2;
  data::SampleStore store(src, so);
  serve::FeatureService svc(store);
  EXPECT_EQ(svc.feature_dim(), 6);
  EXPECT_EQ(svc.sample_count(), 32);

  std::vector<float> out(6);
  svc.fetch_features(9, out);
  for (Index j = 0; j < 6; ++j) EXPECT_EQ(out[static_cast<std::size_t>(j)], d.x.at(9, j));

  const serve::Request req = svc.make_request(/*id=*/42, /*sample=*/4,
                                              /*deadline_s=*/0.25);
  EXPECT_EQ(req.id, 42u);
  EXPECT_DOUBLE_EQ(req.deadline_s, 0.25);
  ASSERT_EQ(req.input.size(), 6u);
  for (Index j = 0; j < 6; ++j) EXPECT_EQ(req.input[static_cast<std::size_t>(j)], d.x.at(4, j));

  // warm() pre-faults the working set; subsequent fetches are all hits.
  std::vector<Index> ids(32);
  for (Index i = 0; i < 32; ++i) ids[static_cast<std::size_t>(i)] = i;
  svc.warm(ids);
  EXPECT_EQ(svc.store_stats().prefetched, 30u);  // 2 ids above fetched already
  const std::uint64_t misses = svc.store_stats().misses;
  for (Index i = 0; i < 32; ++i) svc.fetch_features(i, out);
  EXPECT_EQ(svc.store_stats().misses, misses);
}

// ---- staged on-disk source --------------------------------------------------

TEST(StagedSource, MatchesTheInMemorySourceBitwise) {
  const std::string path = "/tmp/candle_ingest_staged.bin";
  const Dataset d = blob_dataset(40, 29);
  biodata::stage_dataset(d, path);

  data::DatasetSource mem(d);
  data::StagedSource disk(path);
  EXPECT_EQ(disk.size(), mem.size());
  EXPECT_EQ(disk.x_sample_shape(), mem.x_sample_shape());
  EXPECT_EQ(disk.y_sample_shape(), mem.y_sample_shape());

  std::vector<float> mx(6), my(1), dx(6), dy(1);
  for (const Index i : {Index{0}, Index{7}, Index{39}, Index{7}}) {
    mem.fetch(i, mx, my);
    disk.fetch(i, dx, dy);
    EXPECT_EQ(dx, mx);
    EXPECT_EQ(dy, my);
  }

  // Concurrent reads through the store exercise the internal serialization.
  data::SampleStoreOptions so;
  so.fetch_threads = 3;
  data::SampleStore store(disk, so);
  std::vector<Index> ids(40);
  for (Index i = 0; i < 40; ++i) ids[static_cast<std::size_t>(i)] = i;
  store.prefetch(ids);
  store.drain();
  for (Index i = 0; i < 40; ++i) {
    store.get(i, dx, dy);
    mem.fetch(i, mx, my);
    EXPECT_EQ(dx, mx);
    EXPECT_EQ(dy, my);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace candle

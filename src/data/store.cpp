#include "data/store.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "biodata/staging_io.hpp"
#include "runtime/timer.hpp"

namespace candle::data {

// ---- DatasetSource ----------------------------------------------------------

DatasetSource::DatasetSource(const Dataset& dataset, double synthetic_cost_s)
    : dataset_(&dataset), synthetic_cost_s_(synthetic_cost_s) {
  CANDLE_CHECK(dataset.size() >= 1, "empty dataset source");
  CANDLE_CHECK(synthetic_cost_s >= 0.0, "negative synthetic fetch cost");
  x_elems_ = dataset.x.numel() / dataset.size();
  y_elems_ = dataset.y.numel() / dataset.size();
}

Shape DatasetSource::x_sample_shape() const {
  Shape s = dataset_->x.shape();
  s.erase(s.begin());
  return s;
}

Shape DatasetSource::y_sample_shape() const {
  Shape s = dataset_->y.shape();
  s.erase(s.begin());
  return s;
}

void DatasetSource::fetch(Index sample, std::span<float> x,
                          std::span<float> y) {
  CANDLE_CHECK(sample >= 0 && sample < dataset_->size(),
               "sample index out of range");
  CANDLE_CHECK(static_cast<Index>(x.size()) == x_elems_ &&
                   static_cast<Index>(y.size()) == y_elems_,
               "fetch buffer size mismatch");
  if (synthetic_cost_s_ > 0.0) {
    // Busy-spin, not sleep: an expensive generator burns CPU, and the
    // overlap the prefetch pipeline claims must be won against real work.
    Stopwatch w;
    while (w.seconds() < synthetic_cost_s_) {
    }
  }
  std::memcpy(x.data(), dataset_->x.data() + sample * x_elems_,
              static_cast<std::size_t>(x_elems_) * sizeof(float));
  std::memcpy(y.data(), dataset_->y.data() + sample * y_elems_,
              static_cast<std::size_t>(y_elems_) * sizeof(float));
}

// ---- StagedSource -----------------------------------------------------------

struct StagedSource::Impl {
  explicit Impl(const std::string& path) : reader(path, /*batch=*/1) {}
  biodata::StagedReader reader;
  std::mutex mu;  // one underlying stream; reads serialize
};

StagedSource::StagedSource(const std::string& path)
    : impl_(new Impl(path)) {}

StagedSource::~StagedSource() { delete impl_; }

Index StagedSource::size() const { return impl_->reader.rows(); }

Shape StagedSource::x_sample_shape() const {
  return impl_->reader.sample_shape();
}

Shape StagedSource::y_sample_shape() const {
  return impl_->reader.y_sample_shape();
}

void StagedSource::fetch(Index sample, std::span<float> x,
                         std::span<float> y) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->reader.read_row(sample, x, y);
}

// ---- SampleStore ------------------------------------------------------------

SampleStore::SampleStore(SampleSource& source,
                         const SampleStoreOptions& options)
    : source_(&source), options_(options) {
  CANDLE_CHECK(options.fetch_threads >= 0, "negative fetch thread count");
  x_elems_ = source.x_elems();
  y_elems_ = source.y_elems();
  entry_bytes_ =
      static_cast<std::size_t>(x_elems_ + y_elems_) * sizeof(float);
  CANDLE_CHECK(entry_bytes_ > 0, "source has zero-byte samples");
  holds_all_ = options.byte_budget / entry_bytes_ >=
               static_cast<std::size_t>(source.size());
  fetchers_.reserve(static_cast<std::size_t>(options.fetch_threads));
  for (Index i = 0; i < options.fetch_threads; ++i) {
    fetchers_.emplace_back([this] { fetcher_loop(); });
  }
}

SampleStore::~SampleStore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : fetchers_) t.join();
}

std::vector<float> SampleStore::take_buffer_locked() {
  if (!free_.empty()) {
    std::vector<float> buf = std::move(free_.back());
    free_.pop_back();
    return buf;
  }
  return std::vector<float>(static_cast<std::size_t>(x_elems_ + y_elems_));
}

Index SampleStore::key_locked(Index sample, ReadAt at, bool after_read) {
  if (holds_all_) return 0;
  if (!order_) return -++uses_;
  if (at.ticket != ticket_) return NextUseOracle::kNever;
  return after_read ? order_->next_read(sample, at.pos + 1) : at.pos;
}

void SampleStore::rekey_locked(Entry& entry, Index key) {
  if (key == entry.key->first) return;
  // Move the index node rather than reallocating it.  A new key is mostly
  // an extreme (LRU: the newest use; MIN: a read an epoch ahead), so hint
  // that end of the order.
  auto node = by_key_.extract(entry.key);
  node.value().first = key;
  const auto hint = !by_key_.empty() && key < by_key_.begin()->first
                        ? by_key_.begin()
                        : by_key_.end();
  entry.key = by_key_.insert(hint, std::move(node));
}

void SampleStore::insert_locked(Index sample, std::vector<float>&& payload,
                                ReadAt at, bool after_read) {
  auto [it, fresh] = cache_.try_emplace(sample);
  if (!fresh) {
    // A racing fetch already cached it; recycle our buffer.
    free_.push_back(std::move(payload));
    return;
  }
  it->second.xy = std::move(payload);
  it->second.key =
      by_key_.emplace(key_locked(sample, at, after_read), sample).first;
  ++stats_.inserts;
  stats_.bytes_cached += entry_bytes_;
  // Evict the largest keys beyond the byte budget, keeping at least one
  // entry (a budget below one sample still serves correctly).  An entry
  // just read may go at once — its reader holds the copy, and under MIN
  // its next read is often the farthest — but a prefetched one waits for
  // its read.
  while (stats_.bytes_cached > options_.byte_budget && cache_.size() > 1) {
    auto victim = std::prev(by_key_.end());
    if (!after_read && victim->second == sample) --victim;
    auto vit = cache_.find(victim->second);
    free_.push_back(std::move(vit->second.xy));
    cache_.erase(vit);
    by_key_.erase(victim);
    ++stats_.evictions;
    stats_.bytes_cached -= entry_bytes_;
  }
  stats_.entries = cache_.size();
}

void SampleStore::read(Index sample, std::span<float> x, std::span<float> y,
                       ReadAt at) {
  const auto copy_out = [&](const float* xy) {
    std::memcpy(x.data(), xy, x.size() * sizeof(float));
    if (!y.empty()) {
      std::memcpy(y.data(), xy + x_elems_, y.size() * sizeof(float));
    }
  };
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = cache_.find(sample);
    if (it != cache_.end()) {
      ++stats_.hits;
      // A read with no position in the followed order leaves the key alone.
      if (!holds_all_ && (!order_ || follows_locked(at))) {
        rekey_locked(it->second, key_locked(sample, at, true));
      }
      copy_out(it->second.xy.data());
      return;
    }
    if (in_flight_.count(sample) != 0) {
      // A background fetcher has it; wait rather than fetching twice.
      done_cv_.wait(lock);
      continue;
    }
    // Fetch it here, and off the queue: under MIN this read's entry may be
    // evicted at once, and a fetcher would then fetch it again.
    ++stats_.misses;
    queued_.erase(sample);
    in_flight_.insert(sample);
    std::vector<float> buf = take_buffer_locked();
    lock.unlock();
    source_->fetch(sample, std::span<float>(buf.data(),
                                            static_cast<std::size_t>(x_elems_)),
                   std::span<float>(buf.data() + x_elems_,
                                    static_cast<std::size_t>(y_elems_)));
    copy_out(buf.data());
    lock.lock();
    insert_locked(sample, std::move(buf), at, /*after_read=*/true);
    in_flight_.erase(sample);
    done_cv_.notify_all();
    return;
  }
}

void SampleStore::get(Index sample, std::span<float> x, std::span<float> y,
                      ReadAt at) {
  CANDLE_CHECK(static_cast<Index>(x.size()) == x_elems_ &&
                   static_cast<Index>(y.size()) == y_elems_,
               "get buffer size mismatch");
  read(sample, x, y, at);
}

void SampleStore::get_x(Index sample, std::span<float> x) {
  // The y half rides along in the cache entry; only the copy-out differs.
  // A miss still fetches the full sample (sources produce whole rows).
  CANDLE_CHECK(static_cast<Index>(x.size()) == x_elems_,
               "get_x buffer size mismatch");
  read(sample, x, {}, {});
}

void SampleStore::prefetch(std::span<const Index> samples, ReadAt first) {
  bool queued_any = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool keyed = !holds_all_ && follows_locked(first);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Index s = samples[i];
      const ReadAt at{first.ticket, first.pos + static_cast<Index>(i)};
      const auto it = cache_.find(s);
      if (it != cache_.end()) {
        if (keyed) rekey_locked(it->second, at.pos);
        continue;
      }
      if (fetchers_.empty() || in_flight_.count(s) != 0 ||
          !queued_.try_emplace(s, at).second) {
        continue;
      }
      queue_.push_back(s);
      queued_any = true;
    }
  }
  if (queued_any) work_cv_.notify_all();
}

std::uint64_t SampleStore::follow(NextUseOracle order, Index pos) {
  std::lock_guard<std::mutex> lock(mu_);
  order_.emplace(std::move(order));
  ++ticket_;
  if (holds_all_) return ticket_;
  // Keys of the old order (or LRU ages) mean nothing in the new one: an
  // entry left keyed at a read that has passed would never be evicted.
  by_key_.clear();
  for (auto& [sample, entry] : cache_) {
    entry.key = by_key_.emplace(order_->next_read(sample, pos), sample).first;
  }
  return ticket_;
}

void SampleStore::unfollow(std::uint64_t ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ticket == ticket_) order_.reset();
}

void SampleStore::fetcher_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    const Index sample = queue_.front();
    queue_.pop_front();
    const auto q = queued_.find(sample);
    if (q == queued_.end()) {
      // A caller fetched it inline.  No fetch completes here, so wake a
      // drain() that waits only on this pop.
      if (queue_.empty()) done_cv_.notify_all();
      continue;
    }
    const ReadAt at = q->second;
    queued_.erase(q);
    in_flight_.insert(sample);
    std::vector<float> buf = take_buffer_locked();
    lock.unlock();
    source_->fetch(sample, std::span<float>(buf.data(),
                                            static_cast<std::size_t>(x_elems_)),
                   std::span<float>(buf.data() + x_elems_,
                                    static_cast<std::size_t>(y_elems_)));
    lock.lock();
    ++stats_.prefetched;
    insert_locked(sample, std::move(buf), at, /*after_read=*/false);
    in_flight_.erase(sample);
    done_cv_.notify_all();
  }
}

void SampleStore::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return queue_.empty() && in_flight_.empty(); });
}

SampleStoreStats SampleStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace candle::data

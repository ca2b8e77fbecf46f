#include "data/reader.hpp"

#include <cstring>

#include "runtime/timer.hpp"

namespace candle::data {

namespace {

Shape batched_shape(Index batch, const Shape& sample) {
  Shape s;
  s.reserve(sample.size() + 1);
  s.push_back(batch);
  s.insert(s.end(), sample.begin(), sample.end());
  return s;
}

}  // namespace

IngestReader::IngestReader(SampleStore& store, const ReaderOptions& options)
    : store_(&store),
      options_(options),
      list_(store.source().size(), options.replicas, options.batch_per_replica,
            options.shuffle, options.seed) {
  CANDLE_CHECK(options.prefetch_depth >= 1, "prefetch_depth must be >= 1");
  const Shape xs =
      batched_shape(options_.batch_per_replica, store.source().x_sample_shape());
  const Shape ys =
      batched_shape(options_.batch_per_replica, store.source().y_sample_shape());
  slots_.resize(static_cast<std::size_t>(options_.prefetch_depth));
  for (StepBatch& slot : slots_) {
    slot.shards.reserve(static_cast<std::size_t>(options_.replicas));
    for (Index r = 0; r < options_.replicas; ++r) {
      slot.shards.push_back(ReplicaShard{Tensor(xs), Tensor(ys)});
    }
  }
  follow_from({0, 0});
  start_producer();
}

IngestReader::~IngestReader() {
  stop_producer();
  store_->unfollow(ticket_);
}

void IngestReader::follow_from(StreamCursor c) {
  ticket_ = store_->follow(
      NextUseOracle(list_.samples(), list_.global_batch(), options_.shuffle,
                    options_.seed),
      list_.position(c) * list_.global_batch());
}

void IngestReader::start_producer() {
  if (options_.prefetch_depth < 2) return;
  stop_ = false;
  producer_ = std::thread([this] { producer_loop(); });
}

void IngestReader::stop_producer() {
  if (!producer_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  slot_cv_.notify_all();
  producer_.join();
}

void IngestReader::assemble(StepBatch& slot, StreamCursor c) {
  const Index x_elems = store_->x_elems();
  const Index y_elems = store_->y_elems();
  const Index bpr = options_.batch_per_replica;
  // Row i of the global batch is read at stream position first.pos + i.
  // Fan the whole step's misses out to the store's fetch threads before the
  // row-by-row copy loop starts.
  const std::span<const Index> g = list_.global(c.epoch, c.step);
  const ReadAt first{ticket_, list_.position(c) * list_.global_batch()};
  store_->prefetch(g, first);
  // Walk from the far end, away from the fetchers: while a queued row is
  // left, the walk fetches it rather than waiting on one a fetcher holds.
  for (Index i = list_.global_batch() - 1; i >= 0; --i) {
    ReplicaShard& out = slot.shards[static_cast<std::size_t>(i / bpr)];
    const Index j = i % bpr;
    store_->get(g[static_cast<std::size_t>(i)],
                std::span<float>(out.x.data() + j * x_elems,
                                 static_cast<std::size_t>(x_elems)),
                std::span<float>(out.y.data() + j * y_elems,
                                 static_cast<std::size_t>(y_elems)),
                {first.ticket, first.pos + i});
  }
  slot.cursor = c;
}

void IngestReader::producer_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    slot_cv_.wait(lock, [&] {
      return stop_ || produce_seq_ - consume_seq_ < options_.prefetch_depth;
    });
    if (stop_) return;
    const Index seq = produce_seq_;
    StepBatch& slot = slots_[static_cast<std::size_t>(
        seq % options_.prefetch_depth)];
    const StreamCursor c = list_.cursor_at(base_pos_ + seq);
    lock.unlock();
    Stopwatch w;
    assemble(slot, c);
    const double busy = w.seconds();
    lock.lock();
    assemble_busy_s_ += busy;
    produce_seq_ = seq + 1;
    ready_cv_.notify_all();
  }
}

StreamCursor IngestReader::cursor() const {
  std::lock_guard<std::mutex> lock(mu_);
  return list_.cursor_at(base_pos_ + consume_seq_ + (acquired_ ? 1 : 0));
}

const StepBatch& IngestReader::acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  CANDLE_CHECK(!acquired_, "acquire() while a batch is already held");
  acquired_ = true;
  if (options_.prefetch_depth < 2) {
    // Synchronous mode: assemble inline; all of it is exposed.
    StepBatch& slot = slots_[0];
    const StreamCursor c = list_.cursor_at(base_pos_ + consume_seq_);
    lock.unlock();
    Stopwatch w;
    assemble(slot, c);
    const double busy = w.seconds();
    lock.lock();
    assemble_busy_s_ += busy;
    exposed_wait_s_ += busy;
    produce_seq_ = consume_seq_ + 1;
    return slot;
  }
  Stopwatch w;
  ready_cv_.wait(lock, [&] { return produce_seq_ > consume_seq_; });
  exposed_wait_s_ += w.seconds();
  return slots_[static_cast<std::size_t>(consume_seq_ %
                                         options_.prefetch_depth)];
}

void IngestReader::release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CANDLE_CHECK(acquired_, "release() without acquire()");
    acquired_ = false;
    ++consume_seq_;
  }
  slot_cv_.notify_all();
}

void IngestReader::seek(StreamCursor c) {
  {
    // Checked before the producer stops, so a refused seek leaves the
    // reader running.
    std::lock_guard<std::mutex> lock(mu_);
    CANDLE_CHECK(!acquired_, "seek() while a batch is held");
    CANDLE_CHECK(c.epoch >= 0 && c.step >= 0 &&
                     c.step < list_.steps_per_epoch(),
                 "seek cursor out of range");
  }
  stop_producer();
  {
    std::lock_guard<std::mutex> lock(mu_);
    base_pos_ = list_.position(c);
    produce_seq_ = 0;
    consume_seq_ = 0;
  }
  follow_from(c);
  start_producer();
}

double IngestReader::exposed_wait_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exposed_wait_s_;
}

double IngestReader::assemble_busy_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return assemble_busy_s_;
}

}  // namespace candle::data

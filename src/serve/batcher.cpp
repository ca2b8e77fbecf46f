#include "serve/batcher.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace candle::serve {

DynamicBatcher::DynamicBatcher(BatchPolicy policy, Index workers)
    : policy_(policy), live_workers_(workers) {
  CANDLE_CHECK(policy_.max_batch >= 1, "max_batch must be positive");
  CANDLE_CHECK(policy_.max_wait_s >= 0.0, "max_wait_s must be non-negative");
  CANDLE_CHECK(policy_.queue_capacity >= 1,
               "queue_capacity must be positive");
  CANDLE_CHECK(policy_.service_ewma_alpha > 0.0 &&
                   policy_.service_ewma_alpha <= 1.0,
               "service_ewma_alpha must be in (0, 1]");
  CANDLE_CHECK(policy_.brownout_queue_frac > 0.0 &&
                   policy_.brownout_queue_frac <= 1.0,
               "brownout_queue_frac must be in (0, 1]");
  CANDLE_CHECK(policy_.brownout_deadline_s >= 0.0,
               "brownout_deadline_s must be non-negative");
  CANDLE_CHECK(live_workers_ >= 1, "batcher needs at least one worker");
  counters_.live_workers = live_workers_;
}

Response DynamicBatcher::shed_response(const Request& req, Outcome outcome) {
  Response r;
  r.id = req.id;
  r.outcome = outcome;
  return r;
}

double DynamicBatcher::predicted_wait_locked(Index depth) const {
  if (counters_.ewma_row_service_s <= 0.0) return 0.0;  // not yet calibrated
  if (policy_.continuous) {
    // Slot-availability pricing: no row is held back to fill a batch, so
    // the sojourn is every row ahead of this one (in flight on workers +
    // queued) plus itself, at the EWMA per-row rate over the live pool.  No
    // whole-batch quantization: admitting row max_batch+1 costs one row
    // more, not one batch more.
    const double rows_ahead =
        static_cast<double>(inflight_rows_ + depth + 1);
    return rows_ahead * counters_.ewma_row_service_s /
           static_cast<double>(live_workers_);
  }
  const double batch_service_s =
      counters_.ewma_row_service_s * static_cast<double>(policy_.max_batch);
  const double batches_ahead = std::ceil(
      static_cast<double>(depth + 1) / static_cast<double>(policy_.max_batch));
  return batches_ahead * batch_service_s / static_cast<double>(live_workers_);
}

double DynamicBatcher::predicted_wait_s() const {
  std::lock_guard<std::mutex> lk(mu_);
  return predicted_wait_locked(static_cast<Index>(queue_.size()));
}

std::future<Response> DynamicBatcher::submit(Request req) {
  auto pending = std::make_shared<Pending>();
  std::future<Response> future = pending->promise.get_future();
  std::unique_lock<std::mutex> lk(mu_);
  ++counters_.submitted;
  if (draining_) {
    pending->promise.set_value(shed_response(req, Outcome::ShedShutdown));
    ++counters_.shed_shutdown;
    return future;
  }
  const Index depth = static_cast<Index>(queue_.size());
  // Brownout shrinks the effective queue: the tighter bound sheds first
  // (ShedBrownout), the configured capacity stays the hard ceiling
  // (ShedQueueFull) so the two rejection causes remain distinguishable.
  if (depth >= policy_.queue_capacity) {
    pending->promise.set_value(shed_response(req, Outcome::ShedQueueFull));
    ++counters_.shed_queue_full;
    return future;
  }
  if (brownout_) {
    const Index effective = std::max<Index>(
        1, static_cast<Index>(std::ceil(
               policy_.brownout_queue_frac *
               static_cast<double>(policy_.queue_capacity))));
    if (depth >= effective) {
      pending->promise.set_value(shed_response(req, Outcome::ShedBrownout));
      ++counters_.shed_brownout;
      return future;
    }
  }
  if (policy_.deadline_admission) {
    double deadline = req.deadline_s;
    bool brownout_priced = false;
    if (brownout_ && policy_.brownout_deadline_s > 0.0 &&
        !(deadline < std::numeric_limits<double>::infinity())) {
      deadline = policy_.brownout_deadline_s;
      brownout_priced = true;
    }
    if (predicted_wait_locked(depth) > deadline) {
      const Outcome o =
          brownout_priced ? Outcome::ShedBrownout : Outcome::ShedDeadline;
      pending->promise.set_value(shed_response(req, o));
      if (brownout_priced) {
        ++counters_.shed_brownout;
      } else {
        ++counters_.shed_deadline;
      }
      return future;
    }
  }
  ++counters_.admitted;
  counters_.peak_queue_depth =
      std::max(counters_.peak_queue_depth, static_cast<std::int64_t>(depth + 1));
  pending->request = std::move(req);
  pending->enqueued = Clock::now();
  queue_.push_back(std::move(pending));
  // Wake a worker after unlocking, so it does not wake only to block on the
  // mutex this thread still holds.  The row is already queued, so a worker
  // that checks the queue in between takes it and no wake-up is lost.
  lk.unlock();
  cv_consumer_.notify_one();
  return future;
}

void DynamicBatcher::acquire_rows(std::vector<PendingPtr>& out) {
  out.clear();
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Entries resolved elsewhere (a hedge or crash duplicate whose twin
    // already won) are dead weight: drop them before they shape the
    // admission decision.  They were accounted when resolved.
    while (!queue_.empty() &&
           queue_.front()->resolved.load(std::memory_order_acquire)) {
      queue_.pop_front();
    }
    if (queue_.empty()) {
      if (draining_) return;
      cv_consumer_.wait(lk, [&] { return !queue_.empty() || draining_; });
      continue;
    }
    // Coalescing holds a short batch until it fills or its oldest row has
    // waited out the window.
    if (!policy_.continuous && !draining_ &&
        static_cast<Index>(queue_.size()) < policy_.max_batch) {
      const auto close_at =
          queue_.front()->enqueued +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(policy_.max_wait_s));
      if (Clock::now() < close_at) {
        cv_consumer_.wait_until(lk, close_at);
        continue;
      }
    }
    while (!queue_.empty() &&
           static_cast<Index>(out.size()) < policy_.max_batch) {
      PendingPtr p = std::move(queue_.front());
      queue_.pop_front();
      if (p->resolved.load(std::memory_order_acquire)) continue;
      out.push_back(std::move(p));
    }
    if (out.empty()) continue;  // everything popped was already resolved
    inflight_rows_ += static_cast<Index>(out.size());
    // More rows may remain (burst beyond max_batch): hand them to a sibling
    // worker instead of letting them wait for this worker's next iteration.
    if (!queue_.empty()) cv_consumer_.notify_one();
    return;
  }
}

void DynamicBatcher::release_rows(Index n) {
  if (n <= 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  CANDLE_CHECK(inflight_rows_ >= n, "releasing more rows than in flight");
  inflight_rows_ -= n;
}

void DynamicBatcher::requeue(std::vector<PendingPtr> batch) {
  if (batch.empty()) return;
  std::lock_guard<std::mutex> lk(mu_);
  // Reverse push_front keeps the batch's arrival order at the queue head.
  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
    if (!*it) continue;
    ++counters_.requeued;
    queue_.push_front(std::move(*it));
  }
  cv_consumer_.notify_all();
}

std::vector<DynamicBatcher::PendingPtr> DynamicBatcher::take_all() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<PendingPtr> all(std::make_move_iterator(queue_.begin()),
                              std::make_move_iterator(queue_.end()));
  queue_.clear();
  return all;
}

void DynamicBatcher::record_service(Index rows, double seconds) {
  if (rows <= 0 || !(seconds >= 0.0)) return;
  const double per_row = seconds / static_cast<double>(rows);
  std::lock_guard<std::mutex> lk(mu_);
  counters_.ewma_row_service_s =
      counters_.ewma_row_service_s <= 0.0
          ? per_row
          : (1.0 - policy_.service_ewma_alpha) * counters_.ewma_row_service_s +
                policy_.service_ewma_alpha * per_row;
}

void DynamicBatcher::set_live_workers(Index live) {
  std::lock_guard<std::mutex> lk(mu_);
  live_workers_ = std::max<Index>(1, live);
  counters_.live_workers = live_workers_;
}

Index DynamicBatcher::live_workers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return live_workers_;
}

void DynamicBatcher::set_brownout(bool on) {
  std::lock_guard<std::mutex> lk(mu_);
  brownout_ = on;
  counters_.brownout = on;
}

bool DynamicBatcher::brownout() const {
  std::lock_guard<std::mutex> lk(mu_);
  return brownout_;
}

void DynamicBatcher::start_drain() {
  std::lock_guard<std::mutex> lk(mu_);
  draining_ = true;
  cv_consumer_.notify_all();
}

Index DynamicBatcher::depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<Index>(queue_.size());
}

DynamicBatcher::Counters DynamicBatcher::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  Counters c = counters_;
  c.inflight_rows = inflight_rows_;
  return c;
}

}  // namespace candle::serve

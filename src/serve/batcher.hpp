// Dynamic batching with admission control: the queueing heart of the
// serving engine.
//
// Policy (DESIGN.md "Serving"):
//  * Admission rule — a worker takes up to `max_batch` queued rows per
//    iteration.  Coalescing (the default) holds a short batch until
//    `max_batch` rows are queued or the oldest queued row has waited
//    `max_wait_s`, whichever comes first: low load pays at most the wait
//    window, high load fills whole batches and the window never expires.
//    Continuous (BatchPolicy::continuous) hands out whatever is queued the
//    moment a worker is free — no fill window.
//  * Bounded queue — at most `queue_capacity` requests wait.  Arrivals
//    beyond that are shed immediately (ShedQueueFull): overload degrades to
//    explicit rejections, never to unbounded latency.
//  * Deadline-aware shedding — on arrival, the predicted sojourn is
//      ceil((depth + 1) / max_batch) * (ewma_row_service_s * max_batch)
//        / live_workers
//    i.e. how many batch services stand between this request and its
//    response, priced at the EWMA-estimated batch service time spread over
//    the *live* worker pool.  If that already exceeds the request's
//    deadline the request is shed on arrival (ShedDeadline) — serving it
//    would waste a batch slot on an answer the client has given up on.
//    Under continuous batching the sojourn is priced from slot availability
//    instead — every in-flight and queued row ahead of this one at the
//    per-row service rate over the live pool — because rows are not held
//    back to fill whole-batch quanta.
//  * Brownout (DESIGN.md "Serving failure model") — when the supervisor
//    detects sustained overload or a shrunken pool it flips brownout mode:
//    the effective queue shrinks to `brownout_queue_frac * queue_capacity`
//    and deadline-less requests are priced at `brownout_deadline_s`, so
//    admission tightens (explicit ShedBrownout rejections) instead of the
//    tail latency collapsing.
//
// Requests admitted once can be *re-dispatched*: the queue trades in
// shared `Pending` handles whose promise is resolved exactly once through
// an atomic guard (`try_resolve`), which is what makes crash re-enqueues
// and hedged duplicate dispatches safe — whoever finishes first wins, every
// later result is discarded and accounted, and the exact-accounting
// invariant `submitted == completed + shed + failed` survives duplication.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/request.hpp"

namespace candle::serve {

struct BatchPolicy {
  Index max_batch = 32;          ///< rows per worker iteration, at most
  double max_wait_s = 2e-3;      ///< coalescing fill window (oldest row)
  Index queue_capacity = 1024;   ///< bounded queue; beyond = ShedQueueFull
  bool deadline_admission = true;  ///< enable predicted-wait shedding
  double service_ewma_alpha = 0.2;  ///< smoothing of the service estimate

  /// Continuous batching (DESIGN.md "Continuous batching"): acquire_rows()
  /// hands a free worker whatever is queued at once instead of holding a
  /// short batch for the fill window.  max_wait_s is ignored, and the
  /// predicted sojourn is priced from slot availability — (inflight + depth
  /// + 1) rows ahead at the EWMA per-row service rate over the live pool —
  /// rather than the whole-batch ceil((depth + 1) / max_batch) quantization.
  bool continuous = false;

  /// Brownout tightening: effective queue capacity becomes
  /// `ceil(brownout_queue_frac * queue_capacity)` while brownout is active.
  double brownout_queue_frac = 0.5;
  /// Brownout deadline assumed for requests with no finite deadline of
  /// their own (0 disables that pricing — deadline-less requests then only
  /// feel the shrunken queue).
  double brownout_deadline_s = 0.0;
};

class DynamicBatcher {
 public:
  using Clock = std::chrono::steady_clock;

  /// One admitted request.  Shared between the queue, the worker executing
  /// its batch, and any duplicate dispatches (crash re-enqueue, hedge); the
  /// promise resolves exactly once via `try_resolve`.
  struct Pending {
    Request request;
    std::promise<Response> promise;
    Clock::time_point enqueued;
    std::atomic<bool> resolved{false};
    std::atomic<Index> crashes{0};  ///< dispatches lost to worker crashes
    std::atomic<bool> hedged{false};  ///< a duplicate dispatch exists

    /// First caller wins and fulfils the promise; later callers get false
    /// and must discard their result (hedge loser / stale duplicate).
    bool try_resolve(Response&& r) {
      bool expected = false;
      if (!resolved.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
        return false;
      }
      promise.set_value(std::move(r));
      return true;
    }
  };
  using PendingPtr = std::shared_ptr<Pending>;

  /// `workers` is the number of engine threads consuming batches; it prices
  /// the predicted wait (the queue drains `workers` batches concurrently).
  /// The supervisor reprices a shrunken pool via set_live_workers.
  DynamicBatcher(BatchPolicy policy, Index workers);

  /// Producer side: admission-controlled enqueue.  The returned future
  /// resolves with the model output (Completed) or immediately with a shed
  /// outcome.  Thread-safe.
  std::future<Response> submit(Request req);

  /// Consumer side: block until rows are ready under the admission rule
  /// (see BatchPolicy), then replace `out` with up to max_batch of them in
  /// arrival order, skipping entries already resolved elsewhere (won
  /// hedges).  Draining releases a short batch at once.  `out` comes back
  /// empty only when the batcher is draining and the queue is empty — no
  /// new admissions will ever arrive, so the worker should exit (requeues
  /// can still refill the queue during drain; the watchdog's replacement
  /// workers serve those).  Thread-safe — multiple engine workers pull
  /// concurrently.
  ///
  /// Every row handed out here is counted in-flight until the consumer
  /// returns it through exactly one release_rows() unit — when the row is
  /// resolved or lost a resolve race, or by the watchdog's sweep of a dead
  /// worker.
  void acquire_rows(std::vector<PendingPtr>& out);

  /// Return `n` in-flight rows (see acquire_rows).  Thread-safe.
  void release_rows(Index n);

  /// Put already-admitted requests back at the *front* of the queue (crash
  /// recovery and hedged duplicates re-dispatch ahead of new arrivals —
  /// they have been waiting longest).  Bypasses admission: the requests
  /// were admitted once and counters must not double-count them.  Works
  /// during drain (recovered work still gets served).
  void requeue(std::vector<PendingPtr> batch);

  /// Empty the queue immediately (terminal failure path: no live workers
  /// and no restart budget).  The caller owns resolving the entries.
  std::vector<PendingPtr> take_all();

  /// Feed back one measured batch execution (rows, seconds) into the EWMA
  /// per-row service estimate the admission controller prices waits with.
  void record_service(Index rows, double seconds);

  /// Reprice admission for a changed worker pool (crashes shrink it,
  /// restarts regrow it).  Clamped to >= 1 so pricing stays finite; a pool
  /// that is actually empty is the supervisor's problem, not admission's.
  void set_live_workers(Index live);
  Index live_workers() const;

  /// Flip brownout-tightened admission on/off (see BatchPolicy).
  void set_brownout(bool on);
  bool brownout() const;

  /// Stop admitting (subsequent submits shed with ShedShutdown) and wake
  /// consumers so queued work finishes; acquire_rows comes back empty once
  /// the queue is empty.  Idempotent.
  void start_drain();

  /// Predicted sojourn (seconds) a request admitted right now would see.
  double predicted_wait_s() const;

  Index depth() const;

  struct Counters {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed_queue_full = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t shed_shutdown = 0;
    std::uint64_t shed_brownout = 0;
    std::uint64_t requeued = 0;  ///< re-dispatches (crash recovery + hedges)
    std::int64_t peak_queue_depth = 0;
    Index inflight_rows = 0;  ///< acquired, not yet released
    double ewma_row_service_s = 0.0;
    Index live_workers = 0;
    bool brownout = false;
  };
  Counters counters() const;

  const BatchPolicy& policy() const { return policy_; }

 private:
  double predicted_wait_locked(Index depth) const;
  static Response shed_response(const Request& req, Outcome outcome);

  const BatchPolicy policy_;

  mutable std::mutex mu_;
  std::condition_variable cv_consumer_;
  std::deque<PendingPtr> queue_;
  bool draining_ = false;
  Index live_workers_ = 1;
  bool brownout_ = false;
  Index inflight_rows_ = 0;
  Counters counters_;
};

}  // namespace candle::serve

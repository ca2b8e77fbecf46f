#include "serve/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "nn/batching.hpp"

namespace candle::serve {

namespace {

double seconds_between(SupervisedEngine::Clock::time_point a,
                       SupervisedEngine::Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One-shot cold-start calibration: time the workers' plan on a
/// full-max_batch zeros batch and seed `batcher`'s per-row service EWMA with
/// it, so deadline admission prices the very first window instead of
/// admitting everything at a zero estimate.
void run_calibration_probe(const InferencePlan& plan,
                           DynamicBatcher& batcher) {
  const Index rows = batcher.policy().max_batch;
  Shape shape = plan.input_shape();
  shape.insert(shape.begin(), rows);
  const Tensor probe(std::move(shape));
  InferencePlan::Scratch scratch = plan.make_scratch();
  const auto t0 = SupervisedEngine::Clock::now();
  (void)plan.run(probe, scratch);
  const auto t1 = SupervisedEngine::Clock::now();
  batcher.record_service(rows, seconds_between(t0, t1));
}

}  // namespace

SupervisedEngine::SupervisedEngine(const Model& model,
                                   SupervisedOptions options,
                                   runtime::FaultInjector* injector)
    : options_(options),
      sample_numel_(shape_numel(model.input_shape())),
      output_numel_(shape_numel(model.output_shape())),
      injector_(injector),
      batcher_(options.batch, options.workers),
      plan_(model, options.batch.max_batch) {
  CANDLE_CHECK(options_.workers >= 1, "engine needs at least one worker");
  const SupervisorPolicy& p = options_.supervise;
  CANDLE_CHECK(p.tick_s > 0.0, "tick_s must be positive");
  CANDLE_CHECK(p.hedge_latency_mult > 0.0 && p.hedge_min_age_s > 0.0,
               "hedge thresholds must be positive");
  CANDLE_CHECK(p.hang_latency_mult >= p.hedge_latency_mult &&
                   p.hang_min_age_s >= p.hedge_min_age_s,
               "hang threshold must dominate the hedge threshold");
  CANDLE_CHECK(p.max_restarts >= 0, "max_restarts must be non-negative");
  CANDLE_CHECK(p.restart_backoff_s > 0.0 && p.restart_backoff_mult >= 1.0 &&
                   p.restart_backoff_max_s >= p.restart_backoff_s,
               "restart backoff must be positive and nondecreasing");
  CANDLE_CHECK(p.max_request_crashes >= 0,
               "max_request_crashes must be non-negative");
  CANDLE_CHECK(p.brownout_enter_shed_frac > p.brownout_exit_shed_frac,
               "brownout thresholds need hysteresis (enter > exit)");
  CANDLE_CHECK(p.brownout_shed_ewma_alpha > 0.0 &&
                   p.brownout_shed_ewma_alpha <= 1.0,
               "brownout_shed_ewma_alpha must be in (0, 1]");
  // The probe runs before any worker exists, so the first submitted request
  // is already priced against a calibrated EWMA.
  if (options_.calibration_probe) run_calibration_probe(plan_, batcher_);
  slots_.reserve(static_cast<std::size_t>(options_.workers));
  for (Index w = 0; w < options_.workers; ++w) spawn_worker();
  supervisor_ = std::thread([this] { supervisor_main(); });
}

SupervisedEngine::~SupervisedEngine() { drain(); }

void SupervisedEngine::spawn_worker() {
  auto slot = std::make_unique<WorkerSlot>();
  slot->id = next_worker_id_++;
  WorkerSlot* raw = slot.get();
  slots_.push_back(std::move(slot));
  raw->thread = std::thread([this, raw] { worker_main(raw); });
}

std::future<Response> SupervisedEngine::submit(Request req) {
  CANDLE_CHECK(static_cast<Index>(req.input.size()) == sample_numel_,
               "request input must hold exactly one flattened sample");
  active_submits_.fetch_add(1, std::memory_order_acq_rel);
  std::future<Response> f = batcher_.submit(std::move(req));
  active_submits_.fetch_sub(1, std::memory_order_acq_rel);
  return f;
}

void SupervisedEngine::worker_main(WorkerSlot* slot) {
  using runtime::FaultKind;
  // One assembly buffer and one plan scratch per worker, sized once for the
  // largest batch; with the worker's thread-local workspace arena warm, the
  // steady-state iteration allocates nothing beyond the flight and response
  // payloads.
  const Index capacity = options_.batch.max_batch;
  BatchAssembler assembler(plan_.input_shape(), capacity);
  InferencePlan::Scratch scratch = plan_.make_scratch();
  std::vector<DynamicBatcher::PendingPtr> batch;
  batch.reserve(static_cast<std::size_t>(capacity));
  std::vector<Index> poisoned;  // batch rows to recompute
  poisoned.reserve(static_cast<std::size_t>(capacity));
  std::vector<float> out;
  Index ordinal = 0;  // this worker's iteration counter; fault-schedule key
  while (!slot->superseded.load(std::memory_order_acquire)) {
    batcher_.acquire_rows(batch);
    if (batch.empty()) break;  // drained
    const Index rows = static_cast<Index>(batch.size());
    // Mirrored on the slot so the watchdog can return a dead worker's
    // acquired rows exactly (see WorkerSlot::inflight).
    slot->inflight.fetch_add(rows, std::memory_order_acq_rel);
    const auto admitted_at = Clock::now();
    // Register the flight before any fault can fire: whatever kills this
    // worker from here on, the watchdog sees exactly which rows it held.
    {
      std::lock_guard<std::mutex> lk(flights_mu_);
      flights_[slot->id] = Flight{batch, admitted_at, false};
    }
    if (injector_) {
      if (injector_->poll(FaultKind::WorkerCrash, ordinal, slot->id)) {
        injector_->record(ordinal, slot->id, FaultKind::WorkerCrash,
                          "injected", "worker died mid-batch");
        slot->state.store(kCrashed, std::memory_order_release);
        return;  // flight left registered; the watchdog recovers it
      }
      if (auto ev =
              injector_->poll(FaultKind::WorkerHang, ordinal, slot->id)) {
        injector_->record(ordinal, slot->id, FaultKind::WorkerHang, "injected",
                          "worker stalled mid-batch");
        std::this_thread::sleep_for(
            std::chrono::duration<double>(ev->delay_s));
      }
    }
    // Service time is measured from here, after any injected stall: the
    // EWMA must track *normal* service so hedge/hang thresholds derived
    // from it keep flagging stalls instead of absorbing them.
    const auto exec_start = Clock::now();
    assembler.begin(rows);
    for (Index i = 0; i < rows; ++i) {
      assembler.set_row(i, batch[static_cast<std::size_t>(i)]->request.input);
    }
    const std::span<const float> y = plan_.run(assembler.batch(), scratch);
    out.assign(y.begin(), y.end());
    if (injector_) {
      if (auto ev = injector_->poll(FaultKind::BatchCorruption, ordinal,
                                    slot->id)) {
        const Index n = std::min<Index>(ev->corrupt_count,
                                        static_cast<Index>(out.size()));
        for (Index k = 0; k < n; ++k) {
          out[static_cast<std::size_t>(k)] =
              std::numeric_limits<float>::quiet_NaN();
        }
        injector_->record(ordinal, slot->id, FaultKind::BatchCorruption,
                          "injected", "inference output NaN-poisoned");
      }
    }
    // Silent-corruption gate: no non-finite value leaves the engine.  One
    // recompute of only the poisoned rows clears a transient (injected
    // faults are one-shot, matching a bit flip in flight, not a broken
    // model); clean rows' outputs are already final, bit-identical by row
    // independence of the forward GEMMs.
    poisoned.clear();
    for (Index i = 0; i < rows; ++i) {
      if (!std::all_of(out.begin() + i * output_numel_,
                       out.begin() + (i + 1) * output_numel_,
                       [](float v) { return std::isfinite(v); })) {
        poisoned.push_back(i);
      }
    }
    if (!poisoned.empty()) {
      corruption_retries_.fetch_add(1, std::memory_order_relaxed);
      const Index redo = static_cast<Index>(poisoned.size());
      assembler.begin(redo);
      for (Index j = 0; j < redo; ++j) {
        const Index i = poisoned[static_cast<std::size_t>(j)];
        assembler.set_row(j,
                          batch[static_cast<std::size_t>(i)]->request.input);
      }
      const std::span<const float> y2 = plan_.run(assembler.batch(), scratch);
      for (Index j = 0; j < redo; ++j) {
        std::copy(y2.begin() + j * output_numel_,
                  y2.begin() + (j + 1) * output_numel_,
                  out.begin() + poisoned[static_cast<std::size_t>(j)] *
                                    output_numel_);
      }
      if (injector_) {
        injector_->record(ordinal, slot->id, FaultKind::BatchCorruption,
                          "recovered", "poisoned rows recomputed");
      }
    }
    const auto finished_at = Clock::now();
    batcher_.record_service(rows, seconds_between(exec_start, finished_at));
    batches_.fetch_add(1, std::memory_order_relaxed);
    const double service_s = seconds_between(admitted_at, finished_at);
    for (Index i = 0; i < rows; ++i) {
      DynamicBatcher::Pending& p = *batch[static_cast<std::size_t>(i)];
      Response r;
      r.id = p.request.id;
      r.outcome = Outcome::Completed;
      r.output.assign(out.begin() + i * output_numel_,
                      out.begin() + (i + 1) * output_numel_);
      const double queue_wait_s = seconds_between(p.enqueued, admitted_at);
      const double latency_s = seconds_between(p.enqueued, finished_at);
      r.queue_wait_s = queue_wait_s;
      r.service_s = service_s;
      r.latency_s = latency_s;
      r.batch_rows = rows;
      if (p.try_resolve(std::move(r))) {
        queue_wait_.record(queue_wait_s);
        service_.record(service_s);
        latency_.record(latency_s);
        completed_.fetch_add(1, std::memory_order_relaxed);
        if (p.hedged.load(std::memory_order_acquire)) {
          hedge_wins_.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        // A duplicate dispatch (hedge twin or crash re-dispatch racing a
        // superseded straggler) got there first: discard, account, move on.
        hedge_losses_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    batcher_.release_rows(rows);
    slot->inflight.fetch_sub(rows, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lk(flights_mu_);
      flights_.erase(slot->id);  // no-op if the watchdog stole it (hang)
    }
    ++ordinal;
  }
  slot->state.store(kExited, std::memory_order_release);
}

void SupervisedEngine::resolve_failed(
    const std::vector<DynamicBatcher::PendingPtr>& rows) {
  for (const auto& p : rows) {
    if (!p) continue;
    Response r;
    r.id = p->request.id;
    r.outcome = Outcome::Failed;
    if (p->try_resolve(std::move(r))) {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void SupervisedEngine::schedule_restart() {
  if (collapsed_ ||
      restarts_budgeted_ >= options_.supervise.max_restarts) {
    return;  // no budget left; the collapse check decides what happens next
  }
  ++restarts_budgeted_;
  ++pending_restarts_;
  backoff_s_ = backoff_s_ <= 0.0
                   ? options_.supervise.restart_backoff_s
                   : std::min(backoff_s_ * options_.supervise.restart_backoff_mult,
                              options_.supervise.restart_backoff_max_s);
  next_restart_at_ =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(backoff_s_));
}

void SupervisedEngine::handle_crash(WorkerSlot& slot) {
  slot.crash_handled = true;
  worker_crashes_.fetch_add(1, std::memory_order_relaxed);
  if (slot.thread.joinable()) {
    slot.thread.join();
    slot.joined = true;
  }
  Flight flight;  // stays empty if the hang path consumed it first
  {
    std::lock_guard<std::mutex> lk(flights_mu_);
    auto it = flights_.find(slot.id);
    if (it != flights_.end()) {
      flight = std::move(it->second);
      flights_.erase(it);
    }
  }
  // Return whatever the dead worker still held acquired: a worker releases
  // its rows once it has resolved them, and a crashed one never got there.
  // The count lives on the slot (not the flight) so the release stays exact
  // even if the hang path consumed the flight first.
  batcher_.release_rows(slot.inflight.exchange(0, std::memory_order_acq_rel));
  std::vector<DynamicBatcher::PendingPtr> survivors;
  std::vector<DynamicBatcher::PendingPtr> casualties;
  for (auto& p : flight.rows) {
    if (p->resolved.load(std::memory_order_acquire)) continue;
    const Index crashes =
        p->crashes.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (crashes > options_.supervise.max_request_crashes) {
      casualties.push_back(std::move(p));
    } else {
      survivors.push_back(std::move(p));
    }
  }
  resolve_failed(casualties);
  batcher_.requeue(std::move(survivors));
  if (injector_) {
    injector_->record(-1, slot.id, runtime::FaultKind::WorkerCrash,
                      "detected", "watchdog recovered abandoned batch");
  }
  schedule_restart();
}

double SupervisedEngine::batch_service_estimate_s() const {
  return batcher_.counters().ewma_row_service_s *
         static_cast<double>(options_.batch.max_batch);
}

Index SupervisedEngine::serving_live() const {
  Index live = 0;
  for (const auto& s : slots_) {
    if (s->state.load(std::memory_order_acquire) == kRunning &&
        !s->superseded.load(std::memory_order_acquire)) {
      ++live;
    }
  }
  return live;
}

void SupervisedEngine::update_brownout(Index live) {
  const SupervisorPolicy& p = options_.supervise;
  const DynamicBatcher::Counters c = batcher_.counters();
  const std::uint64_t organic_shed = c.shed_queue_full + c.shed_deadline;
  const std::uint64_t ds = c.submitted - last_submitted_;
  const std::uint64_t dshed = organic_shed - last_organic_shed_;
  last_submitted_ = c.submitted;
  last_organic_shed_ = organic_shed;
  if (ds > 0) {
    const double frac =
        static_cast<double>(dshed) / static_cast<double>(ds);
    shed_frac_ewma_ = (1.0 - p.brownout_shed_ewma_alpha) * shed_frac_ewma_ +
                      p.brownout_shed_ewma_alpha * frac;
  }
  const bool degraded_pool =
      p.brownout_on_shrunken_pool && live < options_.workers;
  const bool on = batcher_.brownout();
  if (!on && (degraded_pool || shed_frac_ewma_ >= p.brownout_enter_shed_frac)) {
    brownout_entries_.fetch_add(1, std::memory_order_relaxed);
    batcher_.set_brownout(true);
  } else if (on && !degraded_pool &&
             shed_frac_ewma_ <= p.brownout_exit_shed_frac) {
    batcher_.set_brownout(false);
  }
}

void SupervisedEngine::collapse() {
  if (collapsed_) return;
  collapsed_ = true;
  // No live workers and no budget to make one: shedding the queue as
  // explicit failures beats futures that never resolve.  Late submits shed
  // ShedShutdown from here on.
  batcher_.start_drain();
  resolve_failed(batcher_.take_all());
  if (injector_) {
    injector_->record(-1, -1, runtime::FaultKind::WorkerCrash, "detected",
                      "pool collapsed: no live workers, restart budget spent");
  }
}

void SupervisedEngine::tick() {
  const SupervisorPolicy& p = options_.supervise;
  // 1. Crashed workers: join, recover the abandoned batch, budget a restart.
  for (auto& s : slots_) {
    if (!s->crash_handled &&
        s->state.load(std::memory_order_acquire) == kCrashed) {
      handle_crash(*s);
    }
  }
  // 2. Reap cleanly exited superseded workers (their last batch finished).
  for (auto& s : slots_) {
    if (!s->joined && s->superseded.load(std::memory_order_acquire) &&
        s->state.load(std::memory_order_acquire) == kExited &&
        s->thread.joinable()) {
      s->thread.join();
      s->joined = true;
    }
  }
  // 3. Stragglers: hedge first, retire on escalation.
  const auto now = Clock::now();
  const double est = batch_service_estimate_s();
  const double hedge_after =
      std::max(p.hedge_latency_mult * est, p.hedge_min_age_s);
  const double hang_after =
      std::max(p.hang_latency_mult * est, p.hang_min_age_s);
  std::vector<DynamicBatcher::PendingPtr> duplicates;
  std::vector<Index> hung_ids;
  {
    std::lock_guard<std::mutex> lk(flights_mu_);
    for (auto& [id, flight] : flights_) {
      // The flight's age declares the hang — resolved or not: a hedge twin
      // resolving the rows does not unstick the worker, which still
      // occupies a pool slot and must be retired.  Hedging below does skip
      // resolved rows (duplicating a finished row is pure waste).
      const double age = seconds_between(flight.admitted, now);
      if (age >= hang_after) {
        hung_ids.push_back(id);
        continue;
      }
      if (!p.hedging || flight.hedged || age < hedge_after) continue;
      flight.hedged = true;
      bool launched = false;
      for (auto& row : flight.rows) {
        if (row->resolved.load(std::memory_order_acquire)) continue;
        row->hedged.store(true, std::memory_order_release);
        duplicates.push_back(row);
        launched = true;
      }
      if (launched) {
        hedges_launched_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (Index id : hung_ids) {
      auto it = flights_.find(id);
      if (it == flights_.end()) continue;
      for (auto& row : it->second.rows) {
        if (row->resolved.load(std::memory_order_acquire)) continue;
        // The retired straggler may still finish its batch; its result
        // races the re-dispatch through the exactly-once guard, so mark
        // the row hedged for loser accounting.
        row->hedged.store(true, std::memory_order_release);
        duplicates.push_back(row);
      }
      flights_.erase(it);
    }
  }
  if (!duplicates.empty()) batcher_.requeue(std::move(duplicates));
  for (Index id : hung_ids) {
    for (auto& s : slots_) {
      if (s->id != id || s->superseded.load(std::memory_order_acquire)) {
        continue;
      }
      s->superseded.store(true, std::memory_order_release);
      worker_hangs_.fetch_add(1, std::memory_order_relaxed);
      if (injector_) {
        injector_->record(-1, id, runtime::FaultKind::WorkerHang, "detected",
                          "watchdog retired straggler, batch re-dispatched");
      }
      schedule_restart();
    }
  }
  // 4. Spawn restarts whose backoff elapsed.
  while (pending_restarts_ > 0 && Clock::now() >= next_restart_at_ &&
         !collapsed_) {
    --pending_restarts_;
    spawn_worker();
    worker_restarts_.fetch_add(1, std::memory_order_relaxed);
    if (pending_restarts_ > 0) {
      next_restart_at_ =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(backoff_s_));
    }
  }
  // 5. Reprice admission for the current pool; run the brownout controller.
  const Index live = serving_live();
  batcher_.set_live_workers(live);
  update_brownout(live);
  // 6. Dead pool, empty budget: fail explicitly rather than hang clients.
  if (live == 0 && pending_restarts_ == 0 &&
      restarts_budgeted_ >= p.max_restarts) {
    collapse();
  }
}

void SupervisedEngine::supervisor_main() {
  std::unique_lock<std::mutex> lk(sup_mu_);
  for (;;) {
    sup_cv_.wait_for(lk,
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.supervise.tick_s)),
                     [&] { return stop_supervisor_; });
    if (stop_supervisor_) return;
    lk.unlock();
    tick();
    lk.lock();
  }
}

void SupervisedEngine::drain() {
  std::lock_guard<std::mutex> lk(drain_mu_);
  if (drained_) return;
  batcher_.start_drain();
  while (active_submits_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> slk(sup_mu_);
    stop_supervisor_ = true;
  }
  sup_cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
  // Drain is not a truce: keep ticking inline so crashes during the drain
  // are still recovered and re-dispatched until every admitted row is out
  // of the queue and out of flight.
  for (;;) {
    tick();
    bool flights_empty;
    {
      std::lock_guard<std::mutex> flk(flights_mu_);
      flights_empty = flights_.empty();
    }
    if (batcher_.depth() == 0 && flights_empty) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Queue empty + drain flag -> every worker's next acquire_rows() comes
  // back empty and the thread exits; superseded stragglers finish their
  // last batch first.  Join them all.
  for (auto& s : slots_) {
    if (s->thread.joinable()) {
      s->thread.join();
      s->joined = true;
    }
  }
  // A worker that crashed after the final tick left its batch behind with
  // nobody to recover it: resolve those rows (and anything it re-queued
  // too late to serve) as Failed so the exact accounting still closes.
  std::vector<DynamicBatcher::PendingPtr> leftovers;
  {
    std::lock_guard<std::mutex> flk(flights_mu_);
    for (auto& [id, flight] : flights_) {
      for (auto& row : flight.rows) leftovers.push_back(std::move(row));
    }
    flights_.clear();
  }
  resolve_failed(leftovers);
  resolve_failed(batcher_.take_all());
  // Workers that died after the final tick never released their acquired
  // rows; with every thread joined, sweep the residue so the batcher's
  // in-flight count drains to exactly zero.
  for (auto& s : slots_) {
    batcher_.release_rows(s->inflight.exchange(0, std::memory_order_acq_rel));
  }
  drained_ = true;
}

EngineStats SupervisedEngine::stats() const {
  const DynamicBatcher::Counters c = batcher_.counters();
  EngineStats s;
  s.submitted = c.submitted;
  s.admitted = c.admitted;
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.shed_queue_full = c.shed_queue_full;
  s.shed_deadline = c.shed_deadline;
  s.shed_shutdown = c.shed_shutdown;
  s.shed_brownout = c.shed_brownout;
  s.batches = batches_.load(std::memory_order_relaxed);
  s.peak_queue_depth = c.peak_queue_depth;
  s.inflight_rows = c.inflight_rows;
  s.ewma_row_service_s = c.ewma_row_service_s;
  s.requeued = c.requeued;
  s.worker_crashes = worker_crashes_.load(std::memory_order_relaxed);
  s.worker_hangs = worker_hangs_.load(std::memory_order_relaxed);
  s.worker_restarts = worker_restarts_.load(std::memory_order_relaxed);
  s.hedges_launched = hedges_launched_.load(std::memory_order_relaxed);
  s.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  s.hedge_losses = hedge_losses_.load(std::memory_order_relaxed);
  s.corruption_retries = corruption_retries_.load(std::memory_order_relaxed);
  s.brownout_entries = brownout_entries_.load(std::memory_order_relaxed);
  s.live_workers = c.live_workers;
  s.latency = latency_.snapshot();
  s.queue_wait = queue_wait_.snapshot();
  s.service = service_.snapshot();
  return s;
}

}  // namespace candle::serve

// The serving engine: a shared-weight worker pool behind one dynamic
// batcher, run under a heartbeat watchdog (DESIGN.md "Serving" and
// "Serving failure model").
//
// The constructor freezes the Model into one InferencePlan (nn/plan: Dense
// weights packed once, activations fused into the GEMM epilogue), and N
// worker threads share it read-only, so the weights stay resident once, not
// once per worker.  Each worker runs one loop: acquire up to max_batch rows
// from the batcher (coalescing or continuous admission, see BatchPolicy),
// register them as its flight, assemble them through its own
// BatchAssembler, run the plan on its own scratch, and resolve every row.
// Assembly, activations and GEMM scratch reuse per-worker buffers, so none
// of them allocates at steady state.  The plan is bit-identical to
// Model::infer, so responses equal serial Model::predict.
// The caller owns the Model and must keep it alive and *unmodified* while
// the engine runs.
//
// The watchdog does not assume workers are immortal.  It
//
//  * detects crashed workers (thread died mid-batch, real or injected via
//    runtime::FaultInjector), re-enqueues the rows they abandoned at the
//    front of the queue, and replaces them from the shared const model —
//    replacement is cheap because workers own no weights, only a scratch
//    assembler.  Restarts draw on a bounded budget with exponential
//    backoff; a pool that burns the whole budget collapses explicitly
//    (queued work resolves Outcome::Failed) instead of hanging clients.
//  * detects hung/straggling workers: a flight older than a multiple of
//    the EWMA batch service time is first *hedged* (its unresolved rows are
//    re-dispatched to race the straggler, first result wins through the
//    batcher's exactly-once promise guard, the loser is discarded and
//    accounted), and past a larger multiple the worker is *superseded* —
//    its rows re-dispatched, a replacement spawned, and the sleeper left
//    to finish its last batch and exit.  "The worker that hung stays
//    retired": replacements get fresh worker ids, so one-shot fault
//    schedules never re-fire (same contract as training-side crashes).
//  * detects NaN-poisoned inference outputs (silent corruption in flight)
//    by a finiteness scan and recomputes only the poisoned rows before
//    letting results out — the serving analogue of the training-side
//    gradient corruption retry.
//  * degrades gracefully under overload or a shrunken pool via *brownout*:
//    when the non-brownout shed fraction's EWMA crosses a threshold or
//    workers are down, admission tightens (smaller effective queue,
//    default-priced deadlines — see BatchPolicy) so clients see fast
//    explicit ShedBrownout rejections at reduced capacity instead of a
//    collapsing tail.
//
// Accounting stays exact through all of it: after drain(),
//   submitted == completed + shed_total() + failed  and  inflight_rows == 0
// with hedged duplicates and crash re-dispatches resolving each request
// exactly once.  The chaos suites (tests/test_serve_resilience.cpp,
// tests/test_serve_continuous.cpp) pin this under seeded fault schedules
// and TSan.
#pragma once

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "nn/model.hpp"
#include "nn/plan.hpp"
#include "runtime/fault.hpp"
#include "serve/batcher.hpp"
#include "serve/stats.hpp"

namespace candle::serve {

/// Watchdog, hedging, restart and brownout knobs.  Time constants default
/// small because tests and benches drive millisecond-scale models; a real
/// deployment scales them with its batch service time.
struct SupervisorPolicy {
  double tick_s = 1e-3;  ///< watchdog cadence

  // Hedged execution: a flight older than
  //   max(hedge_latency_mult * EWMA batch service, hedge_min_age_s)
  // gets a duplicate dispatch; first result wins.
  bool hedging = true;
  double hedge_latency_mult = 3.0;
  double hedge_min_age_s = 5e-3;

  // Hang declaration: a flight older than
  //   max(hang_latency_mult * EWMA batch service, hang_min_age_s)
  // retires its worker (supersede + replace + re-dispatch).  Must dominate
  // the hedge threshold — hedging races first, retirement is the escalation.
  double hang_latency_mult = 12.0;
  double hang_min_age_s = 50e-3;

  // Restart budget: total replacements (crash + hang) the supervisor may
  // spawn over the engine's lifetime, spaced by exponential backoff.
  Index max_restarts = 16;
  double restart_backoff_s = 1e-3;      ///< first restart delay
  double restart_backoff_mult = 2.0;
  double restart_backoff_max_s = 50e-3;

  /// How many times one request may be crash-abandoned before it resolves
  /// Outcome::Failed instead of being re-enqueued.
  Index max_request_crashes = 2;

  // Brownout controller: engage when the pool is degraded or the EWMA of
  // the organic shed fraction (queue-full + deadline sheds, *not* brownout
  // sheds — those would feed back) crosses enter; release with hysteresis.
  bool brownout_on_shrunken_pool = true;
  double brownout_enter_shed_frac = 0.5;
  double brownout_exit_shed_frac = 0.1;
  double brownout_shed_ewma_alpha = 0.3;
};

struct SupervisedOptions {
  Index workers = 2;  ///< serving threads (each a shared-weight replica)
  BatchPolicy batch;
  SupervisorPolicy supervise;
  /// Seed the admission controller's service-time EWMA from a one-shot
  /// full-batch inference probe run in the constructor, before any request
  /// is admitted.  Without it the first window is priced at zero (EWMA
  /// uncalibrated), so deadline admission cannot shed hopeless requests
  /// until the first batch completes — the cold-start mispricing window.
  bool calibration_probe = false;
};

class SupervisedEngine {
 public:
  using Clock = DynamicBatcher::Clock;

  /// The model must be built; it is borrowed, not copied: the plan packs
  /// its Dense weights and calls its other layers directly.  The injector is
  /// optional and borrowed; it must outlive the engine.  Worker w polls
  /// serving fault kinds at (its own iteration count, its stable worker id
  /// w); replacements take ids N, N+1, ... so scheduled faults for a dead
  /// worker never re-fire.
  explicit SupervisedEngine(const Model& model, SupervisedOptions options = {},
                            runtime::FaultInjector* injector = nullptr);
  ~SupervisedEngine();

  SupervisedEngine(const SupervisedEngine&) = delete;
  SupervisedEngine& operator=(const SupervisedEngine&) = delete;

  /// Submit one request (thread-safe).  The input must hold exactly one
  /// flattened sample.  Resolves with the prediction, a shed outcome (queue
  /// full / deadline hopeless / brownout / draining), or Outcome::Failed if
  /// its batch was crash-abandoned past the retry budget.
  std::future<Response> submit(Request req);

  /// Stop admitting, recover/serve everything already admitted (the
  /// watchdog keeps running crash recovery and restarts during the drain),
  /// join all workers.  Every admitted request is resolved before this
  /// returns; afterwards stats() satisfies the exact invariant.  Idempotent;
  /// also run by the destructor; safe to race with submit().
  void drain();

  EngineStats stats() const;

  Index live_workers() const { return batcher_.live_workers(); }
  bool brownout() const { return batcher_.brownout(); }
  const SupervisedOptions& options() const { return options_; }
  Index sample_numel() const { return sample_numel_; }

 private:
  // Worker lifecycle, written by the worker thread, read by the watchdog.
  static constexpr int kRunning = 0;
  static constexpr int kCrashed = 1;  // injected death; flight abandoned
  static constexpr int kExited = 2;   // clean exit (drain or superseded)

  struct WorkerSlot {
    Index id = 0;
    std::thread thread;
    std::atomic<int> state{kRunning};
    std::atomic<bool> superseded{false};  // watchdog retired this worker
    /// Rows acquired from the batcher and not yet released by this worker.
    /// The watchdog releases the residue when the worker crashes
    /// (exchange(0)), so the batcher's in-flight count stays exact whatever
    /// interleaving of crash detection and hang retirement wins.
    std::atomic<Index> inflight{0};
    bool crash_handled = false;           // watchdog-side bookkeeping
    bool joined = false;
  };

  /// The rows in flight on one worker, registered before any fault can
  /// fire so the watchdog always sees what a dying worker held.  A worker
  /// acquires all of them in one iteration, so they share one admit time,
  /// and the watchdog hedges them together (at most once).
  struct Flight {
    std::vector<DynamicBatcher::PendingPtr> rows;
    Clock::time_point admitted{};
    bool hedged = false;
  };

  void worker_main(WorkerSlot* slot);
  void supervisor_main();

  /// One watchdog pass: join/recover crashed workers, hedge and retire
  /// stragglers, spawn due restarts, reprice the live pool, run the
  /// brownout controller, collapse if the pool is dead with no budget.
  /// Called from the supervisor thread, and inline from drain() after that
  /// thread stops — never concurrently.
  void tick();

  void spawn_worker();
  void handle_crash(WorkerSlot& slot);
  void schedule_restart();
  void resolve_failed(const std::vector<DynamicBatcher::PendingPtr>& rows);
  void collapse();
  double batch_service_estimate_s() const;
  Index serving_live() const;
  void update_brownout(Index live);

  const SupervisedOptions options_;
  const Index sample_numel_;
  const Index output_numel_;
  runtime::FaultInjector* injector_;
  DynamicBatcher batcher_;
  /// Built before the calibration probe and the first submit; every worker,
  /// the probe, the poison recompute and hedged duplicates run it.
  const InferencePlan plan_;

  LatencyHistogram latency_;
  LatencyHistogram queue_wait_;
  LatencyHistogram service_;
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> worker_crashes_{0};
  std::atomic<std::uint64_t> worker_hangs_{0};
  std::atomic<std::uint64_t> worker_restarts_{0};
  std::atomic<std::uint64_t> hedges_launched_{0};
  std::atomic<std::uint64_t> hedge_wins_{0};
  std::atomic<std::uint64_t> hedge_losses_{0};
  std::atomic<std::uint64_t> corruption_retries_{0};
  std::atomic<std::uint64_t> brownout_entries_{0};
  std::atomic<std::uint64_t> active_submits_{0};

  std::mutex flights_mu_;
  std::unordered_map<Index, Flight> flights_;

  // Slots and restart state are touched only by the watchdog (supervisor
  // thread, then the drain loop after it is joined) — serialized by
  // construction, no lock needed.
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  Index next_worker_id_ = 0;
  Index restarts_budgeted_ = 0;   // budget consumed (scheduled or spawned)
  Index pending_restarts_ = 0;    // scheduled, waiting out backoff
  Clock::time_point next_restart_at_{};
  double backoff_s_ = 0.0;
  bool collapsed_ = false;

  // Brownout controller state (watchdog-only).
  std::uint64_t last_submitted_ = 0;
  std::uint64_t last_organic_shed_ = 0;
  double shed_frac_ewma_ = 0.0;

  std::mutex sup_mu_;
  std::condition_variable sup_cv_;
  bool stop_supervisor_ = false;
  std::thread supervisor_;

  std::mutex drain_mu_;
  bool drained_ = false;
};

}  // namespace candle::serve

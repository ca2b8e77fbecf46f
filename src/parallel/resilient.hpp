// Fault-tolerant synchronous data-parallel training.
//
// There is one data-parallel step loop (resilient.cpp) with two entry
// points: train_data_parallel runs it with no faults, no checkpoint file and
// the communicator's default timeout; train_resilient runs it with the full
// recovery stack the paper's 4096-node campaigns needed operationally:
// training state (weights AND optimizer state) is checkpointed at the
// Young/Daly interval computed from hpcsim::resilience, deterministic faults
// from runtime::FaultInjector are injected into the real replica threads,
// dead ranks surface as typed RankFailure from the failure-aware
// collectives, and recovery either
//
//   * RESTARTS: every replica reloads the last checkpoint and the ingest
//     reader seeks to the stream cursor the checkpoint records, with no
//     replay — bit-identical to a failure-free run, because checkpoints
//     capture complete state and fault events are one-shot (the node that
//     died stays dead); or
//   * SHRINKS: the communicator is rebuilt over the p-1 survivors
//     (ULFM-style), gradient averaging is rescaled, and training continues
//     elastically — statistically equivalent, not bit-identical.
//
// Transient gradient corruption is detected after the all-reduce (the
// reduced vector is identical on every rank, so detection is collective and
// divergence-free) and repaired by rolling back to the last checkpoint.  A
// non-finite reduced gradient with no corruption injected since the last
// recovery is divergence: both entry points throw instead of replaying it.
// Every fault, detection, and recovery is appended to the structured log.
//
// The result carries both measured wall-clock and a modeled accounting
// (executed steps, checkpoint writes, recoveries, each at their nominal
// cost) so the measured overhead factor can be pinned against the analytic
// expected_runtime_s closed form — the Young/Daly model validated by the
// executable system it was written for.
#pragma once

#include <chrono>
#include <string>

#include "hpcsim/resilience.hpp"
#include "parallel/data_parallel.hpp"
#include "runtime/fault.hpp"

namespace candle::parallel {

/// What to do when a replica dies.
enum class RecoveryPolicy {
  Restart,  // reload last checkpoint at full width (bit-identical)
  Shrink,   // continue on the survivors with rescaled averaging (elastic)
};

/// How the step loop absorbs injected stragglers (node-level performance
/// variability, distinct from crashes).
///
///   None             — synchronous tolerance: every rank waits out the
///                      slowest one (the tail-latency pathology).
///   Backup           — k = backup_workers redundant replicas per step: the
///                      quorum all-reduce commits as soon as replicas - k
///                      gradient sets are in; a straggler's late gradient is
///                      discarded, and the stalled replica stays
///                      bit-synchronized by receiving the committed quorum
///                      gradient and applying the same optimizer step.
///   BoundedStaleness — a straggling rank may fall up to staleness_bound
///                      steps behind; its gradient (captured at the stall
///                      step's weights) is aggregated on rejoin with weight
///                      1/(1+staleness).  If the stall would exceed the
///                      bound, the quorum waits out the remainder (SSP
///                      semantics), so staleness never exceeds the bound.
///
/// Both mitigation modes derive the per-step participant set from the
/// deterministic fault schedule — never from thread arrival order — so runs
/// replay bit-identically from a fixed seed.
enum class MitigationMode {
  None,
  Backup,
  BoundedStaleness,
};

const char* mitigation_mode_name(MitigationMode mode);

struct ResilientOptions {
  DataParallelOptions train;

  /// Deterministic fault schedule (empty = failure-free run).
  runtime::FaultSchedule faults;

  /// Machine model used to derive the Young/Daly checkpoint interval and
  /// the nominal checkpoint/restart costs in the modeled accounting.
  hpcsim::ResilienceConfig resilience;

  /// Nominal modeled cost of one training step, the time unit that maps
  /// step counts onto the resilience model's seconds.
  double step_seconds = 1.0;

  /// Checkpoint every this many committed steps; 0 derives the interval
  /// from optimal_checkpoint_interval_s(resilience) / step_seconds.
  Index checkpoint_every_steps = 0;

  /// Checkpoint file (written atomically; see nn/serialize).  Required.
  std::string checkpoint_path;

  /// A failed checkpoint write is retried this many times (with exponential
  /// backoff, below) before the interval is declared lost and the previous
  /// durable checkpoint kept.  Transient writer faults (full disk blip, I/O
  /// hiccup) then cost a retry, not a whole checkpoint interval of replay.
  Index checkpoint_write_retries = 2;

  /// Initial delay before the first checkpoint retry; doubles per attempt.
  /// 0 retries immediately (tests; real deployments should back off).
  double checkpoint_retry_backoff_s = 0.0;

  RecoveryPolicy policy = RecoveryPolicy::Restart;

  /// Dead-rank suspicion window for the collectives (keep well above the
  /// longest healthy step, including injected straggler delays).
  std::chrono::milliseconds collective_timeout{2000};

  /// Abort if more than this many recoveries fire (runaway guard).
  Index max_recoveries = 64;

  /// Straggler execution discipline (see MitigationMode).
  MitigationMode mitigation = MitigationMode::None;

  /// Backup mode: number of redundant replicas per step (quorum commits at
  /// replicas - backup_workers arrivals).  Must leave a non-empty quorum.
  Index backup_workers = 1;

  /// BoundedStaleness mode: maximum steps a rank may lag before the quorum
  /// waits for it (and the largest staleness a stale gradient can carry).
  Index staleness_bound = 4;

  /// Fabric model pricing the per-step gradient collective in the modeled
  /// accounting; partial (quorum) collectives are priced at the participant
  /// count, full ones at the live width.
  hpcsim::Fabric fabric = hpcsim::fat_tree_fabric();
  hpcsim::AllReduceAlgo allreduce_algo = hpcsim::AllReduceAlgo::Ring;
};

/// The data-parallel instrumentation (epoch losses over committed steps,
/// tail samples at the initial width, measured per-step means) plus the
/// recovery and mitigation accounting.
struct ResilientResult : DataParallelResult {
  Index planned_steps = 0;         // optimizer steps the run must commit
  Index committed_steps = 0;       // equals planned_steps on success
  Index executed_steps = 0;        // attempts, including lost/replayed work
  Index checkpoint_interval_steps = 0;
  Index checkpoints_written = 0;
  Index checkpoint_failures = 0;   // intervals lost: every attempt failed
                                   // (old durable file kept)
  Index checkpoint_retries = 0;    // failed attempts that were retried
  Index crashes = 0;               // replica crashes injected
  Index stragglers = 0;            // straggler delays injected
  Index corruptions = 0;           // gradient corruptions detected
  Index corruptions_skipped = 0;   // corruption events aimed at a stalled
                                   // rank (no gradient existed to corrupt;
                                   // logged as "skipped", never silently
                                   // dropped)
  Index restarts = 0;              // checkpoint-restore recoveries
  Index shrinks = 0;               // elastic p -> p-1 recoveries
  Index final_replicas = 0;
  double straggler_delay_s = 0.0;  // total injected stall time

  /// Per-rank injected stall time, indexed by the rank id current when the
  /// stall was injected (sized to the initial replica count; after an
  /// elastic shrink, survivor ids are the renumbered dense ranks).  Lets the
  /// straggler harness assert exactly which rank was mitigated.
  std::vector<double> rank_stall_s;

  // ---- straggler-mitigation accounting --------------------------------------
  Index quorum_commits = 0;   // steps committed without full participation
  Index late_discards = 0;    // backup mode: stale gradient sets dropped
  Index stale_applied = 0;    // stale mode: weighted stale gradients merged
  Index stale_clamped = 0;    // stale mode: stalls cut short by the bound
  double mean_staleness = 0.0;  // mean steps-behind of applied stale grads
  Index max_staleness = 0;      // worst applied staleness

  /// Modeled accounting at nominal costs (step_seconds, checkpoint_cost_s,
  /// restart_overhead_s): ideal = planned work only; actual adds lost work,
  /// checkpoint writes, and recovery overheads.
  double modeled_ideal_s = 0.0;
  double modeled_actual_s = 0.0;
  double overhead_factor() const {
    return modeled_ideal_s > 0.0 ? modeled_actual_s / modeled_ideal_s : 1.0;
  }

  /// Straggler stall on the modeled critical path: in None mode the per-step
  /// maximum injected delay (everyone waits for the slowest rank); in the
  /// mitigation modes only the waits the discipline could not hide (quorum
  /// short of replicas - k, or a stall clamped at the staleness bound).
  double modeled_stall_s = 0.0;

  /// Modeled wire time of the committed gradient collectives on
  /// `options.fabric` — partial collectives priced at their quorum size.
  double modeled_comm_s = 0.0;

  /// Modeled end-to-end wall-clock: modeled_actual_s (work + checkpoints +
  /// recoveries) plus stall and wire time.  This is the number the
  /// straggler harness compares across mitigation modes.
  double modeled_wallclock_s() const {
    return modeled_actual_s + modeled_stall_s + modeled_comm_s;
  }

  /// Closed-form prediction for the same work at the same interval from
  /// hpcsim::expected_runtime_s, and its overhead factor.
  double analytic_expected_s = 0.0;
  double analytic_overhead_factor = 0.0;

  /// Structured fault/detection/recovery event log.
  std::vector<runtime::FaultRecord> log;
};

/// Run fault-tolerant synchronous data-parallel training.  Final weights
/// (of replica 0; replicas stay in sync) land in `out_model` when given.
/// Throws candle::Error when training diverges (see the file comment).
///
/// Determinism contract: with RecoveryPolicy::Restart the final weights are
/// bit-identical to the same configuration run without faults, and so to
/// train_data_parallel on `options.train` (the same loop).  Requires
/// dense gradients (no top-k compression: the error-feedback residual is
/// per-replica state a checkpoint does not capture) and deterministic
/// weight rounding (the stochastic-rounding stream is not checkpointed).
///
/// Bucketed / overlapped gradient all-reduce (train.bucket_bytes > 0,
/// optionally train.overlap_comm) composes with crash, corruption, and
/// shrink recovery — a failed in-flight bucket never updated any weight —
/// and preserves bit-identity with the monolithic path because ring chunks
/// are anchored to global gradient positions.  It requires
/// MitigationMode::None (the quorum collective has no windowed form).
ResilientResult train_resilient(const ModelFactory& factory,
                                const OptimizerFactory& opt_factory,
                                const Dataset& train, const Loss& loss,
                                const ResilientOptions& options,
                                Model* out_model = nullptr);

}  // namespace candle::parallel

#include "parallel/resilient.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include "data/reader.hpp"
#include "nn/serialize.hpp"
#include "parallel/bucketing.hpp"
#include "parallel/collectives.hpp"
#include "parallel/compression.hpp"
#include "parallel/param_server.hpp"
#include "runtime/timer.hpp"

namespace candle::parallel {

namespace {

using runtime::FaultKind;

/// Flags shared by the replica threads of one step attempt.
struct AttemptOutcome {
  std::atomic<Index> crashed{0};           // replicas that died this attempt
  std::atomic<bool> collective_failed{false};
  std::atomic<bool> corrupt{false};
};

/// What one rank does in one mitigated step attempt (decided on the main
/// thread from the deterministic fault schedule, never from arrival order).
enum class StepRole {
  Fresh,         // compute a fresh gradient and contribute it at weight 1
  StaleCapture,  // compute a fresh gradient, save it for a later stale push
  StalePush,     // contribute the saved stale gradient, staleness-weighted
  Stalled,       // neither compute nor contribute; receive the quorum result
};

bool computes(StepRole r) {
  return r == StepRole::Fresh || r == StepRole::StaleCapture;
}

bool contributes(StepRole r) {
  return r == StepRole::Fresh || r == StepRole::StalePush;
}

/// The reader configuration `in` selects.  Disabled ingest is the
/// in-memory, synchronous configuration of the same reader: free fetches,
/// a store that holds the whole training set, no fetch threads and
/// prefetch depth 1 (each batch is assembled inline when the step asks).
IngestOptions effective_ingest(const IngestOptions& in, const Dataset& train) {
  if (in.enabled) return in;
  IngestOptions sync;
  sync.prefetch_depth = 1;
  sync.fetch_threads = 0;
  sync.store_byte_budget =
      static_cast<std::size_t>(train.x.numel() + train.y.numel()) *
      sizeof(float);
  sync.synthetic_fetch_cost_s = 0.0;
  return sync;
}

/// The one synchronous data-parallel step loop behind both entry points.
/// An empty checkpoint path writes no checkpoint (a restore then restarts
/// from the factory state); `timeout` overrides the communicators' dead-rank
/// suspicion window, nullopt keeps ShmCommunicator's default.
ResilientResult run_step_loop(const ModelFactory& factory,
                              const OptimizerFactory& opt_factory,
                              const Dataset& train, const Loss& loss,
                              const ResilientOptions& options,
                              std::optional<std::chrono::milliseconds> timeout,
                              Model* out_model) {
  const DataParallelOptions& t = options.train;
  CANDLE_CHECK(t.replicas >= 1, "need at least one replica");
  CANDLE_CHECK(t.epochs >= 1, "need at least one epoch");
  CANDLE_CHECK(t.batch_per_replica >= 1, "empty replica batch");
  CANDLE_CHECK(t.gradient_topk_fraction > 0.0 &&
                   t.gradient_topk_fraction <= 1.0,
               "top-k fraction must be in (0,1]");
  CANDLE_CHECK(options.step_seconds > 0.0, "step_seconds must be positive");
  CANDLE_CHECK(options.checkpoint_write_retries >= 0,
               "checkpoint_write_retries must be non-negative");
  CANDLE_CHECK(options.checkpoint_retry_backoff_s >= 0.0,
               "checkpoint_retry_backoff_s must be non-negative");
  const MitigationMode mode = options.mitigation;
  if (mode == MitigationMode::Backup) {
    CANDLE_CHECK(options.backup_workers >= 1 &&
                     options.backup_workers < t.replicas,
                 "backup workers must leave a non-empty quorum");
  }
  if (mode == MitigationMode::BoundedStaleness) {
    CANDLE_CHECK(options.staleness_bound >= 1,
                 "staleness bound must allow at least one step of lag");
  }

  const Index p0 = t.replicas;
  const Index b = t.batch_per_replica;
  CANDLE_CHECK(train.size() >= p0 * b, "dataset smaller than one global batch");
  const Index steps_per_epoch = train.size() / (p0 * b);
  const Index planned = t.epochs * steps_per_epoch;

  Index k = options.checkpoint_every_steps;
  if (k <= 0) {
    // Young/Daly interval from the machine model, mapped to steps by the
    // nominal step cost.
    const double interval_s =
        hpcsim::optimal_checkpoint_interval_s(options.resilience);
    k = std::clamp<Index>(
        static_cast<Index>(std::llround(interval_s / options.step_seconds)),
        1, planned);
  }

  runtime::FaultInjector injector(options.faults);
  ResilientResult result;
  result.planned_steps = planned;
  result.checkpoint_interval_steps = k;
  result.rank_stall_s.assign(static_cast<std::size_t>(p0), 0.0);
  result.dropped_tail_samples = train.size() - steps_per_epoch * (p0 * b);
  if (result.dropped_tail_samples > 0) {
    std::fprintf(stderr,
                 "[data_parallel] dropping %lld of %lld samples per epoch "
                 "(tail smaller than the global batch of %lld)\n",
                 static_cast<long long>(result.dropped_tail_samples),
                 static_cast<long long>(train.size()),
                 static_cast<long long>(p0 * b));
  }

  // ---- live training state --------------------------------------------------
  Index live_p = p0;
  std::vector<Model> replicas;
  std::vector<std::unique_ptr<Optimizer>> optimizers;
  auto build_replica = [&] {
    Model m = factory();
    CANDLE_CHECK(m.built(), "model factory must return a built model");
    m.set_compute_precision(t.precision.compute);
    return m;
  };
  auto build_optimizer = [&] {
    auto o = opt_factory();
    o->set_update_precision({t.precision.weight_storage,
                             t.precision.stochastic_weight_rounding,
                             t.seed ^ 0xf00d});
    return o;
  };
  auto rebuild_fleet = [&] {
    replicas.clear();
    optimizers.clear();
    for (Index r = 0; r < live_p; ++r) {
      replicas.push_back(build_replica());
      optimizers.push_back(build_optimizer());
    }
  };
  rebuild_fleet();
  const Index grad_size = replicas[0].grad_size();

  // Bucketed / overlapped gradient all-reduce composes with the crash and
  // corruption recovery paths (a failed in-flight bucket never updated any
  // weight, so restart and shrink semantics are unchanged) but not with the
  // quorum-based mitigation modes, whose partial collective has no windowed
  // form.  The plan depends only on layer shapes, so it survives fleet
  // rebuilds and elastic shrinks untouched.
  const bool bucketed = t.bucket_bytes > 0;
  CANDLE_CHECK(!t.overlap_comm || bucketed,
               "overlap_comm requires bucket_bytes > 0");
  CANDLE_CHECK(!bucketed || mode == MitigationMode::None,
               "bucketed gradient all-reduce requires MitigationMode::None: "
               "the quorum collective of the mitigation modes has no "
               "windowed (bucketed) form");
  BucketPlan plan;
  std::vector<Model::GradExtent> extents;
  // Reduction units: each bucket, or the whole gradient when monolithic.
  std::vector<Index> unit_numel{grad_size};
  if (bucketed) {
    extents = replicas[0].grad_extents();
    std::vector<Index> layer_numel;
    layer_numel.reserve(extents.size());
    for (const auto& e : extents) layer_numel.push_back(e.numel);
    plan = plan_buckets(layer_numel, t.bucket_bytes);
    CANDLE_CHECK(plan.total_numel == grad_size, "bucket plan size mismatch");
    unit_numel.clear();
    for (const auto& bk : plan.buckets) unit_numel.push_back(bk.numel);
  }

  // Top-k error feedback keeps one residual per (rank, reduction unit): the
  // residual must live at the granularity that gets sparsified.  Only the
  // plain entry point compresses, so the fleet never changes under it.
  const bool compress = t.gradient_topk_fraction < 1.0;
  std::vector<std::vector<ErrorFeedbackCompressor>> compressors(
      compress ? static_cast<std::size_t>(p0) : 0);
  for (auto& per_rank : compressors) {
    for (const Index n : unit_numel) {
      per_rank.emplace_back(n, t.gradient_topk_fraction);
    }
  }
  auto sparsify = [&](std::size_t rank, std::size_t unit,
                      std::span<float> window) {
    // The rank contributes only its top-k entries; the dropped mass rides
    // the error-feedback residual into the next step.
    const SparseGradient sparse = compressors[rank][unit].compress(window);
    std::fill(window.begin(), window.end(), 0.0f);
    sparse.add_to(window);
  };
  // Exact per-step wire bytes: top-k keeps max(1, round(f*numel)) entries
  // per reduction unit, 8 B each; dense sends 4 B per element regardless of
  // bucketing.
  double wire_entries = 0.0;
  for (const Index n : unit_numel) {
    wire_entries += static_cast<double>(
        compress ? std::max<Index>(1, static_cast<Index>(std::llround(
                                          t.gradient_topk_fraction *
                                          static_cast<double>(n))))
                 : n);
  }
  result.grad_bytes_per_step =
      (compress ? SparseGradient::kWireBytesPerEntry : 4.0) * wire_entries;
  result.buckets_per_step = bucketed ? plan.num_buckets() : 1;

  auto fresh_comm = [&] {
    auto c = std::make_shared<ShmCommunicator>(live_p);
    if (timeout) c->set_timeout(*timeout);
    return c;
  };
  std::shared_ptr<ShmCommunicator> comm = fresh_comm();

  // ---- straggler-mitigation state -------------------------------------------
  // All of it is derived from the deterministic schedule on the main thread;
  // replica threads only read the per-step roles.  Cleared on every recovery
  // (the rebuilt fleet starts step-aligned, like a relaunched job).
  std::vector<Index> stall_left;     // steps a rank remains stalled
  std::vector<Index> stale_age;      // commits since a pending stale capture
  std::vector<char> stale_pending;   // rank holds an unapplied stale gradient
  std::vector<std::vector<float>> stale_grad;
  StalenessMeter staleness;
  auto reset_mitigation_state = [&] {
    stall_left.assign(static_cast<std::size_t>(live_p), 0);
    stale_age.assign(static_cast<std::size_t>(live_p), 0);
    stale_pending.assign(static_cast<std::size_t>(live_p), 0);
    stale_grad.assign(static_cast<std::size_t>(live_p), {});
  };
  reset_mitigation_state();

  // ---- deterministic batch stream -------------------------------------------
  // Every batch comes through the ingest reader.  Its sample order is a
  // pure function of (seed, epoch, width), so a stream position is just a
  // cursor and repositioning is an O(1) seek.  The cursor (epoch, step,
  // stream seed) is recorded in every (v3) checkpoint, so a restore resumes
  // the sample stream bit-identically without replay.  The sample list
  // drops the tail that does not fill a global batch, so no batch is short.
  const IngestOptions ingest = effective_ingest(t.ingest, train);
  data::DatasetSource ingest_source(train, ingest.synthetic_fetch_cost_s);
  data::SampleStoreOptions so;
  so.byte_budget = ingest.store_byte_budget;
  so.fetch_threads = ingest.fetch_threads;
  data::SampleStore ingest_store(ingest_source, so);
  std::uint64_t iter_seed = t.seed;
  Index iter_base = 0;   // committed step at which the current stream started
  Index committed = 0;
  std::unique_ptr<data::IngestReader> reader;
  // Ingest work (busy) and the part the step waited on (exposed), summed
  // over reader rebuilds.
  double ingest_busy_acc = 0.0, ingest_exposed_acc = 0.0;
  // Current stream position of the NEXT batch, as a flat count of batches
  // since the stream anchor.
  auto stream_position = [&] { return committed - iter_base; };
  auto reset_stream = [&] {
    // (Re)build the reader at the current width/seed — width changes only
    // on elastic shrink, which passes through here — then O(1)-seek to the
    // current stream position (a fresh reader already sits at 0).
    if (reader) {
      ingest_busy_acc += reader->assemble_busy_s();
      ingest_exposed_acc += reader->exposed_wait_s();
    }
    data::ReaderOptions ro;
    ro.replicas = live_p;
    ro.batch_per_replica = b;
    ro.shuffle = t.shuffle;
    ro.seed = iter_seed;
    ro.prefetch_depth = ingest.prefetch_depth;
    reader = std::make_unique<data::IngestReader>(ingest_store, ro);
    if (stream_position() > 0) {
      reader->seek(reader->list().cursor_at(stream_position()));
    }
  };
  reset_stream();

  std::vector<float> step_loss;  // mean loss of each committed step
  float last_step_loss = 0.0f;   // fallback when no rank computed this step
  Index last_ckpt_step = -1;
  Index next_ckpt = 0;  // write the initial checkpoint before step 0
  Index recoveries = 0;
  // Set when a GradientCorruption is injected, cleared by every recovery: a
  // non-finite reduced gradient without one is divergence, not a fault.
  std::atomic<bool> corruption_injected{false};

  // Gradient buffers persist across steps (fully overwritten each step), so
  // the steady-state loop does not touch the heap for them.
  std::vector<std::vector<float>> grad_bufs(
      static_cast<std::size_t>(p0),
      std::vector<float>(static_cast<std::size_t>(grad_size)));

  // Rank-0 instrumentation: written only by rank 0's thread, read after the
  // join, divided into per-step means at the end.
  double backward_acc = 0.0, busy_acc = 0.0, exposed_acc = 0.0;

  // Entries [0, n) a GradientCorruption event poisons; logs the injection.
  auto inject_corruption = [&](const runtime::FaultEvent& ev, Index r,
                               const std::string& what) {
    const Index n =
        std::min<Index>(std::max<Index>(ev.corrupt_count, 1), grad_size);
    corruption_injected.store(true);
    injector.record(committed, r, FaultKind::GradientCorruption, "injected",
                    std::to_string(n) + what);
    return n;
  };

  auto write_checkpoint = [&] {
    if (options.checkpoint_path.empty()) return;
    // A failed write is retried (bounded, exponential backoff) before the
    // interval is declared lost: a transient writer fault costs one retry
    // instead of a whole checkpoint interval of replay.  Each attempt polls
    // the injector independently, so one scheduled CheckpointWriteFail
    // models a transient fault (the retry succeeds) and retries+1 scheduled
    // at the same step model a persistent one (the interval is lost).
    const Index attempts = 1 + options.checkpoint_write_retries;
    for (Index attempt = 0; attempt < attempts; ++attempt) {
      if (injector.checkpoint_should_fail(committed)) {
        // Simulate a writer killed mid-checkpoint: leave a truncated temp
        // file behind and never rename — the previous good checkpoint stays
        // in place (this is exactly what the atomic writer guarantees).
        std::ofstream junk(options.checkpoint_path + ".tmp",
                           std::ios::binary | std::ios::trunc);
        junk << "truncated by injected fault";
        if (attempt + 1 < attempts) {
          ++result.checkpoint_retries;
          injector.record(committed, -1, FaultKind::CheckpointWriteFail,
                          "retried",
                          "checkpoint write failed; retrying (attempt " +
                              std::to_string(attempt + 2) + "/" +
                              std::to_string(attempts) + ")");
          if (options.checkpoint_retry_backoff_s > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                options.checkpoint_retry_backoff_s *
                std::pow(2.0, static_cast<double>(attempt))));
          }
          continue;
        }
        ++result.checkpoint_failures;
        injector.record(committed, -1, FaultKind::CheckpointWriteFail,
                        "injected",
                        "checkpoint write failed after " +
                            std::to_string(attempts) +
                            " attempts; previous checkpoint kept");
        return;
      }
      // v3: record the stream position of the next batch so a restore can
      // seek instead of replaying from the stream anchor.
      const data::StreamCursor c = reader->list().cursor_at(stream_position());
      save_checkpoint(replicas[0], optimizers[0].get(), committed, c.epoch,
                      c.step, iter_seed, options.checkpoint_path);
      last_ckpt_step = committed;
      ++result.checkpoints_written;
      return;
    }
  };

  auto restore_checkpoint = [&](FaultKind why) {
    rebuild_fleet();
    // With no durable checkpoint yet, `meta` keeps its defaults: a cold
    // restart at step 0 from the deterministic factory state (still
    // bit-identical — same factory, same seed), with no cursor.
    CheckpointMeta meta;
    if (last_ckpt_step >= 0) {
      for (Index r = 0; r < live_p; ++r) {
        meta = load_checkpoint(replicas[r], optimizers[r].get(),
                               options.checkpoint_path);
      }
    }
    committed = meta.step;
    step_loss.resize(static_cast<std::size_t>(committed));
    if (meta.has_cursor && meta.stream_seed == iter_seed) {
      // O(1) resume: seek straight to the checkpointed cursor — no epoch
      // replay.  (Seed mismatch means the stream was re-anchored by a
      // shrink after this checkpoint; fall through to the rebuild below.)
      const data::StreamCursor c{meta.cursor_epoch, meta.cursor_step};
      iter_base = committed - reader->list().position(c);
      reader->seek(c);
    } else {
      if (committed < iter_base) iter_base = committed;  // re-anchor stream
      reset_stream();
    }
    reset_mitigation_state();  // the relaunched fleet starts step-aligned
    next_ckpt = committed + k;
    ++result.restarts;
    injector.record(committed, -1, why, "recovered",
                    "restored checkpoint; resuming at step " +
                        std::to_string(committed) + " with " +
                        std::to_string(live_p) + " replicas");
  };

  Stopwatch clock;
  while (committed < planned) {
    CANDLE_CHECK(recoveries <= options.max_recoveries,
                 "recovery limit exceeded — runaway fault schedule?");
    if (committed >= next_ckpt) {
      write_checkpoint();
      next_ckpt = committed + k;
    }

    const data::StepBatch& step_batch = reader->acquire();
    ++result.executed_steps;
    AttemptOutcome outcome;
    std::vector<float> rank_loss(static_cast<std::size_t>(live_p), 0.0f);

    // ---- role assignment (main thread, from the deterministic schedule) -----
    // Participant sets are a pure function of the seeded fault schedule,
    // never of thread arrival order, so mitigated runs replay bit-identically.
    std::vector<StepRole> roles(static_cast<std::size_t>(live_p),
                                StepRole::Fresh);
    std::vector<float> push_weight(static_cast<std::size_t>(live_p), 1.0f);
    std::vector<double> none_delay(static_cast<std::size_t>(live_p), 0.0);
    std::vector<Index> push_corrupt(static_cast<std::size_t>(live_p), 0);
    float divisor = static_cast<float>(live_p);
    Index contributors = live_p;
    if (mode != MitigationMode::None) {
      std::vector<char> capture_now(static_cast<std::size_t>(live_p), 0);
      for (Index r = 0; r < live_p; ++r) {
        const auto i = static_cast<std::size_t>(r);
        if (auto ev = injector.poll(FaultKind::Straggler, committed, r)) {
          const Index sigma = std::max<Index>(
              1,
              static_cast<Index>(std::ceil(ev->delay_s / options.step_seconds)));
          ++result.stragglers;
          result.straggler_delay_s += ev->delay_s;
          result.rank_stall_s[i] += ev->delay_s;
          injector.record(committed, r, FaultKind::Straggler, "injected",
                          "stalled " + std::to_string(ev->delay_s) + " s (" +
                              std::to_string(sigma) + " steps; mode " +
                              mitigation_mode_name(mode) + ")");
          if (mode == MitigationMode::BoundedStaleness && stall_left[i] == 0 &&
              stale_pending[i] == 0) {
            capture_now[i] = 1;  // compute now, push staleness-weighted later
          }
          stall_left[i] += sigma;
        }
      }
      if (mode == MitigationMode::Backup) {
        // The quorum commits at live_p - k arrivals.  With more than k ranks
        // stalled the step cannot commit, so everyone waits (modeled time)
        // until enough stalls drain — the residual cost mitigation can't hide.
        const Index quorum =
            std::max<Index>(1, live_p - options.backup_workers);
        auto fresh_count = [&] {
          Index n = 0;
          for (const Index s : stall_left) {
            if (s == 0) ++n;
          }
          return n;
        };
        while (fresh_count() < quorum) {
          result.modeled_stall_s += options.step_seconds;
          for (auto& s : stall_left) {
            if (s > 0) --s;
          }
        }
      } else {
        // Bounded staleness: a pending rank at the bound forces the quorum
        // to wait out its remaining stall (SSP semantics — staleness never
        // exceeds the bound)...
        for (Index r = 0; r < live_p; ++r) {
          const auto i = static_cast<std::size_t>(r);
          if (stale_pending[i] != 0 && stall_left[i] > 0 &&
              stale_age[i] >= options.staleness_bound) {
            result.modeled_stall_s +=
                static_cast<double>(stall_left[i]) * options.step_seconds;
            stall_left[i] = 0;
            ++result.stale_clamped;
          }
        }
        // ...and if literally every rank is stalled, modeled time passes
        // until one of them can contribute again.  A rank capturing its
        // stale gradient this step does not contribute to this commit —
        // unless the whole fleet stalled and the wait below drained its own
        // stall: then there is nothing left to defer, so it is demoted to a
        // fresh contributor.  (Without the demotion, a step where every
        // live rank straggles from a fresh state could never commit: the
        // drain loop decrements stall_left but capture flags never change.)
        auto any_contributor = [&] {
          bool any = false;
          for (Index r = 0; r < live_p; ++r) {
            const auto i = static_cast<std::size_t>(r);
            if (stall_left[i] != 0) continue;
            if (capture_now[i] != 0) capture_now[i] = 0;  // stall waited out
            any = true;
          }
          return any;
        };
        while (!any_contributor()) {
          result.modeled_stall_s += options.step_seconds;
          for (auto& s : stall_left) {
            if (s > 0) --s;
          }
        }
      }
      double wsum = 0.0;
      contributors = 0;
      for (Index r = 0; r < live_p; ++r) {
        const auto i = static_cast<std::size_t>(r);
        if (capture_now[i] != 0) {
          roles[i] = StepRole::StaleCapture;
        } else if (stall_left[i] > 0) {
          roles[i] = StepRole::Stalled;
        } else if (mode == MitigationMode::BoundedStaleness &&
                   stale_pending[i] != 0) {
          roles[i] = StepRole::StalePush;
          push_weight[i] = 1.0f / (1.0f + static_cast<float>(stale_age[i]));
        } else {
          roles[i] = StepRole::Fresh;
        }
        if (contributes(roles[i])) {
          ++contributors;
          wsum += static_cast<double>(push_weight[i]);
        }
      }
      CANDLE_CHECK(contributors >= 1, "mitigation left an empty quorum");
      divisor = static_cast<float>(wsum);
      // Corruption events targeting ranks that compute no fresh gradient
      // this step are consumed here (the thread-side poll only runs for
      // computing roles), so composed schedules stay truthful and the
      // injector drains.  A stale push is a live contribution: the
      // corruption lands on the pushed buffer and is detected collectively
      // after the reduce like any other.  A stalled rank has no gradient at
      // all this step, so its event is recorded as skipped.
      for (Index r = 0; r < live_p; ++r) {
        const auto i = static_cast<std::size_t>(r);
        if (computes(roles[i])) continue;
        if (auto ev =
                injector.poll(FaultKind::GradientCorruption, committed, r)) {
          if (roles[i] == StepRole::StalePush) {
            push_corrupt[i] = inject_corruption(
                *ev, r, " stale-push gradient entries corrupted");
          } else {
            ++result.corruptions_skipped;
            injector.record(committed, r, FaultKind::GradientCorruption,
                            "skipped",
                            "rank stalled this step; no gradient to corrupt");
          }
        }
      }
    }

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(live_p));
    for (Index r = 0; r < live_p; ++r) {
      threads.emplace_back([&, r] {
        const auto i = static_cast<std::size_t>(r);
        if (auto ev = injector.poll(FaultKind::ReplicaCrash, committed, r)) {
          outcome.crashed.fetch_add(1);
          injector.record(committed, r, FaultKind::ReplicaCrash, "injected",
                          ev->announce
                              ? "announced crash"
                              : "silent crash (left for timeout detection)");
          if (ev->announce) comm->mark_failed(r);
          return;  // the replica dies here, mid-step
        }
        if (mode == MitigationMode::None) {
          // Synchronous tolerance: the straggler really sleeps and every
          // other rank waits for it inside the collective.
          if (auto ev = injector.poll(FaultKind::Straggler, committed, r)) {
            none_delay[i] = ev->delay_s;
            injector.record(committed, r, FaultKind::Straggler, "injected",
                            "stalled " + std::to_string(ev->delay_s) + " s");
            std::this_thread::sleep_for(
                std::chrono::duration<double>(ev->delay_s));
          }
        }
        Model& m = replicas[i];
        auto& buf = grad_bufs[i];
        const StepRole role = roles[i];
        // Backward compute, all-reduce execution, and the part of it the
        // step waited on (busy == exposed unless buckets overlap backward).
        double bwd_s = 0.0, busy_s = 0.0, exposed_s = 0.0;
        if (computes(role)) {
          const Tensor& sx = step_batch.shards[i].x;
          const Tensor& sy = step_batch.shards[i].y;
          const Tensor pred = m.forward(sx, /*training=*/true);
          rank_loss[i] = loss.value(pred, sy);
          Tensor dy = loss.grad(pred, sy);
          if (t.precision.loss_scale != 1.0f) dy.scale(t.precision.loss_scale);
          if (!bucketed) {
            Stopwatch bwd_clock;
            m.backward(dy);
            m.copy_grads_to(buf);
            if (compress) sparsify(i, 0, buf);
            bwd_s = bwd_clock.seconds();
            if (auto ev = injector.poll(FaultKind::GradientCorruption,
                                        committed, r)) {
              std::fill_n(buf.begin(),
                          inject_corruption(*ev, r,
                                            " gradient entries corrupted"),
                          std::numeric_limits<float>::quiet_NaN());
            }
          } else {
            // Bucketed path (mode None only, so every live rank is here).
            // Buckets stream out as backward produces them; with
            // overlap_comm each reduction runs on the comm engine while
            // backward keeps computing.  A corruption event must land
            // BEFORE its bucket ships, so it is polled up front and
            // poisoned into each layer segment as the hook copies it out —
            // the same flat prefix [0, n) the monolithic path poisons.
            Index corrupt_n = 0;
            if (auto ev = injector.poll(FaultKind::GradientCorruption,
                                        committed, r)) {
              corrupt_n =
                  inject_corruption(*ev, r, " gradient entries corrupted");
            }
            BucketAssembler assembler(plan);
            std::vector<PendingCollective> handles(
                static_cast<std::size_t>(plan.num_buckets()));
            double hook_comm_s = 0.0;
            try {
              Stopwatch bwd_clock;
              m.backward(dy, [&](Index layer) {
                const auto& e = extents[static_cast<std::size_t>(layer)];
                if (e.numel > 0) {
                  m.copy_layer_grads_to(
                      layer,
                      std::span<float>(buf.data() + e.offset,
                                       static_cast<std::size_t>(e.numel)));
                  for (Index j = e.offset;
                       j < std::min(e.offset + e.numel, corrupt_n); ++j) {
                    buf[static_cast<std::size_t>(j)] =
                        std::numeric_limits<float>::quiet_NaN();
                  }
                }
                const Index bk = assembler.mark_ready(layer);
                if (bk < 0) return;
                const GradBucket& gb =
                    plan.buckets[static_cast<std::size_t>(bk)];
                const std::span<float> window(
                    buf.data() + gb.offset, static_cast<std::size_t>(gb.numel));
                if (compress) sparsify(i, static_cast<std::size_t>(bk), window);
                if (t.overlap_comm) {
                  handles[static_cast<std::size_t>(bk)] =
                      comm->allreduce_ring_start(r, window, gb.offset,
                                                 grad_size);
                } else {
                  Stopwatch comm_clock;
                  comm->allreduce_ring(r, window, gb.offset, grad_size);
                  hook_comm_s += comm_clock.seconds();
                }
              });
              bwd_s = bwd_clock.seconds() - hook_comm_s;
              busy_s = exposed_s = hook_comm_s;
              if (t.overlap_comm) {
                Stopwatch wait_clock;
                for (auto& h : handles) h.wait();
                exposed_s = wait_clock.seconds();
                for (auto& h : handles) busy_s += h.busy_seconds();
              }
            } catch (const RankFailure&) {
              outcome.collective_failed.store(true);
              return;  // recovery happens on the main thread, as monolithic
            }
          }
        }
        if (role == StepRole::StaleCapture) {
          // Save this step's gradient for the staleness-weighted push on
          // rejoin; this step's quorum commits without it.  A corruption
          // injected into the capture rides along and is detected
          // collectively at push time by the post-reduce finiteness check.
          stale_grad[i] = buf;
        } else if (role == StepRole::StalePush) {
          const float w = push_weight[i];
          const auto& saved = stale_grad[i];
          for (std::size_t j = 0; j < buf.size(); ++j) buf[j] = saved[j] * w;
          std::fill_n(buf.begin(), push_corrupt[i],
                      std::numeric_limits<float>::quiet_NaN());
        }
        if (!bucketed) {  // the bucketed path already reduced every window
          try {
            Stopwatch comm_clock;
            if (mode == MitigationMode::None) {
              comm->allreduce_ring(r, buf);
            } else {
              comm->allreduce_quorum(r, buf, contributes(role));
            }
            busy_s = exposed_s = comm_clock.seconds();
          } catch (const RankFailure&) {
            outcome.collective_failed.store(true);
            return;  // unwound cleanly; recovery happens on the main thread
          }
        }
        if (r == 0) {
          backward_acc += bwd_s;
          busy_acc += busy_s;
          exposed_acc += exposed_s;
        }
        // The reduced vector is identical on every rank, so the finiteness
        // gate is collective: either all live ranks commit or none do.  It
        // rides the scaling pass, so a clean step reads the gradient once.
        const float scale = 1.0f / (divisor * t.precision.loss_scale);
        // |v| <= max is isfinite(v), spelled with an int accumulator so the
        // fused loop vectorizes.
        int finite = 1;
        for (float& v : buf) {
          finite &= static_cast<int>(std::fabs(v) <=
                                     std::numeric_limits<float>::max());
          v *= scale;
        }
        if (finite == 0) {
          outcome.corrupt.store(true);
          return;
        }
        // Every live rank — contributing or not — applies the identical
        // committed update, which is what keeps the fleet bit-synchronized.
        m.set_grads_from(buf);
        const auto ps = m.params();
        const auto gs = m.grads();
        optimizers[i]->step(ps, gs);
      });
    }
    for (auto& th : threads) th.join();
    // Hand the slot back before any recovery path runs: a seek() during
    // recovery requires no batch to be held.
    reader->release();
    if (mode == MitigationMode::None) {
      double worst = 0.0;
      for (Index r = 0; r < live_p; ++r) {
        const double d = none_delay[static_cast<std::size_t>(r)];
        if (d > 0.0) {
          ++result.stragglers;
          result.straggler_delay_s += d;
          result.rank_stall_s[static_cast<std::size_t>(r)] += d;
          worst = std::max(worst, d);
        }
      }
      // Synchronous tolerance: the whole fleet waits out the slowest rank.
      result.modeled_stall_s += worst;
    }

    const bool rank_died = outcome.crashed.load() > 0 ||
                           outcome.collective_failed.load() ||
                           comm->has_failures();
    if (rank_died) {
      result.crashes += outcome.crashed.load();
      ++recoveries;
      corruption_injected.store(false);
      const std::vector<Index> alive = comm->alive_ranks();
      {
        std::string dead;
        for (Index r : comm->failed_ranks()) {
          dead += ' ';
          dead += std::to_string(r);
        }
        injector.record(committed, -1, FaultKind::ReplicaCrash, "detected",
                        dead.empty() ? "replica death (no survivors to attribute)"
                                     : "dead ranks:" + dead);
      }
      const bool can_shrink = options.policy == RecoveryPolicy::Shrink &&
                              static_cast<Index>(alive.size()) < live_p &&
                              !alive.empty();
      if (can_shrink) {
        // Elastic continue on the survivors: they all hold the weights of
        // the last committed step (the failed collective never completed,
        // so nobody applied an update), which keeps them consistent.
        ShmCommunicator::Shrunk shrunk = comm->shrink();
        std::vector<Model> kept;
        std::vector<std::unique_ptr<Optimizer>> kept_opt;
        for (Index old : shrunk.old_rank) {
          kept.push_back(std::move(replicas[static_cast<std::size_t>(old)]));
          kept_opt.push_back(
              std::move(optimizers[static_cast<std::size_t>(old)]));
        }
        replicas = std::move(kept);
        optimizers = std::move(kept_opt);
        live_p = shrunk.comm->ranks();
        comm = std::move(shrunk.comm);
        ++result.shrinks;
        reset_mitigation_state();  // survivor ranks are renumbered
        // The batch stream re-shards at the new width from here on.
        iter_seed = t.seed ^ (0x51AB0000ULL +
                              static_cast<std::uint64_t>(result.shrinks));
        iter_base = committed;
        reset_stream();
        injector.record(committed, -1, FaultKind::ReplicaCrash, "recovered",
                        "elastic shrink to " + std::to_string(live_p) +
                            " replicas");
        // Post-recovery checkpoint so later rollbacks stay within the
        // current stream epoch.
        write_checkpoint();
        next_ckpt = committed + k;
      } else {
        comm = fresh_comm();
        restore_checkpoint(FaultKind::ReplicaCrash);
      }
      continue;
    }
    if (outcome.corrupt.load()) {
      if (!corruption_injected.load()) {
        throw Error("training diverged at step " + std::to_string(committed) +
                    ": non-finite reduced gradient with no injected "
                    "corruption since the last recovery");
      }
      ++result.corruptions;
      ++recoveries;
      corruption_injected.store(false);
      injector.record(committed, -1, FaultKind::GradientCorruption,
                      "detected", "non-finite gradient after all-reduce");
      restore_checkpoint(FaultKind::GradientCorruption);
      continue;
    }

    // Commit: deterministic reduction, in rank order, of the losses of the
    // ranks that actually computed this step (all of them in None mode).
    double lsum = 0.0;
    Index lcount = 0;
    for (Index r = 0; r < live_p; ++r) {
      const auto i = static_cast<std::size_t>(r);
      if (computes(roles[i])) {
        lsum += static_cast<double>(rank_loss[i]);
        ++lcount;
      }
    }
    const float mean_loss =
        lcount > 0 ? static_cast<float>(lsum / static_cast<double>(lcount))
                   : last_step_loss;
    last_step_loss = mean_loss;
    step_loss.push_back(mean_loss);

    // Wire time of the committed gradient collective, priced at the quorum
    // size (partial collectives are cheaper than full-width ones).
    result.modeled_comm_s +=
        modeled_allreduce_seconds(options.fabric, options.allreduce_algo,
                                  contributors, result.grad_bytes_per_step);
    if (contributors < live_p) ++result.quorum_commits;

    if (mode == MitigationMode::Backup) {
      for (Index r = 0; r < live_p; ++r) {
        if (roles[static_cast<std::size_t>(r)] == StepRole::Stalled) {
          ++result.late_discards;  // its gradient for this step arrives late
        }
      }
    } else if (mode == MitigationMode::BoundedStaleness) {
      for (Index r = 0; r < live_p; ++r) {
        const auto i = static_cast<std::size_t>(r);
        if (roles[i] == StepRole::StalePush) {
          staleness.record(stale_age[i]);
          ++result.stale_applied;
          stale_pending[i] = 0;
          stale_age[i] = 0;
          stale_grad[i].clear();
        } else if (roles[i] == StepRole::StaleCapture) {
          stale_pending[i] = 1;
          stale_age[i] = 1;  // this commit already passed the capture by
        } else if (stale_pending[i] != 0) {
          ++stale_age[i];
        }
      }
    }
    if (mode != MitigationMode::None) {
      // One committed step of global time drains one step of every stall.
      for (auto& s : stall_left) {
        if (s > 0) --s;
      }
    }
    ++committed;
  }
  result.measured_seconds = clock.seconds();
  result.steps = committed;
  result.committed_steps = committed;
  result.final_replicas = live_p;
  result.mean_staleness = staleness.mean();
  result.max_staleness = staleness.max_staleness();

  // Per-epoch means over the committed step losses.
  for (Index e = 0; e < t.epochs; ++e) {
    double sum = 0.0;
    for (Index s = e * steps_per_epoch; s < (e + 1) * steps_per_epoch; ++s) {
      sum += static_cast<double>(step_loss[static_cast<std::size_t>(s)]);
    }
    result.epoch_loss.push_back(
        static_cast<float>(sum / static_cast<double>(steps_per_epoch)));
  }

  // Measured per-step means over every executed attempt.
  ingest_busy_acc += reader->assemble_busy_s();
  ingest_exposed_acc += reader->exposed_wait_s();
  const double attempts = static_cast<double>(result.executed_steps);
  result.measured_backward_s = backward_acc / attempts;
  result.measured_comm_busy_s = busy_acc / attempts;
  result.measured_exposed_comm_s = exposed_acc / attempts;
  result.measured_overlap_fraction =
      busy_acc > 0.0 ? std::clamp(1.0 - exposed_acc / busy_acc, 0.0, 1.0)
                     : 0.0;
  result.measured_ingest_busy_s = ingest_busy_acc / attempts;
  result.measured_exposed_ingest_s = ingest_exposed_acc / attempts;
  result.measured_ingest_overlap_fraction =
      ingest_busy_acc > 0.0
          ? std::clamp(1.0 - ingest_exposed_acc / ingest_busy_acc, 0.0, 1.0)
          : 0.0;

  // Modeled accounting at nominal costs, against the analytic closed form.
  const double work_s = static_cast<double>(planned) * options.step_seconds;
  const double ckpt_s = hpcsim::checkpoint_cost_s(options.resilience);
  result.modeled_ideal_s = work_s;
  result.modeled_actual_s =
      static_cast<double>(result.executed_steps) * options.step_seconds +
      static_cast<double>(result.checkpoints_written +
                          result.checkpoint_failures +
                          result.checkpoint_retries) *
          ckpt_s +
      static_cast<double>(result.restarts + result.shrinks) *
          options.resilience.restart_overhead_s;
  result.analytic_expected_s = hpcsim::expected_runtime_s(
      options.resilience, work_s, static_cast<double>(k) * options.step_seconds);
  result.analytic_overhead_factor = result.analytic_expected_s / work_s;

  result.log = injector.log();

  if (out_model != nullptr) {
    *out_model = factory();
    std::vector<float> weights(
        static_cast<std::size_t>(replicas[0].num_params()));
    replicas[0].copy_weights_to(weights);
    out_model->set_weights_from(weights);
  }
  return result;
}

}  // namespace

const char* mitigation_mode_name(MitigationMode mode) {
  switch (mode) {
    case MitigationMode::None:             return "none";
    case MitigationMode::Backup:           return "backup";
    case MitigationMode::BoundedStaleness: return "stale";
  }
  return "unknown";
}

DataParallelResult train_data_parallel(const ModelFactory& factory,
                                       const OptimizerFactory& opt_factory,
                                       const Dataset& train, const Loss& loss,
                                       const DataParallelOptions& options,
                                       Model* out_model) {
  // The plain entry point: no faults, no checkpoint file, and the
  // communicator's default suspicion window.
  ResilientOptions plain;
  plain.train = options;
  return run_step_loop(factory, opt_factory, train, loss, plain, std::nullopt,
                       out_model);
}

ResilientResult train_resilient(const ModelFactory& factory,
                                const OptimizerFactory& opt_factory,
                                const Dataset& train, const Loss& loss,
                                const ResilientOptions& options,
                                Model* out_model) {
  CANDLE_CHECK(!options.checkpoint_path.empty(),
               "resilient training needs a checkpoint path");
  // Bit-exact restore requires every piece of training state to live in the
  // checkpoint; two features keep state elsewhere and are rejected here.
  CANDLE_CHECK(options.train.gradient_topk_fraction == 1.0,
               "resilient trainer requires dense gradients: the top-k "
               "error-feedback residual is per-replica state that "
               "checkpoints do not capture");
  CANDLE_CHECK(!options.train.precision.stochastic_weight_rounding,
               "stochastic-rounding RNG stream is not checkpointed");
  return run_step_loop(factory, opt_factory, train, loss, options,
                       options.collective_timeout, out_model);
}

}  // namespace candle::parallel

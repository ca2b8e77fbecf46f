// MLPerf-HPC-style benchmark suite: every experiment family adapted onto
// the bench::Registry interface and run by one driver under a common metric
// discipline — N seeded repeats, run-to-run variance, model-pin ratios
// against the hpcsim estimators, honesty flags on core-starved hosts, and
// one consolidated BENCH_suite.ci.json artifact the CI regression gate
// (--baseline=PATH) compares across commits.
//
// Registered benchmarks (see DESIGN.md "Benchmark suite"):
//   tta_blob_classifier    time-to-accuracy of the serial trainer (primary
//                          MLPerf-HPC metric: wall seconds to target quality)
//   kernels_gemm           parallel GEMM throughput (machine calibration)
//   scaling_strong_anchor  measured single-node step anchoring the modeled
//                          strong/weak sweeps (bench_e3's loop, unified)
//   serving_capacity       dynamic-batching goodput at saturation, pinned
//                          against estimate_serving (bench_e11's loop)
//   serving_continuous     continuous batching vs coalescing: low-load p99
//                          (gated >=30% below coalescing on capable hosts)
//                          and saturated goodput pinned against
//                          estimate_serving_continuous
//   ingest_prefetch        prefetch-pipeline step time vs the drain law
//                          (bench_e13's loop)
//   resilience_overhead    resilient trainer's modeled overhead factor vs
//                          the Young/Daly closed form (bench_e10's loop)
//   chaos_capacity_model   simulated degraded serving capacity vs the
//                          renewal closed form (bench_e12's modeled loop)
//
// Flags (see bench::suite_main): --smoke --seeds=N --seed=S --filter=SUBSTR
// --json=PATH --baseline=PATH --selfcheck.  Exit codes: 0 ok, 1 regression
// or self-check failure, 2 usage error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/registry.hpp"
#include "bench/stats.hpp"
#include "bench/suite.hpp"
#include "biodata/workloads.hpp"
#include "core/kernels.hpp"
#include "hpcsim/machine.hpp"
#include "hpcsim/perfmodel.hpp"
#include "hpcsim/resilience.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/model.hpp"
#include "nn/trainer.hpp"
#include "parallel/data_parallel.hpp"
#include "parallel/resilient.hpp"
#include "parallel/workload.hpp"
#include "runtime/fault.hpp"
#include "runtime/rng.hpp"
#include "runtime/timer.hpp"
#include "serve/supervisor.hpp"
#include "serving_fixture.hpp"

namespace {

using namespace candle;

unsigned host_cores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

Dataset blob_dataset(Index n, Index features, std::uint64_t seed) {
  Pcg32 rng(seed);
  Dataset d{Tensor({n, features}), Tensor({n})};
  for (Index i = 0; i < n; ++i) {
    const float cls = static_cast<float>(i % 2);
    d.y[i] = cls;
    for (Index j = 0; j < features; ++j) {
      d.x.at(i, j) = static_cast<float>(rng.normal(cls * 2.0 - 1.0, 0.9));
    }
  }
  return d;
}

// ---- tta_blob_classifier ----------------------------------------------------
// The MLPerf-HPC primary metric: wall-clock seconds of training until the
// model first reaches the target quality on a held-out set.  The task is
// fixed across repeats; the seed drives the weight init and the shuffle
// stream, so the repeats measure genuine run-to-run TTA variance.

Dataset tta_dataset(Index n, Index features, std::uint64_t seed) {
  // Weak separation on purpose (±0.4 means, unit noise): the target quality
  // sits near the Bayes rate, so reaching it takes several epochs and the
  // metric measures training progress rather than a single pass.
  Pcg32 rng(seed);
  Dataset d{Tensor({n, features}), Tensor({n})};
  for (Index i = 0; i < n; ++i) {
    const float cls = static_cast<float>(i % 2);
    d.y[i] = cls;
    for (Index j = 0; j < features; ++j) {
      d.x.at(i, j) = static_cast<float>(rng.normal(cls * 0.8 - 0.4, 1.0));
    }
  }
  return d;
}

bench::RunResult run_tta(const bench::RunContext& ctx) {
  constexpr Index kFeatures = 16;
  constexpr double kTargetAccuracy = 0.92;
  const Dataset train = tta_dataset(512, kFeatures, 1201);
  const Dataset test = tta_dataset(256, kFeatures, 1202);

  Model m;
  m.add(make_dense(32)).add(make_relu()).add(make_dense(2));
  m.build({kFeatures}, ctx.seed * 2 + 1);
  SoftmaxCrossEntropy xent;
  Adam opt(2e-3f);

  bench::RunResult r;
  double tta_s = 0.0;
  double last_acc = 0.0;
  bool reached = false;
  Index epochs_used = 0;
  Stopwatch sw;
  FitOptions fo;
  fo.epochs = ctx.smoke ? 15 : 50;
  fo.batch_size = 32;
  fo.seed = ctx.seed;
  fo.on_epoch = [&](Index epoch, float, float) {
    last_acc = accuracy(m.predict(test.x), test.y);
    epochs_used = epoch + 1;
    if (last_acc >= kTargetAccuracy) {
      tta_s = sw.seconds();
      reached = true;
      return false;
    }
    return true;
  };
  fit(m, train, nullptr, xent, opt, fo);
  if (!reached) tta_s = sw.seconds();  // budget exhausted: full wall charged

  r.metric = tta_s;
  r.aux["reached_target"] = reached ? 1.0 : 0.0;
  r.aux["final_accuracy"] = last_acc;
  r.aux["epochs_to_target"] = static_cast<double>(epochs_used);
  if (!reached) {
    r.perf_gate_active = false;
    r.honesty_note = "target accuracy not reached within the epoch budget";
  }
  return r;
}

// ---- kernels_gemm -----------------------------------------------------------
// Parallel GEMM throughput at a fixed square shape: the machine-calibration
// number every roofline projection in the suite ultimately rests on.

bench::RunResult run_kernels_gemm(const bench::RunContext& ctx) {
  const Index n = ctx.smoke ? 192 : 384;
  Tensor a({n, n}), b({n, n}), c({n, n});
  Pcg32 rng(ctx.seed);
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = static_cast<float>(rng.normal());
  const auto once = [&] {
    gemm(Op::None, Op::None, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
         c.data(), n);
  };
  once();  // warm-up (thread pool + workspace arenas)
  int iters = 1;
  double best = 1e30;
  for (;;) {
    Stopwatch sw;
    for (int i = 0; i < iters; ++i) once();
    const double t = sw.seconds();
    if (t >= 0.01 || iters >= (1 << 20)) {
      best = t / iters;
      for (int rep = 0; rep < 2; ++rep) {
        Stopwatch sw2;
        for (int i = 0; i < iters; ++i) once();
        best = std::min(best, sw2.seconds() / iters);
      }
      break;
    }
    iters *= 2;
  }
  bench::RunResult r;
  r.metric = 2.0 * static_cast<double>(n) * n * n / best * 1e-9;
  r.aux["n"] = static_cast<double>(n);
  return r;
}

// ---- scaling_strong_anchor --------------------------------------------------
// The MLPerf-HPC scaling discipline: one measured single-node data-parallel
// step anchors the hpcsim strong/weak sweeps, so the multi-node numbers are
// projections of a real wall-clock measurement rather than free-floating
// model output.  The metric is the anchored strong-scaling throughput at
// the sweep's top node count.

bench::RunResult run_scaling_anchor(const bench::RunContext& ctx) {
  biodata::DrugResponseConfig cfg;
  cfg.samples = 256;
  cfg.seed = 301;
  const Dataset data = biodata::make_drug_response(cfg);
  const auto factory = [&] {
    Model m;
    m.add(make_dense(64)).add(make_relu());
    m.add(make_dense(32)).add(make_relu());
    m.add(make_dense(1));
    m.build({cfg.features()}, 3131);
    return m;
  };

  parallel::DataParallelOptions opts;
  opts.replicas = 1;
  opts.batch_per_replica = 32;
  opts.epochs = ctx.smoke ? 1 : 2;
  opts.seed = ctx.seed;
  Model trained;
  const parallel::DataParallelResult res = parallel::train_data_parallel(
      factory, [] { return make_sgd(0.05f); }, data, MeanSquaredError(), opts,
      &trained);
  const double measured_step_s =
      res.measured_seconds / static_cast<double>(std::max<Index>(1, res.steps));

  const hpcsim::TrainingWorkload w =
      parallel::workload_from_model(trained, "suite-anchor");
  const auto node = hpcsim::summit_node();
  const auto fabric = hpcsim::fat_tree_fabric();
  const std::vector<hpcsim::Index> counts = {1, 2, 4, 8, 16, 32};
  const hpcsim::AnchoredScaling strong = hpcsim::anchored_strong_scaling(
      node, fabric, w, /*global_batch=*/32, counts, measured_step_s);
  const hpcsim::AnchoredScaling weak = hpcsim::anchored_weak_scaling(
      node, fabric, w, /*batch_per_replica=*/32, counts, measured_step_s);

  bench::RunResult r;
  r.metric = strong.points.back().samples_per_s;
  r.aux["measured_step_s"] = measured_step_s;
  r.aux["anchor_ratio"] = strong.anchor_ratio;
  r.aux["strong_efficiency_top"] = strong.points.back().efficiency;
  r.aux["strong_comm_fraction_top"] = strong.points.back().comm_fraction;
  r.aux["weak_efficiency_top"] = weak.points.back().efficiency;
  return r;
}

// ---- serving_capacity -------------------------------------------------------
// bench_e11's calibrate-then-saturate loop: measure the full-batch service
// time at deployment concurrency, derive the modeled capacity, then drive
// the real engine past saturation and report delivered goodput.  The pin is
// goodput / modeled capacity (~1 when estimate_serving holds).

bench::RunResult run_serving_capacity(const bench::RunContext& ctx) {
  constexpr Index kInputF = 256;
  constexpr Index kWorkers = 2;
  Model m;
  m.add(make_dense(512)).add(make_relu());
  m.add(make_dense(256)).add(make_relu());
  m.add(make_dense(32));
  m.build({kInputF}, 17);

  serve::BatchPolicy policy;
  policy.max_batch = 16;
  policy.max_wait_s = 1e-3;
  policy.queue_capacity = 128;

  // Median full-batch plan run at deployment concurrency (contention is part
  // of the service time).
  const double service_s = bench::measure_batch_service_s(
      m, policy.max_batch, kWorkers, ctx.smoke ? 3 : 5);

  hpcsim::ServingPlan plan;
  plan.workers = kWorkers;
  plan.max_batch = policy.max_batch;
  plan.batch_timeout_s = policy.max_wait_s;
  plan.queue_capacity = policy.queue_capacity;
  plan.measured_batch_service_s = service_s;
  const hpcsim::TrainingWorkload unused_workload;
  const double capacity_rps =
      hpcsim::estimate_serving(hpcsim::summit_node(), unused_workload, plan,
                               0.0)
          .capacity_rps;

  // Saturated open-loop replay: offered 1.3x capacity, seeded arrivals.
  const double duration_s = ctx.smoke ? 0.15 : 0.35;
  const serve::ArrivalTrace trace =
      serve::poisson_trace(1.3 * capacity_rps, duration_s, ctx.seed);
  std::vector<float> input(static_cast<std::size_t>(kInputF));
  Pcg32 irng(3);
  for (float& v : input) v = static_cast<float>(irng.normal());

  serve::SupervisedOptions eopt;
  eopt.workers = kWorkers;
  eopt.batch = policy;
  serve::SupervisedEngine engine(m, eopt);
  const std::vector<double> latencies =
      bench::replay_open_loop(engine, trace, input, 50e-3);

  bench::RunResult r;
  r.metric = static_cast<double>(latencies.size()) / trace.duration_s;
  r.model_pin_ratio = capacity_rps > 0.0 ? r.metric / capacity_rps : 0.0;
  r.aux["batch_service_s"] = service_s;
  r.aux["modeled_capacity_rps"] = capacity_rps;
  r.aux["offered_rps"] = trace.offered_rps();
  r.aux["p99_ms"] = bench::nearest_rank(latencies, 0.99) * 1e3;
  if (host_cores() < kWorkers + 1) {
    r.perf_gate_active = false;
    r.honesty_note = "host has fewer cores than engine workers + producer";
  }
  return r;
}

// ---- serving_continuous -----------------------------------------------------
// The same deployment under continuous vs coalescing admission.  At low
// load (0.2x capacity) continuous batching has no fill window to sit out,
// so its p99 must come in at least 30% below coalescing — a hard
// CANDLE_CHECK gate on hosts with enough cores, honesty-flagged where
// contention would make the comparison dishonest.  At saturation the two
// admission rules share capacity; the pin is continuous goodput /
// estimate_serving_continuous capacity.

bench::RunResult run_serving_continuous(const bench::RunContext& ctx) {
  constexpr Index kInputF = 256;
  constexpr Index kWorkers = 2;
  // Wider than serving_capacity's model on purpose: a ~0.5ms batch service
  // keeps the p99 comparison far above clock / scheduler noise, so the 30%
  // gate measures the scheduler, not the timer.
  Model m;
  m.add(make_dense(1024)).add(make_relu());
  m.add(make_dense(512)).add(make_relu());
  m.add(make_dense(32));
  m.build({kInputF}, 17);

  serve::BatchPolicy policy;
  policy.max_batch = 16;
  policy.max_wait_s = 2e-3;  // the fill window coalescing pays at low load
  policy.queue_capacity = 128;

  // Median full-batch plan run at deployment concurrency, as in
  // serving_capacity: contention is part of the service time.
  const double service_s = bench::measure_batch_service_s(
      m, policy.max_batch, kWorkers, ctx.smoke ? 3 : 5);

  hpcsim::ServingPlan plan;
  plan.workers = kWorkers;
  plan.max_batch = policy.max_batch;
  plan.batch_timeout_s = policy.max_wait_s;
  plan.queue_capacity = policy.queue_capacity;
  plan.measured_batch_service_s = service_s;
  const hpcsim::TrainingWorkload unused_workload;
  const auto node = hpcsim::summit_node();
  const double capacity_rps =
      hpcsim::estimate_serving_continuous(node, unused_workload, plan, 0.0)
          .capacity_rps;

  // --- low-load p99: identical seeded trace at 0.2x capacity under both
  // admission rules, unbounded deadlines (latency is the observable, not
  // shed).  p99 is the nearest rank of the raw per-request latencies: the
  // engine histogram's ~10% buckets would move the ratio across the gate.
  const double low_rps = 0.2 * capacity_rps;
  const double low_duration_s = ctx.smoke ? 0.15 : 0.3;
  const serve::ArrivalTrace low_trace =
      serve::poisson_trace(low_rps, low_duration_s, ctx.seed);
  std::vector<float> input(static_cast<std::size_t>(kInputF));
  Pcg32 irng(3);
  for (float& v : input) v = static_cast<float>(irng.normal());

  struct Replay {
    std::vector<double> latencies;
    serve::EngineStats stats;
  };
  const auto replay = [&](const serve::ArrivalTrace& trace, bool continuous,
                          double deadline_s) {
    serve::SupervisedOptions eopt;
    eopt.workers = kWorkers;
    eopt.batch = policy;
    eopt.batch.continuous = continuous;
    eopt.calibration_probe = true;
    serve::SupervisedEngine engine(m, eopt);
    Replay out;
    out.latencies = bench::replay_open_loop(engine, trace, input, deadline_s);
    out.stats = engine.stats();
    return out;
  };
  const double kNoDeadline = std::numeric_limits<double>::infinity();
  const Replay coal = replay(low_trace, false, kNoDeadline);
  const Replay cont = replay(low_trace, true, kNoDeadline);
  const double p99_coal_ms = bench::nearest_rank(coal.latencies, 0.99) * 1e3;
  const double p99_cont_ms = bench::nearest_rank(cont.latencies, 0.99) * 1e3;

  // --- saturation: continuous goodput at 1.3x capacity with tight
  // deadlines, the same protocol serving_capacity runs for coalescing.
  const double sat_duration_s = ctx.smoke ? 0.15 : 0.3;
  const serve::ArrivalTrace sat_trace =
      serve::poisson_trace(1.3 * capacity_rps, sat_duration_s, ctx.seed + 1);
  const serve::EngineStats sat = replay(sat_trace, true, 50e-3).stats;
  const double goodput_rps =
      static_cast<double>(sat.completed) / sat_trace.duration_s;

  bench::RunResult r;
  r.metric = p99_cont_ms;
  r.model_pin_ratio = capacity_rps > 0.0 ? goodput_rps / capacity_rps : 0.0;
  r.aux["p99_coalescing_ms"] = p99_coal_ms;
  r.aux["p99_continuous_ms"] = p99_cont_ms;
  r.aux["p99_ratio"] = p99_coal_ms > 0.0 ? p99_cont_ms / p99_coal_ms : 0.0;
  r.aux["batch_service_s"] = service_s;
  r.aux["modeled_capacity_rps"] = capacity_rps;
  r.aux["low_offered_rps"] = low_trace.offered_rps();
  r.aux["saturated_goodput_rps"] = goodput_rps;
  r.aux["mean_iteration_rows"] = sat.mean_batch_rows();
  if (host_cores() < kWorkers + 1) {
    r.perf_gate_active = false;
    r.honesty_note = "host has fewer cores than engine workers + producer";
  } else {
    // The acceptance gate: at 0.2x capacity, cutting the fill window must
    // show up as >=30% lower tail latency, with wide margin expected (the
    // coalescing tail sits out most of max_wait_s; continuous admits on the
    // next free slot).
    CANDLE_CHECK(p99_cont_ms <= 0.70 * p99_coal_ms,
                 "continuous p99 not >=30% below coalescing at low load");
  }
  return r;
}

// ---- ingest_prefetch --------------------------------------------------------
// bench_e13's loop: synchronous batch assembly calibrates the drain law,
// the depth-2 prefetch run is the metric, and the pin is the drain-law
// projection over the measured step.

bench::RunResult run_ingest_prefetch(const bench::RunContext& ctx) {
  constexpr Index kFeatures = 64;
  constexpr Index kReplicas = 2;
  constexpr Index kBatchPerReplica = 16;
  constexpr Index kSamples = 128;  // global batch 32 -> 4 steps/epoch
  constexpr double kFetchCostS = 100e-6;
  const Dataset d = blob_dataset(kSamples, kFeatures, 90);
  const Index epochs = ctx.smoke ? 2 : 3;
  const Index steps = epochs * (kSamples / (kReplicas * kBatchPerReplica));
  SoftmaxCrossEntropy xent;

  const auto run_config = [&](Index depth, Index threads) {
    parallel::DataParallelOptions o;
    o.replicas = kReplicas;
    o.epochs = epochs;
    o.batch_per_replica = kBatchPerReplica;
    o.seed = ctx.seed;
    o.ingest.enabled = true;
    o.ingest.prefetch_depth = depth;
    o.ingest.fetch_threads = threads;
    o.ingest.synthetic_fetch_cost_s = kFetchCostS;
    o.ingest.store_byte_budget = 1;  // defeat the cache: generation-bound
    return parallel::train_data_parallel(
        [] {
          Model m;
          m.add(make_dense(128)).add(make_relu()).add(make_dense(2));
          m.build({kFeatures}, 92);
          return m;
        },
        [] { return make_adam(5e-3f); }, d, xent, o);
  };

  const parallel::DataParallelResult sync = run_config(1, 0);
  const parallel::DataParallelResult pre = run_config(2, 1);
  const double sync_step_s =
      sync.measured_seconds / static_cast<double>(sync.steps);
  const double pre_step_s =
      pre.measured_seconds / static_cast<double>(pre.steps);
  const double assemble_s = sync.measured_ingest_busy_s;
  const double compute_s = std::max(1e-9, sync_step_s - assemble_s);
  const double modeled_step_s =
      compute_s +
      hpcsim::ingest_exposed_s_per_step(assemble_s, compute_s, 2, steps);

  bench::RunResult r;
  r.metric = pre_step_s;
  r.model_pin_ratio = modeled_step_s / pre_step_s;
  r.aux["sync_step_s"] = sync_step_s;
  r.aux["assemble_s_per_step"] = assemble_s;
  r.aux["step_cut_fraction"] = 1.0 - pre_step_s / sync_step_s;
  r.aux["overlap_fraction"] = pre.measured_ingest_overlap_fraction;
  if (host_cores() < static_cast<unsigned>(kReplicas + 2)) {
    r.perf_gate_active = false;
    r.honesty_note =
        "host has fewer cores than replicas + producer + fetcher";
  }
  return r;
}

// ---- resilience_overhead ----------------------------------------------------
// bench_e10's measured loop at suite scale: the resilient trainer under a
// seeded crash schedule, modeled-accounting overhead factor against the
// Young/Daly prediction for the same failure intensity.  Deterministic per
// seed (the accounting runs at nominal costs), so the variance across the
// seeded repeats is the schedule-to-schedule spread, not timer noise.

bench::RunResult run_resilience_overhead(const bench::RunContext& ctx) {
  const Dataset d = blob_dataset(256, 6, 91);
  const Index epochs = ctx.smoke ? 13 : 25;
  const Index steps = epochs * 4;  // 256 / (4 * 16) = 4 steps/epoch
  const Index crashes = ctx.smoke ? 4 : 8;

  parallel::ResilientOptions o;
  o.train.replicas = 4;
  o.train.batch_per_replica = 16;
  o.train.epochs = epochs;
  o.train.seed = 92;
  o.checkpoint_every_steps = 10;
  o.checkpoint_path =
      "/tmp/candle_bench_suite_resilience_" + std::to_string(ctx.seed) + ".bin";
  o.step_seconds = 1.0;
  o.resilience.nodes = 3600;  // job MTBF in seconds == node MTBF in hours
  o.resilience.checkpoint_state_gb = 100.0;
  o.resilience.checkpoint_bandwidth_gbs = 50.0;
  o.resilience.restart_overhead_s = 3.0;
  o.resilience.node_mtbf_hours =
      1.2 * static_cast<double>(steps) / static_cast<double>(crashes);
  o.max_recoveries = 2 * crashes + 8;
  o.faults = runtime::random_fault_schedule(ctx.seed, steps, 4, crashes);

  const parallel::ResilientResult res = parallel::train_resilient(
      [] {
        Model m;
        m.add(make_dense(12)).add(make_relu()).add(make_dense(2));
        m.build({6}, 93);
        return m;
      },
      [] { return make_adam(5e-3f); }, d, SoftmaxCrossEntropy(), o);
  std::filesystem::remove(o.checkpoint_path);
  std::filesystem::remove(o.checkpoint_path + ".tmp");

  bench::RunResult r;
  r.metric = res.overhead_factor();
  r.model_pin_ratio = res.analytic_overhead_factor > 0.0
                          ? res.overhead_factor() / res.analytic_overhead_factor
                          : 0.0;
  r.aux["crashes"] = static_cast<double>(res.crashes);
  r.aux["restarts"] = static_cast<double>(res.restarts);
  r.aux["planned_steps"] = static_cast<double>(res.planned_steps);
  return r;
}

// ---- chaos_capacity_model ---------------------------------------------------
// bench_e12's modeled loop: the seeded renewal simulation of a degraded
// serving pool (one worker dead, crashes + hangs + hedging on the
// survivors) against the closed-form delivered capacity.  Pure simulation:
// host-independent, deterministic per seed, always gate-active.

bench::RunResult run_chaos_capacity(const bench::RunContext& ctx) {
  hpcsim::ServingFaultModel m;
  m.workers = 4;
  m.worker_mtbf_s = 50.0;
  m.worker_mttr_s = 0.5;
  m.batch_service_s = 1e-3;
  m.hang_prob = 0.05;
  m.hang_mean_s = 0.02;
  m.hedging = true;
  const hpcsim::Index failed = 1;
  const double duration_s = ctx.smoke ? 2.0 : 5.0;
  const hpcsim::Index trials = ctx.smoke ? 30 : 100;

  const double simulated = hpcsim::simulate_serving_capacity_bps(
      m, failed, duration_s, trials, ctx.seed);
  const double analytic = hpcsim::degraded_serving_capacity_bps(m, failed);

  bench::RunResult r;
  r.metric = simulated;
  r.model_pin_ratio = analytic > 0.0 ? simulated / analytic : 0.0;
  r.aux["analytic_capacity_bps"] = analytic;
  r.aux["availability"] = hpcsim::serving_availability(m);
  r.aux["efficiency"] = hpcsim::serving_efficiency(m);
  return r;
}

bench::Registry build_registry() {
  bench::Registry reg;
  reg.add(bench::make_benchmark(
      {"tta_blob_classifier", "time_to_accuracy", "s",
       bench::Direction::LowerIsBetter},
      run_tta));
  reg.add(bench::make_benchmark(
      {"kernels_gemm", "gemm_throughput", "GFLOP/s",
       bench::Direction::HigherIsBetter},
      run_kernels_gemm));
  reg.add(bench::make_benchmark(
      {"scaling_strong_anchor", "anchored_samples_per_s_top", "samples/s",
       bench::Direction::HigherIsBetter},
      run_scaling_anchor));
  reg.add(bench::make_benchmark(
      {"serving_capacity", "saturated_goodput", "req/s",
       bench::Direction::HigherIsBetter},
      run_serving_capacity));
  reg.add(bench::make_benchmark(
      {"serving_continuous", "low_load_p99", "ms",
       bench::Direction::LowerIsBetter},
      run_serving_continuous));
  reg.add(bench::make_benchmark(
      {"ingest_prefetch", "prefetch_step_time", "s",
       bench::Direction::LowerIsBetter},
      run_ingest_prefetch));
  reg.add(bench::make_benchmark(
      {"resilience_overhead", "overhead_factor", "x",
       bench::Direction::LowerIsBetter},
      run_resilience_overhead));
  reg.add(bench::make_benchmark(
      {"chaos_capacity_model", "degraded_capacity", "batches/s",
       bench::Direction::HigherIsBetter},
      run_chaos_capacity));
  return reg;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Registry registry = build_registry();
  return bench::suite_main(registry, argc, argv, std::cout, std::cerr);
}

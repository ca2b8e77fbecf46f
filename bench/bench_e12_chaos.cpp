// Experiment E12 — serving under chaos: the supervised engine (src/serve)
// driven open-loop while a seeded fault schedule kills, hangs, and poisons
// its workers, pinned against the hpcsim degraded-capacity model.
//
// Tables:
//   (a) calibration: measured full-batch service time at deployment
//       concurrency and the healthy capacity it implies;
//   (b) MEASURED kill sweep: k of N workers killed permanently (restart
//       budget zeroed), saturated load, delivered goodput as a fraction of
//       the healthy run vs hpcsim::estimate_degraded_serving's
//       capacity_ratio — the pin the acceptance gate checks (~10%);
//   (c) hang sweep: injected multi-ms stalls with hedged execution on vs
//       off — hedging races the stragglers, so the completed-request tail
//       tracks the hedge timeout instead of the much larger hang-declare
//       timeout, at equal goodput;
//   (d) seeded chaos mix (crashes + hangs + corruption together): the
//       engine must keep the exact accounting invariant
//       submitted == completed + shed + failed while degrading gracefully.
//
// `--json=PATH` (default BENCH_e12.ci.json) emits the machine-readable
// report; the report is a generated artifact — CI emits and uploads it per
// commit (`--smoke` shrinks durations for that job); it is not checked in.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/args.hpp"
#include "bench/stats.hpp"
#include "hpcsim/machine.hpp"
#include "hpcsim/perfmodel.hpp"
#include "hpcsim/resilience.hpp"
#include "nn/model.hpp"
#include "runtime/fault.hpp"
#include "runtime/rng.hpp"
#include "serve/supervisor.hpp"
#include "serving_fixture.hpp"

namespace {

using namespace candle;

constexpr Index kWorkers = 4;
constexpr Index kMaxBatch = 16;
constexpr Index kInputF = 512;

// Large enough that inference dominates the request path (sub-ms service):
// with a trivial model the engine is submit-bound — the producer and the
// batcher lock saturate before the workers do — and the kill sweep would
// measure scheduler noise instead of capacity.
Model serving_model(std::uint64_t seed) {
  Model m;
  m.add(make_dense(1024)).add(make_relu());
  m.add(make_dense(512)).add(make_relu());
  m.add(make_dense(64));
  m.build({kInputF}, seed);
  return m;
}

std::vector<float> sample_input(std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<float> v(static_cast<std::size_t>(kInputF));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

struct ChaosRow {
  std::string label;
  double goodput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double shed_fraction = 0.0;
  serve::EngineStats stats;
};

/// Replay a saturated open-loop Poisson trace against a fresh supervised
/// engine under `schedule` (moved into a per-run injector).
ChaosRow replay(const Model& m, const std::vector<float>& input,
                double duration_s, double offered_rps,
                runtime::FaultSchedule schedule,
                const serve::SupervisorPolicy& supervise) {
  runtime::FaultInjector injector(std::move(schedule));
  serve::SupervisedOptions opt;
  opt.workers = kWorkers;
  opt.batch.max_batch = kMaxBatch;
  opt.batch.max_wait_s = 1e-3;
  opt.batch.queue_capacity = 256;
  opt.supervise = supervise;
  serve::SupervisedEngine engine(m, opt, &injector);

  const serve::ArrivalTrace trace =
      serve::poisson_trace(offered_rps, duration_s, 4242);
  // Generous SLO: sheds come from capacity loss.
  const std::vector<double> latencies =
      bench::replay_open_loop(engine, trace, input, 0.1);

  ChaosRow row;
  row.stats = engine.stats();
  row.goodput_rps = static_cast<double>(row.stats.completed) / duration_s;
  row.p50_ms = bench::nearest_rank(latencies, 0.50) * 1e3;
  row.p99_ms = bench::nearest_rank(latencies, 0.99) * 1e3;
  row.p999_ms = bench::nearest_rank(latencies, 0.999) * 1e3;
  row.shed_fraction =
      row.stats.submitted > 0
          ? static_cast<double>(row.stats.shed_total() + row.stats.failed) /
                static_cast<double>(row.stats.submitted)
          : 0.0;
  if (row.stats.accounting_gap() != 0) {
    std::fprintf(stderr,
                 "ACCOUNTING VIOLATION: gap=%lld (submitted=%llu completed=%llu"
                 " shed=%llu failed=%llu)\n",
                 static_cast<long long>(row.stats.accounting_gap()),
                 static_cast<unsigned long long>(row.stats.submitted),
                 static_cast<unsigned long long>(row.stats.completed),
                 static_cast<unsigned long long>(row.stats.shed_total()),
                 static_cast<unsigned long long>(row.stats.failed));
    std::exit(1);
  }
  return row;
}

int run(double duration_s, const std::string& json_path) {
  std::printf("=== E12: serving under chaos (supervised engine vs model) ===\n\n");

  const Model m = serving_model(17);
  const std::vector<float> input = sample_input(3);

  const double service_s =
      bench::measure_batch_service_s(m, kMaxBatch, kWorkers, 15);
  const double healthy_capacity_rps =
      static_cast<double>(kWorkers) * static_cast<double>(kMaxBatch) /
      service_s;
  const double offered_rps = 1.5 * healthy_capacity_rps;  // saturate the pool

  std::printf("(a) calibration\n");
  std::printf("    batch service (b=%d, median): %8.3f ms\n",
              static_cast<int>(kMaxBatch), service_s * 1e3);
  std::printf("    healthy capacity (%d workers): %8.1f req/s\n",
              static_cast<int>(kWorkers), healthy_capacity_rps);
  std::printf("    offered load: %.1f req/s (1.5x, saturated)\n\n", offered_rps);

  // hpcsim model for the kill sweep: kills are permanent (failed_workers),
  // survivors healthy.
  hpcsim::ServingPlan plan;
  plan.workers = kWorkers;
  plan.max_batch = kMaxBatch;
  plan.measured_batch_service_s = service_s;
  hpcsim::TrainingWorkload workload;  // unused: measured override active
  hpcsim::ServingFaultModel faults;
  faults.worker_mtbf_s = 1e9;  // no background crash process in this sweep
  faults.hang_prob = 0.0;
  const hpcsim::NodeSpec node = hpcsim::summit_node();

  // ---- (b) kill sweep -------------------------------------------------------
  // Honesty note (same spirit as bench_e3's 1-core note): worker slots are
  // threads, so on a host with fewer cores than workers the survivors of a
  // kill inherit the dead workers' CPU share and measured goodput cannot
  // drop (N-k)/N-proportionally — the slot model's premise (worker-private
  // execution resources) only physically exists when cores >= workers.
  // The ~10% pin therefore runs in two parts: the degraded-capacity closed
  // form is always pinned against the seeded Monte-Carlo chaos simulation
  // (the executable ground truth, same idiom as bench_e10's runtime pin),
  // and the measured ratio is additionally gated when the host has enough
  // cores for slots to be real.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const bool slots_real = cores >= static_cast<unsigned>(kWorkers);
  std::printf("(b) MEASURED kill sweep: k of %d workers killed, no restarts "
              "(%.2fs per point, %u cores%s)\n",
              static_cast<int>(kWorkers), duration_s, cores,
              slots_real ? "" : " — thread-workers timeshare, measured "
                                "ratio informational");
  std::printf("%4s %10s %10s %9s %9s %10s %10s\n", "k", "goodput",
              "shed+fail", "p50 ms", "p99 ms", "meas.ratio", "model");
  serve::SupervisorPolicy no_restart;
  no_restart.max_restarts = 0;
  std::vector<ChaosRow> kill_rows;
  std::vector<double> measured_ratio, modeled_ratio;
  double measured_pin_err = 0.0;
  for (Index k = 0; k < kWorkers; ++k) {
    runtime::FaultSchedule schedule;
    for (Index w = 0; w < k; ++w) schedule.kill_worker(/*batch=*/0, w);
    ChaosRow row = replay(m, input, duration_s, offered_rps,
                          std::move(schedule), no_restart);
    row.label = "kill" + std::to_string(k);
    const double ratio =
        kill_rows.empty() ? 1.0
                          : row.goodput_rps / kill_rows.front().goodput_rps;
    const double model =
        hpcsim::estimate_degraded_serving(node, workload, plan, offered_rps,
                                          faults, k)
            .capacity_ratio;
    measured_pin_err = std::max(measured_pin_err, std::abs(ratio - model));
    std::printf("%4d %10.1f %9.1f%% %9.2f %9.2f %10.3f %10.3f\n",
                static_cast<int>(k), row.goodput_rps,
                row.shed_fraction * 100.0, row.p50_ms, row.p99_ms, ratio,
                model);
    measured_ratio.push_back(ratio);
    modeled_ratio.push_back(model);
    kill_rows.push_back(std::move(row));
  }
  if (slots_real) {
    std::printf("    pin: measured vs modeled capacity ratio, max err = "
                "%.1f%% (gate: ~10%%)\n",
                measured_pin_err * 100.0);
  } else {
    std::printf("    measured-ratio gate skipped: %u cores < %d workers "
                "(max dev %.1f%%, informational)\n",
                cores, static_cast<int>(kWorkers), measured_pin_err * 100.0);
  }

  // Closed form vs executable ground truth: a chaotic fault process
  // (background crashes with MTTR, exponential stalls, hedging) simulated
  // by the seeded Monte-Carlo renewal model, per k dead workers.  This pin
  // always gates, host cores notwithstanding.
  hpcsim::ServingFaultModel chaos_faults;
  chaos_faults.workers = kWorkers;
  chaos_faults.batch_service_s = service_s;
  chaos_faults.worker_mtbf_s = 5.0;
  chaos_faults.worker_mttr_s = 0.5;
  chaos_faults.hang_prob = 0.05;
  chaos_faults.hang_mean_s = 0.08;
  chaos_faults.hedging = true;
  double sim_pin_err = 0.0;
  std::vector<double> analytic_bps, simulated_bps;
  for (Index k = 0; k < kWorkers; ++k) {
    const double analytic =
        hpcsim::degraded_serving_capacity_bps(chaos_faults, k);
    const double sim = hpcsim::simulate_serving_capacity_bps(
        chaos_faults, k, /*duration_s=*/30.0, /*trials=*/40, /*seed=*/11 + k);
    sim_pin_err = std::max(sim_pin_err, std::abs(sim / analytic - 1.0));
    analytic_bps.push_back(analytic);
    simulated_bps.push_back(sim);
  }
  std::printf("    pin: degraded-capacity closed form vs seeded chaos "
              "simulation (crashes+stalls+hedging), max err = %.1f%% "
              "(gate: ~10%%)\n\n",
              sim_pin_err * 100.0);

  // ---- (c) hang sweep: hedging on vs off ------------------------------------
  // 30 ms stalls sit below the 50 ms hang-declare floor, so escalation stays
  // quiet and the sweep isolates hedging.  Load is HALF the measured healthy
  // goodput — at saturation queueing delay swamps the stalls and the sweep
  // would show nothing; at comfortable load the tail is stall-driven and
  // hedging visibly caps it near the hedge timeout.
  const double hang_offered_rps = 0.5 * kill_rows.front().goodput_rps;
  std::printf("(c) injected stalls (30 ms) at 0.5x measured capacity, hedged "
              "execution on vs off\n");
  std::printf("%10s %10s %9s %9s %10s %8s %8s %9s\n", "mode", "goodput",
              "p50 ms", "p99 ms", "p99.9 ms", "hedges", "retired", "restarts");
  // Staggered ordinals: workers advance through batch ordinals at similar
  // rates, so spacing the stall points keeps at most ~one worker down at a
  // time — a healthy sibling must exist for the hedged duplicate to race,
  // otherwise the sweep measures a full-pool outage, not hedging.
  auto hang_schedule = [] {
    runtime::FaultSchedule s;
    for (Index w = 0; w < kWorkers; ++w) {
      s.hang_worker(/*batch=*/5 + 10 * w, w, /*delay_s=*/0.03);
      s.hang_worker(/*batch=*/50 + 10 * w, w, /*delay_s=*/0.03);
    }
    return s;
  };
  std::vector<ChaosRow> hang_rows;
  for (const bool hedging : {true, false}) {
    serve::SupervisorPolicy policy;
    policy.hedging = hedging;
    ChaosRow row = replay(m, input, duration_s, hang_offered_rps,
                          hang_schedule(), policy);
    row.label = hedging ? "hedged" : "unhedged";
    std::printf("%10s %10.1f %9.2f %9.2f %10.2f %8llu %8llu %9llu\n",
                row.label.c_str(), row.goodput_rps, row.p50_ms, row.p99_ms,
                row.p999_ms,
                static_cast<unsigned long long>(row.stats.hedges_launched),
                static_cast<unsigned long long>(row.stats.worker_hangs),
                static_cast<unsigned long long>(row.stats.worker_restarts));
    hang_rows.push_back(std::move(row));
  }

  // ---- (d) seeded chaos mix -------------------------------------------------
  std::printf("\n(d) seeded chaos mix: crashes + hangs + corruption together\n");
  ChaosRow chaos = replay(
      m, input, duration_s, offered_rps,
      runtime::serving_chaos_schedule(/*seed=*/2026, /*batches=*/24, kWorkers,
                                      /*kills=*/2, /*hangs=*/3,
                                      /*corruptions=*/3,
                                      /*hang_delay_s=*/0.03),
      serve::SupervisorPolicy{});
  chaos.label = "chaos";
  std::printf("    goodput %.1f req/s (%.2fx healthy), shed+fail %.1f%%, "
              "p99 %.2f ms\n",
              chaos.goodput_rps, chaos.goodput_rps / healthy_capacity_rps,
              chaos.shed_fraction * 100.0, chaos.p99_ms);
  std::printf("    crashes %llu, hangs retired %llu, restarts %llu, hedges "
              "%llu, corruption retries %llu, brownout entries %llu\n",
              static_cast<unsigned long long>(chaos.stats.worker_crashes),
              static_cast<unsigned long long>(chaos.stats.worker_hangs),
              static_cast<unsigned long long>(chaos.stats.worker_restarts),
              static_cast<unsigned long long>(chaos.stats.hedges_launched),
              static_cast<unsigned long long>(chaos.stats.corruption_retries),
              static_cast<unsigned long long>(chaos.stats.brownout_entries));
  std::printf("    accounting: submitted %llu == completed %llu + shed %llu "
              "+ failed %llu (exact)\n",
              static_cast<unsigned long long>(chaos.stats.submitted),
              static_cast<unsigned long long>(chaos.stats.completed),
              static_cast<unsigned long long>(chaos.stats.shed_total()),
              static_cast<unsigned long long>(chaos.stats.failed));

  // ---- JSON report ----------------------------------------------------------
  auto emit_row = [](std::ofstream& json, const ChaosRow& r) {
    json << "    {\"label\": \"" << r.label
         << "\", \"goodput_rps\": " << r.goodput_rps
         << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms
         << ", \"p999_ms\": " << r.p999_ms
         << ", \"shed_fraction\": " << r.shed_fraction
         << ", \"completed\": " << r.stats.completed
         << ", \"failed\": " << r.stats.failed
         << ", \"worker_crashes\": " << r.stats.worker_crashes
         << ", \"worker_hangs\": " << r.stats.worker_hangs
         << ", \"worker_restarts\": " << r.stats.worker_restarts
         << ", \"hedges_launched\": " << r.stats.hedges_launched
         << ", \"corruption_retries\": " << r.stats.corruption_retries
         << ", \"brownout_entries\": " << r.stats.brownout_entries
         << ", \"accounting_gap\": " << r.stats.accounting_gap() << "}";
  };
  std::ofstream json(json_path);
  json << "{\n  \"experiment\": \"e12_chaos\",\n"
       << "  \"calibration\": {\"batch_service_s\": " << service_s
       << ", \"healthy_capacity_rps\": " << healthy_capacity_rps
       << ", \"workers\": " << kWorkers << ", \"max_batch\": " << kMaxBatch
       << ", \"offered_rps\": " << offered_rps << "},\n"
       << "  \"kill_pin\": {\"host_cores\": " << cores
       << ", \"measured_gate_active\": " << (slots_real ? "true" : "false")
       << ", \"measured_max_abs_ratio_err\": " << measured_pin_err
       << ", \"sim_max_rel_err\": " << sim_pin_err
       << ", \"measured_ratio\": [";
  for (std::size_t i = 0; i < measured_ratio.size(); ++i) {
    json << (i ? ", " : "") << measured_ratio[i];
  }
  json << "], \"modeled_ratio\": [";
  for (std::size_t i = 0; i < modeled_ratio.size(); ++i) {
    json << (i ? ", " : "") << modeled_ratio[i];
  }
  json << "], \"chaos_analytic_bps\": [";
  for (std::size_t i = 0; i < analytic_bps.size(); ++i) {
    json << (i ? ", " : "") << analytic_bps[i];
  }
  json << "], \"chaos_simulated_bps\": [";
  for (std::size_t i = 0; i < simulated_bps.size(); ++i) {
    json << (i ? ", " : "") << simulated_bps[i];
  }
  json << "]},\n  \"rows\": [\n";
  bool first = true;
  for (const auto* rows : {&kill_rows, &hang_rows}) {
    for (const ChaosRow& r : *rows) {
      if (!first) json << ",\n";
      first = false;
      emit_row(json, r);
    }
  }
  json << ",\n";
  emit_row(json, chaos);
  json << "\n  ]\n}\n";
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  candle::bench::Args args;
  args.flag("smoke").option("json", "BENCH_e12.ci.json");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "bench_e12_chaos: %s\n", args.error().c_str());
    return 2;
  }
  const double duration_s = args.has("smoke") ? 0.4 : 1.5;
  return run(duration_s, args.get("json"));
}

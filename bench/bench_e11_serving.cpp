// Experiment E11 — inference serving under latency SLOs: the dynamic-
// batching engine (src/serve) driven open-loop through a seeded load sweep,
// pinned against the hpcsim serving estimator.
//
// Tables:
//   (a) calibration: measured full-batch service time of the serving model
//       and the capacity it implies (workers * max_batch / service);
//   (b) MEASURED load sweep: offered load as a fraction of modeled
//       capacity, achieved goodput, p50/p95/p99 latency of completed
//       requests, and the shed fraction.  The saturation knee — where
//       goodput stops tracking offered load — is marked;
//   (c) bursty (MMPP) traffic at the same mean rate as a mid-sweep Poisson
//       point: burstiness inflates tail latency and sheds at a mean rate
//       the server handles easily when arrivals are smooth;
//   (d) pin: modeled capacity vs the goodput measured past saturation
//       (the estimator is calibrated from (a), so this closes the loop
//       between perfmodel::estimate_serving and the real engine).
//
// Requests carry a latency SLO (deadline); once the admission controller's
// service estimate warms up, hopeless requests are shed on arrival, which
// is what keeps the completed-request tail bounded past the knee.
//
// `--continuous` switches the engine to continuous admission
// (BatchPolicy::continuous, with the cold-start calibration probe) and pins
// the sweep against estimate_serving_continuous instead — run both modes to
// see the fill-window cut at low load and the shared capacity at the knee.
//
// `--json=PATH` (default BENCH_e11.json) emits the machine-readable report;
// the report is a generated artifact — CI emits and uploads it per commit
// (`--smoke` shrinks durations for that job); it is not checked in.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/args.hpp"
#include "bench/stats.hpp"
#include "hpcsim/machine.hpp"
#include "hpcsim/perfmodel.hpp"
#include "nn/model.hpp"
#include "runtime/rng.hpp"
#include "serve/supervisor.hpp"
#include "serving_fixture.hpp"

namespace {

using namespace candle;

constexpr double kSloSeconds = 50e-3;  // per-request latency budget

Model serving_model(std::uint64_t seed) {
  Model m;
  m.add(make_dense(2048)).add(make_relu());
  m.add(make_dense(1024)).add(make_relu());
  m.add(make_dense(64));
  m.build({1024}, seed);
  return m;
}

std::vector<float> sample_input(Index numel, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<float> v(static_cast<std::size_t>(numel));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

struct SweepRow {
  double frac = 0.0;
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double shed_fraction = 0.0;
  double modeled_mean_ms = 0.0;
  double modeled_shed_fraction = 0.0;
  bool bursty = false;
};

/// Replay one arrival trace open-loop against a fresh engine.
SweepRow replay(const Model& m, const serve::ArrivalTrace& trace,
                const std::vector<float>& input, Index workers,
                const serve::BatchPolicy& policy) {
  serve::SupervisedOptions opt;
  opt.workers = workers;
  opt.batch = policy;
  // Continuous mode prices deadlines from slot availability; seed the EWMA
  // so the very first window already sheds hopeless requests.
  opt.calibration_probe = policy.continuous;
  serve::SupervisedEngine engine(m, opt);
  const std::vector<double> latencies =
      bench::replay_open_loop(engine, trace, input, kSloSeconds);
  const serve::EngineStats s = engine.stats();

  SweepRow row;
  row.offered_rps = trace.offered_rps();
  row.achieved_rps =
      static_cast<double>(s.completed) / trace.duration_s;
  row.p50_ms = bench::nearest_rank(latencies, 0.50) * 1e3;
  row.p95_ms = bench::nearest_rank(latencies, 0.95) * 1e3;
  row.p99_ms = bench::nearest_rank(latencies, 0.99) * 1e3;
  row.shed_fraction = s.submitted > 0
                          ? static_cast<double>(s.shed_total()) /
                                static_cast<double>(s.submitted)
                          : 0.0;
  return row;
}

int run(double duration_s, const std::vector<double>& fracs,
        const std::string& json_path, bool continuous) {
  std::printf("=== E11: inference serving (%s batching vs model) ===\n\n",
              continuous ? "continuous" : "dynamic");

  const Model m = serving_model(17);
  serve::BatchPolicy policy;
  policy.max_batch = 32;
  policy.max_wait_s = 2e-3;
  policy.queue_capacity = 256;
  policy.continuous = continuous;
  const Index workers = 2;

  const double service_s =
      bench::measure_batch_service_s(m, policy.max_batch, workers, 9);
  hpcsim::ServingPlan plan;
  plan.workers = workers;
  plan.max_batch = policy.max_batch;
  plan.batch_timeout_s = policy.max_wait_s;
  plan.queue_capacity = policy.queue_capacity;
  plan.measured_batch_service_s = service_s;
  const hpcsim::NodeSpec node = hpcsim::summit_node();
  hpcsim::TrainingWorkload workload;  // unused: measured override active
  const double capacity_rps =
      hpcsim::estimate_serving(node, workload, plan, 0.0).capacity_rps;

  std::printf("(a) calibration\n");
  std::printf("    batch service (b=%d, median): %8.3f ms\n",
              static_cast<int>(policy.max_batch), service_s * 1e3);
  std::printf("    modeled capacity (%d workers): %8.1f req/s\n",
              static_cast<int>(workers), capacity_rps);
  std::printf("    request SLO: %.0f ms\n\n", kSloSeconds * 1e3);

  const std::vector<float> input = sample_input(1024, 3);

  std::printf("(b) MEASURED open-loop Poisson load sweep (%.2fs per point)\n",
              duration_s);
  std::printf("%8s %10s %10s %9s %9s %9s %7s %12s %9s\n", "load", "offered",
              "goodput", "p50 ms", "p95 ms", "p99 ms", "shed", "model ms",
              "mod.shed");
  std::vector<SweepRow> rows;
  bool knee_marked = false;
  for (double frac : fracs) {
    const double rate = capacity_rps * frac;
    const serve::ArrivalTrace trace =
        serve::poisson_trace(rate, duration_s, 1000 + rows.size());
    SweepRow row = replay(m, trace, input, workers, policy);
    row.frac = frac;
    if (continuous) {
      const auto est = hpcsim::estimate_serving_continuous(node, workload,
                                                           plan,
                                                           row.offered_rps);
      row.modeled_mean_ms = est.mean_latency_s * 1e3;
      row.modeled_shed_fraction = est.shed_fraction;
    } else {
      const auto est = hpcsim::estimate_serving(node, workload, plan,
                                                row.offered_rps);
      row.modeled_mean_ms = est.mean_latency_s * 1e3;
      row.modeled_shed_fraction = est.shed_fraction;
    }
    const bool knee =
        !knee_marked && row.achieved_rps < 0.95 * row.offered_rps;
    if (knee) knee_marked = true;
    std::printf("%7.2fx %10.1f %10.1f %9.2f %9.2f %9.2f %6.1f%% %12.2f %8.1f%%%s\n",
                row.frac, row.offered_rps, row.achieved_rps, row.p50_ms,
                row.p95_ms, row.p99_ms, row.shed_fraction * 100.0,
                row.modeled_mean_ms, row.modeled_shed_fraction * 100.0,
                knee ? "   <-- saturation knee" : "");
    rows.push_back(row);
  }

  // (c) bursty traffic at the mean rate of a comfortable mid-sweep point.
  std::printf("\n(c) bursty (MMPP) vs smooth arrivals at the same mean rate\n");
  serve::BurstyTraffic traffic;
  traffic.base_rps = 0.3 * capacity_rps;
  traffic.burst_rps = 1.8 * capacity_rps;
  traffic.mean_base_dwell_s = 0.25;
  traffic.mean_burst_dwell_s = 0.08;
  const serve::ArrivalTrace bursty =
      serve::mmpp_trace(traffic, duration_s, 2024);
  SweepRow brow = replay(m, bursty, input, workers, policy);
  brow.bursty = true;
  if (continuous) {
    const auto best = hpcsim::estimate_serving_continuous(node, workload, plan,
                                                          brow.offered_rps);
    brow.modeled_mean_ms = best.mean_latency_s * 1e3;
    brow.modeled_shed_fraction = best.shed_fraction;
  } else {
    const auto best = hpcsim::estimate_serving(node, workload, plan,
                                               brow.offered_rps);
    brow.modeled_mean_ms = best.mean_latency_s * 1e3;
    brow.modeled_shed_fraction = best.shed_fraction;
  }
  std::printf("    mean offered %.1f req/s (%.2fx capacity): "
              "p99 %.2f ms, shed %.1f%%\n",
              brow.offered_rps, brow.offered_rps / capacity_rps, brow.p99_ms,
              brow.shed_fraction * 100.0);
  rows.push_back(brow);

  // (d) pin: the estimator's capacity against goodput measured past the
  // knee.  Calibrated from (a), the two should agree to ~10%.
  double saturated_rps = 0.0;
  for (const SweepRow& r : rows) {
    if (!r.bursty && r.frac > 1.0) {
      saturated_rps = std::max(saturated_rps, r.achieved_rps);
    }
  }
  const double pin_ratio =
      saturated_rps > 0.0 ? saturated_rps / capacity_rps : 0.0;
  std::printf("\n(d) model pin: measured saturated goodput %.1f req/s vs "
              "modeled capacity %.1f req/s (ratio %.3f)\n",
              saturated_rps, capacity_rps, pin_ratio);

  std::ofstream json(json_path);
  json << "{\n  \"experiment\": \"e11_serving\",\n"
       << "  \"mode\": \"" << (continuous ? "continuous" : "coalescing")
       << "\",\n"
       << "  \"calibration\": {\"batch_service_s\": " << service_s
       << ", \"capacity_rps\": " << capacity_rps
       << ", \"workers\": " << workers
       << ", \"max_batch\": " << policy.max_batch
       << ", \"slo_s\": " << kSloSeconds << "},\n"
       << "  \"pin\": {\"measured_saturated_rps\": " << saturated_rps
       << ", \"modeled_capacity_rps\": " << capacity_rps
       << ", \"ratio\": " << pin_ratio << "},\n"
       << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    if (i > 0) json << ",\n";
    json << "    {\"traffic\": \"" << (r.bursty ? "mmpp" : "poisson")
         << "\", \"offered_rps\": " << r.offered_rps
         << ", \"achieved_rps\": " << r.achieved_rps
         << ", \"p50_ms\": " << r.p50_ms << ", \"p95_ms\": " << r.p95_ms
         << ", \"p99_ms\": " << r.p99_ms
         << ", \"shed_fraction\": " << r.shed_fraction
         << ", \"modeled_mean_ms\": " << r.modeled_mean_ms
         << ", \"modeled_shed_fraction\": " << r.modeled_shed_fraction
         << "}";
  }
  json << "\n  ]\n}\n";
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  candle::bench::Args args;
  args.flag("smoke").flag("continuous").option("json", "BENCH_e11.json");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "bench_e11_serving: %s\n", args.error().c_str());
    return 2;
  }
  const bool smoke = args.has("smoke");
  const double duration_s = smoke ? 0.3 : 1.2;
  const std::vector<double> fracs =
      smoke ? std::vector<double>{0.5, 1.3}
            : std::vector<double>{0.2, 0.4, 0.6, 0.8, 0.9, 1.1, 1.3};
  return run(duration_s, fracs, args.get("json"), args.has("continuous"));
}

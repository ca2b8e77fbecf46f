// Workload definitions and the two stages every workload runs.
//
// Every workload is the same two-stage pipeline the paper's cancer driver
// problems describe: train a Pilot1-shaped drug-response regressor with the
// data-parallel trainer, then score requests with the wide scoring model as
// a latency-bound service.  A workload fixes the model it trains and how the
// data layer is sized and priced, so that a different layer dominates;
// README.md in this directory records why each was chosen.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "data/store.hpp"
#include "nn/dataset.hpp"
#include "nn/model.hpp"
#include "parallel/data_parallel.hpp"
#include "serve/features.hpp"
#include "trace.hpp"

namespace perfbench {

using candle::Index;

/// What a workload varies; everything else is a constant below.
struct WorkloadSpec {
  const char* name;
  std::vector<Index> hidden;  // ReLU hidden widths of the trained MLP
  Index epochs_per_job;
  bool shuffle;               // false: every epoch scans the rows in order
  /// The data layer shared by both stages: the trainer's ingest store and
  /// the serving feature store get the same budget and per-fetch cost.
  double store_fraction;      // store byte budget / dataset payload bytes
  double fetch_cost_s;        // busy time per sample fetched from the source
};

/// All workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workloads();

// Dataset: Pilot1-shaped drug response (expression genes + drug descriptors).
constexpr Index kGenes = 960;
constexpr Index kDrugDescriptors = 64;
constexpr Index kPathways = 8;
constexpr Index kFeatures = kGenes + kDrugDescriptors;
constexpr Index kTrainSamples = 4096;  // also the serving id space
constexpr Index kValSamples = 1024;

// Training stage.
constexpr Index kJobs = 3;  // trainer calls, each continuing the last one
constexpr Index kBatchPerReplica = 64;
constexpr Index kBucketBytes = 1 << 20;
constexpr float kLearningRate = 1e-4f;  // Adam
constexpr double kValLossTarget = 0.6;  // held-out MSE the model must reach
constexpr Index kFetchThreads = 1;
constexpr Index kPrefetchDepth = 2;

// Serving stage.
constexpr double kZipfExponent = 1.1;  // skew of the requested sample ids

constexpr Index kReplicas = 2;   // data-parallel replicas
constexpr Index kWorkers = 2;    // serving engine workers
constexpr Index kMaxBatch = 4;   // serving batch slots per worker
constexpr double kSloSeconds = 50e-3;
/// Seed of the initial weights and of the trainer's sample order: the same
/// in every run, so training is identical work each time.
constexpr std::uint64_t kModelSeed = 3131;

/// Open-loop offered rates, absolute and the same in every run (see
/// README.md for why they are not recalibrated per run).
struct OfferedRate {
  const char* name;
  double rps;
};
constexpr OfferedRate kRates[3] = {{"low", 4000.0}, {"mid", 10000.0},
                                   {"over", 30000.0}};

/// The model the serving stage scores with in every workload: a Pilot1
/// (P1B3-style) dense stack with 2.5 MiB of weights, about the size of a
/// core's L2.  A 16 MiB stack streams its weights from the shared L3 and
/// memory on every call, so its service time drifts with how much of them
/// other tenants of a shared host take.
inline const std::vector<Index> kScoringHidden = {512, 256};

/// ReLU MLP with one output unit over `features` inputs, initial weights
/// from kModelSeed.
candle::Model build_model(Index features, const std::vector<Index>& hidden);

std::size_t store_budget_bytes(const WorkloadSpec& w, const candle::Dataset& d);

// ---- training stage ---------------------------------------------------------

struct TrainOutcome {
  std::vector<double> samples_per_s;  // one per job
  double val_loss = 0.0;              // of the final model
  std::vector<candle::parallel::DataParallelResult> results;
  std::vector<bool> traced;           // job ran with tracing on
};

/// Train kJobs jobs of w.epochs_per_job epochs each, every job continuing
/// from the previous one's weights.  With `alternate_tracing`
/// the tracer is off for every other job, so the traced run can report its
/// own overhead.
TrainOutcome run_training(const WorkloadSpec& w, const candle::Dataset& train,
                          const candle::Dataset& val, Tracer& tracer,
                          bool alternate_tracing);

/// Per-layer probes of the training path and of the scoring model's
/// kernels (traced run only).
void probe_layers(const WorkloadSpec& w, const candle::Dataset& train,
                  const candle::Model& scoring, Tracer& tracer, Report& out);

// ---- serving stage ----------------------------------------------------------

struct RateSamples {
  // Latency is timed from each request's due time.
  std::vector<double> p50_ms, p99_ms, goodput_rps;  // one per round
  std::vector<double> queue_wait_ms, service_ms, submit_us, gen_lag_ms;
  std::vector<double> traced_p50_ms, untraced_p50_ms;
  long long sent = 0, completed = 0, shed = 0, engine_failed = 0;
  long long late = 0;  // completed past the SLO
  std::uint64_t iterations = 0, hedges = 0, hedge_losses = 0, recomputes = 0;
  std::int64_t peak_queue_depth = 0;
  long long rounds = 0;
};

struct ServeOutcome {
  RateSamples rate[3];
  std::vector<double> fetch_us;
  std::uint64_t store_hits = 0, store_misses = 0;
  long long checked = 0, wrong = 0;  // completed responses vs serial predict
  long long ledger_violations = 0;
};

/// Fault-injection switches for the self-test: each deliberately corrupts
/// one output so the matching check must fire.
struct BreakSwitches {
  bool serve_output = false;
  bool ledger = false;
  bool val_loss = false;
};

/// The serving data path and its warm state, built by set-up: the sample
/// source over the training set, the feature store in front of it, and the
/// Zipf table requests draw their sample ids from.
class ServingFixture {
 public:
  /// Builds the store, pre-faults its hottest ids, and starts, warms and
  /// drains one engine on `model`.
  ServingFixture(const WorkloadSpec& w, const candle::Dataset& train,
                 std::uint64_t seed, const candle::Model& model);

  /// Rounds of the three offered rates filling `budget_s`; the requests
  /// are generated and sent on `client`.
  ServeOutcome run(const candle::Model& model, double budget_s,
                   std::uint64_t seed, ClientThread& client, Tracer& tracer,
                   bool alternate_tracing, const BreakSwitches& breaks);

 private:
  Index draw_sample(SplitMix& rng) const;

  const candle::Dataset& train_;
  candle::data::DatasetSource source_;
  candle::data::SampleStore store_;
  candle::serve::FeatureService features_;
  std::vector<double> zipf_cdf_;  // by popularity rank
  std::vector<Index> rank_to_sample_;
};

}  // namespace perfbench

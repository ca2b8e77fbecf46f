// Continuous-batching serving tests (DESIGN.md "Continuous batching"):
// the workers' BatchAssembler buffer reuse, the continuous admission rule
// (bit-identity with serial predict, exact accounting, low-load promptness,
// queue-wait/service latency split), the cold-start calibration probe, and
// a randomized chaos property suite driving the continuous engine through
// seeded crash/hang/corruption schedules.  Wired into the TSan and ASan CI
// jobs alongside test_serve / test_serve_resilience.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "nn/batching.hpp"
#include "nn/model.hpp"
#include "runtime/fault.hpp"
#include "runtime/rng.hpp"
#include "serve/supervisor.hpp"

namespace candle {
namespace {

using runtime::FaultInjector;
using runtime::FaultKind;
using runtime::FaultSchedule;
using serve::EngineStats;
using serve::Outcome;
using serve::Request;
using serve::Response;
using serve::SupervisedEngine;
using serve::SupervisedOptions;

Model mlp(Index in, Index hidden, Index out, std::uint64_t seed) {
  Model m;
  m.add(make_dense(hidden)).add(make_relu()).add(make_dense(out));
  m.build({in}, seed);
  return m;
}

Tensor random_inputs(Index n, Index features, std::uint64_t seed) {
  Pcg32 rng(seed);
  Tensor x({n, features});
  for (Index i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.normal());
  }
  return x;
}

Request request_for_row(const Tensor& x, Index row) {
  Request r;
  r.id = static_cast<std::uint64_t>(row);
  const Index f = x.numel() / x.dim(0);
  r.input.assign(x.data() + row * f, x.data() + (row + 1) * f);
  return r;
}

void expect_exact_accounting(const EngineStats& s) {
  EXPECT_EQ(s.accounting_gap(), 0)
      << "submitted=" << s.submitted << " completed=" << s.completed
      << " shed=" << s.shed_total() << " failed=" << s.failed;
  EXPECT_EQ(s.latency.total, s.completed);
  EXPECT_EQ(s.queue_wait.total, s.completed);
  EXPECT_EQ(s.service.total, s.completed);
  EXPECT_EQ(s.inflight_rows, 0);
}

// Bit-identity of every Completed response against the serial predict row
// with the same id — the invariant that makes continuous batching a pure
// scheduling change: row outputs are independent of batch composition.
void expect_bit_identical(const std::vector<Response>& responses,
                          const Model& m, const Tensor& x) {
  const Tensor expected = m.predict(x, x.dim(0));
  const Index out_f = expected.numel() / expected.dim(0);
  for (const Response& r : responses) {
    if (r.outcome != Outcome::Completed) continue;
    ASSERT_EQ(static_cast<Index>(r.output.size()), out_f);
    const Index row = static_cast<Index>(r.id);
    for (Index k = 0; k < out_f; ++k) {
      EXPECT_EQ(r.output[static_cast<std::size_t>(k)],
                expected[row * out_f + k])
          << "row " << row << " element " << k;
    }
  }
}

// ---- BatchAssembler ---------------------------------------------------------

TEST(BatchAssembler, SteadyStateReusesBuffersWithoutReallocation) {
  // The buffer is sized once at construction; full batches, short batches
  // and the poisoned-row subsets an engine worker recomputes must all cycle
  // through the same allocation (the zero-steady-state-allocation contract
  // the serving hot path needs).
  BatchAssembler assembler({8}, 4);
  std::vector<float> sample(8, 1.f);
  const float* buf = assembler.begin(4).data();
  for (int iter = 0; iter < 50; ++iter) {
    const Index n = 1 + (iter % 4);
    EXPECT_EQ(assembler.begin(n).data(), buf) << "begin reallocated";
    for (Index i = 0; i < n; ++i) assembler.set_row(i, sample);
    EXPECT_EQ(assembler.batch().dim(0), n);
  }
}

// ---- continuous admission ---------------------------------------------------

TEST(ContinuousEngineTest, BitIdenticalToSerialPredictWithExactAccounting) {
  const Model m = mlp(16, 32, 8, 7);
  const Tensor x = random_inputs(96, 16, 11);

  SupervisedOptions opt;
  opt.workers = 3;
  opt.batch.max_batch = 8;
  opt.batch.continuous = true;
  SupervisedEngine engine(m, opt);
  std::vector<std::future<Response>> futures;
  for (Index i = 0; i < x.dim(0); ++i) {
    futures.push_back(engine.submit(request_for_row(x, i)));
  }
  std::vector<Response> responses;
  responses.reserve(futures.size());
  for (auto& f : futures) responses.push_back(f.get());
  engine.drain();

  for (const Response& r : responses) {
    EXPECT_EQ(r.outcome, Outcome::Completed);
    EXPECT_GE(r.batch_rows, 1);
    EXPECT_LE(r.batch_rows, opt.batch.max_batch);
  }
  expect_bit_identical(responses, m, x);
  const EngineStats s = engine.stats();
  expect_exact_accounting(s);
  EXPECT_EQ(s.completed, 96u);
  EXPECT_GE(s.batches, 96u / 8u);  // at most max_batch rows per iteration
}

TEST(ContinuousEngineTest, LowLoadServesImmediatelyWhereCoalescingWaits) {
  // One lonely request against a wide-open fill window: coalescing
  // admission sits out max_wait_s before closing the batch; continuous
  // admission hands the row over the moment a worker is idle.  This is the
  // defining latency cut of continuous batching, asserted with a 4x margin
  // so loaded CI hosts cannot flake it.
  const Model m = mlp(8, 16, 4, 3);
  const Tensor x = random_inputs(4, 8, 5);
  const double window_s = 0.2;

  double coalescing_latency = 0.0;
  {
    SupervisedOptions opt;
    opt.workers = 1;
    opt.batch.max_batch = 8;
    opt.batch.max_wait_s = window_s;
    SupervisedEngine engine(m, opt);
    Response r = engine.submit(request_for_row(x, 0)).get();
    EXPECT_EQ(r.outcome, Outcome::Completed);
    coalescing_latency = r.latency_s;
    engine.drain();
  }
  double continuous_latency = 0.0;
  {
    SupervisedOptions opt;
    opt.workers = 1;
    opt.batch.max_batch = 8;
    opt.batch.max_wait_s = window_s;  // ignored in continuous mode
    opt.batch.continuous = true;
    SupervisedEngine engine(m, opt);
    Response r = engine.submit(request_for_row(x, 0)).get();
    EXPECT_EQ(r.outcome, Outcome::Completed);
    continuous_latency = r.latency_s;
    engine.drain();
  }
  EXPECT_GE(coalescing_latency, window_s * 0.9);
  EXPECT_LT(continuous_latency, window_s / 4.0);
}

TEST(ContinuousEngineTest, LatencySplitsIntoQueueWaitPlusService) {
  const Model m = mlp(16, 32, 8, 9);
  const Tensor x = random_inputs(64, 16, 13);

  SupervisedOptions opt;
  opt.workers = 2;
  opt.batch.max_batch = 8;
  opt.batch.continuous = true;
  SupervisedEngine engine(m, opt);
  std::vector<std::future<Response>> futures;
  for (Index i = 0; i < x.dim(0); ++i) {
    futures.push_back(engine.submit(request_for_row(x, i)));
  }
  for (auto& f : futures) {
    const Response r = f.get();
    ASSERT_EQ(r.outcome, Outcome::Completed);
    // Per response the split is exact by construction (same clock reads).
    EXPECT_NEAR(r.latency_s, r.queue_wait_s + r.service_s,
                1e-9 + 1e-6 * r.latency_s);
    EXPECT_GT(r.service_s, 0.0);
    EXPECT_GE(r.queue_wait_s, 0.0);
  }
  engine.drain();
  const EngineStats s = engine.stats();
  expect_exact_accounting(s);
  // The histograms quantize each term independently (~10% buckets), but
  // their means must still compose: latency ~= queue_wait + service.
  const double composed = s.queue_wait.mean_s() + s.service.mean_s();
  EXPECT_GT(composed, 0.0);
  EXPECT_NEAR(s.latency.mean_s(), composed, 0.25 * composed);
}

// ---- cold-start calibration probe -------------------------------------------

TEST(CalibrationProbeTest, SeedsEwmaSoColdStartDeadlinesAreEnforced) {
  // Regression for the cold-start mispricing window: without the probe the
  // service EWMA is zero, so the very first request is priced at a zero
  // sojourn and admitted no matter how hopeless its deadline.  With the
  // probe the estimate is calibrated before any admission and an impossible
  // deadline sheds on arrival.
  const Model m = mlp(64, 256, 16, 21);
  const Tensor x = random_inputs(2, 64, 23);

  {
    SupervisedOptions opt;
    opt.workers = 1;
    opt.batch.max_batch = 32;
    opt.batch.continuous = true;
    opt.calibration_probe = false;
    SupervisedEngine engine(m, opt);
    Request hopeless = request_for_row(x, 0);
    hopeless.deadline_s = 1e-12;  // impossible, but the cold EWMA prices 0
    const Response r = engine.submit(std::move(hopeless)).get();
    EXPECT_EQ(r.outcome, Outcome::Completed) << "cold EWMA admits everything";
    engine.drain();
  }
  {
    SupervisedOptions opt;
    opt.workers = 1;
    opt.batch.max_batch = 32;
    opt.batch.continuous = true;
    opt.calibration_probe = true;
    SupervisedEngine engine(m, opt);
    EXPECT_GT(engine.stats().ewma_row_service_s, 0.0)
        << "probe must seed the EWMA before any submit";
    Request hopeless = request_for_row(x, 0);
    hopeless.deadline_s = 1e-12;
    const Response r = engine.submit(std::move(hopeless)).get();
    EXPECT_EQ(r.outcome, Outcome::ShedDeadline);
    // A generously-budgeted request still sails through.
    Request fine = request_for_row(x, 1);
    const Response ok = engine.submit(std::move(fine)).get();
    EXPECT_EQ(ok.outcome, Outcome::Completed);
    engine.drain();
    const EngineStats s = engine.stats();
    expect_exact_accounting(s);
    EXPECT_EQ(s.shed_deadline, 1u);
    EXPECT_EQ(s.completed, 1u);
  }
}

TEST(CalibrationProbeTest, WorksForCoalescingModeToo) {
  const Model m = mlp(64, 256, 16, 25);
  SupervisedOptions opt;
  opt.workers = 1;
  opt.batch.max_batch = 32;
  opt.calibration_probe = true;
  SupervisedEngine engine(m, opt);
  EXPECT_GT(engine.stats().ewma_row_service_s, 0.0);
  Request hopeless;
  hopeless.id = 1;
  hopeless.input.assign(64, 0.5f);
  hopeless.deadline_s = 1e-12;
  EXPECT_EQ(engine.submit(std::move(hopeless)).get().outcome,
            Outcome::ShedDeadline);
  engine.drain();
}

// ---- continuous mode under supervision --------------------------------------

TEST(ContinuousSupervisedTest, CleanRunMatchesSerialPredict) {
  const Model m = mlp(12, 24, 6, 17);
  const Tensor x = random_inputs(64, 12, 19);

  SupervisedOptions opt;
  opt.workers = 2;
  opt.batch.max_batch = 8;
  opt.batch.continuous = true;
  SupervisedEngine engine(m, opt);
  std::vector<std::future<Response>> futures;
  for (Index i = 0; i < x.dim(0); ++i) {
    futures.push_back(engine.submit(request_for_row(x, i)));
  }
  std::vector<Response> responses;
  for (auto& f : futures) responses.push_back(f.get());
  engine.drain();
  expect_bit_identical(responses, m, x);
  const EngineStats s = engine.stats();
  expect_exact_accounting(s);
  EXPECT_EQ(s.completed, 64u);
  EXPECT_EQ(s.worker_crashes, 0u);
  EXPECT_EQ(s.failed, 0u);
}

TEST(ContinuousSupervisedTest, RowScopePoisonRecomputeIsBitIdentical) {
  const Model m = mlp(8, 32, 4, 31);
  const Tensor x = random_inputs(8, 8, 33);

  // Poison part of the first iteration's output: the supervisor must
  // recompute only the poisoned rows (row-scope gate) and still hand every
  // client the bit-exact serial prediction.
  FaultSchedule schedule;
  schedule.corrupt_batch(/*batch=*/0, /*worker=*/0, /*entries=*/3);
  FaultInjector injector(std::move(schedule));

  SupervisedOptions opt;
  opt.workers = 1;
  opt.batch.max_batch = 8;
  opt.batch.continuous = true;
  SupervisedEngine engine(m, opt, &injector);
  std::vector<std::future<Response>> futures;
  for (Index i = 0; i < x.dim(0); ++i) {
    futures.push_back(engine.submit(request_for_row(x, i)));
  }
  std::vector<Response> responses;
  for (auto& f : futures) responses.push_back(f.get());
  engine.drain();
  expect_bit_identical(responses, m, x);
  const EngineStats s = engine.stats();
  expect_exact_accounting(s);
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.corruption_retries, 1u);
}

TEST(ContinuousSupervisedTest, CrashedWorkerRowsAreRecoveredExactly) {
  const Model m = mlp(8, 16, 4, 41);
  const Tensor x = random_inputs(48, 8, 43);

  FaultSchedule schedule;
  schedule.kill_worker(/*batch=*/0, /*worker=*/0);
  FaultInjector injector(std::move(schedule));

  SupervisedOptions opt;
  opt.workers = 2;
  opt.batch.max_batch = 8;
  opt.batch.continuous = true;
  SupervisedEngine engine(m, opt, &injector);
  // The crash is keyed to worker 0's first batch, but worker 1 can drain a
  // whole wave before worker 0 is ever scheduled.  Submit waves until the
  // crash fires; every wave must complete either way.
  std::uint64_t submitted = 0;
  std::vector<Response> responses;
  for (int wave = 0; wave < 50; ++wave) {
    std::vector<std::future<Response>> futures;
    for (Index i = 0; i < x.dim(0); ++i) {
      futures.push_back(engine.submit(request_for_row(x, i)));
    }
    submitted += static_cast<std::uint64_t>(x.dim(0));
    for (auto& f : futures) responses.push_back(f.get());
    bool crashed = false;
    for (const auto& rec : injector.log()) {
      if (rec.kind == FaultKind::WorkerCrash && rec.phase == "injected") {
        crashed = true;
      }
    }
    if (crashed) break;
  }
  engine.drain();
  expect_bit_identical(responses, m, x);
  const EngineStats s = engine.stats();
  expect_exact_accounting(s);
  EXPECT_EQ(s.completed, submitted);  // crash re-enqueue loses nothing
  EXPECT_EQ(s.worker_crashes, 1u);
  EXPECT_GE(s.requeued, 1u);
}

// Randomized chaos property suite: seeded crash/hang/corruption schedules
// against the continuous scheduler.  For every seed, after drain:
//   * exact accounting (submitted == completed + shed + failed),
//   * zero rows left in flight (the acquire/release invariant),
//   * every Completed output bit-identical to serial predict.
TEST(ContinuousSupervisedTest, SeededChaosSchedulesKeepEveryInvariant) {
  const Model m = mlp(10, 20, 5, 51);
  const Tensor x = random_inputs(64, 10, 53);

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    FaultInjector injector(runtime::serving_chaos_schedule(
        seed, /*batches=*/10, /*workers=*/2, /*kills=*/1, /*hangs=*/1,
        /*corruptions=*/1, /*hang_delay_s=*/0.12));
    SupervisedOptions opt;
    opt.workers = 2;
    opt.batch.max_batch = 8;
    opt.batch.continuous = true;
    opt.supervise.hedge_min_age_s = 10e-3;
    opt.supervise.hang_min_age_s = 40e-3;
    SupervisedEngine engine(m, opt, &injector);
    std::vector<std::future<Response>> futures;
    for (Index i = 0; i < x.dim(0); ++i) {
      futures.push_back(engine.submit(request_for_row(x, i)));
      if (i % 8 == 7) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    std::vector<Response> responses;
    for (auto& f : futures) responses.push_back(f.get());
    engine.drain();
    const EngineStats s = engine.stats();
    expect_exact_accounting(s);
    expect_bit_identical(responses, m, x);
    std::uint64_t completed = 0;
    for (const Response& r : responses) {
      if (r.outcome == Outcome::Completed) ++completed;
    }
    EXPECT_EQ(completed, s.completed) << "seed " << seed;
    EXPECT_GE(s.completed, 1u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace candle

// Serving subsystem tests: arrival-trace determinism, the latency
// histogram, dynamic batching + admission control, the multi-worker engine
// (bit-identity with serial predict, exact shed accounting, drain), and the
// hpcsim serving estimator.  The engine cases double as the TSan targets
// wired into CI: many producer threads against many worker threads over one
// shared const Model.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "hpcsim/machine.hpp"
#include "hpcsim/perfmodel.hpp"
#include "nn/model.hpp"
#include "runtime/rng.hpp"
#include "serve/supervisor.hpp"

namespace candle {
namespace {

using serve::ArrivalTrace;
using serve::BatchPolicy;
using serve::DynamicBatcher;
using serve::EngineStats;
using serve::LatencyHistogram;
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

Request req_with_id(std::uint64_t id) {
  Request r;
  r.id = id;
  return r;
}

Request request_for_row(const Tensor& x, Index row) {
  Request r;
  r.id = static_cast<std::uint64_t>(row);
  const Index f = x.numel() / x.dim(0);
  r.input.assign(x.data() + row * f, x.data() + (row + 1) * f);
  return r;
}

// ---- arrival traces ---------------------------------------------------------

TEST(ArrivalTraces, PoissonIsDeterministicAndOnRate) {
  const ArrivalTrace a = serve::poisson_trace(500.0, 4.0, 42);
  const ArrivalTrace b = serve::poisson_trace(500.0, 4.0, 42);
  ASSERT_EQ(a.at_s.size(), b.at_s.size());
  for (std::size_t i = 0; i < a.at_s.size(); ++i) {
    EXPECT_EQ(a.at_s[i], b.at_s[i]);
  }
  // ~2000 arrivals: the empirical rate concentrates within a few percent.
  EXPECT_NEAR(a.offered_rps(), 500.0, 500.0 * 0.1);
  EXPECT_TRUE(std::is_sorted(a.at_s.begin(), a.at_s.end()));
  EXPECT_LT(a.at_s.back(), a.duration_s);

  const ArrivalTrace c = serve::poisson_trace(500.0, 4.0, 43);
  EXPECT_NE(a.at_s, c.at_s);  // different seed, different trace
}

TEST(ArrivalTraces, MmppRateSitsBetweenBaseAndBurst) {
  serve::BurstyTraffic traffic;
  traffic.base_rps = 100.0;
  traffic.burst_rps = 2000.0;
  const ArrivalTrace a = serve::mmpp_trace(traffic, 10.0, 7);
  const ArrivalTrace b = serve::mmpp_trace(traffic, 10.0, 7);
  EXPECT_EQ(a.at_s, b.at_s);
  EXPECT_TRUE(std::is_sorted(a.at_s.begin(), a.at_s.end()));
  EXPECT_GT(a.offered_rps(), traffic.base_rps);
  EXPECT_LT(a.offered_rps(), traffic.burst_rps);
}

TEST(ArrivalTraces, RejectsDegenerateParameters) {
  EXPECT_THROW(serve::poisson_trace(0.0, 1.0, 0), Error);
  EXPECT_THROW(serve::poisson_trace(10.0, 0.0, 0), Error);
}

// ---- latency histogram ------------------------------------------------------

TEST(LatencyHistogramTest, QuantilesResolveWithinBucketWidth) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(1e-3);
  h.record(1e-2);
  const auto s = h.snapshot();
  EXPECT_EQ(s.total, 101u);
  // p50 lands in the 1ms bucket; buckets are ~10% wide, so the reported
  // upper edge is within [1.0, 1.1]x the true value.
  EXPECT_GE(s.quantile(0.5), 1e-3);
  EXPECT_LE(s.quantile(0.5), 1.11e-3);
  // The single 10ms outlier is the top ~1% of 101 samples.
  EXPECT_GE(s.quantile(1.0), 1e-2);
  EXPECT_LE(s.quantile(1.0), 1.11e-2);
  EXPECT_NEAR(s.mean_s(), (100.0 * 1e-3 + 1e-2) / 101.0, 1e-9);
}

TEST(LatencyHistogramTest, ClampsOutOfRangeSamples) {
  LatencyHistogram h;
  h.record(0.0);     // below the 1us floor
  h.record(-1.0);    // nonsense, still counted
  h.record(1e12);    // past the top decade
  const auto s = h.snapshot();
  EXPECT_EQ(s.total, 3u);
  EXPECT_GT(s.quantile(1.0), 0.0);
}

TEST(LatencyHistogramTest, EmptySnapshotIsZero) {
  LatencyHistogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.quantile(0.99), 0.0);
  EXPECT_EQ(s.mean_s(), 0.0);
}

// ---- predict batching regression -------------------------------------------

TEST(PredictBatching, TailBatchesAreBitIdentical) {
  Model m = mlp(6, 16, 3, 11);
  const Tensor x = random_inputs(13, 6, 21);  // 13 % 4 != 0: tail batch
  const Tensor full = m.predict(x, 13);
  for (Index bs : {1, 4, 5, 8, 32}) {
    const Tensor out = m.predict(x, bs);
    ASSERT_EQ(out.numel(), full.numel());
    for (Index i = 0; i < out.numel(); ++i) {
      ASSERT_EQ(out[i], full[i]) << "batch_size=" << bs << " elem " << i;
    }
  }
}

TEST(PredictBatching, InferMatchesInferenceForwardBitwise) {
  Model m = mlp(6, 16, 3, 11);
  const Tensor x = random_inputs(9, 6, 22);
  const Tensor via_infer = m.infer(x);
  const Tensor via_forward = m.forward(x, /*training=*/false);
  ASSERT_EQ(via_infer.numel(), via_forward.numel());
  for (Index i = 0; i < via_infer.numel(); ++i) {
    ASSERT_EQ(via_infer[i], via_forward[i]);
  }
}

TEST(PredictBatching, EmptyInputYieldsEmptyOutput) {
  Model m = mlp(6, 16, 3, 11);
  const Tensor out = m.predict(Tensor({0, 6}));
  EXPECT_EQ(out.dim(0), 0);
}

// ---- dynamic batcher --------------------------------------------------------

BatchPolicy tiny_policy() {
  BatchPolicy p;
  p.max_batch = 4;
  p.max_wait_s = 1e-3;
  p.queue_capacity = 8;
  return p;
}

TEST(DynamicBatcherTest, ClosesOnCountWithoutWaiting) {
  DynamicBatcher b(tiny_policy(), 1);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(b.submit(req_with_id(static_cast<std::uint64_t>(i))));
  }
  std::vector<DynamicBatcher::PendingPtr> batch;
  b.acquire_rows(batch);
  ASSERT_EQ(batch.size(), 4u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i]->request.id, i);  // arrival order preserved
  }
}

TEST(DynamicBatcherTest, ClosesShortBatchOnTimeout) {
  DynamicBatcher b(tiny_policy(), 1);
  auto f = b.submit(req_with_id(1));
  std::vector<DynamicBatcher::PendingPtr> batch;
  b.acquire_rows(batch);  // blocks ~max_wait_s then yields 1 row
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0]->request.id, 1u);
}

TEST(DynamicBatcherTest, ContinuousHandsOutALoneRowWithoutWaiting) {
  BatchPolicy p = tiny_policy();
  p.max_wait_s = 30.0;  // a coalescing window this test would time out on
  p.continuous = true;
  DynamicBatcher b(p, 1);
  auto f = b.submit(req_with_id(1));
  const auto t0 = DynamicBatcher::Clock::now();
  std::vector<DynamicBatcher::PendingPtr> batch;
  b.acquire_rows(batch);
  const double waited_s =
      std::chrono::duration<double>(DynamicBatcher::Clock::now() - t0)
          .count();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0]->request.id, 1u);
  EXPECT_LT(waited_s, 1.0);
}

TEST(DynamicBatcherTest, ShedsWhenQueueIsFull) {
  BatchPolicy p = tiny_policy();
  p.queue_capacity = 2;
  DynamicBatcher b(p, 1);
  auto f1 = b.submit(req_with_id(1));
  auto f2 = b.submit(req_with_id(2));
  auto f3 = b.submit(req_with_id(3));
  EXPECT_EQ(f3.get().outcome, Outcome::ShedQueueFull);  // resolves instantly
  const auto c = b.counters();
  EXPECT_EQ(c.submitted, 3u);
  EXPECT_EQ(c.admitted, 2u);
  EXPECT_EQ(c.shed_queue_full, 1u);
}

TEST(DynamicBatcherTest, ShedsHopelessDeadlinesOnceCalibrated) {
  DynamicBatcher b(tiny_policy(), 1);
  // Uncalibrated: admission is permissive even for tight deadlines.
  Request tight;
  tight.id = 1;
  tight.deadline_s = 1e-6;
  auto f1 = b.submit(tight);
  EXPECT_EQ(b.counters().admitted, 1u);
  // After a 1 s/row measurement the predicted wait is ~4 s >> any sane
  // deadline, so the next tight request is shed on arrival...
  b.record_service(1, 1.0);
  tight.id = 2;
  auto f2 = b.submit(tight);
  EXPECT_EQ(f2.get().outcome, Outcome::ShedDeadline);
  // ...while an unbounded-deadline request is still admitted.
  auto f3 = b.submit(req_with_id(3));
  const auto c = b.counters();
  EXPECT_EQ(c.admitted, 2u);
  EXPECT_EQ(c.shed_deadline, 1u);
  EXPECT_GT(b.predicted_wait_s(), 0.0);
}

TEST(DynamicBatcherTest, DrainRejectsLateSubmitsAndFlushesQueue) {
  DynamicBatcher b(tiny_policy(), 1);
  auto f1 = b.submit(req_with_id(1));
  b.start_drain();
  auto f2 = b.submit(req_with_id(2));
  EXPECT_EQ(f2.get().outcome, Outcome::ShedShutdown);
  std::vector<DynamicBatcher::PendingPtr> batch;
  b.acquire_rows(batch);  // queued row still comes out
  ASSERT_EQ(batch.size(), 1u);
  b.acquire_rows(batch);
  EXPECT_TRUE(batch.empty());  // then the batcher reports drained
  b.acquire_rows(batch);
  EXPECT_TRUE(batch.empty());  // idempotently
}

// ---- engine -----------------------------------------------------------------

// The engine with its watchdog kept out: it never hedges, retires or browns
// out, so these cases see batching, admission and drain alone.
SupervisedOptions unsupervised(Index workers) {
  SupervisedOptions opt;
  opt.workers = workers;
  opt.supervise.hedging = false;
  opt.supervise.hang_min_age_s = 1e9;
  opt.supervise.brownout_on_shrunken_pool = false;
  opt.supervise.brownout_enter_shed_frac = 2.0;  // a shed fraction is <= 1
  return opt;
}

TEST(EngineTest, ResponsesAreBitIdenticalToSerialPredict) {
  const Model m = mlp(8, 32, 4, 3);
  const Tensor x = random_inputs(64, 8, 5);
  const Tensor expected = m.predict(x, 64);

  SupervisedOptions opt = unsupervised(3);
  opt.batch.max_batch = 8;
  opt.batch.max_wait_s = 5e-4;
  SupervisedEngine engine(m, opt);
  std::vector<std::future<Response>> futures;
  for (Index i = 0; i < x.dim(0); ++i) {
    futures.push_back(engine.submit(request_for_row(x, i)));
  }
  const Index out_f = expected.numel() / expected.dim(0);
  for (auto& f : futures) {
    Response r = f.get();
    ASSERT_EQ(r.outcome, Outcome::Completed);
    ASSERT_EQ(static_cast<Index>(r.output.size()), out_f);
    const Index row = static_cast<Index>(r.id);
    for (Index j = 0; j < out_f; ++j) {
      // Dynamic batches form differently from predict's fixed slices, but
      // every output row must still be bit-identical to the serial path.
      ASSERT_EQ(r.output[static_cast<std::size_t>(j)],
                expected[row * out_f + j])
          << "row " << row;
    }
    EXPECT_GE(r.batch_rows, 1);
    EXPECT_LE(r.batch_rows, opt.batch.max_batch);
    EXPECT_GE(r.latency_s, r.queue_wait_s);
  }
  engine.drain();
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted, 64u);
  EXPECT_EQ(s.completed, 64u);
  EXPECT_EQ(s.shed_total(), 0u);
  EXPECT_EQ(s.latency.total, 64u);
  EXPECT_GE(s.batches, 64u / static_cast<std::uint64_t>(opt.batch.max_batch));
  EXPECT_GT(s.mean_batch_rows(), 0.0);
}

TEST(EngineTest, ConcurrentProducersKeepExactAccounting) {
  const Model m = mlp(8, 32, 4, 3);
  const Tensor x = random_inputs(32, 8, 9);
  const Tensor expected = m.predict(x, 32);
  const Index out_f = expected.numel() / expected.dim(0);

  SupervisedOptions opt = unsupervised(4);
  opt.batch.max_batch = 8;
  opt.batch.max_wait_s = 5e-4;
  SupervisedEngine engine(m, opt);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      Pcg32 rng(static_cast<std::uint64_t>(t) + 100);
      for (int i = 0; i < kPerThread; ++i) {
        const Index row =
            static_cast<Index>(rng.next_double() * 31.999);
        Response r = engine.submit(request_for_row(x, row)).get();
        if (r.outcome != Outcome::Completed) continue;
        bool match = true;
        for (Index j = 0; j < out_f; ++j) {
          if (r.output[static_cast<std::size_t>(j)] !=
              expected[row * out_f + j]) {
            match = false;
          }
        }
        (match ? ok : mismatches).fetch_add(1);
      }
    });
  }
  for (auto& p : producers) p.join();
  engine.drain();
  const EngineStats s = engine.stats();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.submitted, s.completed + s.shed_total());
  EXPECT_EQ(s.completed, ok.load());
  EXPECT_EQ(s.latency.total, s.completed);
}

TEST(EngineTest, OverloadShedsInsteadOfQueueingUnboundedly) {
  const Model m = mlp(16, 128, 4, 3);
  const Tensor x = random_inputs(4, 16, 13);

  SupervisedOptions opt = unsupervised(1);
  opt.batch.max_batch = 4;
  opt.batch.max_wait_s = 1e-4;
  opt.batch.queue_capacity = 4;  // tiny bound: flood must shed
  SupervisedEngine engine(m, opt);
  std::vector<std::future<Response>> futures;
  constexpr int kFlood = 400;
  for (int i = 0; i < kFlood; ++i) {
    futures.push_back(engine.submit(request_for_row(x, i % 4)));
  }
  engine.drain();
  std::uint64_t completed = 0, shed = 0;
  for (auto& f : futures) {
    (f.get().outcome == Outcome::Completed ? completed : shed) += 1;
  }
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kFlood));
  EXPECT_EQ(s.submitted, s.completed + s.shed_total());
  EXPECT_EQ(s.completed, completed);
  EXPECT_EQ(s.shed_total(), shed);
  EXPECT_GT(s.shed_total(), 0u);  // the bounded queue did its job
  EXPECT_LE(s.peak_queue_depth, 4);
}

TEST(EngineTest, SubmitAfterDrainShedsShutdown) {
  const Model m = mlp(8, 16, 4, 3);
  SupervisedEngine engine(m, {});
  engine.drain();
  engine.drain();  // idempotent
  Request r = request_for_row(random_inputs(1, 8, 1), 0);
  EXPECT_EQ(engine.submit(std::move(r)).get().outcome,
            Outcome::ShedShutdown);
  EXPECT_EQ(engine.stats().shed_shutdown, 1u);
}

TEST(EngineTest, RejectsMalformedInput) {
  const Model m = mlp(8, 16, 4, 3);
  SupervisedEngine engine(m, {});
  Request r;
  r.input.assign(3, 0.0f);  // wrong sample size
  EXPECT_THROW(engine.submit(std::move(r)), Error);
}

TEST(LatencyHistogramTest, SnapshotConcurrentWithRecordIsNeverTorn) {
  // Satellite of the serving failure model: snapshot() racing wait-free
  // record() must never yield a torn count/sum pair.  Producers hammer two
  // known values; every concurrent snapshot must satisfy (a) total equals
  // the sum of its own bucket counts by construction, (b) the mean lies in
  // the envelope its counts imply, and (c) quantiles come from those same
  // counts — no mix of old counts and new sum.
  LatencyHistogram h;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50000;
  const double lo = 1e-3, hi = 1e-2;
  std::atomic<bool> start{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerProducer; ++i) {
        h.record((i + t) % 2 == 0 ? lo : hi);
      }
    });
  }
  start.store(true, std::memory_order_release);
  const double env_lo = LatencyHistogram::bucket_lower_edge(
      LatencyHistogram::bucket_of(lo));
  const double env_hi = LatencyHistogram::bucket_upper_edge(
      LatencyHistogram::bucket_of(hi));
  std::uint64_t last_total = 0;
  int snapshots = 0;
  while (h.total() < static_cast<std::uint64_t>(kProducers * kPerProducer)) {
    const auto s = h.snapshot();
    ++snapshots;
    std::uint64_t from_counts = 0;
    for (auto c : s.counts) from_counts += c;
    ASSERT_EQ(s.total, from_counts);
    ASSERT_GE(s.total, last_total);  // time never runs backwards
    last_total = s.total;
    if (s.total > 0) {
      ASSERT_GE(s.mean_s(), env_lo);
      ASSERT_LE(s.mean_s(), env_hi);
      // Quantiles derive from the same counts array: both recorded values
      // bound every quantile.
      ASSERT_GE(s.quantile(0.5), env_lo);
      ASSERT_LE(s.quantile(1.0), env_hi);
    }
  }
  for (auto& p : producers) p.join();
  EXPECT_GT(snapshots, 0);
  // Quiescent snapshot is exact to the last bit: full count, exact sum.
  const auto s = h.snapshot();
  EXPECT_TRUE(s.exact);
  EXPECT_EQ(s.total, static_cast<std::uint64_t>(kProducers * kPerProducer));
  const double true_sum =
      kProducers * (kPerProducer / 2) * (lo + hi);
  EXPECT_NEAR(s.sum_s, true_sum, 1e-6 * true_sum);
}

TEST(EngineTest, DrainConcurrentWithSubmitsResolvesEveryFutureExactlyOnce) {
  // Satellite of the serving failure model: the destructor's drain path
  // racing live submitters.  Every future must resolve exactly once —
  // Completed for requests that beat the drain, ShedShutdown for the rest —
  // with no lost promises (a .get() that never returns) and no
  // double-resolution (promise::set_value would throw).  Run under TSan in
  // CI.
  const Model m = mlp(8, 32, 4, 3);
  const Tensor x = random_inputs(8, 8, 21);
  SupervisedOptions opt = unsupervised(2);
  opt.batch.max_batch = 4;
  opt.batch.max_wait_s = 1e-4;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::vector<std::future<Response>>> futures(kThreads);
  {
    SupervisedEngine engine(m, opt);
    std::atomic<bool> start{false};
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
      producers.emplace_back([&, t] {
        while (!start.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        for (int i = 0; i < kPerThread; ++i) {
          futures[static_cast<std::size_t>(t)].push_back(
              engine.submit(request_for_row(x, i % 8)));
        }
      });
    }
    start.store(true, std::memory_order_release);
    // Drain mid-flood: half the submitters are typically still running.
    engine.drain();
    for (auto& p : producers) p.join();
    // Submits that arrived after the drain flag must have shed, not queued.
    const EngineStats s = engine.stats();
    EXPECT_EQ(s.submitted,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(s.submitted, s.completed + s.shed_total());
    // Engine destructor runs here with all submitters done — the
    // destructor-drain path is idempotent over the explicit drain above.
  }
  std::uint64_t resolved = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      ASSERT_TRUE(f.valid());
      const Response r = f.get();  // throws if the promise was never set
      ASSERT_TRUE(r.outcome == Outcome::Completed ||
                  r.outcome == Outcome::ShedShutdown ||
                  r.outcome == Outcome::ShedQueueFull ||
                  r.outcome == Outcome::ShedDeadline);
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, static_cast<std::uint64_t>(kThreads * kPerThread));
}

// ---- hpcsim serving estimator ----------------------------------------------

TEST(EstimateServing, MeasuredOverridePinsCapacityExactly) {
  hpcsim::ServingPlan plan;
  plan.workers = 2;
  plan.max_batch = 32;
  plan.measured_batch_service_s = 0.01;
  hpcsim::TrainingWorkload w;  // unused with the override
  const auto e = hpcsim::estimate_serving(hpcsim::summit_node(), w, plan,
                                          3200.0);
  EXPECT_DOUBLE_EQ(e.capacity_rps, 2.0 * 32.0 / 0.01);  // 6400
  EXPECT_DOUBLE_EQ(e.utilization, 0.5);
  EXPECT_EQ(e.shed_fraction, 0.0);
  EXPECT_DOUBLE_EQ(e.throughput_rps, 3200.0);
  EXPECT_GT(e.mean_latency_s, e.batch_service_s);
}

TEST(EstimateServing, ThroughputKneesAtCapacity) {
  hpcsim::ServingPlan plan;
  plan.workers = 2;
  plan.max_batch = 32;
  plan.measured_batch_service_s = 0.01;
  hpcsim::TrainingWorkload w;
  const auto node = hpcsim::summit_node();
  double prev_latency = 0.0;
  for (double frac : {0.25, 0.5, 0.9, 1.5, 3.0}) {
    const auto e = hpcsim::estimate_serving(node, w, plan, 6400.0 * frac);
    // Goodput tracks offered load below capacity and clamps above it; the
    // surplus turns into shed fraction, and latency grows monotonically
    // until the bounded queue caps it.
    EXPECT_DOUBLE_EQ(e.throughput_rps, std::min(6400.0 * frac, 6400.0));
    if (frac > 1.0) {
      EXPECT_NEAR(e.shed_fraction, 1.0 - 1.0 / frac, 1e-12);
    } else {
      EXPECT_EQ(e.shed_fraction, 0.0);
    }
    EXPECT_GE(e.mean_latency_s, prev_latency);
    prev_latency = e.mean_latency_s;
  }
}

TEST(EstimateServing, RooflinePathGivesFiniteCapacity) {
  hpcsim::TrainingWorkload w;
  w.flops_per_sample = 2e6;
  w.parameters = 1e6;
  w.bytes_per_sample = 240.0;
  w.activation_bytes_per_sample = 4096.0;
  hpcsim::ServingPlan plan;  // no measured override: roofline path
  const auto e =
      hpcsim::estimate_serving(hpcsim::summit_node(), w, plan, 1000.0);
  EXPECT_GT(e.batch_service_s, 0.0);
  EXPECT_GT(e.capacity_rps, 0.0);
  EXPECT_TRUE(std::isfinite(e.mean_latency_s));
}

// ---- continuous-batching estimator ------------------------------------------

TEST(EstimateServingContinuous, SharesCapacityWithCoalescingEstimator) {
  // Continuous batching changes *when* rows join a batch, not how fast a
  // full batch computes: at the same plan both estimators must agree on
  // service time, capacity, goodput, and shed fraction exactly.
  hpcsim::ServingPlan plan;
  plan.workers = 2;
  plan.max_batch = 32;
  plan.measured_batch_service_s = 0.01;
  hpcsim::TrainingWorkload w;
  const auto node = hpcsim::summit_node();
  for (double offered : {100.0, 3200.0, 6400.0, 12800.0}) {
    const auto coal = hpcsim::estimate_serving(node, w, plan, offered);
    const auto cont =
        hpcsim::estimate_serving_continuous(node, w, plan, offered);
    EXPECT_DOUBLE_EQ(cont.batch_service_s, coal.batch_service_s);
    EXPECT_DOUBLE_EQ(cont.capacity_rps, coal.capacity_rps);
    EXPECT_DOUBLE_EQ(cont.throughput_rps, coal.throughput_rps);
    EXPECT_DOUBLE_EQ(cont.shed_fraction, coal.shed_fraction);
    EXPECT_DOUBLE_EQ(cont.row_service_s, coal.batch_service_s / 32.0);
  }
}

TEST(EstimateServingContinuous, NoFillWaitTermAtLowLoad) {
  // The defining cut: the coalescing estimator's low-load latency is
  // dominated by the fill window (batch_timeout_s), while the continuous
  // estimator has no fill-wait term at all — its latency must be
  // independent of the timeout and far below the coalescing latency when
  // the window is wide.
  hpcsim::ServingPlan plan;
  plan.workers = 2;
  plan.max_batch = 32;
  plan.measured_batch_service_s = 0.01;
  plan.batch_timeout_s = 0.2;  // wide-open window
  hpcsim::TrainingWorkload w;
  const auto node = hpcsim::summit_node();
  // Deep below saturation, sparse enough that the fill window expires on
  // the clock ((b-1)/(2*fill) > timeout), i.e. the timeout is what binds.
  const double offered = 0.005 * 6400.0;

  const auto coal = hpcsim::estimate_serving(node, w, plan, offered);
  const auto cont = hpcsim::estimate_serving_continuous(node, w, plan, offered);
  EXPECT_GT(coal.batch_fill_wait_s, 0.0);
  EXPECT_LT(cont.mean_latency_s, coal.mean_latency_s);

  hpcsim::ServingPlan plan2 = plan;
  plan2.batch_timeout_s = 0.4;  // doubling the window ...
  const auto coal2 = hpcsim::estimate_serving(node, w, plan2, offered);
  const auto cont2 =
      hpcsim::estimate_serving_continuous(node, w, plan2, offered);
  EXPECT_GT(coal2.mean_latency_s, coal.mean_latency_s);  // ... hurts coalescing
  EXPECT_DOUBLE_EQ(cont2.mean_latency_s, cont.mean_latency_s);  // ... not this
}

TEST(EstimateServingContinuous, LatencyGrowsMonotonicallyAndSaturates) {
  hpcsim::ServingPlan plan;
  plan.workers = 2;
  plan.max_batch = 32;
  plan.queue_capacity = 128;
  plan.measured_batch_service_s = 0.01;
  hpcsim::TrainingWorkload w;
  const auto node = hpcsim::summit_node();
  double prev_latency = 0.0;
  for (double frac : {0.1, 0.25, 0.5, 0.9, 1.5, 3.0}) {
    const auto e =
        hpcsim::estimate_serving_continuous(node, w, plan, 6400.0 * frac);
    EXPECT_GE(e.mean_latency_s, prev_latency);
    prev_latency = e.mean_latency_s;
    EXPECT_GE(e.mean_batch_rows, 1.0);
    EXPECT_LE(e.mean_batch_rows, 32.0);
    // Queue wait is bounded by the full bounded queue draining row-by-row
    // across the pool.
    EXPECT_LE(e.queue_wait_s,
              128.0 * e.row_service_s / 2.0 + 1e-12);
    if (frac >= 1.5) {
      EXPECT_NEAR(e.shed_fraction, 1.0 - 1.0 / frac, 1e-12);
      EXPECT_DOUBLE_EQ(e.mean_batch_rows, 32.0);  // saturated slots run full
    }
  }
}

}  // namespace
}  // namespace candle

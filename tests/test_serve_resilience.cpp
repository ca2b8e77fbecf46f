// Serving-path resilience (chaos) suite: the SupervisedEngine under the
// deterministic serving fault schedule — worker crashes recovered by
// re-enqueue + replacement, hangs raced by hedged duplicates and escalated
// to retirement, NaN-poisoned batches recomputed, brownout degradation, and
// the extended exact-accounting invariant
//   submitted == completed + shed_total() + failed
// after every drain, with hedged/re-dispatched duplicates resolving each
// request exactly once.  The whole file is a TSan target in CI.
//
// Determinism policy: fault *schedules* are seeded and replay bit-identical
// (pinned below); engine-side assertions are phrased so they hold for every
// legal thread interleaving — exact counters where the schedule forces them
// (single-worker pools, count-closed batches), invariants everywhere else.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "hpcsim/machine.hpp"
#include "hpcsim/perfmodel.hpp"
#include "hpcsim/resilience.hpp"
#include "nn/model.hpp"
#include "runtime/fault.hpp"
#include "runtime/rng.hpp"
#include "serve/supervisor.hpp"

namespace candle {
namespace {

using runtime::FaultInjector;
using runtime::FaultKind;
using runtime::FaultSchedule;
using runtime::serving_chaos_schedule;
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

/// submitted == completed + shed + failed, and the histograms agree.
void expect_exact_accounting(const EngineStats& s) {
  EXPECT_EQ(s.accounting_gap(), 0)
      << "submitted=" << s.submitted << " completed=" << s.completed
      << " shed=" << s.shed_total() << " failed=" << s.failed;
  EXPECT_EQ(s.latency.total, s.completed);
  EXPECT_EQ(s.queue_wait.total, s.completed);
}

Index count_log(const FaultInjector& inj, FaultKind kind,
                const std::string& phase) {
  Index n = 0;
  for (const auto& rec : inj.log()) {
    if (rec.kind == kind && rec.phase == phase) ++n;
  }
  return n;
}

// ---- seeded chaos schedules -------------------------------------------------

TEST(ServingChaosSchedule, ReplaysBitIdenticalAndCellsAreUnique) {
  const FaultSchedule a = serving_chaos_schedule(77, 20, 4, 3, 2, 2, 0.05);
  const FaultSchedule b = serving_chaos_schedule(77, 20, 4, 3, 2, 2, 0.05);
  ASSERT_EQ(a.events.size(), 7u);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].step, b.events[i].step);
    EXPECT_EQ(a.events[i].rank, b.events[i].rank);
    EXPECT_EQ(a.events[i].delay_s, b.events[i].delay_s);
  }
  // At most one event per (batch ordinal, worker) cell, all in range.
  std::vector<std::pair<Index, Index>> cells;
  for (const auto& e : a.events) {
    EXPECT_GE(e.step, 0);
    EXPECT_LT(e.step, 20);
    EXPECT_GE(e.rank, 0);
    EXPECT_LT(e.rank, 4);
    cells.emplace_back(e.step, e.rank);
  }
  std::sort(cells.begin(), cells.end());
  EXPECT_EQ(std::adjacent_find(cells.begin(), cells.end()), cells.end());
  // A different seed draws a different plan.
  const FaultSchedule c = serving_chaos_schedule(78, 20, 4, 3, 2, 2, 0.05);
  bool differs = false;
  for (std::size_t i = 0; i < c.events.size(); ++i) {
    if (c.events[i].step != a.events[i].step ||
        c.events[i].rank != a.events[i].rank) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(ServingChaosSchedule, NamesAndBuildersCoverServingKinds) {
  EXPECT_STREQ(runtime::fault_kind_name(FaultKind::WorkerCrash),
               "worker-crash");
  EXPECT_STREQ(runtime::fault_kind_name(FaultKind::WorkerHang), "worker-hang");
  EXPECT_STREQ(runtime::fault_kind_name(FaultKind::BatchCorruption),
               "batch-corruption");
  FaultSchedule s;
  s.kill_worker(3, 1).hang_worker(4, 0, 0.25).corrupt_batch(5, 2, 7);
  ASSERT_EQ(s.events.size(), 3u);
  EXPECT_EQ(s.events[0].kind, FaultKind::WorkerCrash);
  EXPECT_EQ(s.events[1].delay_s, 0.25);
  EXPECT_EQ(s.events[2].corrupt_count, 7);
}

// ---- supervised engine: healthy path ---------------------------------------

TEST(SupervisedEngineTest, HealthyRunIsBitIdenticalWithZeroFaultCounters) {
  const Model m = mlp(8, 32, 4, 3);
  const Tensor x = random_inputs(32, 8, 11);
  const Tensor expected = m.predict(x, 32);
  const Index out_f = expected.numel() / expected.dim(0);

  SupervisedOptions opt;
  opt.workers = 3;
  opt.batch.max_batch = 8;
  opt.batch.max_wait_s = 5e-4;
  SupervisedEngine engine(m, opt);
  std::vector<std::future<Response>> futures;
  for (Index i = 0; i < 32; ++i) {
    futures.push_back(engine.submit(request_for_row(x, i)));
  }
  for (auto& f : futures) {
    const Response r = f.get();
    ASSERT_EQ(r.outcome, Outcome::Completed);
    const Index row = static_cast<Index>(r.id);
    for (Index j = 0; j < out_f; ++j) {
      ASSERT_EQ(r.output[static_cast<std::size_t>(j)],
                expected[row * out_f + j]);
    }
  }
  engine.drain();
  const EngineStats s = engine.stats();
  expect_exact_accounting(s);
  EXPECT_EQ(s.completed, 32u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.worker_crashes, 0u);
  EXPECT_EQ(s.worker_hangs, 0u);
  EXPECT_EQ(s.worker_restarts, 0u);
  EXPECT_EQ(s.corruption_retries, 0u);
  EXPECT_EQ(s.requeued, 0u);
}

// ---- worker crash recovery --------------------------------------------------

TEST(SupervisedEngineTest, CrashedWorkerIsReplacedAndItsBatchRecovered) {
  const Model m = mlp(8, 32, 4, 3);
  const Tensor x = random_inputs(32, 8, 13);
  const Tensor expected = m.predict(x, 32);
  const Index out_f = expected.numel() / expected.dim(0);

  // Single worker, crash on its second batch: the abandoned rows must be
  // re-enqueued and served bit-identically by the replacement (fresh id 1 —
  // the schedule entry for worker 0 never re-fires).
  FaultSchedule schedule;
  schedule.kill_worker(/*batch=*/1, /*worker=*/0);
  FaultInjector injector(std::move(schedule));

  SupervisedOptions opt;
  opt.workers = 1;
  opt.batch.max_batch = 4;
  opt.batch.max_wait_s = 1e-3;
  opt.supervise.hedging = false;  // keep the requeue counter crash-only
  opt.supervise.restart_backoff_s = 1e-3;
  SupervisedEngine engine(m, opt, &injector);
  std::vector<std::future<Response>> futures;
  for (Index i = 0; i < 32; ++i) {
    futures.push_back(engine.submit(request_for_row(x, i)));
  }
  for (auto& f : futures) {
    const Response r = f.get();
    ASSERT_EQ(r.outcome, Outcome::Completed);
    const Index row = static_cast<Index>(r.id);
    for (Index j = 0; j < out_f; ++j) {
      ASSERT_EQ(r.output[static_cast<std::size_t>(j)],
                expected[row * out_f + j]);
    }
  }
  engine.drain();
  const EngineStats s = engine.stats();
  expect_exact_accounting(s);
  EXPECT_EQ(s.completed, 32u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.worker_crashes, 1u);
  EXPECT_EQ(s.worker_restarts, 1u);
  EXPECT_GE(s.requeued, 1u);
  EXPECT_EQ(count_log(injector, FaultKind::WorkerCrash, "injected"), 1);
  EXPECT_EQ(count_log(injector, FaultKind::WorkerCrash, "detected"), 1);
  EXPECT_EQ(injector.remaining(), 0);
}

TEST(SupervisedEngineTest, CrashPastRequestBudgetFailsExplicitly) {
  const Model m = mlp(8, 16, 4, 3);
  const Tensor x = random_inputs(8, 8, 17);

  FaultSchedule schedule;
  schedule.kill_worker(0, 0);
  FaultInjector injector(std::move(schedule));

  SupervisedOptions opt;
  opt.workers = 1;
  opt.batch.max_batch = 4;
  opt.batch.max_wait_s = 0.05;  // batches close on count, not the clock
  opt.supervise.max_request_crashes = 0;  // one abandonment = failure
  opt.supervise.hedging = false;
  SupervisedEngine engine(m, opt, &injector);

  // Phase 1: exactly one full batch; the worker crashes holding it, and
  // with a zero crash budget all four rows must resolve Failed.
  std::vector<std::future<Response>> first;
  for (Index i = 0; i < 4; ++i) {
    first.push_back(engine.submit(request_for_row(x, i)));
  }
  for (auto& f : first) EXPECT_EQ(f.get().outcome, Outcome::Failed);
  // Phase 2: the replacement worker serves the next batch normally.
  std::vector<std::future<Response>> second;
  for (Index i = 4; i < 8; ++i) {
    second.push_back(engine.submit(request_for_row(x, i)));
  }
  for (auto& f : second) EXPECT_EQ(f.get().outcome, Outcome::Completed);
  engine.drain();
  const EngineStats s = engine.stats();
  expect_exact_accounting(s);
  EXPECT_EQ(s.failed, 4u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.requeued, 0u);  // past budget: failed, never re-enqueued
  EXPECT_EQ(s.worker_crashes, 1u);
}

TEST(SupervisedEngineTest, ExhaustedRestartBudgetCollapsesExplicitly) {
  const Model m = mlp(8, 16, 4, 3);
  const Tensor x = random_inputs(8, 8, 19);

  FaultSchedule schedule;
  schedule.kill_worker(0, 0);
  FaultInjector injector(std::move(schedule));

  SupervisedOptions opt;
  opt.workers = 1;
  opt.batch.max_batch = 4;
  opt.batch.max_wait_s = 0.05;
  opt.supervise.max_restarts = 0;  // the pool cannot be rebuilt
  opt.supervise.hedging = false;
  SupervisedEngine engine(m, opt, &injector);

  std::vector<std::future<Response>> futures;
  for (Index i = 0; i < 4; ++i) {
    futures.push_back(engine.submit(request_for_row(x, i)));
  }
  // The lone worker dies holding the batch; with no restart budget the
  // supervisor must fail every admitted request rather than hang clients.
  for (auto& f : futures) EXPECT_EQ(f.get().outcome, Outcome::Failed);
  // The collapsed engine sheds new arrivals instead of queueing them.
  const Response late = engine.submit(request_for_row(x, 0)).get();
  EXPECT_EQ(late.outcome, Outcome::ShedShutdown);
  engine.drain();
  const EngineStats s = engine.stats();
  expect_exact_accounting(s);
  EXPECT_EQ(s.failed, 4u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.worker_restarts, 0u);
}

// ---- hangs: hedging and escalation ------------------------------------------

TEST(SupervisedEngineTest, HedgedDuplicateRacesHungWorkerFirstResultWins) {
  const Model m = mlp(8, 32, 4, 3);
  const Tensor x = random_inputs(32, 8, 23);

  // Worker 0 stalls 200ms on its first batch.  The hedge fires at 5ms and a
  // healthy sibling serves the duplicate; when the sleeper wakes, its
  // results lose the exactly-once race and are discarded — never
  // double-counted.  Retirement is disabled (huge hang threshold) so this
  // isolates the hedging path.
  FaultSchedule schedule;
  schedule.hang_worker(0, 0, 0.2);
  FaultInjector injector(std::move(schedule));

  SupervisedOptions opt;
  opt.workers = 2;
  opt.batch.max_batch = 4;
  opt.batch.max_wait_s = 1e-3;
  opt.supervise.hedge_min_age_s = 5e-3;
  opt.supervise.hang_min_age_s = 10.0;
  opt.supervise.hang_latency_mult = 1e6;
  SupervisedEngine engine(m, opt, &injector);
  // The hang is keyed to worker 0's first batch, but on a loaded single-core
  // host one worker can drain an entire wave before its sibling is ever
  // scheduled — then that batch does not exist yet.  Submit waves until
  // worker 0 takes its first batch and the hang fires; every wave must
  // complete either way, so the assertions below are unchanged.
  std::uint64_t submitted = 0;
  for (int wave = 0; wave < 50; ++wave) {
    std::vector<std::future<Response>> futures;
    for (Index i = 0; i < 32; ++i) {
      futures.push_back(engine.submit(request_for_row(x, i)));
    }
    submitted += 32;
    for (auto& f : futures) EXPECT_EQ(f.get().outcome, Outcome::Completed);
    if (count_log(injector, FaultKind::WorkerHang, "injected") == 1) break;
  }
  engine.drain();
  const EngineStats s = engine.stats();
  expect_exact_accounting(s);
  EXPECT_EQ(s.completed, submitted);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GE(s.hedges_launched, 1u);
  // Both copies of the hung batch executed: one side won each row, the
  // other was discarded.  Wins + losses together cover the duplicated rows
  // exactly — nothing lost, nothing double-resolved (the accounting above
  // would catch either).
  EXPECT_GE(s.hedge_wins + s.hedge_losses, 1u);
  EXPECT_EQ(s.worker_hangs, 0u);  // escalation disabled
  EXPECT_EQ(count_log(injector, FaultKind::WorkerHang, "injected"), 1);
}

TEST(SupervisedEngineTest, PersistentHangEscalatesToRetirement) {
  const Model m = mlp(8, 32, 4, 3);
  const Tensor x = random_inputs(32, 8, 29);

  // A 400ms stall blows through the 30ms hang threshold (wide margin for
  // loaded/TSan CI hosts): the watchdog must retire the sleeper, re-dispatch
  // its rows, and spawn a replacement with a fresh id.  The retired worker
  // finishes its last batch and exits.
  FaultSchedule schedule;
  schedule.hang_worker(0, 0, 0.4);
  FaultInjector injector(std::move(schedule));

  SupervisedOptions opt;
  opt.workers = 2;
  opt.batch.max_batch = 4;
  opt.batch.max_wait_s = 1e-3;
  opt.supervise.hedge_min_age_s = 5e-3;
  opt.supervise.hang_min_age_s = 30e-3;
  SupervisedEngine engine(m, opt, &injector);
  // Keyed to worker 0's first batch, which worker 1 can starve of a whole
  // wave (see the hedging case above): submit waves until the hang fires.
  std::uint64_t submitted = 0;
  for (int wave = 0; wave < 50; ++wave) {
    std::vector<std::future<Response>> futures;
    for (Index i = 0; i < 32; ++i) {
      futures.push_back(engine.submit(request_for_row(x, i)));
    }
    submitted += 32;
    for (auto& f : futures) EXPECT_EQ(f.get().outcome, Outcome::Completed);
    if (count_log(injector, FaultKind::WorkerHang, "injected") == 1) break;
  }
  // The replacement spawns on a watchdog tick after its backoff elapses;
  // give it a moment before drain (which would otherwise cancel a pending
  // restart for lack of remaining work).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine.stats().worker_restarts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.drain();
  const EngineStats s = engine.stats();
  expect_exact_accounting(s);
  EXPECT_EQ(s.completed, submitted);
  EXPECT_EQ(s.worker_hangs, 1u);
  EXPECT_GE(s.worker_restarts, 1u);
  EXPECT_EQ(count_log(injector, FaultKind::WorkerHang, "detected"), 1);
}

// ---- silent corruption ------------------------------------------------------

TEST(SupervisedEngineTest, PoisonedBatchIsRecomputedBitIdentical) {
  const Model m = mlp(8, 32, 4, 3);
  const Tensor x = random_inputs(8, 8, 31);
  const Tensor expected = m.predict(x, 8);
  const Index out_f = expected.numel() / expected.dim(0);

  FaultSchedule schedule;
  schedule.corrupt_batch(/*batch=*/0, /*worker=*/0, /*entries=*/3);
  FaultInjector injector(std::move(schedule));

  SupervisedOptions opt;
  opt.workers = 1;
  opt.batch.max_batch = 8;
  opt.batch.max_wait_s = 0.05;
  SupervisedEngine engine(m, opt, &injector);
  std::vector<std::future<Response>> futures;
  for (Index i = 0; i < 8; ++i) {
    futures.push_back(engine.submit(request_for_row(x, i)));
  }
  for (auto& f : futures) {
    const Response r = f.get();
    ASSERT_EQ(r.outcome, Outcome::Completed);
    const Index row = static_cast<Index>(r.id);
    for (Index j = 0; j < out_f; ++j) {
      const float v = r.output[static_cast<std::size_t>(j)];
      ASSERT_TRUE(std::isfinite(v));
      ASSERT_EQ(v, expected[row * out_f + j]);  // recompute is bit-exact
    }
  }
  engine.drain();
  const EngineStats s = engine.stats();
  expect_exact_accounting(s);
  EXPECT_EQ(s.corruption_retries, 1u);
  EXPECT_EQ(count_log(injector, FaultKind::BatchCorruption, "recovered"), 1);
}

// ---- brownout degradation ---------------------------------------------------

TEST(SupervisedEngineTest, BrownoutEngagesWhileThePoolIsDownAndSheds) {
  const Model m = mlp(8, 16, 4, 3);
  const Tensor x = random_inputs(8, 8, 37);

  FaultSchedule schedule;
  schedule.kill_worker(0, 0);
  FaultInjector injector(std::move(schedule));

  SupervisedOptions opt;
  opt.workers = 1;
  opt.batch.max_batch = 4;
  opt.batch.max_wait_s = 0.05;
  opt.batch.queue_capacity = 16;
  opt.batch.brownout_queue_frac = 0.25;  // effective queue of 4 in brownout
  opt.supervise.hedging = false;
  opt.supervise.restart_backoff_s = 0.05;  // generous MTTR window to observe
  opt.supervise.restart_backoff_max_s = 0.05;
  SupervisedEngine engine(m, opt, &injector);

  // Trigger the crash, then wait for the watchdog to flip brownout while
  // the pool is down (live 0 < configured 1, replacement still backing
  // off).
  std::vector<std::future<Response>> futures;
  for (Index i = 0; i < 4; ++i) {
    futures.push_back(engine.submit(request_for_row(x, i)));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!engine.brownout() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(engine.brownout()) << "watchdog never engaged brownout";
  // Flood during the brownout window: admission is tightened to the
  // shrunken effective queue, so the flood sheds ShedBrownout well before
  // the hard ShedQueueFull bound.
  for (Index i = 0; i < 100; ++i) {
    futures.push_back(engine.submit(request_for_row(x, i % 8)));
  }
  for (auto& f : futures) {
    const Outcome o = f.get().outcome;
    ASSERT_TRUE(o == Outcome::Completed || o == Outcome::ShedBrownout ||
                o == Outcome::ShedQueueFull || o == Outcome::Failed)
        << serve::outcome_name(o);
  }
  engine.drain();
  const EngineStats s = engine.stats();
  expect_exact_accounting(s);
  EXPECT_GE(s.brownout_entries, 1u);
  EXPECT_GT(s.shed_brownout, 0u);
  EXPECT_EQ(s.worker_crashes, 1u);
}

// ---- seeded chaos mix -------------------------------------------------------

TEST(SupervisedEngineTest, SeededChaosMixKeepsExactAccountingBitIdentical) {
  const Model m = mlp(8, 32, 4, 3);
  const Tensor x = random_inputs(64, 8, 41);
  const Tensor expected = m.predict(x, 64);
  const Index out_f = expected.numel() / expected.dim(0);

  // Crashes, hangs and corruptions drawn from one seeded schedule, three
  // producer threads, three workers.  Whatever the interleaving: every
  // future resolves exactly once, completed outputs are bit-identical to
  // serial predict, and the extended invariant closes after drain.
  FaultInjector injector(
      serving_chaos_schedule(/*seed=*/1234, /*batches=*/12, /*workers=*/3,
                             /*kills=*/2, /*hangs=*/2, /*corruptions=*/2,
                             /*hang_delay_s=*/0.03));

  SupervisedOptions opt;
  opt.workers = 3;
  opt.batch.max_batch = 4;
  opt.batch.max_wait_s = 1e-3;
  opt.supervise.hedge_min_age_s = 10e-3;
  opt.supervise.hang_min_age_s = 60e-3;
  SupervisedEngine engine(m, opt, &injector);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 100;
  std::vector<std::vector<std::future<Response>>> futures(kThreads);
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const Index row = (t * kPerThread + i) % 64;
        futures[static_cast<std::size_t>(t)].push_back(
            engine.submit(request_for_row(x, row)));
      }
    });
  }
  for (auto& p : producers) p.join();
  engine.drain();

  std::uint64_t completed = 0, failed = 0, shed = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      const Response r = f.get();
      if (r.outcome == Outcome::Completed) {
        ++completed;
        const Index row = static_cast<Index>(r.id);
        for (Index j = 0; j < out_f; ++j) {
          ASSERT_EQ(r.output[static_cast<std::size_t>(j)],
                    expected[row * out_f + j]);
        }
      } else if (r.outcome == Outcome::Failed) {
        ++failed;
      } else {
        ++shed;
      }
    }
  }
  const EngineStats s = engine.stats();
  expect_exact_accounting(s);
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.completed, completed);
  EXPECT_EQ(s.failed, failed);
  EXPECT_EQ(s.shed_total(), shed);
  // The schedule carried real faults and the engine survived them.
  EXPECT_GE(s.worker_crashes + s.worker_hangs + s.corruption_retries, 1u);
}

// ---- hpcsim: degraded-capacity closed forms vs seeded simulation ------------

TEST(ServingFaultModelTest, AvailabilityAndEfficiencyClosedForms) {
  hpcsim::ServingFaultModel m;
  m.worker_mtbf_s = 99.0;
  m.worker_mttr_s = 1.0;
  EXPECT_DOUBLE_EQ(hpcsim::serving_availability(m), 0.99);
  m.hang_prob = 0.0;
  EXPECT_DOUBLE_EQ(hpcsim::serving_efficiency(m), 1.0);
  // Without hedging a stall costs its full expected duration.
  m.hang_prob = 0.1;
  m.hang_mean_s = 0.05;
  m.batch_service_s = 0.01;
  m.hedging = false;
  EXPECT_NEAR(hpcsim::serving_efficiency(m), 0.01 / (0.01 + 0.1 * 0.05),
              1e-12);
  // Hedging beats eating stalls whole when stalls are long relative to the
  // hang-declare cap (the reclaim bounds the slot-time a sleeper can burn).
  // For short stalls it costs a little capacity — duplicate work — which is
  // the latency/throughput trade the policy makes deliberately.
  hpcsim::ServingFaultModel long_stalls = m;
  long_stalls.hang_mean_s = 0.5;
  hpcsim::ServingFaultModel hedged = long_stalls;
  hedged.hedging = true;
  EXPECT_GT(hpcsim::serving_efficiency(hedged),
            hpcsim::serving_efficiency(long_stalls));
  // Capacity scales linearly with the surviving pool.
  const double c0 = hpcsim::degraded_serving_capacity_bps(hedged, 0);
  const double c1 = hpcsim::degraded_serving_capacity_bps(hedged, 1);
  EXPECT_NEAR(c1 / c0, 3.0 / 4.0, 1e-12);
}

TEST(ServingFaultModelTest, ClosedFormPinsAgainstSeededSimulation) {
  hpcsim::ServingFaultModel m;
  m.workers = 4;
  m.batch_service_s = 0.01;
  m.worker_mtbf_s = 5.0;    // crashes matter but MTBF >> batch service
  m.worker_mttr_s = 0.5;
  m.hang_prob = 0.05;
  m.hang_mean_s = 0.08;
  for (const bool hedging : {false, true}) {
    m.hedging = hedging;
    for (const Index failed : {Index{0}, Index{2}}) {
      const double analytic =
          hpcsim::degraded_serving_capacity_bps(m, failed);
      const double simulated = hpcsim::simulate_serving_capacity_bps(
          m, failed, /*duration_s=*/50.0, /*trials=*/40, /*seed=*/7);
      if (failed == m.workers) continue;
      EXPECT_NEAR(simulated / analytic, 1.0, 0.1)
          << "hedging=" << hedging << " failed=" << failed
          << " analytic=" << analytic << " simulated=" << simulated;
    }
  }
  // The simulation replays bit-identically from its seed.
  EXPECT_DOUBLE_EQ(
      hpcsim::simulate_serving_capacity_bps(m, 1, 10.0, 5, 99),
      hpcsim::simulate_serving_capacity_bps(m, 1, 10.0, 5, 99));
}

TEST(ServingFaultModelTest, DegradedServingEstimateScalesCapacity) {
  hpcsim::ServingPlan plan;
  plan.workers = 4;
  plan.max_batch = 32;
  plan.measured_batch_service_s = 0.01;
  hpcsim::TrainingWorkload w;  // unused with the measured override
  hpcsim::ServingFaultModel faults;
  faults.worker_mtbf_s = 1e9;  // failures negligible: pure pool shrink
  faults.hang_prob = 0.0;
  const auto healthy = hpcsim::estimate_degraded_serving(
      hpcsim::summit_node(), w, plan, 1000.0, faults, 0);
  EXPECT_NEAR(healthy.capacity_ratio, 1.0, 1e-6);
  EXPECT_NEAR(healthy.base.capacity_rps, 4.0 * 32.0 / 0.01, 1.0);
  const auto degraded = hpcsim::estimate_degraded_serving(
      hpcsim::summit_node(), w, plan, 1000.0, faults, 2);
  EXPECT_NEAR(degraded.capacity_ratio, 0.5, 1e-6);
  EXPECT_NEAR(degraded.base.capacity_rps, healthy.base.capacity_rps * 0.5,
              1.0);
  // Hangs without hedging cost more capacity than with it.
  faults.hang_prob = 0.1;
  faults.hang_mean_s = 0.1;
  faults.hedging = false;
  const auto unhedged = hpcsim::estimate_degraded_serving(
      hpcsim::summit_node(), w, plan, 1000.0, faults, 0);
  faults.hedging = true;
  const auto hedged = hpcsim::estimate_degraded_serving(
      hpcsim::summit_node(), w, plan, 1000.0, faults, 0);
  EXPECT_LT(unhedged.capacity_ratio, hedged.capacity_ratio);
  EXPECT_LT(hedged.capacity_ratio, 1.0);
}

}  // namespace
}  // namespace candle

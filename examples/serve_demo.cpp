// Serving quickstart: train a small classifier, then stand it up behind the
// dynamic-batching engine and drive it with seeded open-loop traffic —
// steady load first, then a flood that the admission controller sheds
// instead of queueing into unbounded latency.
//
//   $ ./serve_demo
#include <chrono>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "nn/model.hpp"
#include "nn/trainer.hpp"
#include "runtime/rng.hpp"
#include "serve/supervisor.hpp"

using namespace candle;

namespace {

Dataset blobs(Index n, Index features, std::uint64_t seed) {
  Pcg32 rng(seed);
  Dataset d{Tensor({n, features}), Tensor({n})};
  for (Index i = 0; i < n; ++i) {
    const float cls = static_cast<float>(i % 2);
    d.y[i] = cls;
    for (Index j = 0; j < features; ++j) {
      d.x.at(i, j) = static_cast<float>(rng.normal(cls * 2.0 - 1.0, 0.8));
    }
  }
  return d;
}

void report(const char* label, const serve::EngineStats& s) {
  std::printf("%s\n", label);
  std::printf("  submitted %llu | completed %llu | shed %llu "
              "(queue %llu, deadline %llu, brownout %llu, shutdown %llu)\n",
              static_cast<unsigned long long>(s.submitted),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.shed_total()),
              static_cast<unsigned long long>(s.shed_queue_full),
              static_cast<unsigned long long>(s.shed_deadline),
              static_cast<unsigned long long>(s.shed_brownout),
              static_cast<unsigned long long>(s.shed_shutdown));
  std::printf("  latency p50 %.2f ms | p95 %.2f ms | p99 %.2f ms | "
              "mean batch %.1f rows\n",
              s.latency.quantile(0.50) * 1e3, s.latency.quantile(0.95) * 1e3,
              s.latency.quantile(0.99) * 1e3, s.mean_batch_rows());
}

}  // namespace

int main() {
  const Index features = 16;
  Dataset train = blobs(2000, features, 1);

  Model model;
  model.add(make_dense(32)).add(make_relu()).add(make_dense(1));
  model.build({features}, 2);

  BinaryCrossEntropy bce;
  Adam opt(3e-3f);
  FitOptions fo;
  fo.epochs = 5;
  fo.batch_size = 64;
  fo.seed = 3;
  fit(model, train, nullptr, bce, opt, fo);
  std::printf("trained: %s\n\n", model.summary().c_str());

  // Stand the trained model up: 2 workers pull coalesced batches and run
  // the const inference path against the single shared copy of the weights.
  serve::SupervisedOptions eopt;
  eopt.workers = 2;
  eopt.batch.max_batch = 16;
  eopt.batch.max_wait_s = 1e-3;
  eopt.batch.queue_capacity = 64;
  serve::SupervisedEngine engine(model, eopt);

  // Steady phase: a seeded Poisson arrival trace replayed open-loop at a
  // rate the two workers absorb comfortably; every request carries a 20 ms
  // latency budget.
  Dataset fresh = blobs(1000, features, 9);
  const Index rows = fresh.x.dim(0);
  const serve::ArrivalTrace trace = serve::poisson_trace(4000.0, 0.25, 11);
  std::vector<std::future<serve::Response>> futures;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < trace.at_s.size(); ++i) {
    const auto due =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(trace.at_s[i]));
    if (due > std::chrono::steady_clock::now()) {
      std::this_thread::sleep_until(due);
    }
    const Index row = static_cast<Index>(i) % rows;
    serve::Request req;
    req.id = static_cast<std::uint64_t>(row);
    req.input.assign(fresh.x.data() + row * features,
                     fresh.x.data() + (row + 1) * features);
    req.deadline_s = 20e-3;
    futures.push_back(engine.submit(std::move(req)));
  }
  Index agree = 0;
  std::uint64_t served = 0;
  for (auto& f : futures) {
    const serve::Response r = f.get();
    if (r.outcome != serve::Outcome::Completed) continue;
    ++served;
    const Index row = static_cast<Index>(r.id);
    const bool predicted_pos = r.output[0] > 0.0f;
    if (predicted_pos == (fresh.y[row] > 0.5f)) ++agree;
  }
  report("steady load (Poisson @ 4000 req/s, 20 ms SLO):", engine.stats());
  std::printf("  label agreement on served requests: %.1f%%\n\n",
              served > 0 ? 100.0 * static_cast<double>(agree) /
                               static_cast<double>(served)
                         : 0.0);

  // Flood phase: 10000 back-to-back submissions.  The bounded queue (and,
  // once the watchdog sees the shed rate, brownout) sheds the excess on
  // arrival — clients get an immediate rejection they can retry elsewhere,
  // and the latency of what IS served stays bounded.
  const serve::EngineStats before = engine.stats();
  std::vector<std::future<serve::Response>> flood;
  flood.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    const Index row = static_cast<Index>(i) % rows;
    serve::Request req;
    req.id = static_cast<std::uint64_t>(row);
    req.input.assign(fresh.x.data() + row * features,
                     fresh.x.data() + (row + 1) * features);
    req.deadline_s = 5e-3;
    flood.push_back(engine.submit(std::move(req)));
  }
  for (auto& f : flood) f.get();
  const serve::EngineStats after = engine.stats();
  std::printf("flood (10000 back-to-back, 5 ms SLO): served %llu, shed %llu\n\n",
              static_cast<unsigned long long>(after.completed -
                                              before.completed),
              static_cast<unsigned long long>(after.shed_total() -
                                              before.shed_total()));

  engine.drain();
  const serve::EngineStats s = engine.stats();
  std::printf("after drain: every request accounted for exactly once: %s\n",
              s.accounting_gap() == 0 ? "yes" : "NO");
  return 0;
}

// Training stage and the per-layer probes of the training path.
#include <memory>
#include <thread>

#include "core/kernels.hpp"
#include "data/reader.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "parallel/collectives.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace candle;

parallel::DataParallelOptions trainer_options(const WorkloadSpec& w,
                                              const Dataset& train) {
  parallel::DataParallelOptions o;
  o.replicas = kReplicas;
  o.epochs = w.epochs_per_job;
  o.batch_per_replica = kBatchPerReplica;
  o.seed = kModelSeed;
  o.shuffle = w.shuffle;
  o.bucket_bytes = kBucketBytes;
  o.overlap_comm = true;
  o.ingest.enabled = true;
  o.ingest.prefetch_depth = kPrefetchDepth;
  o.ingest.fetch_threads = kFetchThreads;
  o.ingest.store_byte_budget = store_budget_bytes(w, train);
  o.ingest.synthetic_fetch_cost_s = w.fetch_cost_s;
  return o;
}

/// Median seconds per call of `fn`, over at least `min_reps` calls and
/// `min_s` seconds; each call is one span.
template <class Fn>
double time_calls(Tracer& tracer, const char* name, const char* layer,
                  int min_reps, double min_s, Fn&& fn) {
  std::vector<double> s;
  const auto start = Clock::now();
  while (static_cast<int>(s.size()) < min_reps ||
         seconds_between(start, Clock::now()) < min_s) {
    const auto a = Clock::now();
    fn();
    const auto b = Clock::now();
    tracer.record(0, name, layer, a, b);
    s.push_back(seconds_between(a, b));
  }
  return median(s);
}

Tensor rows_of(const Tensor& x, Index rows) {
  Shape shape = x.shape();
  shape[0] = rows;
  Tensor out(shape);
  std::copy(x.data(), x.data() + out.numel(), out.data());
  return out;
}

void probe_gemm(const char* label, Index m, Index n, Index k, Tracer& tracer,
                Report& out) {
  SplitMix rng(static_cast<std::uint64_t>(m * 131 + n * 7 + k));
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (float& v : a) v = static_cast<float>(rng.uniform() - 0.5);
  for (float& v : b) v = static_cast<float>(rng.uniform() - 0.5);
  const double s = time_calls(tracer, "core.gemm", "core", 20, 0.15, [&] {
    gemm(Op::None, Op::None, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c.data(), n);
  });
  const double flops = 2.0 * static_cast<double>(m) * n * k;
  const double bytes = 4.0 * static_cast<double>(m * k + k * n + m * n);
  const std::string tag = label;
  out.add("core.gemm.gflops." + tag, "GFLOP/s", true, flops / s * 1e-9, 20);
  out.add("core.gemm.flops_per_call." + tag, "flop", false, flops, 1, true);
  out.add("core.gemm.bytes_per_call." + tag, "B", false, bytes, 1, true);
}

}  // namespace

TrainOutcome run_training(const WorkloadSpec& w, const Dataset& train,
                          const Dataset& val, Tracer& tracer,
                          bool alternate_tracing) {
  // Job j starts from job j-1's weights, so the jobs together train for
  // jobs * epochs_per_job epochs; each job is timed on its own.
  std::vector<float> weights;
  const auto factory = [&] {
    Model m = build_model(kFeatures, w.hidden);
    if (!weights.empty()) m.set_weights_from(weights);
    return m;
  };
  const auto optimizer = [&] { return make_adam(kLearningRate); };
  const parallel::DataParallelOptions opts = trainer_options(w, train);
  const Index global = kReplicas * kBatchPerReplica;
  const double samples_per_job = static_cast<double>(
      (train.size() / global) * global * w.epochs_per_job);
  const MeanSquaredError mse;
  const bool tracing = tracer.enabled();

  TrainOutcome out;
  Model trained;
  for (Index job = 0; job < kJobs; ++job) {
    const bool traced = tracing && !(alternate_tracing && job % 2 == 1);
    tracer.set_enabled(traced);
    const std::uint64_t span = tracer.begin();
    const auto a = Clock::now();
    out.results.push_back(parallel::train_data_parallel(
        factory, optimizer, train, mse, opts, &trained));
    const auto b = Clock::now();
    tracer.record(span, "parallel.train_data_parallel", "parallel", a, b);
    out.samples_per_s.push_back(samples_per_job / seconds_between(a, b));
    out.traced.push_back(traced);
    weights.resize(static_cast<std::size_t>(trained.num_params()));
    trained.copy_weights_to(weights);
  }
  Tracer::Scope eval(tracer, "nn.evaluate", "nn");
  out.val_loss = trained.evaluate(val.x, val.y, mse);
  tracer.set_enabled(tracing);
  return out;
}

void probe_layers(const WorkloadSpec& w, const Dataset& train,
                  const Model& scoring, Tracer& tracer, Report& out) {
  // core: the first layer's GEMM for a training shard, and for a serving
  // iteration with 1 and with 16 occupied rows.
  const Index bpr = kBatchPerReplica;
  const Index k = kFeatures;
  probe_gemm("train_fwd", bpr, w.hidden.front(), k, tracer, out);
  probe_gemm("serve_rows1", 1, kScoringHidden.front(), k, tracer, out);
  probe_gemm("serve_rows16", 16, kScoringHidden.front(), k, tracer, out);

  // nn: one replica's step at the training shard shape, phase by phase.
  Model m = build_model(k, w.hidden);
  const std::unique_ptr<Optimizer> opt = make_adam(kLearningRate);
  const MeanSquaredError mse;
  const Tensor x = rows_of(train.x, bpr);
  const Tensor y = rows_of(train.y, bpr);
  Tensor pred, dy;
  std::vector<double> fwd, bwd, step;
  const auto start = Clock::now();
  while (fwd.size() < 10 || seconds_between(start, Clock::now()) < 0.3) {
    const auto t0 = Clock::now();
    pred = m.forward(x, /*training=*/true);
    dy = mse.grad(pred, y);
    const auto t1 = Clock::now();
    m.backward(dy);
    const auto t2 = Clock::now();
    opt->step(m.params(), m.grads());
    const auto t3 = Clock::now();
    tracer.record(0, "nn.forward", "nn", t0, t1);
    tracer.record(0, "nn.backward", "nn", t1, t2);
    tracer.record(0, "nn.optimizer", "nn", t2, t3);
    fwd.push_back(seconds_between(t0, t1));
    bwd.push_back(seconds_between(t1, t2));
    step.push_back(seconds_between(t2, t3));
  }
  const auto reps = static_cast<long long>(fwd.size());
  out.add("nn.forward_ms", "ms", false, 1e3 * median(fwd), reps);
  out.add("nn.backward_ms", "ms", false, 1e3 * median(bwd), reps);
  out.add("nn.optimizer_ms", "ms", false, 1e3 * median(step), reps);

  for (const Index rows : {1, 4, 16}) {
    const Tensor xr = rows_of(train.x, rows);
    const double s = time_calls(tracer, "nn.infer", "nn", 20, 0.1,
                                [&] { (void)scoring.infer(xr); });
    out.add("nn.infer_ms.rows" + std::to_string(rows), "ms", false, 1e3 * s,
            20);
  }

  // parallel: a standalone ring all-reduce at the gradient size.
  {
    parallel::ShmCommunicator comm(kReplicas);
    const auto numel = static_cast<std::size_t>(m.grad_size());
    std::vector<std::vector<float>> bufs(
        static_cast<std::size_t>(kReplicas), std::vector<float>(numel, 1.0f));
    constexpr int kReps = 20;
    std::vector<double> times;
    std::vector<std::thread> ranks;
    for (Index r = 0; r < kReplicas; ++r) {
      ranks.emplace_back([&, r] {
        for (int i = 0; i < kReps; ++i) {
          const auto a = Clock::now();
          comm.allreduce_ring(r, bufs[static_cast<std::size_t>(r)]);
          const auto b = Clock::now();
          tracer.record(0, "parallel.allreduce_ring", "parallel", a, b);
          if (r == 0) times.push_back(seconds_between(a, b));
        }
      });
    }
    for (auto& t : ranks) t.join();
    out.add("parallel.allreduce_ms", "ms", false, 1e3 * median(times), kReps);
  }

  // data: replay one job's ingest (same source, store and reader settings)
  // with no compute behind it.
  {
    data::DatasetSource source(train, w.fetch_cost_s);
    data::SampleStoreOptions so;
    so.byte_budget = store_budget_bytes(w, train);
    so.fetch_threads = kFetchThreads;
    data::SampleStore store(source, so);
    data::ReaderOptions ro;
    ro.replicas = kReplicas;
    ro.batch_per_replica = bpr;
    ro.shuffle = w.shuffle;
    ro.seed = kModelSeed;
    ro.prefetch_depth = kPrefetchDepth;
    data::IngestReader reader(store, ro);
    const Index steps = reader.steps_per_epoch() * w.epochs_per_job;
    std::vector<double> acquire;
    for (Index s = 0; s < steps; ++s) {
      const auto a = Clock::now();
      (void)reader.acquire();
      const auto b = Clock::now();
      tracer.record(0, "data.acquire", "data", a, b);
      acquire.push_back(seconds_between(a, b));
      reader.release();
    }
    const data::SampleStoreStats st = store.stats();
    const double gets = static_cast<double>(st.hits + st.misses);
    const double fetched = static_cast<double>(st.misses + st.prefetched);
    out.add("data.store.hit_ratio.train", "ratio", true,
            gets > 0 ? std::max(0.0, 1.0 - fetched / gets) : 0.0,
            static_cast<long long>(gets));
    out.add("data.store.misses.train", "count", false,
            static_cast<double>(st.misses), 1);
    out.add("data.store.prefetched.train", "count", false,
            static_cast<double>(st.prefetched), 1);
    out.add("data.store.evictions.train", "count", false,
            static_cast<double>(st.evictions), 1);
    out.add("data.reader.acquire_ms_p50", "ms", false,
            1e3 * quantile(acquire, 0.5), static_cast<long long>(steps));
    out.add("data.reader.acquire_ms_p99", "ms", false,
            1e3 * quantile(acquire, 0.99), static_cast<long long>(steps));
  }
}

}  // namespace perfbench

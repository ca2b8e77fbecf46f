// Parallel-runtime tests: collective correctness (ring vs flat vs serial
// sum), data-parallel gradient equivalence with serial training, replica
// synchronization invariants, stage balancing, and pipeline estimates.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "biodata/workloads.hpp"
#include "data/sample_list.hpp"
#include "nn/metrics.hpp"
#include "parallel/collectives.hpp"
#include "parallel/data_parallel.hpp"
#include "parallel/model_parallel.hpp"
#include "parallel/workload.hpp"

namespace candle::parallel {
namespace {

void run_ranks(Index p, const std::function<void(Index)>& body) {
  std::vector<std::thread> threads;
  for (Index r = 0; r < p; ++r) threads.emplace_back([&, r] { body(r); });
  for (auto& t : threads) t.join();
}

class RingAllReduce : public ::testing::TestWithParam<int> {};

TEST_P(RingAllReduce, MatchesSerialSum) {
  const Index p = GetParam();
  const Index n = 103;  // not divisible by p: uneven chunks
  Pcg32 rng(static_cast<std::uint64_t>(p));
  std::vector<std::vector<float>> data(static_cast<std::size_t>(p));
  std::vector<float> expected(static_cast<std::size_t>(n), 0.0f);
  for (Index r = 0; r < p; ++r) {
    auto& v = data[static_cast<std::size_t>(r)];
    v.resize(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<float>(rng.normal());
      expected[i] += v[i];
    }
  }
  ShmCommunicator comm(p);
  run_ranks(p, [&](Index r) {
    comm.allreduce_ring(r, data[static_cast<std::size_t>(r)]);
  });
  for (Index r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i], 1e-4f)
          << "rank " << r << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PartySizes, RingAllReduce,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(Collectives, FlatMatchesRing) {
  const Index p = 5, n = 64;
  Pcg32 rng(9);
  std::vector<std::vector<float>> a(static_cast<std::size_t>(p)),
      b(static_cast<std::size_t>(p));
  for (Index r = 0; r < p; ++r) {
    a[static_cast<std::size_t>(r)].resize(static_cast<std::size_t>(n));
    for (auto& v : a[static_cast<std::size_t>(r)]) {
      v = static_cast<float>(rng.normal());
    }
    b[static_cast<std::size_t>(r)] = a[static_cast<std::size_t>(r)];
  }
  {
    ShmCommunicator comm(p);
    run_ranks(p, [&](Index r) {
      comm.allreduce_ring(r, a[static_cast<std::size_t>(r)]);
    });
  }
  {
    ShmCommunicator comm(p);
    run_ranks(p, [&](Index r) {
      comm.allreduce_flat(r, b[static_cast<std::size_t>(r)]);
    });
  }
  for (Index r = 0; r < p; ++r) {
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(a[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                  b[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                  1e-4f);
    }
  }
}

TEST(Collectives, BroadcastCopiesRoot) {
  const Index p = 4, n = 16;
  std::vector<std::vector<float>> data(static_cast<std::size_t>(p));
  for (Index r = 0; r < p; ++r) {
    data[static_cast<std::size_t>(r)].assign(static_cast<std::size_t>(n),
                                             static_cast<float>(r));
  }
  ShmCommunicator comm(p);
  run_ranks(p, [&](Index r) {
    comm.broadcast(r, data[static_cast<std::size_t>(r)]);
  });
  for (Index r = 0; r < p; ++r) {
    for (float v : data[static_cast<std::size_t>(r)]) EXPECT_EQ(v, 0.0f);
  }
}

TEST(Collectives, MismatchedSizesThrow) {
  ShmCommunicator comm(2);
  std::vector<float> a(8), b(9);
  std::atomic<int> errors{0};
  run_ranks(2, [&](Index r) {
    try {
      comm.allreduce_ring(r, r == 0 ? std::span<float>(a)
                                    : std::span<float>(b));
    } catch (const Error&) {
      ++errors;
    }
  });
  EXPECT_GT(errors.load(), 0);
}

// ---- data parallel -----------------------------------------------------------

Dataset blob_dataset(Index n, std::uint64_t seed) {
  Pcg32 rng(seed);
  Dataset d{Tensor({n, 6}), Tensor({n})};
  for (Index i = 0; i < n; ++i) {
    const float cls = static_cast<float>(i % 2);
    d.y[i] = cls;
    for (Index j = 0; j < 6; ++j) {
      d.x.at(i, j) = static_cast<float>(rng.normal(cls * 2.0 - 1.0, 0.8));
    }
  }
  return d;
}

ModelFactory blob_model_factory(std::uint64_t seed) {
  return [seed] {
    Model m;
    m.add(make_dense(12)).add(make_relu()).add(make_dense(2));
    m.build({6}, seed);
    return m;
  };
}

TEST(DataParallel, EquivalentToSerialTraining) {
  // p replicas x shard-batch b == serial batch p*b: same weights after the
  // same number of steps (up to fp32 reduction reassociation).  200 samples
  // leave an 8-sample tail, which the stream drops every epoch.
  for (const Index n : {Index{256}, Index{200}}) {
    const Dataset d = blob_dataset(n, 31);
    const Index p = 4, b = 16;

    DataParallelOptions opts;
    opts.replicas = p;
    opts.batch_per_replica = b;
    opts.epochs = 2;
    opts.seed = 32;
    Model dp_model;
    train_data_parallel(
        blob_model_factory(33), [] { return make_sgd(0.05f); }, d,
        SoftmaxCrossEntropy(), opts, &dp_model);

    // Serial reference: the global batches of the stream the loop reads.
    Model serial = blob_model_factory(33)();
    SoftmaxCrossEntropy xent;
    Sgd opt(0.05f);
    data::ShardedSampleList stream(n, p, b, /*shuffle=*/true, opts.seed);
    for (Index e = 0; e < opts.epochs; ++e) {
      for (Index s = 0; s < stream.steps_per_epoch(); ++s) {
        const Dataset batch = gather(d, stream.global(e, s));
        serial.train_batch(batch.x, batch.y, xent, opt);
      }
    }

    std::vector<float> w_dp(static_cast<std::size_t>(serial.num_params()));
    std::vector<float> w_serial(w_dp.size());
    dp_model.copy_weights_to(w_dp);
    serial.copy_weights_to(w_serial);
    float max_diff = 0.0f;
    for (std::size_t i = 0; i < w_dp.size(); ++i) {
      max_diff = std::max(max_diff, std::abs(w_dp[i] - w_serial[i]));
    }
    EXPECT_LT(max_diff, 5e-4f)
        << "data-parallel must match serial large-batch SGD (n=" << n << ")";
  }
}

TEST(DataParallel, DivergenceThrowsNamingTheStep) {
  // A non-finite reduced gradient with no injected corruption is divergence:
  // the run stops with an error instead of applying the NaN update.
  const Dataset d = blob_dataset(256, 31);
  DataParallelOptions opts;
  opts.replicas = 4;
  opts.batch_per_replica = 16;
  opts.epochs = 4;
  opts.seed = 32;
  try {
    train_data_parallel(blob_model_factory(33),
                        [] { return make_sgd(1e30f); }, d,
                        SoftmaxCrossEntropy(), opts);
    ADD_FAILURE() << "a diverging run must throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("diverged at step "), std::string::npos) << msg;
  }
}

TEST(DataParallel, LearnsTheTask) {
  const Dataset d = blob_dataset(512, 41);
  DataParallelOptions opts;
  opts.replicas = 4;
  opts.batch_per_replica = 16;
  opts.epochs = 8;
  opts.seed = 42;
  Model trained;
  const DataParallelResult res = train_data_parallel(
      blob_model_factory(43), [] { return make_adam(5e-3f); }, d,
      SoftmaxCrossEntropy(), opts, &trained);
  ASSERT_EQ(res.epoch_loss.size(), 8u);
  EXPECT_LT(res.epoch_loss.back(), res.epoch_loss.front());
  EXPECT_GT(accuracy(trained.predict(d.x), d.y), 0.95);
  EXPECT_EQ(res.steps, 8 * (512 / 64));
  EXPECT_GT(res.grad_bytes_per_step, 0.0);
}

TEST(DataParallel, SingleReplicaDegeneratesToSerial) {
  const Dataset d = blob_dataset(128, 51);
  DataParallelOptions opts;
  opts.replicas = 1;
  opts.batch_per_replica = 32;
  opts.epochs = 3;
  opts.seed = 52;
  Model trained;
  const DataParallelResult res = train_data_parallel(
      blob_model_factory(53), [] { return make_sgd(0.1f); }, d,
      SoftmaxCrossEntropy(), opts, &trained);
  EXPECT_EQ(res.epoch_loss.size(), 3u);
  EXPECT_EQ(res.modeled_comm_seconds_per_step, 0.0);
}

TEST(DataParallel, RejectsOversizedGlobalBatch) {
  const Dataset d = blob_dataset(32, 61);
  DataParallelOptions opts;
  opts.replicas = 8;
  opts.batch_per_replica = 16;  // global 128 > 32 samples
  EXPECT_THROW(train_data_parallel(
                   blob_model_factory(62), [] { return make_sgd(0.1f); }, d,
                   SoftmaxCrossEntropy(), opts),
               Error);
}

TEST(DataParallel, FabricAnnotationFillsModeledTime) {
  DataParallelResult res;
  res.grad_bytes_per_step = 4e6;
  annotate_with_fabric(res, hpcsim::fat_tree_fabric(),
                       hpcsim::AllReduceAlgo::Ring, 64);
  EXPECT_GT(res.modeled_comm_seconds_per_step, 0.0);
  DataParallelResult res2 = res;
  annotate_with_fabric(res2, hpcsim::fat_tree_fabric(),
                       hpcsim::AllReduceAlgo::Ring, 512);
  EXPECT_GT(res2.modeled_comm_seconds_per_step,
            res.modeled_comm_seconds_per_step);
}

// ---- model parallel ------------------------------------------------------------

Model deep_mlp(std::uint64_t seed) {
  Model m;
  m.add(make_dense(64)).add(make_relu());
  m.add(make_dense(64)).add(make_relu());
  m.add(make_dense(32)).add(make_relu());
  m.add(make_dense(4));
  m.build({16}, seed);
  return m;
}

TEST(StagePlan, BalancedContiguousAscending) {
  Model m = deep_mlp(71);
  const StagePlan plan = balance_stages(m, 3);
  EXPECT_EQ(plan.stages, 3);
  ASSERT_EQ(static_cast<Index>(plan.stage_of_layer.size()), m.num_layers());
  for (std::size_t i = 1; i < plan.stage_of_layer.size(); ++i) {
    EXPECT_GE(plan.stage_of_layer[i], plan.stage_of_layer[i - 1]);
    EXPECT_LE(plan.stage_of_layer[i], plan.stage_of_layer[i - 1] + 1);
  }
  EXPECT_EQ(plan.stage_of_layer.front(), 0);
  EXPECT_EQ(plan.stage_of_layer.back(), 2);
  // Every stage is non-empty.
  for (Index s = 0; s < 3; ++s) {
    const auto [first, last] = plan.stage_range(s);
    EXPECT_LT(first, last);
  }
}

TEST(StagePlan, OneStagePerLayerAndSingleStage) {
  Model m = deep_mlp(72);
  const StagePlan one = balance_stages(m, 1);
  for (Index s : one.stage_of_layer) EXPECT_EQ(s, 0);
  const StagePlan full = balance_stages(m, m.num_layers());
  for (Index i = 0; i < m.num_layers(); ++i) {
    EXPECT_EQ(full.stage_of_layer[static_cast<std::size_t>(i)], i);
  }
  EXPECT_THROW(balance_stages(m, 0), Error);
  EXPECT_THROW(balance_stages(m, m.num_layers() + 1), Error);
}

TEST(ModelParallel, StagedForwardIsExact) {
  Model m = deep_mlp(73);
  Pcg32 rng(74);
  Tensor x = Tensor::randn({8, 16}, rng);
  const Tensor whole = m.forward(x);
  for (Index k : {1, 2, 3, 4}) {
    const StagePlan plan = balance_stages(m, k);
    std::vector<double> boundary;
    const Tensor staged = forward_staged(m, x, plan, &boundary);
    EXPECT_EQ(max_abs_diff(whole, staged), 0.0f) << k << " stages";
    EXPECT_EQ(static_cast<Index>(boundary.size()), k - 1);
    for (double b : boundary) EXPECT_GT(b, 0.0);
  }
}

TEST(ModelParallel, PipelineBubbleShrinksWithMicrobatches) {
  Model m = deep_mlp(75);
  const StagePlan plan = balance_stages(m, 3);
  const auto node = hpcsim::summit_node();
  const auto fabric = hpcsim::fat_tree_fabric();
  const PipelineEstimate e4 = estimate_pipeline(m, plan, 4, 8, node, fabric);
  const PipelineEstimate e32 = estimate_pipeline(m, plan, 32, 8, node, fabric);
  EXPECT_GT(e4.bubble_fraction, e32.bubble_fraction);
  EXPECT_NEAR(e32.bubble_fraction, 2.0 / 34.0, 1e-9);
  EXPECT_GT(e32.speedup, e4.speedup);
  EXPECT_GT(e32.stage_seconds.size(), 0u);
}

TEST(ModelParallel, PipelineEstimateValidation) {
  Model m = deep_mlp(76);
  const StagePlan plan = balance_stages(m, 2);
  EXPECT_THROW(estimate_pipeline(m, plan, 0, 8, hpcsim::summit_node(),
                                 hpcsim::fat_tree_fabric()),
               Error);
}

// ---- workload extraction ---------------------------------------------------------

TEST(Workload, ExtractedFromModel) {
  Model m = deep_mlp(81);
  const hpcsim::TrainingWorkload w = workload_from_model(m, "deep-mlp");
  EXPECT_EQ(w.name, "deep-mlp");
  EXPECT_DOUBLE_EQ(w.flops_per_sample, m.flops_per_sample());
  EXPECT_DOUBLE_EQ(w.parameters, static_cast<double>(m.num_params()));
  EXPECT_DOUBLE_EQ(w.bytes_per_sample, 16.0 * 4.0);
  // Activations: 64 + 64 + 64 + 64 + 32 + 32 + 4 floats.
  EXPECT_DOUBLE_EQ(w.activation_bytes_per_sample,
                   (64 + 64 + 64 + 64 + 32 + 32 + 4) * 4.0);
}

TEST(Workload, FeedsPerfModel) {
  Model m = deep_mlp(82);
  const auto w = workload_from_model(m, "deep-mlp");
  const auto pts =
      hpcsim::strong_scaling(hpcsim::summit_node(), hpcsim::fat_tree_fabric(),
                             w, 1024, {1, 16, 256});
  EXPECT_EQ(pts.size(), 3u);
  EXPECT_LT(pts.back().efficiency, pts.front().efficiency);
}

}  // namespace
}  // namespace candle::parallel

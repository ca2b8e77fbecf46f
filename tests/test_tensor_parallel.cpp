// Tests for executable tensor (intra-layer) model parallelism, the host
// calibration module, and synthetic scheduler traces.
#include <gtest/gtest.h>

#include <cmath>

#include "hpcsim/calibrate.hpp"
#include "nn/layer.hpp"
#include "parallel/tensor_parallel.hpp"
#include "sched/traces.hpp"

namespace candle {
namespace {

// ---- ShardedDense --------------------------------------------------------------

std::unique_ptr<Dense> built_dense(Index in, Index out, std::uint64_t seed) {
  auto layer = std::make_unique<Dense>(out);
  Pcg32 rng(seed);
  layer->build({in}, rng);
  return layer;
}

class ShardedDenseEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ShardedDenseEquivalence, ForwardMatchesUnsharded) {
  const Index shards = GetParam();
  auto dense = built_dense(10, 12, 1);
  parallel::ShardedDense sharded(*dense, shards);
  EXPECT_EQ(sharded.shards(), shards);
  Pcg32 rng(2);
  Tensor x = Tensor::randn({7, 10}, rng);
  const Tensor full = dense->forward(x, false);
  const Tensor split = sharded.forward(x);
  EXPECT_LE(max_abs_diff(full, split), 1e-6f);
}

TEST_P(ShardedDenseEquivalence, BackwardMatchesUnsharded) {
  const Index shards = GetParam();
  auto dense = built_dense(6, 9, 3);
  parallel::ShardedDense sharded(*dense, shards);
  Pcg32 rng(4);
  Tensor x = Tensor::randn({5, 6}, rng);
  Tensor dy = Tensor::randn({5, 9}, rng);
  dense->forward(x, false);
  const Tensor dx_full = dense->backward(dy);
  sharded.forward(x);
  const Tensor dx_split = sharded.backward(dy);
  EXPECT_LE(max_abs_diff(dx_full, dx_split), 1e-5f);
  // Concatenated shard weight grads equal the full dW.
  const Tensor& dw_full = *dense->grads()[0];
  Index col = 0;
  for (Index s = 0; s < shards; ++s) {
    const Tensor& dws = sharded.weight_grad(s);
    for (Index j = 0; j < dws.dim(1); ++j, ++col) {
      for (Index i = 0; i < 6; ++i) {
        EXPECT_NEAR(dws.at(i, j), dw_full.at(i, col), 1e-5f);
      }
    }
    // Bias grads too.
    const Tensor& dbs = sharded.bias_grad(s);
    EXPECT_EQ(dbs.numel(), dws.dim(1));
  }
  EXPECT_EQ(col, 9);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedDenseEquivalence,
                         ::testing::Values(1, 2, 3, 4, 9));

TEST(ShardedDense, WireAccounting) {
  auto dense = built_dense(32, 64, 7);
  parallel::ShardedDense sharded(*dense, 4);
  // Forward: each shard receives the other 3/4 of a (8 x 64) fp32 tensor.
  EXPECT_DOUBLE_EQ(sharded.forward_wire_bytes(8), 0.75 * 4.0 * 8 * 64);
  // Backward: ring-reduce of the (8 x 32) dx partials.
  EXPECT_DOUBLE_EQ(sharded.backward_wire_bytes(8),
                   2.0 * 3.0 / 4.0 * 4.0 * 8 * 32);
  parallel::ShardedDense solo(*dense, 1);
  EXPECT_DOUBLE_EQ(solo.backward_wire_bytes(8), 0.0);
}

TEST(ShardedDense, Validation) {
  auto dense = built_dense(4, 4, 8);
  EXPECT_THROW(parallel::ShardedDense(*dense, 0), Error);
  EXPECT_THROW(parallel::ShardedDense(*dense, 5), Error);
  parallel::ShardedDense ok(*dense, 2);
  EXPECT_THROW(ok.forward(Tensor({2, 5})), Error);
  EXPECT_THROW(ok.weight_grad(2), Error);
}

// ---- calibration ---------------------------------------------------------------

TEST(Calibration, ProducesPlausibleRates) {
  const auto cal = hpcsim::calibrate_host(128, 512);
  EXPECT_GT(cal.gemm_gflops, 0.1);
  EXPECT_GT(cal.gemv_gflops, 0.01);
  // GEMM must beat GEMV (the compute-density story measured locally).
  EXPECT_GT(cal.gemm_gflops, cal.gemv_gflops);
  EXPECT_GT(cal.stream_gbs, 0.01);
  EXPECT_GT(cal.seconds_spent, 0.0);
  EXPECT_LT(cal.seconds_spent, 30.0);
}

TEST(Calibration, BuildsUsableNodeSpec) {
  hpcsim::CalibrationResult cal;
  cal.gemm_gflops = 25.0;
  cal.gemv_gflops = 1.0;
  cal.stream_gbs = 8.0;
  const hpcsim::NodeSpec node = hpcsim::calibrated_host_node(cal);
  EXPECT_EQ(node.name, "calibrated-host");
  EXPECT_DOUBLE_EQ(node.peak_fp32_gflops, 25.0);
  EXPECT_DOUBLE_EQ(node.nearest().bandwidth_gbs, 8.0);
  // Usable in the roofline immediately.
  const auto est = hpcsim::roofline(node, 1e9, 1e6, Precision::FP32);
  EXPECT_GT(est.time_s, 0.0);
  hpcsim::CalibrationResult empty;
  EXPECT_THROW(hpcsim::calibrated_host_node(empty), Error);
}

// ---- traces --------------------------------------------------------------------

TEST(Traces, DeterministicAndWellFormed) {
  sched::TraceConfig cfg;
  cfg.jobs = 100;
  cfg.max_nodes = 256;
  const auto t1 = sched::generate_trace(cfg);
  const auto t2 = sched::generate_trace(cfg);
  ASSERT_EQ(t1.size(), 100u);
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].nodes, t2[i].nodes);
    EXPECT_EQ(t1[i].submit_s, t2[i].submit_s);
    EXPECT_GE(t1[i].duration_s, 1.0);
    EXPECT_GE(t1[i].nodes, 1);
    EXPECT_LE(t1[i].nodes, 256);
    // Power-of-two requests.
    EXPECT_EQ(t1[i].nodes & (t1[i].nodes - 1), 0);
    if (i > 0) {
      EXPECT_GE(t1[i].submit_s, t1[i - 1].submit_s);
    }
  }
}

TEST(Traces, ArrivalRateApproximatelyPoisson) {
  sched::TraceConfig cfg;
  cfg.jobs = 2000;
  cfg.arrivals_per_hour = 60.0;  // one per minute
  const auto trace = sched::generate_trace(cfg);
  const double span_h = trace.back().submit_s / 3600.0;
  EXPECT_NEAR(static_cast<double>(cfg.jobs) / span_h, 60.0, 6.0);
}

TEST(Traces, BackfillBeatsFifoOnMixedTrace) {
  sched::TraceConfig cfg;
  cfg.jobs = 150;
  cfg.max_nodes = 128;
  cfg.seed = 5;
  const auto trace = sched::generate_trace(cfg);
  const auto fifo = sched::run_trace(128, sched::SchedulePolicy::Fifo, trace);
  const auto bf = sched::run_trace(128, sched::SchedulePolicy::Backfill, trace);
  EXPECT_LE(bf.mean_wait_s, fifo.mean_wait_s + 1e-9);
  EXPECT_LE(bf.makespan_s, fifo.makespan_s + 1e-9);
  EXPECT_GE(bf.utilization, fifo.utilization - 1e-9);
  EXPECT_GE(fifo.p95_wait_s, fifo.mean_wait_s);  // heavy tail sanity
}

TEST(Traces, Validation) {
  sched::TraceConfig bad;
  bad.jobs = 0;
  EXPECT_THROW(sched::generate_trace(bad), Error);
  bad = {};
  bad.arrivals_per_hour = 0.0;
  EXPECT_THROW(sched::generate_trace(bad), Error);
}

}  // namespace
}  // namespace candle

// Tests for losses (value + gradient against finite differences) and
// optimizers (convergence on a convex quadratic, state handling, precision
// rounding policies, the chunked vector update's bit-identity).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"

namespace candle {
namespace {

// Central-difference check of loss.grad against loss.value.
double loss_grad_max_error(const Loss& loss, Tensor pred,
                           const Tensor& target) {
  const Tensor g = loss.grad(pred, target);
  const float eps = 1e-3f;
  double max_err = 0.0;
  for (Index i = 0; i < pred.numel(); ++i) {
    const float orig = pred[i];
    pred[i] = orig + eps;
    const double fp = loss.value(pred, target);
    pred[i] = orig - eps;
    const double fm = loss.value(pred, target);
    pred[i] = orig;
    const double num = (fp - fm) / (2.0 * static_cast<double>(eps));
    max_err = std::max(max_err, std::abs(num - static_cast<double>(g[i])));
  }
  return max_err;
}

TEST(Mse, KnownValue) {
  MeanSquaredError mse;
  Tensor pred({2, 2}, {1, 2, 3, 4});
  Tensor target({2, 2}, {1, 2, 3, 6});
  EXPECT_FLOAT_EQ(mse.value(pred, target), 4.0f / 4.0f);
}

TEST(Mse, GradMatchesFiniteDifference) {
  Pcg32 rng(1);
  MeanSquaredError mse;
  Tensor pred = Tensor::randn({4, 3}, rng);
  Tensor target = Tensor::randn({4, 3}, rng);
  EXPECT_LT(loss_grad_max_error(mse, pred, target), 1e-3);
}

TEST(Mse, ZeroAtPerfectPrediction) {
  MeanSquaredError mse;
  Tensor pred({3, 1}, {1, 2, 3});
  EXPECT_EQ(mse.value(pred, pred), 0.0f);
  Tensor g = mse.grad(pred, pred);
  EXPECT_EQ(g.l2_norm(), 0.0f);
}

TEST(SoftmaxXent, SoftmaxRowsSumToOne) {
  Pcg32 rng(2);
  Tensor logits = Tensor::randn({5, 7}, rng, 0.0f, 3.0f);
  Tensor p = SoftmaxCrossEntropy::softmax(logits);
  for (Index i = 0; i < 5; ++i) {
    double row = 0;
    for (Index j = 0; j < 7; ++j) {
      row += p.at(i, j);
      EXPECT_GE(p.at(i, j), 0.0f);
    }
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
}

TEST(SoftmaxXent, StableForHugeLogits) {
  Tensor logits({1, 3}, {1000.0f, 999.0f, -1000.0f});
  Tensor target({1}, {0.0f});
  SoftmaxCrossEntropy xent;
  const float v = xent.value(logits, target);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_LT(v, 1.0f);  // the true class dominates
  Tensor g = xent.grad(logits, target);
  for (Index i = 0; i < 3; ++i) EXPECT_TRUE(std::isfinite(g[i]));
}

TEST(SoftmaxXent, UniformLogitsGiveLogC) {
  Tensor logits = Tensor::zeros({4, 10});
  Tensor target({4}, {0, 3, 5, 9});
  SoftmaxCrossEntropy xent;
  EXPECT_NEAR(xent.value(logits, target), std::log(10.0f), 1e-5);
}

TEST(SoftmaxXent, GradMatchesFiniteDifference) {
  Pcg32 rng(3);
  Tensor logits = Tensor::randn({6, 4}, rng);
  Tensor target({6}, {0, 1, 2, 3, 1, 2});
  SoftmaxCrossEntropy xent;
  EXPECT_LT(loss_grad_max_error(xent, logits, target), 1e-3);
}

TEST(SoftmaxXent, RejectsBadClassIndex) {
  Tensor logits = Tensor::zeros({2, 3});
  Tensor target({2}, {0.0f, 5.0f});
  SoftmaxCrossEntropy xent;
  EXPECT_THROW(xent.value(logits, target), Error);
}

TEST(Bce, GradMatchesFiniteDifference) {
  Pcg32 rng(4);
  Tensor logits = Tensor::randn({8, 1}, rng);
  Tensor target({8, 1}, {1, 0, 1, 1, 0, 0, 1, 0});
  BinaryCrossEntropy bce;
  EXPECT_LT(loss_grad_max_error(bce, logits, target), 1e-3);
}

TEST(Bce, StableForExtremeLogits) {
  Tensor logits({2, 1}, {100.0f, -100.0f});
  Tensor target({2, 1}, {1.0f, 0.0f});
  BinaryCrossEntropy bce;
  const float v = bce.value(logits, target);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_LT(v, 1e-3f);
}

TEST(Bce, ValueAtZeroLogitsIsLog2) {
  Tensor logits = Tensor::zeros({4, 1});
  Tensor target({4, 1}, {1, 0, 1, 0});
  BinaryCrossEntropy bce;
  EXPECT_NEAR(bce.value(logits, target), std::log(2.0f), 1e-6);
}

// ---- optimizers ---------------------------------------------------------------

// Minimize f(w) = 0.5 * ||w - w*||^2 whose gradient is (w - w*).
void run_quadratic(Optimizer& opt, int steps, Tensor& w, const Tensor& wstar) {
  Tensor g(w.shape());
  std::vector<Tensor*> ps{&w}, gs{&g};
  for (int s = 0; s < steps; ++s) {
    g.copy_from(w);
    g.axpy(-1.0f, wstar);
    opt.step(ps, gs);
  }
}

class OptimizerConvergence
    : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerConvergence, ReachesQuadraticMinimum) {
  Pcg32 rng(5);
  Tensor wstar = Tensor::randn({16}, rng);
  Tensor w = Tensor::randn({16}, rng);
  // RMSProp limit-cycles with amplitude ~lr near the optimum, so it gets a
  // smaller step than the others.
  const float lr = GetParam() == "adam"      ? 0.05f
                   : GetParam() == "rmsprop" ? 0.01f
                                             : 0.1f;
  auto opt = make_optimizer(GetParam(), lr);
  run_quadratic(*opt, 800, w, wstar);
  w.axpy(-1.0f, wstar);
  EXPECT_LT(w.l2_norm(), 0.05f) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerConvergence,
                         ::testing::Values("sgd", "momentum", "rmsprop",
                                           "adam"),
                         [](const auto& pinfo) { return pinfo.param; });

TEST(Optimizer, UnknownNameThrows) {
  EXPECT_THROW(make_optimizer("lbfgs", 0.1f), Error);
}

TEST(Optimizer, SgdSingleStepIsExact) {
  Tensor w({2}, {1.0f, 2.0f});
  Tensor g({2}, {0.5f, -1.0f});
  Sgd sgd(0.1f);
  std::vector<Tensor*> ps{&w}, gs{&g};
  sgd.step(ps, gs);
  EXPECT_FLOAT_EQ(w[0], 0.95f);
  EXPECT_FLOAT_EQ(w[1], 2.1f);
}

TEST(Optimizer, MismatchedListsThrow) {
  Tensor w({2});
  Sgd sgd(0.1f);
  std::vector<Tensor*> ps{&w}, gs{};
  EXPECT_THROW(sgd.step(ps, gs), Error);
  Tensor g({3});
  gs = {&g};
  EXPECT_THROW(sgd.step(ps, gs), Error);
}

TEST(Optimizer, MomentumAcceleratesAlongConsistentGradient) {
  // With a constant gradient, momentum's effective step grows toward
  // lr/(1-mu); plain SGD stays at lr.
  Tensor w_sgd({1}, {0.0f}), w_mom({1}, {0.0f});
  Tensor g({1}, {1.0f});
  Sgd sgd(0.01f);
  Momentum mom(0.01f, 0.9f);
  std::vector<Tensor*> gs{&g};
  std::vector<Tensor*> p1{&w_sgd}, p2{&w_mom};
  for (int s = 0; s < 50; ++s) {
    sgd.step(p1, gs);
    mom.step(p2, gs);
  }
  EXPECT_LT(w_mom[0], w_sgd[0] * 3.0f);  // sanity upper bound
  EXPECT_LT(w_mom[0], -w_sgd[0]);        // momentum moved much farther (neg)
  EXPECT_LT(w_mom[0], 5.0f * w_sgd[0]);
}

TEST(Optimizer, AdamInvariantToGradientScale) {
  // Adam's update magnitude is ~lr regardless of gradient scale.
  Tensor w1({1}, {0.0f}), w2({1}, {0.0f});
  Tensor g1({1}, {1e-3f}), g2({1}, {1e3f});
  Adam a1(0.01f), a2(0.01f);
  std::vector<Tensor*> p1{&w1}, p2{&w2}, gg1{&g1}, gg2{&g2};
  a1.step(p1, gg1);
  a2.step(p2, gg2);
  EXPECT_NEAR(w1[0], w2[0], 1e-5f);
  EXPECT_NEAR(w1[0], -0.01f, 1e-4f);
}

TEST(Optimizer, UpdatePrecisionRoundsWeights) {
  Tensor w({1}, {1.0f});
  Tensor g({1}, {-1e-5f});  // too small to survive bf16 weight rounding
  Sgd sgd(1.0f);
  sgd.set_update_precision({Precision::BF16, false, 0});
  std::vector<Tensor*> ps{&w}, gs{&g};
  sgd.step(ps, gs);
  EXPECT_EQ(w[0], 1.0f);  // update vanished: classic fp16/bf16 stagnation
  // Stochastic rounding rescues the expectation.
  Tensor w2({1}, {1.0f});
  Sgd sgd2(1.0f);
  sgd2.set_update_precision({Precision::BF16, true, 42});
  std::vector<Tensor*> ps2{&w2};
  double sum = 0.0;
  const int reps = 2000;
  for (int r = 0; r < reps; ++r) {
    w2[0] = 1.0f;
    sgd2.step(ps2, gs);
    sum += w2[0];
  }
  // The SGD update is w -= lr*(-1e-5) = +1e-5; unbiased stochastic rounding
  // preserves that in expectation, which RNE rounding cannot.
  EXPECT_GT(sum / reps, 1.0 + 2e-6);
  EXPECT_NEAR(sum / reps, 1.0 + 1e-5, 5e-6);
}

TEST(Optimizer, LearningRateIsMutable) {
  Sgd sgd(0.1f);
  EXPECT_FLOAT_EQ(sgd.learning_rate(), 0.1f);
  sgd.set_learning_rate(0.01f);
  EXPECT_FLOAT_EQ(sgd.learning_rate(), 0.01f);
}

// The Adam and RMSProp updates run vectorized, in fixed-size chunks over the
// pool's lanes.  The update is elementwise, so five steps over one tensor
// that spans several chunks (3 * 2^15 + 7 elements: the pool dispatches, and
// the last chunk is short of a vector) equal, bit for bit, the same steps
// applied to each element as its own one-element tensor, and the same steps
// run nested inside a parallel_for body, where the update runs serially.
TEST(Optimizer, ChunkedVectorUpdateIsBitIdenticalToElementwise) {
  const Index n = 3 * (Index{1} << 15) + 7;
  constexpr int kSteps = 5;
  Pcg32 rng(0x0ad4);
  const Tensor w0 = Tensor::randn({n}, rng);
  std::vector<Tensor> g(kSteps);
  for (Tensor& gs : g) gs = Tensor::randn({n}, rng);

  for (const std::string name : {"adam", "rmsprop"}) {
    const auto whole = [&]() {
      Tensor w = w0;
      Tensor grad({n});
      auto opt = make_optimizer(name, 0.01f);
      std::vector<Tensor*> ps{&w}, gs{&grad};
      for (int s = 0; s < kSteps; ++s) {
        grad.copy_from(g[static_cast<std::size_t>(s)]);
        opt->step(ps, gs);
      }
      return w;
    };
    const Tensor chunked = whole();

    Tensor nested;
    parallel_for(0, 2, 1, [&](std::int64_t lo, std::int64_t /*hi*/) {
      if (lo == 0) nested = whole();
    });

    std::vector<Tensor> w1(static_cast<std::size_t>(n));
    std::vector<Tensor> g1(static_cast<std::size_t>(n));
    std::vector<Tensor*> ps, gs;
    for (Index i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      w1[u] = Tensor({1}, {w0[i]});
      g1[u] = Tensor({1});
      ps.push_back(&w1[u]);
      gs.push_back(&g1[u]);
    }
    auto opt = make_optimizer(name, 0.01f);
    for (int s = 0; s < kSteps; ++s) {
      for (Index i = 0; i < n; ++i) {
        g1[static_cast<std::size_t>(i)][0] = g[static_cast<std::size_t>(s)][i];
      }
      opt->step(ps, gs);
    }
    Tensor elementwise({n});
    for (Index i = 0; i < n; ++i) {
      elementwise[i] = w1[static_cast<std::size_t>(i)][0];
    }

    EXPECT_EQ(std::memcmp(chunked.data(), elementwise.data(),
                          sizeof(float) * static_cast<std::size_t>(n)),
              0)
        << name;
    ASSERT_EQ(nested.numel(), n) << name;
    EXPECT_EQ(std::memcmp(chunked.data(), nested.data(),
                          sizeof(float) * static_cast<std::size_t>(n)),
              0)
        << name;
    EXPECT_GT(max_abs_diff(chunked, w0), 0.0f) << name;
  }
}

}  // namespace
}  // namespace candle

// Model-level tests: construction contracts, deterministic builds,
// end-to-end training on separable synthetic tasks, flat weight/grad
// serialization, precision plumbing, the frozen inference plan, and the
// fit() trainer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "nn/metrics.hpp"
#include "nn/model.hpp"
#include "nn/plan.hpp"
#include "nn/trainer.hpp"
#include "runtime/workspace.hpp"

namespace candle {
namespace {

Model mlp(Index in, Index hidden, Index out, std::uint64_t seed) {
  Model m;
  m.add(make_dense(hidden)).add(make_relu()).add(make_dense(out));
  m.build({in}, seed);
  return m;
}

// Two gaussian blobs, linearly separable.
Dataset blobs(Index n, Index features, std::uint64_t seed) {
  Pcg32 rng(seed);
  Dataset d{Tensor({n, features}), Tensor({n})};
  for (Index i = 0; i < n; ++i) {
    const float cls = static_cast<float>(i % 2);
    d.y[i] = cls;
    for (Index j = 0; j < features; ++j) {
      d.x.at(i, j) =
          static_cast<float>(rng.normal(cls * 2.0 - 1.0, 0.7));
    }
  }
  return d;
}

TEST(Model, BuildContracts) {
  Model m;
  EXPECT_THROW(m.build({4}, 0), Error);  // no layers
  m.add(make_dense(2));
  EXPECT_THROW(m.add(nullptr), Error);
  m.build({4}, 0);
  EXPECT_THROW(m.build({4}, 0), Error);    // double build
  EXPECT_THROW(m.add(make_dense(1)), Error);  // add after build
}

TEST(Model, ForwardRequiresBuild) {
  Model m;
  m.add(make_dense(2));
  EXPECT_THROW(m.forward(Tensor({1, 4})), Error);
}

TEST(Model, DeterministicInitAcrossInstances) {
  Model a = mlp(8, 16, 4, 99);
  Model b = mlp(8, 16, 4, 99);
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(max_abs_diff(*pa[i], *pb[i]), 0.0f);
  }
  Model c = mlp(8, 16, 4, 100);
  EXPECT_GT(max_abs_diff(*c.params()[0], *pa[0]), 0.0f);
}

TEST(Model, CountsParams) {
  Model m = mlp(10, 8, 3, 1);
  // dense(8): 10*8+8 ; dense(3): 8*3+3
  EXPECT_EQ(m.num_params(), 10 * 8 + 8 + 8 * 3 + 3);
  EXPECT_EQ(m.grad_size(), m.num_params());
  EXPECT_GT(m.flops_per_sample(), 0.0);
  EXPECT_EQ(m.summary(), "dense(8) -> relu -> dense(3)");
}

TEST(Model, OutputShape) {
  Model m;
  m.add(make_conv1d(4, 3)).add(make_relu()).add(make_maxpool1d(2));
  m.add(make_flatten()).add(make_dense(5));
  m.build({2, 12}, 7);
  EXPECT_EQ(m.output_shape(), (Shape{5}));
  Tensor y = m.forward(Tensor({3, 2, 12}));
  EXPECT_EQ(y.shape(), (Shape{3, 5}));
}

TEST(Model, WeightRoundTripThroughFlatBuffer) {
  Model m = mlp(6, 12, 2, 3);
  std::vector<float> buf(static_cast<std::size_t>(m.num_params()));
  m.copy_weights_to(buf);
  Model m2 = mlp(6, 12, 2, 4);  // different init
  m2.set_weights_from(buf);
  Pcg32 rng(5);
  Tensor x = Tensor::randn({4, 6}, rng);
  EXPECT_EQ(max_abs_diff(m.forward(x), m2.forward(x)), 0.0f);
}

TEST(Model, GradRoundTripAndScale) {
  Model m = mlp(6, 12, 2, 3);
  Pcg32 rng(6);
  Tensor x = Tensor::randn({4, 6}, rng);
  Tensor y({4, 2});
  MeanSquaredError mse;
  const Tensor pred = m.forward(x, true);
  m.backward(mse.grad(pred, y));
  std::vector<float> buf(static_cast<std::size_t>(m.grad_size()));
  m.copy_grads_to(buf);
  m.scale_grads(2.0f);
  std::vector<float> buf2(buf.size());
  m.copy_grads_to(buf2);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_FLOAT_EQ(buf2[i], 2.0f * buf[i]);
  }
  m.set_grads_from(buf);
  std::vector<float> buf3(buf.size());
  m.copy_grads_to(buf3);
  EXPECT_EQ(buf3, buf);
  std::vector<float> small(3);
  EXPECT_THROW(m.copy_grads_to(small), Error);
}

// Model::backward runs its first layer's backward_params, which fills the
// parameter grads without dLoss/dInput (Dense skips the dx = dy W^T GEMM;
// other layers run backward and drop dx).  Every parameter gradient equals,
// bit for bit, the one from a layer-by-layer backward that still computes
// layer 0's dx, with and without the grad-ready hook.
TEST(Model, BackwardSkipsOnlyTheFirstLayersInputGradient) {
  const auto dense_first = [] {
    Model m;
    m.add(make_dense(12)).add(make_relu()).add(make_dense(8));
    m.add(make_tanh()).add(make_dense(2));
    m.build({6}, 21);
    return m;
  };
  const auto conv_first = [] {
    Model m;
    m.add(make_conv1d(4, 3)).add(make_flatten()).add(make_dense(2));
    m.build({2, 10}, 23);
    return m;
  };
  for (const bool conv : {false, true}) {
    Model m = conv ? conv_first() : dense_first();
    Model ref = conv ? conv_first() : dense_first();
    Pcg32 rng(22);
    Shape xs = m.input_shape();
    xs.insert(xs.begin(), 5);
    const Tensor x = Tensor::randn(xs, rng);
    const Tensor y = Tensor::randn({5, 2}, rng);
    MeanSquaredError mse;
    const Tensor pred = m.forward(x, true);
    ASSERT_EQ(max_abs_diff(ref.forward(x, true), pred), 0.0f);
    const Tensor dy = mse.grad(pred, y);

    Tensor d = dy;
    for (Index i = ref.num_layers() - 1; i >= 0; --i) {
      d = ref.layer(i).backward(d);
    }
    EXPECT_EQ(d.shape(), x.shape()) << "the reference computed layer 0's dx";
    std::vector<float> want(static_cast<std::size_t>(ref.grad_size()));
    ref.copy_grads_to(want);

    std::vector<float> got(want.size());
    m.backward(dy);
    m.copy_grads_to(got);
    EXPECT_EQ(std::memcmp(want.data(), got.data(), sizeof(float) * got.size()),
              0)
        << (conv ? "conv" : "dense") << " first";

    std::vector<Index> ready;
    std::fill(got.begin(), got.end(), 0.0f);
    m.set_grads_from(got);
    m.backward(dy, [&](Index layer) { ready.push_back(layer); });
    m.copy_grads_to(got);
    EXPECT_EQ(std::memcmp(want.data(), got.data(), sizeof(float) * got.size()),
              0)
        << (conv ? "conv" : "dense") << " first, hooked";
    ASSERT_EQ(static_cast<Index>(ready.size()), m.num_layers());
    EXPECT_EQ(ready.back(), 0);
  }
}

TEST(Model, TrainsXor) {
  // XOR: the classic non-linearly-separable task; an MLP must fit it.
  Model m;
  m.add(make_dense(8)).add(make_tanh()).add(make_dense(1));
  m.build({2}, 17);
  Tensor x({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  Tensor y({4, 1}, {0, 1, 1, 0});
  MeanSquaredError mse;
  Adam opt(0.05f);
  float loss = 0.0f;
  for (int step = 0; step < 400; ++step) loss = m.train_batch(x, y, mse, opt);
  EXPECT_LT(loss, 0.01f);
  const Tensor pred = m.forward(x);
  EXPECT_LT(pred.at(0, 0), 0.3f);
  EXPECT_GT(pred.at(1, 0), 0.7f);
  EXPECT_GT(pred.at(2, 0), 0.7f);
  EXPECT_LT(pred.at(3, 0), 0.3f);
}

TEST(Model, TrainsBlobClassifier) {
  Dataset d = blobs(256, 8, 21);
  Model m;
  m.add(make_dense(16)).add(make_relu()).add(make_dense(2));
  m.build({8}, 22);
  SoftmaxCrossEntropy xent;
  Adam opt(0.01f);
  FitOptions fo;
  fo.epochs = 15;
  fo.batch_size = 32;
  fo.seed = 23;
  const FitHistory h = fit(m, d, nullptr, xent, opt, fo);
  EXPECT_LT(h.final_train_loss(), 0.1f);
  EXPECT_GT(accuracy(m.predict(d.x), d.y), 0.97);
  // Loss decreased monotonically-ish.
  EXPECT_LT(h.train_loss.back(), h.train_loss.front());
}

TEST(Model, EvaluateMatchesManualLoss) {
  Model m = mlp(4, 8, 2, 31);
  Pcg32 rng(32);
  Tensor x = Tensor::randn({100, 4}, rng);
  Tensor y = Tensor::randn({100, 2}, rng);
  MeanSquaredError mse;
  const float manual = mse.value(m.forward(x), y);
  // Batched evaluation with an uneven final slice must agree.
  EXPECT_NEAR(m.evaluate(x, y, mse, 33), manual, 1e-4f);
}

TEST(Model, PredictMatchesForward) {
  Model m = mlp(4, 8, 3, 41);
  Pcg32 rng(42);
  Tensor x = Tensor::randn({50, 4}, rng);
  EXPECT_LE(max_abs_diff(m.predict(x, 7), m.forward(x)), 1e-6f);
}

TEST(Model, PrecisionPropagatesToLayers) {
  Model m = mlp(4, 8, 2, 51);
  m.set_compute_precision(Precision::BF16);
  EXPECT_EQ(m.compute_precision(), Precision::BF16);
  for (Index i = 0; i < m.num_layers(); ++i) {
    EXPECT_EQ(m.layer(i).precision(), Precision::BF16);
  }
}

// ---- InferencePlan -----------------------------------------------------------

// run() must equal Model::infer bit for bit at every row count, since the
// serving engine runs the plan and its clients compare against predict.
void expect_plan_matches_infer(const Model& m, const std::string& summary,
                               std::uint64_t seed) {
  const InferencePlan plan(m, 256);
  EXPECT_EQ(plan.summary(), summary);
  EXPECT_EQ(plan.output_shape(), m.output_shape());
  InferencePlan::Scratch scratch = plan.make_scratch();
  Pcg32 rng(seed);
  for (const Index rows : {1, 2, 3, 4, 5, 6, 7, 8, 9, 256}) {
    Shape shape = m.input_shape();
    shape.insert(shape.begin(), rows);
    const Tensor x = Tensor::randn(shape, rng);
    const Tensor want = m.infer(x);
    const std::span<const float> got = plan.run(x, scratch);
    ASSERT_EQ(static_cast<Index>(got.size()), want.numel()) << rows;
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * got.size()),
              0)
        << summary << ", rows=" << rows;
  }
}

TEST(InferencePlan, FusedDenseStacksMatchInfer) {
  Model m;
  m.add(make_dense(64)).add(make_relu());
  m.add(make_dense(48)).add(make_sigmoid());
  m.add(make_dense(33)).add(make_tanh());
  m.add(make_dense(5));
  m.build({37}, 61);
  expect_plan_matches_infer(
      m, "dense(64)+relu -> dense(48)+sigmoid -> dense(33)+tanh -> dense(5)",
      62);
}

TEST(InferencePlan, FallbackStepsMatchInfer) {
  Model m;
  m.add(make_dense(40)).add(make_relu()).add(make_dropout(0.25f));
  m.add(make_dense(32)).add(make_leaky_relu());
  m.add(make_dense(24)).add(make_relu());
  m.add(make_dense(3));
  m.build({29}, 71);
  m.layer(5).set_precision(Precision::BF16);  // dense(24): fallback
  expect_plan_matches_infer(m,
                            "dense(40)+relu -> dropout -> dense(32) -> "
                            "leaky_relu -> dense(24) -> relu -> dense(3)",
                            72);
}

TEST(InferencePlan, ConvFrontEndMatchesInfer) {
  // Rank-3 activations through fallback steps, then packed steps.
  Model m;
  m.add(make_conv1d(3, 3)).add(make_relu()).add(make_maxpool1d(2));
  m.add(make_flatten()).add(make_dense(8)).add(make_tanh());
  m.add(make_dense(1));
  m.build({2, 12}, 81);
  expect_plan_matches_infer(m,
                            "conv1d(3x3) -> relu -> maxpool1d(2) -> flatten "
                            "-> dense(8)+tanh -> dense(1)",
                            82);
}

TEST(InferencePlan, IsASnapshotOfTheWeights) {
  Model m = mlp(6, 16, 2, 91);
  Pcg32 rng(92);
  const Tensor x = Tensor::randn({3, 6}, rng);
  const Tensor before = m.infer(x);
  const InferencePlan plan(m, 4);
  InferencePlan::Scratch scratch = plan.make_scratch();
  for (Tensor* p : m.params()) p->scale(2.0f);
  const std::span<const float> got = plan.run(x, scratch);
  EXPECT_EQ(std::memcmp(got.data(), before.data(), sizeof(float) * got.size()),
            0);
}

TEST(InferencePlan, RejectsBadInputs) {
  Model unbuilt;
  unbuilt.add(make_dense(2));
  EXPECT_THROW(InferencePlan(unbuilt, 4), Error);
  Model m = mlp(6, 16, 2, 93);
  EXPECT_THROW(InferencePlan(m, 0), Error);
  const InferencePlan plan(m, 4);
  InferencePlan::Scratch scratch = plan.make_scratch();
  EXPECT_THROW(plan.run(Tensor({5, 6}), scratch), Error);  // too many rows
  EXPECT_THROW(plan.run(Tensor({2, 7}), scratch), Error);  // wrong width
  InferencePlan::Scratch empty;
  EXPECT_THROW(plan.run(Tensor({2, 6}), empty), Error);
}

TEST(InferencePlan, SteadyStateRunsDoNotGrowArenas) {
  Model m;
  m.add(make_dense(128)).add(make_relu());
  m.add(make_dense(64)).add(make_relu());
  m.add(make_dense(1));
  m.build({96}, 101);
  const InferencePlan plan(m, 4);
  InferencePlan::Scratch scratch = plan.make_scratch();
  Pcg32 rng(102);
  const Tensor x4 = Tensor::randn({4, 96}, rng);
  std::vector<Tensor> xs;
  for (Index rows = 1; rows <= 4; ++rows) {
    xs.push_back(Tensor::randn({rows, 96}, rng));
  }
  for (int i = 0; i < 2; ++i) (void)plan.run(x4, scratch);
  const std::uint64_t grows = workspace_stats().grow_count;
  for (int i = 0; i < 50; ++i) {
    (void)plan.run(xs[static_cast<std::size_t>(i % 4)], scratch);
  }
  EXPECT_EQ(workspace_stats().grow_count, grows);
}

TEST(Trainer, LossScalingIsTransparentInFp32) {
  // With exact fp32 math, loss scaling must not change the trajectory.
  Dataset d = blobs(64, 4, 61);
  Model m1, m2;
  for (Model* m : {&m1, &m2}) {
    m->add(make_dense(8)).add(make_relu()).add(make_dense(2));
    m->build({4}, 62);
  }
  SoftmaxCrossEntropy xent;
  Sgd o1(0.1f), o2(0.1f);
  FitOptions fo;
  fo.epochs = 3;
  fo.batch_size = 16;
  fo.seed = 63;
  const FitHistory h1 = fit(m1, d, nullptr, xent, o1, fo);
  fo.precision.loss_scale = 256.0f;
  const FitHistory h2 = fit(m2, d, nullptr, xent, o2, fo);
  for (std::size_t e = 0; e < h1.train_loss.size(); ++e) {
    EXPECT_NEAR(h1.train_loss[e], h2.train_loss[e], 2e-3f);
  }
}

TEST(Trainer, ValidationLossTracked) {
  Dataset d = blobs(200, 6, 71);
  auto [train, val] = split(d, 0.8, 72);
  Model m;
  m.add(make_dense(12)).add(make_relu()).add(make_dense(2));
  m.build({6}, 73);
  SoftmaxCrossEntropy xent;
  Adam opt(0.01f);
  FitOptions fo;
  fo.epochs = 8;
  fo.batch_size = 16;
  fo.seed = 74;
  const FitHistory h = fit(m, train, &val, xent, opt, fo);
  ASSERT_EQ(h.val_loss.size(), h.train_loss.size());
  for (float v : h.val_loss) EXPECT_FALSE(std::isnan(v));
  EXPECT_LT(h.best_val_loss(), h.val_loss.front());
  EXPECT_GT(h.samples_per_second, 0.0);
}

TEST(Trainer, EarlyStopCallback) {
  Dataset d = blobs(64, 4, 81);
  Model m;
  m.add(make_dense(4)).add(make_dense(2));
  m.build({4}, 82);
  SoftmaxCrossEntropy xent;
  Sgd opt(0.05f);
  FitOptions fo;
  fo.epochs = 50;
  fo.batch_size = 16;
  Index calls = 0;
  fo.on_epoch = [&](Index, float, float) { return ++calls < 5; };
  const FitHistory h = fit(m, d, nullptr, xent, opt, fo);
  EXPECT_EQ(h.train_loss.size(), 5u);
}

TEST(Trainer, ReducedPrecisionStillLearns) {
  // The headline claim in miniature: bf16 compute reaches comparable loss.
  Dataset d = blobs(256, 8, 91);
  Model m32, m16;
  for (Model* m : {&m32, &m16}) {
    m->add(make_dense(16)).add(make_relu()).add(make_dense(2));
    m->build({8}, 92);
  }
  SoftmaxCrossEntropy xent;
  Adam o1(0.01f), o2(0.01f);
  FitOptions fo;
  fo.epochs = 10;
  fo.batch_size = 32;
  fo.seed = 93;
  const FitHistory h32 = fit(m32, d, nullptr, xent, o1, fo);
  fo.precision = PrecisionPolicy::standard(Precision::BF16);
  const FitHistory h16 = fit(m16, d, nullptr, xent, o2, fo);
  EXPECT_LT(h32.final_train_loss(), 0.15f);
  EXPECT_LT(h16.final_train_loss(), 0.25f);  // close to fp32 quality
}

TEST(Metrics, Accuracy) {
  Tensor logits({3, 2}, {2, 1, 0, 5, 1, 0});
  Tensor labels({3}, {0, 1, 1});
  EXPECT_NEAR(accuracy(logits, labels), 2.0 / 3.0, 1e-9);
}

TEST(Metrics, R2PerfectAndMeanBaseline) {
  Tensor t({4}, {1, 2, 3, 4});
  EXPECT_NEAR(r2_score(t, t), 1.0, 1e-9);
  Tensor mean_pred = Tensor::full({4}, 2.5f);
  EXPECT_NEAR(r2_score(mean_pred, t), 0.0, 1e-6);
}

TEST(Metrics, AucKnownCases) {
  Tensor perfect({4}, {0.1f, 0.2f, 0.8f, 0.9f});
  Tensor labels({4}, {0, 0, 1, 1});
  EXPECT_NEAR(roc_auc(perfect, labels), 1.0, 1e-9);
  Tensor inverted({4}, {0.9f, 0.8f, 0.2f, 0.1f});
  EXPECT_NEAR(roc_auc(inverted, labels), 0.0, 1e-9);
  Tensor constant = Tensor::full({4}, 0.5f);
  EXPECT_NEAR(roc_auc(constant, labels), 0.5, 1e-9);  // ties -> chance
  Tensor all_pos({3}, {1, 2, 3});
  Tensor bad_labels = Tensor::ones({3});
  EXPECT_THROW(roc_auc(all_pos, bad_labels), Error);
}

TEST(Metrics, PearsonKnownCases) {
  Tensor a({4}, {1, 2, 3, 4});
  Tensor b({4}, {2, 4, 6, 8});
  EXPECT_NEAR(pearson_r(a, b), 1.0, 1e-9);
  Tensor c({4}, {8, 6, 4, 2});
  EXPECT_NEAR(pearson_r(a, c), -1.0, 1e-9);
  Tensor d = Tensor::full({4}, 3.0f);
  EXPECT_EQ(pearson_r(a, d), 0.0);
}

}  // namespace
}  // namespace candle

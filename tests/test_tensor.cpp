// Unit tests for the Tensor storage class.
#include <gtest/gtest.h>

#include <cmath>

#include "core/tensor.hpp"
#include "runtime/error.hpp"

namespace candle {
namespace {

TEST(Tensor, DefaultIsScalarZero) {
  Tensor t;
  EXPECT_EQ(t.ndim(), 0);
  EXPECT_EQ(t.numel(), 1);
  EXPECT_EQ(t[0], 0.0f);
}

TEST(Tensor, ZerosAndFull) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  for (Index i = 0; i < 6; ++i) EXPECT_EQ(z[i], 0.0f);
  Tensor f = Tensor::full({4}, 2.5f);
  for (Index i = 0; i < 4; ++i) EXPECT_EQ(f[i], 2.5f);
}

TEST(Tensor, FromValuesValidatesCount) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), Error);
}

TEST(Tensor, MultidimAccessIsRowMajor) {
  Tensor t({2, 3, 4});
  t.at(1, 2, 3) = 7.0f;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0f);
  EXPECT_THROW(t.at(2, 0, 0), Error);
  EXPECT_THROW(t.at(0, 0), Error);  // wrong rank
}

TEST(Tensor, DimSupportsNegativeIndex) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
  EXPECT_THROW(t.dim(3), Error);
  EXPECT_THROW(t.dim(-4), Error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  t.reshape({3, 2});
  EXPECT_EQ(t.at(2, 1), 5.0f);
  EXPECT_THROW(t.reshape({4, 2}), Error);
}

TEST(Tensor, ReshapeInfersMinusOne) {
  Tensor t({2, 6});
  t.reshape({-1, 3});
  EXPECT_EQ(t.dim(0), 4);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_THROW(t.reshape({-1, -1}), Error);
  EXPECT_THROW(t.reshape({-1, 5}), Error);
}

TEST(Tensor, RowReturnsView) {
  Tensor t({3, 4});
  auto r = t.row(1);
  ASSERT_EQ(r.size(), 4u);
  r[2] = 9.0f;
  EXPECT_EQ(t.at(1, 2), 9.0f);
  EXPECT_THROW(t.row(3), Error);
  Tensor t3({2, 2, 2});
  EXPECT_THROW(t3.row(0), Error);
}

TEST(Tensor, Dim0SliceSpansOneLeadingRowAtAnyRank) {
  // Unlike row(), dim0_slice works at any rank >= 1: the slice covers
  // everything under one leading-dim index (a per-sample view).
  Tensor t3({2, 2, 2});
  auto s = t3.dim0_slice(1);
  ASSERT_EQ(s.size(), 4u);
  s[3] = 7.0f;
  EXPECT_EQ(t3.at(1, 1, 1), 7.0f);
  Tensor t1({3});
  ASSERT_EQ(t1.dim0_slice(2).size(), 1u);
  EXPECT_THROW(t3.dim0_slice(2), Error);
  EXPECT_THROW(t3.dim0_slice(-1), Error);
  const Tensor& ct = t3;
  EXPECT_EQ(ct.dim0_slice(1)[3], 7.0f);
}

TEST(Tensor, FillScaleAxpy) {
  Tensor a = Tensor::full({4}, 2.0f);
  Tensor b = Tensor::full({4}, 3.0f);
  a.axpy(2.0f, b);  // 2 + 2*3 = 8
  for (Index i = 0; i < 4; ++i) EXPECT_EQ(a[i], 8.0f);
  a.scale(0.5f);
  for (Index i = 0; i < 4; ++i) EXPECT_EQ(a[i], 4.0f);
  a.fill(1.0f);
  EXPECT_EQ(a.sum(), 4.0f);
  Tensor c({3});
  EXPECT_THROW(a.axpy(1.0f, c), Error);
}

TEST(Tensor, Reductions) {
  Tensor t({5}, {3, -1, 4, -1, 5});
  EXPECT_FLOAT_EQ(t.sum(), 10.0f);
  EXPECT_FLOAT_EQ(t.mean(), 2.0f);
  EXPECT_EQ(t.min(), -1.0f);
  EXPECT_EQ(t.max(), 5.0f);
  EXPECT_EQ(t.argmax(), 4);
  EXPECT_FLOAT_EQ(t.l2_norm(), std::sqrt(9.0f + 1 + 16 + 1 + 25));
}

TEST(Tensor, RandnMatchesMoments) {
  Pcg32 rng(123);
  Tensor t = Tensor::randn({10000}, rng, 1.0f, 2.0f);
  EXPECT_NEAR(t.mean(), 1.0f, 0.1f);
  double var = 0;
  for (Index i = 0; i < t.numel(); ++i) {
    const double d = t[i] - t.mean();
    var += d * d;
  }
  var /= static_cast<double>(t.numel());
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Tensor, UniformInRange) {
  Pcg32 rng(7);
  Tensor t = Tensor::uniform({1000}, rng, -2.0f, 3.0f);
  EXPECT_GE(t.min(), -2.0f);
  EXPECT_LT(t.max(), 3.0f);
  EXPECT_NEAR(t.mean(), 0.5f, 0.2f);
}

TEST(Tensor, RandnDeterministicPerSeed) {
  Pcg32 r1(99), r2(99);
  Tensor a = Tensor::randn({100}, r1);
  Tensor b = Tensor::randn({100}, r2);
  EXPECT_EQ(max_abs_diff(a, b), 0.0f);
}

TEST(Tensor, CopyFromAndMaxAbsDiff) {
  Pcg32 rng(1);
  Tensor a = Tensor::randn({3, 3}, rng);
  Tensor b = Tensor::zeros({3, 3});
  b.copy_from(a);
  EXPECT_EQ(max_abs_diff(a, b), 0.0f);
  b[4] += 0.5f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5f);
  Tensor c({9});
  EXPECT_THROW(max_abs_diff(a, c), Error);
}

TEST(Tensor, OfMakesRank1) {
  Tensor t = Tensor::of({1.5f, 2.5f});
  EXPECT_EQ(t.ndim(), 1);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t[1], 2.5f);
}

TEST(ShapeUtils, NumelAndToString) {
  EXPECT_EQ(shape_numel({}), 1);
  EXPECT_EQ(shape_numel({0, 5}), 0);
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
  EXPECT_THROW(shape_numel({-1}), Error);
}

}  // namespace
}  // namespace candle

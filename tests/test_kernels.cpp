// Unit + property tests for the dense kernels: all GEMM tiers agree with the
// naive reference across shapes/transposes, GEMV matches GEMM, im2col/col2im
// are mutually adjoint, precision-emulated GEMM obeys format error bounds,
// pre-packed and short-strip GEMMs are bit-identical to the packed path, and
// the column split of batch-sized GEMMs is bit-identical to the serial strip
// path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "core/kernels.hpp"
#include "runtime/rng.hpp"

namespace candle {
namespace {

Tensor random_matrix(Index r, Index c, Pcg32& rng) {
  return Tensor::randn({r, c}, rng);
}

// ---- GEMM agreement across tiers, shapes and transpose combinations --------

using GemmCase = std::tuple<int, int, int, Op, Op>;

class GemmAgreement : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmAgreement, BlockedAndParallelMatchNaive) {
  const auto [m, n, k, op_a, op_b] = GetParam();
  Pcg32 rng(static_cast<std::uint64_t>(m) * 73856093u ^
            static_cast<std::uint64_t>(n) * 19349663u ^
            static_cast<std::uint64_t>(k));
  const Index ar = op_a == Op::None ? m : k;
  const Index ac = op_a == Op::None ? k : m;
  const Index br = op_b == Op::None ? k : n;
  const Index bc = op_b == Op::None ? n : k;
  Tensor a = random_matrix(ar, ac, rng);
  Tensor b = random_matrix(br, bc, rng);
  Tensor c0 = random_matrix(m, n, rng);
  Tensor c1 = c0;
  Tensor c2 = c0;

  const float alpha = 1.3f, beta = -0.4f;
  gemm_naive(op_a, op_b, m, n, k, alpha, a.data(), ac, b.data(), bc, beta,
             c0.data(), n);
  gemm_serial(op_a, op_b, m, n, k, alpha, a.data(), ac, b.data(), bc, beta,
              c1.data(), n);
  gemm(op_a, op_b, m, n, k, alpha, a.data(), ac, b.data(), bc, beta,
       c2.data(), n);

  const float tol = 1e-3f * static_cast<float>(k);
  EXPECT_LE(max_abs_diff(c0, c1), tol);
  EXPECT_LE(max_abs_diff(c0, c2), tol);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTransposes, GemmAgreement,
    ::testing::Values(
        GemmCase{1, 1, 1, Op::None, Op::None},
        GemmCase{3, 5, 7, Op::None, Op::None},
        GemmCase{3, 5, 7, Op::Transpose, Op::None},
        GemmCase{3, 5, 7, Op::None, Op::Transpose},
        GemmCase{3, 5, 7, Op::Transpose, Op::Transpose},
        GemmCase{64, 64, 64, Op::None, Op::None},
        GemmCase{64, 64, 64, Op::Transpose, Op::Transpose},
        GemmCase{1, 128, 300, Op::None, Op::None},
        GemmCase{128, 1, 300, Op::None, Op::Transpose},
        GemmCase{100, 100, 1, Op::None, Op::None},
        GemmCase{129, 65, 257, Op::None, Op::None},   // crosses parallel cutoff
        GemmCase{129, 65, 257, Op::Transpose, Op::None}));

TEST(Gemm, ZeroKClearsOrScalesC) {
  Tensor c = Tensor::full({2, 2}, 3.0f);
  gemm(Op::None, Op::None, 2, 2, 0, 1.0f, nullptr, 0, nullptr, 0, 0.5f,
       c.data(), 2);
  for (Index i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c[i], 1.5f);
}

TEST(Gemm, BetaZeroIgnoresGarbageC) {
  Pcg32 rng(2);
  Tensor a = random_matrix(4, 4, rng);
  Tensor b = random_matrix(4, 4, rng);
  Tensor c({4, 4}, std::vector<float>(16, std::nanf("")));
  gemm(Op::None, Op::None, 4, 4, 4, 1.0f, a.data(), 4, b.data(), 4, 0.0f,
       c.data(), 4);
  for (Index i = 0; i < 16; ++i) EXPECT_FALSE(std::isnan(c[i]));
}

TEST(Gemm, NegativeDimensionThrows) {
  EXPECT_THROW(gemm(Op::None, Op::None, -1, 2, 2, 1.0f, nullptr, 0, nullptr,
                    0, 0.0f, nullptr, 0),
               Error);
}

TEST(Gemm, IdentityIsNeutral) {
  Pcg32 rng(3);
  Tensor a = random_matrix(8, 8, rng);
  Tensor eye = Tensor::zeros({8, 8});
  for (Index i = 0; i < 8; ++i) eye.at(i, i) = 1.0f;
  Tensor c = matmul(a, eye);
  EXPECT_LE(max_abs_diff(c, a), 1e-6f);
}

// ---- GEMV -------------------------------------------------------------------

TEST(Gemv, MatchesGemmNoTranspose) {
  Pcg32 rng(4);
  const Index m = 17, n = 23;
  Tensor a = random_matrix(m, n, rng);
  Tensor x = Tensor::randn({n}, rng);
  Tensor y = Tensor::randn({m}, rng);
  Tensor y_ref = y;
  gemv(Op::None, m, n, 2.0f, a.data(), n, x.data(), 0.5f, y.data());
  gemm_naive(Op::None, Op::None, m, 1, n, 2.0f, a.data(), n, x.data(), 1,
             0.5f, y_ref.data(), 1);
  EXPECT_LE(max_abs_diff(y, y_ref), 1e-4f);
}

TEST(Gemv, MatchesGemmTranspose) {
  Pcg32 rng(5);
  const Index m = 11, n = 19;  // op(A) is m x n, stored n x m
  Tensor a = random_matrix(n, m, rng);
  Tensor x = Tensor::randn({n}, rng);
  Tensor y = Tensor::zeros({m});
  Tensor y_ref = Tensor::zeros({m});
  gemv(Op::Transpose, m, n, 1.0f, a.data(), m, x.data(), 0.0f, y.data());
  gemm_naive(Op::Transpose, Op::None, m, 1, n, 1.0f, a.data(), m, x.data(),
             1, 0.0f, y_ref.data(), 1);
  EXPECT_LE(max_abs_diff(y, y_ref), 1e-4f);
}

// ---- matmul wrappers ---------------------------------------------------------

TEST(Matmul, ShapeValidation) {
  Tensor a({2, 3});
  Tensor b({4, 5});
  EXPECT_THROW(matmul(a, b), Error);
  Tensor c({2, 5});
  EXPECT_THROW(matmul_into(c, a, Op::None, b, Op::None), Error);
  Tensor b2({3, 5});
  Tensor bad_c({3, 5});
  EXPECT_THROW(matmul_into(bad_c, a, Op::None, b2, Op::None), Error);
}

TEST(Matmul, KnownProduct) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Matmul, TransposeVariantsAgreeWithExplicitTranspose) {
  Pcg32 rng(6);
  Tensor a = random_matrix(4, 6, rng);
  Tensor b = random_matrix(4, 5, rng);
  // C = A^T B : (6x4)(4x5) -> 6x5
  Tensor c({6, 5});
  matmul_into(c, a, Op::Transpose, b, Op::None);
  Tensor at({6, 4});
  for (Index i = 0; i < 4; ++i)
    for (Index j = 0; j < 6; ++j) at.at(j, i) = a.at(i, j);
  Tensor c_ref = matmul(at, b);
  EXPECT_LE(max_abs_diff(c, c_ref), 1e-4f);
}

// ---- precision-emulated GEMM -------------------------------------------------

class EmulatedGemm : public ::testing::TestWithParam<Precision> {};

TEST_P(EmulatedGemm, ErrorScalesWithFormatEpsilon) {
  const Precision prec = GetParam();
  Pcg32 rng(7);
  const Index m = 32, n = 24, k = 48;
  Tensor a = random_matrix(m, k, rng);
  Tensor b = random_matrix(k, n, rng);
  Tensor exact({m, n});
  Tensor approx({m, n});
  matmul_into(exact, a, Op::None, b, Op::None);
  gemm_emulated(prec, Op::None, Op::None, m, n, k, 1.0f, a.data(), k,
                b.data(), n, 0.0f, approx.data(), n);
  // Rounded inputs with exact fp32 accumulation: elementwise error is
  // bounded by ~ 2*eps * sum|a||b| <= 2*eps*k*max|a|*max|b|.
  const float bound = 3.0f * precision_epsilon(prec) * static_cast<float>(k) *
                          a.flat()[static_cast<std::size_t>(
                              std::abs(a.argmax()))] // loose cap below
                      + 1e-4f;
  (void)bound;
  const float amax = std::max(std::abs(a.min()), a.max());
  const float bmax = std::max(std::abs(b.min()), b.max());
  const float tol =
      3.0f * precision_epsilon(prec) * static_cast<float>(k) * amax * bmax +
      1e-4f;
  EXPECT_LE(max_abs_diff(exact, approx), tol) << precision_name(prec);
  if (prec == Precision::FP32 || prec == Precision::FP64) {
    EXPECT_EQ(max_abs_diff(exact, approx), 0.0f);
  } else {
    // Reduced formats must actually perturb the result (sanity that the
    // emulation path is active).
    EXPECT_GT(max_abs_diff(exact, approx), 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, EmulatedGemm,
                         ::testing::Values(Precision::FP64, Precision::FP32,
                                           Precision::BF16, Precision::FP16,
                                           Precision::INT8),
                         [](const auto& pinfo) {
                           return precision_name(pinfo.param);
                         });

TEST(EmulatedGemmTranspose, HandlesTransposedOperands) {
  Pcg32 rng(8);
  const Index m = 8, n = 6, k = 10;
  Tensor a = random_matrix(k, m, rng);  // will be used transposed
  Tensor b = random_matrix(k, n, rng);
  Tensor exact({m, n});
  Tensor approx({m, n});
  gemm(Op::Transpose, Op::None, m, n, k, 1.0f, a.data(), m, b.data(), n, 0.0f,
       exact.data(), n);
  gemm_emulated(Precision::BF16, Op::Transpose, Op::None, m, n, k, 1.0f,
                a.data(), m, b.data(), n, 0.0f, approx.data(), n);
  EXPECT_LE(max_abs_diff(exact, approx), 0.1f);
  EXPECT_GT(max_abs_diff(exact, approx), 0.0f);
}

TEST(Int8Gemm, ExactForSmallIntegers) {
  // Integer-valued inputs within [-127, 127] with max 127 are exactly
  // representable, so int8 GEMM is exact.
  Tensor a({2, 3}, {1, -2, 3, 4, 5, -6});
  Tensor b({3, 2}, {7, 8, 9, -10, 11, 12});
  // Force scale=1 by planting 127 magnitude entries.
  Tensor a2({2, 4}, {1, -2, 3, 127, 4, 5, -6, 0});
  Tensor b2({4, 2}, {7, 8, 9, -10, 11, 12, 0, 127});
  Tensor c({2, 2});
  gemm_int8(2, 2, 4, a2.data(), b2.data(), c.data());
  Tensor c_ref({2, 2});
  gemm_naive(Op::None, Op::None, 2, 2, 4, 1.0f, a2.data(), 4, b2.data(), 2,
             0.0f, c_ref.data(), 2);
  EXPECT_LE(max_abs_diff(c, c_ref), 1e-3f);
}

// ---- im2col / col2im ----------------------------------------------------------

TEST(Im2col1d, KnownSmallCase) {
  // 1 channel, length 5, kernel 3, stride 1 -> 3x3 columns.
  std::vector<float> x = {0, 1, 2, 3, 4};
  std::vector<float> cols(9, -1.0f);
  im2col_1d(x.data(), 1, 5, 3, 1, cols.data());
  // Row t holds x[j + t] for output position j.
  const std::vector<float> expect = {0, 1, 2, 1, 2, 3, 2, 3, 4};
  EXPECT_EQ(cols, expect);
}

TEST(Im2col1d, StrideTwo) {
  std::vector<float> x = {0, 1, 2, 3, 4, 5, 6};
  const Index lout = conv_out_length(7, 3, 2);
  EXPECT_EQ(lout, 3);
  std::vector<float> cols(static_cast<std::size_t>(3 * lout));
  im2col_1d(x.data(), 1, 7, 3, 2, cols.data());
  const std::vector<float> expect = {0, 2, 4, 1, 3, 5, 2, 4, 6};
  EXPECT_EQ(cols, expect);
}

TEST(ConvOutLength, Validation) {
  EXPECT_EQ(conv_out_length(10, 3, 1), 8);
  EXPECT_EQ(conv_out_length(10, 3, 3), 3);
  EXPECT_THROW(conv_out_length(2, 3, 1), Error);
  EXPECT_THROW(conv_out_length(5, 0, 1), Error);
  EXPECT_THROW(conv_out_length(5, 3, 0), Error);
}

// Adjointness property: <im2col(x), y> == <x, col2im(y)> for all x, y.
// This is exactly the identity that makes conv backward correct.
class ColAdjoint1d
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ColAdjoint1d, InnerProductsMatch) {
  const auto [channels, length, kernel, stride] = GetParam();
  Pcg32 rng(13);
  const Index lout = conv_out_length(length, kernel, stride);
  const std::size_t xn = static_cast<std::size_t>(channels * length);
  const std::size_t cn = static_cast<std::size_t>(channels * kernel * lout);
  std::vector<float> x(xn), y(cn), cols(cn), xback(xn, 0.0f);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : y) v = static_cast<float>(rng.normal());
  im2col_1d(x.data(), channels, length, kernel, stride, cols.data());
  col2im_1d(y.data(), channels, length, kernel, stride, xback.data());
  double lhs = 0, rhs = 0;
  for (std::size_t i = 0; i < cn; ++i) lhs += static_cast<double>(cols[i]) * y[i];
  for (std::size_t i = 0; i < xn; ++i) rhs += static_cast<double>(x[i]) * xback[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ColAdjoint1d,
    ::testing::Values(std::tuple{1, 8, 3, 1}, std::tuple{3, 16, 5, 1},
                      std::tuple{2, 20, 4, 2}, std::tuple{4, 9, 3, 3},
                      std::tuple{1, 3, 3, 1}, std::tuple{5, 32, 7, 2}));

class ColAdjoint2d
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(ColAdjoint2d, InnerProductsMatch) {
  const auto [channels, height, width, kernel, stride] = GetParam();
  Pcg32 rng(14);
  const Index hout = conv_out_length(height, kernel, stride);
  const Index wout = conv_out_length(width, kernel, stride);
  const std::size_t xn = static_cast<std::size_t>(channels * height * width);
  const std::size_t cn =
      static_cast<std::size_t>(channels * kernel * kernel * hout * wout);
  std::vector<float> x(xn), y(cn), cols(cn), xback(xn, 0.0f);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : y) v = static_cast<float>(rng.normal());
  im2col_2d(x.data(), channels, height, width, kernel, stride, cols.data());
  col2im_2d(y.data(), channels, height, width, kernel, stride, xback.data());
  double lhs = 0, rhs = 0;
  for (std::size_t i = 0; i < cn; ++i) lhs += static_cast<double>(cols[i]) * y[i];
  for (std::size_t i = 0; i < xn; ++i) rhs += static_cast<double>(x[i]) * xback[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ColAdjoint2d,
    ::testing::Values(std::tuple{1, 6, 6, 3, 1}, std::tuple{3, 8, 10, 3, 1},
                      std::tuple{2, 9, 9, 3, 2}, std::tuple{1, 5, 5, 5, 1},
                      std::tuple{4, 12, 8, 4, 2}));

TEST(Im2col2d, ConvViaGemmMatchesDirectConvolution) {
  // Convolve a 1-channel 4x4 image with one 2x2 filter via im2col+GEMM and
  // compare to the hand-rolled direct form.
  Pcg32 rng(15);
  Tensor img = Tensor::randn({1, 4, 4}, rng);
  Tensor filt = Tensor::randn({1, 2, 2}, rng);
  const Index hout = 3, wout = 3;
  std::vector<float> cols(static_cast<std::size_t>(4 * hout * wout));
  im2col_2d(img.data(), 1, 4, 4, 2, 1, cols.data());
  Tensor out({hout * wout});
  gemm_naive(Op::None, Op::None, 1, hout * wout, 4, 1.0f, filt.data(), 4,
             cols.data(), hout * wout, 0.0f, out.data(), hout * wout);
  for (Index oy = 0; oy < hout; ++oy) {
    for (Index ox = 0; ox < wout; ++ox) {
      float direct = 0.0f;
      for (Index ky = 0; ky < 2; ++ky)
        for (Index kx = 0; kx < 2; ++kx)
          direct += img.at(0, oy + ky, ox + kx) * filt.at(0, ky, kx);
      EXPECT_NEAR(out[oy * wout + ox], direct, 1e-5f);
    }
  }
}

// ---- randomized property grid ------------------------------------------------
// Pins every production tier against gemm_naive over randomized shapes
// (including 0, 1 and non-multiples of the register tile), both transposes,
// padded leading dimensions, and an alpha/beta set that includes the
// never-read-C beta == 0 case.

TEST(GemmProperty, RandomizedShapesLeadingDimsAndScalars) {
  Pcg32 rng(0xCAFE);
  const Index dims[] = {0, 1, 2, 3, 7, 8, 9, 31, 32, 33, 65, 130};
  const float alphas[] = {1.0f, -0.7f, 0.0f};
  const float betas[] = {0.0f, 1.0f, -0.3f};
  for (int trial = 0; trial < 60; ++trial) {
    const Index m = dims[rng.next_below(12)];
    const Index n = dims[rng.next_below(12)];
    const Index k = dims[rng.next_below(12)];
    const Op op_a = rng.next_below(2) ? Op::Transpose : Op::None;
    const Op op_b = rng.next_below(2) ? Op::Transpose : Op::None;
    const float alpha = alphas[rng.next_below(3)];
    const float beta = betas[rng.next_below(3)];
    const Index pad_a = static_cast<Index>(rng.next_below(4));
    const Index pad_b = static_cast<Index>(rng.next_below(4));
    const Index lda = (op_a == Op::None ? k : m) + pad_a;
    const Index ldb = (op_b == Op::None ? n : k) + pad_b;

    Tensor a = random_matrix(op_a == Op::None ? m : k, lda > 0 ? lda : 1, rng);
    Tensor b = random_matrix(op_b == Op::None ? k : n, ldb > 0 ? ldb : 1, rng);
    Tensor c0 = random_matrix(m, n > 0 ? n : 1, rng);
    Tensor c1 = c0;
    Tensor c2 = c0;

    gemm_naive(op_a, op_b, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
               c0.data(), n);
    gemm_serial(op_a, op_b, m, n, k, alpha, a.data(), lda, b.data(), ldb,
                beta, c1.data(), n);
    gemm(op_a, op_b, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
         c2.data(), n);

    const float tol = 1e-4f * static_cast<float>(k > 0 ? k : 1);
    ASSERT_LE(max_abs_diff(c0, c1), tol)
        << "serial m=" << m << " n=" << n << " k=" << k;
    ASSERT_LE(max_abs_diff(c0, c2), tol)
        << "parallel m=" << m << " n=" << n << " k=" << k;
  }
}

TEST(GemmProperty, EmulatedPrecisionsHandleAwkwardShapes) {
  // The round-at-pack emulation must survive the same edge geometry as fp32;
  // correctness is checked against rounding the operands up front and running
  // the naive kernel on them (identical mathematical definition).
  Pcg32 rng(0xBEEF);
  const Index shapes[][3] = {{1, 1, 1}, {5, 3, 9},  {8, 32, 16},
                             {9, 33, 17}, {33, 9, 40}, {2, 130, 7}};
  for (Precision prec : {Precision::BF16, Precision::FP16}) {
    for (const auto& s : shapes) {
      const Index m = s[0], n = s[1], k = s[2];
      Tensor a = random_matrix(m, k, rng);
      Tensor b = random_matrix(k, n, rng);
      Tensor ar = a, br = b;
      round_through(prec, ar.flat());
      round_through(prec, br.flat());
      Tensor want({m, n});
      gemm_naive(Op::None, Op::None, m, n, k, 1.0f, ar.data(), k, br.data(),
                 n, 0.0f, want.data(), n);
      Tensor got({m, n});
      gemm_emulated(prec, Op::None, Op::None, m, n, k, 1.0f, a.data(), k,
                    b.data(), n, 0.0f, got.data(), n);
      ASSERT_LE(max_abs_diff(want, got), 1e-4f * static_cast<float>(k))
          << precision_name(prec) << " m=" << m << " n=" << n << " k=" << k;
    }
  }
}

// ---- fused epilogues ---------------------------------------------------------

float reference_act(Epilogue::Act act, float v) {
  switch (act) {
    case Epilogue::Act::ReLU: return v > 0.0f ? v : 0.0f;
    case Epilogue::Act::Sigmoid: return 1.0f / (1.0f + std::exp(-v));
    case Epilogue::Act::Tanh: return std::tanh(v);
    case Epilogue::Act::None: break;
  }
  return v;
}

class FusedEpilogue : public ::testing::TestWithParam<Epilogue::Act> {};

TEST_P(FusedEpilogue, BitIdenticalToUnfusedReference) {
  // Fusing is a pure data-movement optimization: the fused C-write must
  // produce the exact bits of "plain GEMM, then bias add, then activation".
  const Epilogue::Act act = GetParam();
  Pcg32 rng(0xF00D);
  const Index m = 37, n = 41, k = 29;  // all non-multiples of the tile
  Tensor a = random_matrix(m, k, rng);
  Tensor b = random_matrix(k, n, rng);
  Tensor col_bias = Tensor::randn({n}, rng);
  Tensor row_bias = Tensor::randn({m}, rng);
  Tensor c_init = random_matrix(m, n, rng);

  for (const bool row_axis : {false, true}) {
    for (const float beta : {0.0f, 0.6f}) {
      Tensor want = c_init;
      gemm(Op::None, Op::None, m, n, k, 1.0f, a.data(), k, b.data(), n, beta,
           want.data(), n);
      for (Index i = 0; i < m; ++i) {
        for (Index j = 0; j < n; ++j) {
          float v = want.at(i, j) + (row_axis ? row_bias[i] : col_bias[j]);
          want.at(i, j) = reference_act(act, v);
        }
      }
      Epilogue ep;
      ep.bias = row_axis ? row_bias.data() : col_bias.data();
      ep.bias_axis =
          row_axis ? Epilogue::BiasAxis::Row : Epilogue::BiasAxis::Column;
      ep.act = act;
      Tensor got = c_init;
      gemm_fused(Op::None, Op::None, m, n, k, 1.0f, a.data(), k, b.data(), n,
                 beta, got.data(), n, ep);
      ASSERT_EQ(max_abs_diff(want, got), 0.0f)
          << "axis=" << (row_axis ? "row" : "col") << " beta=" << beta;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, FusedEpilogue,
                         ::testing::Values(Epilogue::Act::None,
                                           Epilogue::Act::ReLU,
                                           Epilogue::Act::Sigmoid,
                                           Epilogue::Act::Tanh));

TEST(FusedEpilogueDegenerate, AppliesToScaledCWhenKIsZero) {
  // k == 0 still runs the epilogue: C = act(beta*C + bias).
  Tensor c({2, 3}, {1, -2, 3, -4, 5, -6});
  Tensor bias({3}, {10, 20, 30});
  Epilogue ep;
  ep.bias = bias.data();
  ep.act = Epilogue::Act::ReLU;
  gemm_fused(Op::None, Op::None, 2, 3, 0, 1.0f, nullptr, 1, nullptr, 1, 1.0f,
             c.data(), 3, ep);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 18.0f);
  EXPECT_FLOAT_EQ(c.at(1, 2), 24.0f);
}

TEST(FusedEpilogueInt8, BiasAndActRideTheDequant) {
  Pcg32 rng(0xACE);
  const Index m = 12, n = 10, k = 16;
  Tensor a = random_matrix(m, k, rng);
  Tensor b = random_matrix(k, n, rng);
  Tensor bias = Tensor::randn({n}, rng);
  Tensor plain({m, n});
  gemm_emulated(Precision::INT8, Op::None, Op::None, m, n, k, 1.0f, a.data(),
                k, b.data(), n, 0.0f, plain.data(), n);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      plain.at(i, j) = reference_act(Epilogue::Act::ReLU,
                                     plain.at(i, j) + bias[j]);
    }
  }
  Epilogue ep;
  ep.bias = bias.data();
  ep.act = Epilogue::Act::ReLU;
  Tensor fused({m, n});
  gemm_emulated(Precision::INT8, Op::None, Op::None, m, n, k, 1.0f, a.data(),
                k, b.data(), n, 0.0f, fused.data(), n, ep);
  EXPECT_EQ(max_abs_diff(plain, fused), 0.0f);
}

// ---- gemv beta == 0 regression ----------------------------------------------

TEST(Gemv, BetaZeroOverwritesNaNPoisonedY) {
  // BLAS convention: beta == 0 means y is write-only.  A NaN-poisoned y must
  // come out finite — the old kernel computed y[i] *= 0 which kept the NaN.
  Pcg32 rng(0xDEAD);
  const Index m = 67, n = 45;
  Tensor a = random_matrix(m, n, rng);
  Tensor x = Tensor::randn({n}, rng);
  Tensor y({m}, std::vector<float>(static_cast<std::size_t>(m),
                                   std::nanf("")));
  gemv(Op::None, m, n, 1.0f, a.data(), n, x.data(), 0.0f, y.data());
  Tensor want = Tensor::zeros({m});
  gemm_naive(Op::None, Op::None, m, 1, n, 1.0f, a.data(), n, x.data(), 1,
             0.0f, want.data(), 1);
  for (Index i = 0; i < m; ++i) {
    ASSERT_FALSE(std::isnan(y[i])) << i;
  }
  EXPECT_LE(max_abs_diff(y, want), 1e-4f);
}

TEST(Gemv, BetaZeroOverwritesNaNPoisonedYTransposed) {
  Pcg32 rng(0xD00D);
  const Index m = 53, n = 31;  // op(A) m x n, stored n x m
  Tensor a = random_matrix(n, m, rng);
  Tensor x = Tensor::randn({n}, rng);
  Tensor y({m}, std::vector<float>(static_cast<std::size_t>(m),
                                   std::nanf("")));
  gemv(Op::Transpose, m, n, -0.5f, a.data(), m, x.data(), 0.0f, y.data());
  Tensor want = Tensor::zeros({m});
  gemm_naive(Op::Transpose, Op::None, m, 1, n, -0.5f, a.data(), m, x.data(),
             1, 0.0f, want.data(), 1);
  for (Index i = 0; i < m; ++i) {
    ASSERT_FALSE(std::isnan(y[i])) << i;
  }
  EXPECT_LE(max_abs_diff(y, want), 1e-4f);
}

// ---- fused conv forward ------------------------------------------------------

TEST(ConvForwardGemm, MatchesExplicitIm2colPlusBias1d) {
  Pcg32 rng(0xC0FFEE);
  const Index channels = 3, length = 40, kernel = 5, stride = 2, filters = 7;
  const Index lout = conv_out_length(length, kernel, stride);
  const Index fan_in = channels * kernel;
  Tensor x = Tensor::randn({channels, length}, rng);
  Tensor w = Tensor::randn({filters, fan_in}, rng);
  Tensor bias = Tensor::randn({filters}, rng);

  std::vector<float> cols(static_cast<std::size_t>(fan_in * lout));
  im2col_1d(x.data(), channels, length, kernel, stride, cols.data());
  Tensor want({filters, lout});
  gemm(Op::None, Op::None, filters, lout, fan_in, 1.0f, w.data(), fan_in,
       cols.data(), lout, 0.0f, want.data(), lout);
  for (Index f = 0; f < filters; ++f) {
    for (Index j = 0; j < lout; ++j) want.at(f, j) += bias[f];
  }

  Tensor got({filters, lout});
  conv1d_forward_gemm(Precision::FP32, x.data(), channels, length, kernel,
                      stride, w.data(), filters, bias.data(), got.data());
  EXPECT_EQ(max_abs_diff(want, got), 0.0f);
}

TEST(ConvForwardGemm, MatchesExplicitIm2colPlusBias2d) {
  Pcg32 rng(0xC0DE);
  const Index channels = 2, height = 13, width = 11, kernel = 3, stride = 2;
  const Index filters = 5;
  const Index hout = conv_out_length(height, kernel, stride);
  const Index wout = conv_out_length(width, kernel, stride);
  const Index ncols = hout * wout;
  const Index fan_in = channels * kernel * kernel;
  Tensor x = Tensor::randn({channels, height, width}, rng);
  Tensor w = Tensor::randn({filters, fan_in}, rng);
  Tensor bias = Tensor::randn({filters}, rng);

  std::vector<float> cols(static_cast<std::size_t>(fan_in * ncols));
  im2col_2d(x.data(), channels, height, width, kernel, stride, cols.data());
  Tensor want({filters, ncols});
  gemm(Op::None, Op::None, filters, ncols, fan_in, 1.0f, w.data(), fan_in,
       cols.data(), ncols, 0.0f, want.data(), ncols);
  for (Index f = 0; f < filters; ++f) {
    for (Index j = 0; j < ncols; ++j) want.at(f, j) += bias[f];
  }

  Tensor got({filters, ncols});
  conv2d_forward_gemm(Precision::FP32, x.data(), channels, height, width,
                      kernel, stride, w.data(), filters, bias.data(),
                      got.data());
  EXPECT_EQ(max_abs_diff(want, got), 0.0f);
}

// ---- pre-packed B and the m-sized micro-kernel ------------------------------

// Shapes chosen against every configured register tile (NR 4..32, MR 4..8)
// and block size (KC 256, NC 4096): n = 45 is a multiple of no NR, and
// k = 300 spans two k blocks, so C accumulates across them.
TEST(PrepackedGemm, BitIdenticalToGemmFused) {
  Pcg32 rng(0x9ac);
  const Index k = 300;
  for (const Index n : {45, 4096 + 37}) {
    Tensor b = random_matrix(k, n, rng);
    Tensor bt({n, k});  // the same operand stored transposed
    for (Index p = 0; p < k; ++p) {
      for (Index j = 0; j < n; ++j) bt.at(j, p) = b.at(p, j);
    }
    const PackedMatrix packed(Op::None, k, n, b.data(), n);
    const PackedMatrix packed_t(Op::Transpose, k, n, bt.data(), k);
    ASSERT_EQ(packed.rows(), k);
    ASSERT_EQ(packed.cols(), n);
    Tensor col_bias = Tensor::randn({n}, rng);
    std::vector<Index> ms = {1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 64};
    if (n > 4096) ms = {1, 9};  // the second column block; keep it quick
    for (const Index m : ms) {
      Tensor a = random_matrix(m, k, rng);
      Tensor at({k, m});
      for (Index i = 0; i < m; ++i) {
        for (Index p = 0; p < k; ++p) at.at(p, i) = a.at(i, p);
      }
      Tensor row_bias = Tensor::randn({m}, rng);
      Tensor c_init = random_matrix(m, n, rng);
      for (const Epilogue::Act act :
           {Epilogue::Act::None, Epilogue::Act::ReLU, Epilogue::Act::Sigmoid,
            Epilogue::Act::Tanh}) {
        for (const int bias : {0, 1, 2}) {  // none, column, row
          Epilogue ep;
          ep.act = act;
          ep.bias = bias == 0   ? nullptr
                    : bias == 1 ? col_bias.data()
                                : row_bias.data();
          ep.bias_axis =
              bias == 2 ? Epilogue::BiasAxis::Row : Epilogue::BiasAxis::Column;
          const float beta = bias == 1 ? 0.6f : 0.0f;
          const float alpha = act == Epilogue::Act::None ? 0.75f : 1.0f;
          Tensor want = c_init;
          gemm_fused(Op::None, Op::None, m, n, k, alpha, a.data(), k,
                     b.data(), n, beta, want.data(), n, ep);
          Tensor got = c_init;
          gemm_prepacked(Op::None, m, alpha, a.data(), k, packed, beta,
                         got.data(), n, ep);
          Tensor got_t = c_init;
          gemm_prepacked(Op::Transpose, m, alpha, at.data(), m, packed_t,
                         beta, got_t.data(), n, ep);
          ASSERT_EQ(std::memcmp(want.data(), got.data(),
                                sizeof(float) * want.numel()),
                    0)
              << "m=" << m << " n=" << n << " bias=" << bias;
          ASSERT_EQ(std::memcmp(want.data(), got_t.data(),
                                sizeof(float) * want.numel()),
                    0)
              << "transposed m=" << m << " n=" << n << " bias=" << bias;
        }
      }
    }
  }
}

TEST(PrepackedGemm, DegenerateShapes) {
  // k == 0 still runs the epilogue; m == 0 touches nothing.
  const PackedMatrix empty(Op::None, 0, 3, nullptr, 3);
  Tensor c({2, 3}, {1, -2, 3, -4, 5, -6});
  Tensor bias({3}, {10, 20, 30});
  Epilogue ep;
  ep.bias = bias.data();
  ep.act = Epilogue::Act::ReLU;
  gemm_prepacked(Op::None, 2, 1.0f, nullptr, 1, empty, 1.0f, c.data(), 3, ep);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 18.0f);
  EXPECT_FLOAT_EQ(c.at(1, 2), 24.0f);
  gemm_prepacked(Op::None, 0, 1.0f, nullptr, 1, empty, 0.0f, nullptr, 3);
}

// Each row of a product is computed independently of the rows batched with
// it: row r of a 9-row product (an MR strip plus a 1-row strip) equals, bit
// for bit, row r computed alone and inside every 2-, 3- and 4-row product
// that holds it (1-, 2- and 4-row kernels).  This is what lets a serving
// batch of any size equal serial predict.
TEST(GemmRowIndependence, RowsMatchAcrossBatchSizes) {
  Pcg32 rng(0x5eed);
  const Index rows = 9, n = 45, k = 300;
  Tensor a = random_matrix(rows, k, rng);
  Tensor b = random_matrix(k, n, rng);
  Tensor bias = Tensor::randn({n}, rng);
  const PackedMatrix packed(Op::None, k, n, b.data(), n);
  Epilogue ep;
  ep.bias = bias.data();
  ep.act = Epilogue::Act::Tanh;
  for (const bool prepacked : {false, true}) {
    const auto product = [&](const Tensor& x) {
      const Index m = x.dim(0);
      Tensor c({m, n});
      if (prepacked) {
        gemm_prepacked(Op::None, m, 1.0f, x.data(), k, packed, 0.0f,
                       c.data(), n, ep);
      } else {
        gemm_fused(Op::None, Op::None, m, n, k, 1.0f, x.data(), k, b.data(),
                   n, 0.0f, c.data(), n, ep);
      }
      return c;
    };
    const Tensor full = product(a);
    for (const Index size : {1, 2, 3, 4}) {
      for (Index start = 0; start < rows; ++start) {
        Tensor x({size, k});
        for (Index t = 0; t < size; ++t) {
          const Index r = (start + t) % rows;
          std::copy(a.row(r).begin(), a.row(r).end(), x.row(t).begin());
        }
        const Tensor part = product(x);
        for (Index t = 0; t < size; ++t) {
          const Index r = (start + t) % rows;
          ASSERT_EQ(std::memcmp(part.row(t).data(), full.row(r).data(),
                                sizeof(float) * n),
                    0)
              << "row " << r << " at " << t << " of " << size
              << (prepacked ? " (pre-packed)" : "");
        }
      }
    }
  }
}

// ---- the column split of batch-sized GEMMs ----------------------------------

// op(A) (m x k) and op(B) (k x n), each stored as its op says.
struct Operands {
  Tensor a, b;
  Index lda, ldb;
};

Operands operands(Op op_a, Op op_b, Index m, Index n, Index k, Pcg32& rng) {
  const auto random = [&](Index r, Index c) {
    return Tensor::uniform({r, c}, rng, -2.0f, 2.0f);
  };
  Operands o;
  o.a = op_a == Op::None ? random(m, k) : random(k, m);
  o.b = op_b == Op::None ? random(k, n) : random(n, k);
  o.lda = o.a.dim(1);
  o.ldb = o.b.dim(1);
  return o;
}

// The strip path pinned to one thread (gemm_serial) on operands already
// rounded through the format — the emulated path rounds the same values
// while packing — followed by the scalar epilogue, which the fused C-write
// matches bit for bit.
Tensor serial_strip_reference(Op op_a, Op op_b, Index m, Index n, Index k,
                              float alpha, const Operands& rounded,
                              float beta, const Tensor& c_init,
                              const Epilogue& ep) {
  Tensor c = c_init;
  gemm_serial(op_a, op_b, m, n, k, alpha, rounded.a.data(), rounded.lda,
              rounded.b.data(), rounded.ldb, beta, c.data(), n);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      float v = c.at(i, j);
      if (ep.bias != nullptr) {
        v += ep.bias[ep.bias_axis == Epilogue::BiasAxis::Row ? i : j];
      }
      c.at(i, j) = reference_act(ep.act, v);
    }
  }
  return c;
}

// A GEMM with at most kMC (128) rows whose B is packed per call splits each
// B panel over the lanes by columns: each lane packs its slice of B and its
// own copy of the A block.  Every C element still accumulates the same
// products in the same order, so the threaded result equals the serial
// strip path bit for bit, for every op combination, beta, epilogue and
// rounding format.  n = 45 is a multiple of no NR, k = 300 spans two k
// blocks, n = 4096 + 37 spans two column blocks (small m only, to keep it
// quick), and m = 129 takes the strip path as the control.
TEST(GemmColumnSplit, BitIdenticalToTheSerialStripPath) {
  Pcg32 rng(0xC015);
  const Index k = 300;
  const float alpha = 0.75f;
  for (const Precision prec :
       {Precision::FP32, Precision::FP16, Precision::BF16}) {
    for (const Index n : {45, 4096 + 37}) {
      const bool wide = n > 4096;
      std::vector<Index> ms = {1,  2,  3,  4,  5,   7,   8,  9,
                               17, 63, 64, 65, 127, 128, 129};
      if (wide) ms = {1, 9};
      Tensor col_bias = Tensor::randn({n}, rng);
      for (const Index m : ms) {
        Tensor row_bias = Tensor::randn({m}, rng);
        std::vector<Epilogue> eps;
        for (const Epilogue::Act act :
             {Epilogue::Act::None, Epilogue::Act::ReLU,
              Epilogue::Act::Sigmoid, Epilogue::Act::Tanh}) {
          for (const int bias : {0, 1, 2}) {  // none, column, row
            // Every act with every bias for fp32 at n = 45; otherwise each
            // act once, with the three bias kinds spread over them.
            const bool full = !wide && prec == Precision::FP32;
            if (!full && bias != static_cast<int>(act) % 3) continue;
            Epilogue ep;
            ep.act = act;
            ep.bias = bias == 0   ? nullptr
                      : bias == 1 ? col_bias.data()
                                  : row_bias.data();
            ep.bias_axis = bias == 2 ? Epilogue::BiasAxis::Row
                                     : Epilogue::BiasAxis::Column;
            eps.push_back(ep);
          }
        }
        const Tensor c_init = random_matrix(m, n, rng);
        for (const Op op_a : {Op::None, Op::Transpose}) {
          for (const Op op_b : {Op::None, Op::Transpose}) {
            const Operands o = operands(op_a, op_b, m, n, k, rng);
            Operands rounded = o;
            round_through(prec, rounded.a.flat());
            round_through(prec, rounded.b.flat());
            for (const float beta : {0.0f, 0.6f}) {
              for (const Epilogue& ep : eps) {
                const Tensor want = serial_strip_reference(
                    op_a, op_b, m, n, k, alpha, rounded, beta, c_init, ep);
                Tensor got = c_init;
                gemm_emulated(prec, op_a, op_b, m, n, k, alpha, o.a.data(),
                              o.lda, o.b.data(), o.ldb, beta, got.data(), n,
                              ep);
                ASSERT_EQ(std::memcmp(want.data(), got.data(),
                                      sizeof(float) * want.numel()),
                          0)
                    << precision_name(prec) << " m=" << m << " n=" << n
                    << " op_a=" << (op_a == Op::Transpose)
                    << " op_b=" << (op_b == Op::Transpose)
                    << " beta=" << beta
                    << " act=" << static_cast<int>(ep.act)
                    << " bias=" << (ep.bias != nullptr)
                    << " row=" << (ep.bias_axis == Epilogue::BiasAxis::Row);
              }
            }
          }
        }
      }
    }
  }
}

// The im2col sources unfold into each lane's slice of the B panel at the
// slice's first column, so a convolution wide enough to split equals the
// serial strip path over the explicit im2col matrix, bit for bit.
TEST(GemmColumnSplit, ConvUnfoldIntoLaneSlicesMatchesSerialIm2col) {
  Pcg32 rng(0xC016);
  const Index channels = 4, height = 41, width = 37, kernel = 3, stride = 1;
  const Index filters = 16;
  const Index hout = conv_out_length(height, kernel, stride);
  const Index wout = conv_out_length(width, kernel, stride);
  const Index ncols = hout * wout;
  const Index fan_in = channels * kernel * kernel;
  Tensor x = Tensor::randn({channels, height, width}, rng);
  Tensor w = Tensor::randn({filters, fan_in}, rng);
  Tensor bias = Tensor::randn({filters}, rng);
  for (const Precision prec : {Precision::FP32, Precision::BF16}) {
    Tensor xr = x;
    Tensor wr = w;
    round_through(prec, xr.flat());
    round_through(prec, wr.flat());
    std::vector<float> cols(static_cast<std::size_t>(fan_in * ncols));
    im2col_2d(xr.data(), channels, height, width, kernel, stride, cols.data());
    Tensor want({filters, ncols});
    gemm_serial(Op::None, Op::None, filters, ncols, fan_in, 1.0f, wr.data(),
                fan_in, cols.data(), ncols, 0.0f, want.data(), ncols);
    for (Index f = 0; f < filters; ++f) {
      for (Index j = 0; j < ncols; ++j) want.at(f, j) += bias[f];
    }
    Tensor got({filters, ncols});
    conv2d_forward_gemm(prec, x.data(), channels, height, width, kernel,
                        stride, w.data(), filters, bias.data(), got.data());
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          sizeof(float) * want.numel()),
              0)
        << precision_name(prec);

    const Index length = height * width;
    const Index lout = conv_out_length(length, kernel, stride);
    const Index fan_in_1d = channels * kernel;
    Tensor w1 = Tensor::randn({filters, fan_in_1d}, rng);
    Tensor w1r = w1;
    round_through(prec, w1r.flat());
    std::vector<float> cols_1d(static_cast<std::size_t>(fan_in_1d * lout));
    im2col_1d(xr.data(), channels, length, kernel, stride, cols_1d.data());
    Tensor want_1d({filters, lout});
    gemm_serial(Op::None, Op::None, filters, lout, fan_in_1d, 1.0f,
                w1r.data(), fan_in_1d, cols_1d.data(), lout, 0.0f,
                want_1d.data(), lout);
    for (Index f = 0; f < filters; ++f) {
      for (Index j = 0; j < lout; ++j) want_1d.at(f, j) += bias[f];
    }
    Tensor got_1d({filters, lout});
    conv1d_forward_gemm(prec, x.data(), channels, length, kernel, stride,
                        w1.data(), filters, bias.data(), got_1d.data());
    EXPECT_EQ(std::memcmp(want_1d.data(), got_1d.data(),
                          sizeof(float) * want_1d.numel()),
              0)
        << "1-D " << precision_name(prec);
  }
}

}  // namespace
}  // namespace candle

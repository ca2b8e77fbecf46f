// Dense linear-algebra kernels: the "high compute density ... matrix-matrix
// and matrix-vector operations" of the paper's claim C2.
//
// Three GEMM tiers exist on purpose (ablated by bench_kernels):
//   gemm_naive    — textbook ijk dot products; the correctness reference.
//   gemm_serial   — the packed micro-kernel GEMM pinned to one thread.
//   gemm          — the packed micro-kernel GEMM parallelized over the
//                   runtime thread pool's lanes: by B's column panels when
//                   the product has at most MC rows and B is packed per
//                   call, by A's row strips otherwise.  The production
//                   kernel.
//
// The production tiers share one BLIS-style engine: operands are packed into
// MC/KC/NC cache blocks held in thread-local workspace arenas
// (runtime/workspace — zero heap allocations at steady state), and an
// MRxNR register-blocked micro-kernel does all flops.  The micro-kernel
// shape is chosen at configure time (see DESIGN.md "kernels"): a portable
// `#pragma omp simd` kernel sized for the host vector width, or a scalar
// fallback with -DCANDLE_GEMM_KERNEL=scalar.  A row strip holding fewer
// than MR live rows runs the same kernel over 1, 2 or 4 rows instead, and B
// may come pre-packed (PackedMatrix) instead of being packed per call.
//
// Epilogues (bias add and/or an activation) can be fused into the
// micro-kernel's C-write, so a Dense/Conv forward pass performs no separate
// elementwise sweep over its activations.  Fused results are bit-identical
// to running the unfused GEMM followed by the same elementwise pass.
//
// Precision-emulating entry points realize claim C1: operands are rounded
// through a reduced format *during packing* (no extra operand copies) and
// accumulation stays wide (fp32 for fp16/bf16, int32 for int8), matching
// real mixed-precision hardware.
#pragma once

#include "core/formats.hpp"
#include "core/tensor.hpp"

namespace candle {

/// Whether a GEMM operand is used as stored or transposed.
enum class Op { None, Transpose };

/// Elementwise tail fused into the GEMM's final C-write:
///   C[i,j] = act(C[i,j] + bias[j or i])
/// Bias may index columns (Dense: one bias per output unit) or rows (Conv:
/// one bias per filter, C laid out filters x positions).  The scalar
/// formulas match nn::ActivationLayer exactly, so fusing is a pure data-
/// movement optimization: results are bit-identical to the unfused pass.
struct Epilogue {
  enum class Act { None, ReLU, Sigmoid, Tanh };
  enum class BiasAxis { Column, Row };

  const float* bias = nullptr;  ///< nullptr = no bias term
  BiasAxis bias_axis = BiasAxis::Column;
  Act act = Act::None;

  bool empty() const { return bias == nullptr && act == Act::None; }
};

/// C[M,N] = alpha * op(A) * op(B) + beta * C, row-major with leading
/// dimensions lda/ldb/ldc.  op(A) is M x K, op(B) is K x N.
void gemm(Op op_a, Op op_b, Index m, Index n, Index k, float alpha,
          const float* a, Index lda, const float* b, Index ldb, float beta,
          float* c, Index ldc);

/// gemm with a fused epilogue applied in the micro-kernel's C-write.
void gemm_fused(Op op_a, Op op_b, Index m, Index n, Index k, float alpha,
                const float* a, Index lda, const float* b, Index ldb,
                float beta, float* c, Index ldc, const Epilogue& epilogue);

/// A K x N B operand packed once into the engine's panel layout, so GEMMs
/// that reuse the same B (an inference plan's weights) skip the per-call
/// pack.  Each (jc, pc) cache block is stored exactly as the per-call pack
/// would write it, so results are bit-identical to gemm_fused on the
/// unpacked matrix.  fp32 only; immutable after construction.
class PackedMatrix {
 public:
  PackedMatrix() = default;
  /// Pack op(B) (K x N, stored with leading dimension ldb).
  PackedMatrix(Op op_b, Index k, Index n, const float* b, Index ldb);

  Index rows() const { return k_; }  ///< K
  Index cols() const { return n_; }  ///< N

  /// The packed (jc, pc) panel: kc x round_up(nc, NR) floats, NR-column
  /// strips laid out strip-major.
  const float* panel(Index jc, Index pc) const;

 private:
  Index k_ = 0, n_ = 0;
  AlignedVector data_;
};

/// gemm_fused with B taken from a PackedMatrix:
///   C[M,N] = alpha * op(A) * B + beta * C, then the epilogue.
/// Bit-identical to gemm_fused on the matrix that `b` was packed from.
void gemm_prepacked(Op op_a, Index m, float alpha, const float* a, Index lda,
                    const PackedMatrix& b, float beta, float* c, Index ldc,
                    const Epilogue& epilogue = {});

/// Single-threaded packed kernel (same contract as gemm).
void gemm_serial(Op op_a, Op op_b, Index m, Index n, Index k, float alpha,
                 const float* a, Index lda, const float* b, Index ldb,
                 float beta, float* c, Index ldc);

/// Reference kernel (same contract as gemm); O(MNK) scalar dot products.
void gemm_naive(Op op_a, Op op_b, Index m, Index n, Index k, float alpha,
                const float* a, Index lda, const float* b, Index ldb,
                float beta, float* c, Index ldc);

/// y[M] = alpha * op(A) * x + beta * y.  op(A) is M x N against x[N].
/// Parallelized over output rows with a flop-derived grain; beta == 0
/// overwrites y (BLAS convention: pre-existing NaN/Inf in y is discarded).
void gemv(Op op_a, Index m, Index n, float alpha, const float* a, Index lda,
          const float* x, float beta, float* y);

/// C = op(A) * op(B) with both operands rounded through `prec` while they
/// are packed (FP64/FP32 dispatch straight to gemm; BF16/FP16 round at pack
/// time and accumulate in fp32; INT8 quantizes the operand views into
/// workspace int8 buffers and runs true int8xint8->int32 arithmetic with
/// symmetric per-tensor scales, folding alpha/beta into the dequantizing
/// C-write).  beta scales the existing C as usual; `epilogue` is fused into
/// the final write for every precision.
void gemm_emulated(Precision prec, Op op_a, Op op_b, Index m, Index n,
                   Index k, float alpha, const float* a, Index lda,
                   const float* b, Index ldb, float beta, float* c, Index ldc,
                   const Epilogue& epilogue = {});

/// True int8 GEMM: quantize A and B symmetrically, multiply-accumulate in
/// int32, dequantize into C (C = scaleA*scaleB * (qA*qB), overwrites C).
/// A is M x K and B is K x N, untransposed, contiguous (lda = K, ldb = N).
void gemm_int8(Index m, Index n, Index k, const float* a, const float* b,
               float* c);

// ---- tensor-level wrappers --------------------------------------------------

/// C = alpha * op(A) * op(B) + beta * C for rank-2 tensors, with an optional
/// fused epilogue.  C must already have the result shape.
void matmul_into(Tensor& c, const Tensor& a, Op op_a, const Tensor& b,
                 Op op_b, float alpha = 1.0f, float beta = 0.0f,
                 Precision prec = Precision::FP32,
                 const Epilogue& epilogue = {});

/// Returns A @ B for rank-2 tensors.
Tensor matmul(const Tensor& a, const Tensor& b);

// ---- convolution support ----------------------------------------------------

/// Forward 1-D convolution as GEMM without materializing the im2col matrix:
/// y(filters x L_out) = W(filters x C*kernel) @ im2col(x) + bias, where the
/// unfold writes directly into the packed-B workspace panels of the GEMM
/// and the per-filter bias is fused into the C-write.  `bias` may be null.
/// INT8 precision falls back to an arena-staged explicit im2col.
void conv1d_forward_gemm(Precision prec, const float* x, Index channels,
                         Index length, Index kernel, Index stride,
                         const float* w, Index filters, const float* bias,
                         float* y);

/// Forward 2-D convolution as GEMM (same fused-unfold scheme):
/// y(filters x H_out*W_out) = W(filters x C*k*k) @ im2col(x) + bias.
void conv2d_forward_gemm(Precision prec, const float* x, Index channels,
                         Index height, Index width, Index kernel,
                         Index stride, const float* w, Index filters,
                         const float* bias, float* y);

/// Unfold a (C, L) signal into im2col columns for a 1-D convolution with
/// `kernel` taps and `stride`.  Output is (C*kernel) x L_out, column j
/// holding the receptive field of output position j.  `out` must have
/// C*kernel*L_out elements.
void im2col_1d(const float* x, Index channels, Index length, Index kernel,
               Index stride, float* out);

/// Scatter-add the transpose of im2col_1d: accumulate columns back into the
/// (C, L) signal gradient.  `dx` must be zeroed by the caller if it should
/// not accumulate on existing contents.
void col2im_1d(const float* cols, Index channels, Index length, Index kernel,
               Index stride, float* dx);

/// Number of output positions of a 1-D convolution (valid padding).
inline Index conv_out_length(Index length, Index kernel, Index stride) {
  CANDLE_CHECK(kernel >= 1 && stride >= 1 && length >= kernel,
               "invalid conv geometry");
  return (length - kernel) / stride + 1;
}

/// 2-D im2col for (C, H, W) with a square kernel and stride, valid padding.
/// Output is (C*kh*kw) x (H_out*W_out).
void im2col_2d(const float* x, Index channels, Index height, Index width,
               Index kernel, Index stride, float* out);

/// Transpose-scatter of im2col_2d (accumulates into dx).
void col2im_2d(const float* cols, Index channels, Index height, Index width,
               Index kernel, Index stride, float* dx);

}  // namespace candle

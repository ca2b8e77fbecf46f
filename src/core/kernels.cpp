#include "core/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"

namespace candle {

namespace {

// ---- configure-time micro-kernel selection ----------------------------------
//
// CANDLE_GEMM_FORCE_SCALAR (set by -DCANDLE_GEMM_KERNEL=scalar at configure
// time, or automatically when the compiler lacks -fopenmp-simd) compiles the
// same engine with a tiny register tile and no SIMD pragma: a portable
// fallback that stays bit-deterministic but leans entirely on -O3.
#if defined(CANDLE_GEMM_FORCE_SCALAR)
#define CANDLE_SIMD
constexpr int kMR = 4, kNR = 4;
#else
#define CANDLE_SIMD _Pragma("omp simd")
#if defined(__AVX512F__)
// 8x32 tile: 16 zmm accumulators + 2 B vectors, broadcast-FMA per A element.
constexpr int kMR = 8, kNR = 32;
#elif defined(__AVX__)
// 8x16 tile: 16 ymm accumulators (full register file on AVX2).
constexpr int kMR = 8, kNR = 16;
#else
// 128-bit SIMD or plain SSE2: 8 xmm accumulators.
constexpr int kMR = 4, kNR = 8;
#endif
#endif

// Cache blocking (sized for ~32-48K L1 / ~1-2M L2 per core; see DESIGN.md):
//   kKC: A micro-panels (kMR x kKC = 8 KB) and one B micro-panel
//        (kKC x kNR = 32 KB) stay L1/L2 resident through the k loop.
//   kMC: the packed A block (kMC x kKC x 4 B = 128 KB) sits in L2.
//   kNC: the packed B panel (kKC x kNC x 4 B = 4 MB) sits in L3.
constexpr Index kMC = 128;
constexpr Index kKC = 256;
constexpr Index kNC = 4096;
static_assert(kMC % kMR == 0, "kMC must be a multiple of the register tile");
static_assert(kNC % kNR == 0, "kNC must be a multiple of the register tile");
// Every pool lane reserves this much arena when it starts, so the A block a
// lane packs never grows its arena on first use (runtime/workspace.hpp).
static_assert(kMC * kKC * sizeof(float) <= kLaneWorkspaceBytes,
              "the packed A block must fit in a lane's reserved workspace");

Index round_up(Index v, Index to) { return (v + to - 1) / to * to; }

// ---- pack-time operand transforms -------------------------------------------
// Precision emulation rounds operands *while packing*, so reduced-precision
// GEMM performs no extra full-operand copy passes.

struct RoundNone {
  float operator()(float v) const { return v; }
};
struct RoundFp16 {
  float operator()(float v) const { return round_fp16(v); }
};
struct RoundBf16 {
  float operator()(float v) const { return round_bf16(v); }
};

// op-resolved view of a stored matrix: logical (rows x cols) of op(X).
struct MatView {
  const float* p;
  Index ld;
  bool trans;  // stored cols x rows

  float at(Index r, Index c) const {
    return trans ? p[c * ld + r] : p[r * ld + c];
  }
};

// ---- B-panel sources --------------------------------------------------------
// pack_b is generic over where the K x N operand comes from; each source
// fills one packed row segment (logical row p, columns [j0, j0+nr)).  The
// im2col sources let convolution unfold its input directly into the packed
// panel, skipping the materialized column matrix entirely.

struct MatSrcB {
  MatView v;

  template <typename Round>
  void fill_row(Index p, Index j0, Index nr, Round rnd, float* dst) const {
    if (!v.trans) {
      const float* src = v.p + p * v.ld + j0;
      CANDLE_SIMD
      for (Index j = 0; j < nr; ++j) dst[j] = rnd(src[j]);
    } else {
      const float* src = v.p + j0 * v.ld + p;
      for (Index j = 0; j < nr; ++j) dst[j] = rnd(src[j * v.ld]);
    }
  }
};

struct Im2col1dSrcB {
  const float* x;
  Index length, kernel, stride;

  template <typename Round>
  void fill_row(Index p, Index j0, Index nr, Round rnd, float* dst) const {
    const Index ch = p / kernel;
    const Index t = p % kernel;
    const float* src = x + ch * length + t + j0 * stride;
    if (stride == 1) {
      CANDLE_SIMD
      for (Index j = 0; j < nr; ++j) dst[j] = rnd(src[j]);
    } else {
      for (Index j = 0; j < nr; ++j) dst[j] = rnd(src[j * stride]);
    }
  }
};

struct Im2col2dSrcB {
  const float* x;
  Index height, width, kernel, stride, wout;

  template <typename Round>
  void fill_row(Index p, Index j0, Index nr, Round rnd, float* dst) const {
    const Index kk = kernel * kernel;
    const Index ch = p / kk;
    const Index rem = p % kk;
    const Index ky = rem / kernel;
    const Index kx = rem % kernel;
    const float* base = x + ch * height * width + ky * width + kx;
    Index oy = j0 / wout;
    Index ox = j0 % wout;
    for (Index j = 0; j < nr; ++j) {
      dst[j] = rnd(base[oy * stride * width + ox * stride]);
      if (++ox == wout) {
        ox = 0;
        ++oy;
      }
    }
  }
};

// ---- packing ----------------------------------------------------------------

// Pack rows [r0, r0+mc) x k [p0, p0+kc) of op(A) into kMR-row strips laid
// out strip-major: dst[strip][p][i].  alpha is folded in here (after the
// precision rounding), so the micro-kernel itself is pure FMA.  Strip tails
// beyond mc are zero-filled and contribute nothing.
template <typename Round>
void pack_a(const MatView& a, Index r0, Index mc, Index p0, Index kc,
            float alpha, Round rnd, float* dst) {
  for (Index ir = 0; ir < mc; ir += kMR) {
    const Index mr = std::min<Index>(kMR, mc - ir);
    float* d = dst + ir * kc;
    if (!a.trans) {
      for (Index i = 0; i < mr; ++i) {
        const float* src = a.p + (r0 + ir + i) * a.ld + p0;
        for (Index p = 0; p < kc; ++p) d[p * kMR + i] = alpha * rnd(src[p]);
      }
    } else {
      for (Index i = 0; i < mr; ++i) {
        const float* src = a.p + p0 * a.ld + (r0 + ir + i);
        for (Index p = 0; p < kc; ++p) {
          d[p * kMR + i] = alpha * rnd(src[p * a.ld]);
        }
      }
    }
    for (Index i = mr; i < kMR; ++i) {
      for (Index p = 0; p < kc; ++p) d[p * kMR + i] = 0.0f;
    }
  }
}

// Pack k [p0, p0+kc) x columns [j0, j0+nc) of the B source into kNR-column
// strips laid out strip-major: dst[strip][p][j].  Strip tails are zeroed.
template <typename Src, typename Round>
void pack_b(const Src& src, Index p0, Index kc, Index j0, Index nc, Round rnd,
            float* dst) {
  for (Index jr = 0; jr < nc; jr += kNR) {
    const Index nr = std::min<Index>(kNR, nc - jr);
    float* d = dst + jr * kc;
    for (Index p = 0; p < kc; ++p) {
      float* dp = d + p * kNR;
      src.fill_row(p0 + p, j0 + jr, nr, rnd, dp);
      for (Index j = nr; j < kNR; ++j) dp[j] = 0.0f;
    }
  }
}

// ---- micro-kernel -----------------------------------------------------------

// The register-blocked core: acc[MR][NR] += sum_p ap[p][:] (x) bp[p][:].
// ap already carries alpha.  With CANDLE_SIMD this compiles to a
// broadcast-FMA sequence that keeps the whole accumulator tile in vector
// registers for the entire k loop.  Packed A strips are always kMR rows
// wide; MR < kMR runs the kernel over only the first MR rows of a strip
// (a short strip's tail rows are zero-filled), so every element still
// accumulates the same sequence of products and the result does not depend
// on which MR computed it.
template <int MR>
inline void micro_compute(Index kc, const float* ap, const float* bp,
                          float (&acc)[MR][kNR]) {
  for (int i = 0; i < MR; ++i) {
    CANDLE_SIMD
    for (int j = 0; j < kNR; ++j) acc[i][j] = 0.0f;
  }
  for (Index p = 0; p < kc; ++p) {
    const float* b = bp + p * kNR;
    const float* a = ap + p * kMR;
    for (int i = 0; i < MR; ++i) {
      const float av = a[i];
      CANDLE_SIMD
      for (int j = 0; j < kNR; ++j) acc[i][j] += av * b[j];
    }
  }
}

// Scalar epilogue formulas — kept identical to nn::ActivationLayer::forward
// so fused results are bit-identical to an unfused elementwise pass.
inline float epilogue_apply(float v, const Epilogue& ep, Index row,
                            Index col) {
  if (ep.bias != nullptr) {
    v += ep.bias[ep.bias_axis == Epilogue::BiasAxis::Column ? col : row];
  }
  switch (ep.act) {
    case Epilogue::Act::None:
      break;
    case Epilogue::Act::ReLU:
      v = v > 0.0f ? v : 0.0f;
      break;
    case Epilogue::Act::Sigmoid:
      v = 1.0f / (1.0f + std::exp(-v));
      break;
    case Epilogue::Act::Tanh:
      v = std::tanh(v);
      break;
  }
  return v;
}

// C-write of a full register tile.  `first` applies beta (beta == 0 never
// reads C, so garbage/NaN in the output buffer is overwritten); `last`
// applies the fused epilogue after the final k-block accumulates.
template <int MR>
void micro_store(const float (&acc)[MR][kNR], float* c, Index ldc,
                 float beta, bool first, bool last, const Epilogue& ep,
                 Index row0, Index col0) {
  const bool fuse = last && !ep.empty();
  for (int i = 0; i < MR; ++i) {
    float* crow = c + i * ldc;
    float vals[kNR];
    if (first) {
      if (beta == 0.0f) {
        CANDLE_SIMD
        for (int j = 0; j < kNR; ++j) vals[j] = acc[i][j];
      } else {
        CANDLE_SIMD
        for (int j = 0; j < kNR; ++j) vals[j] = acc[i][j] + beta * crow[j];
      }
    } else {
      CANDLE_SIMD
      for (int j = 0; j < kNR; ++j) vals[j] = acc[i][j] + crow[j];
    }
    if (fuse) {
      // Same scalar op order as epilogue_apply (bias, then activation), with
      // the branches hoisted out of the lane loop so the tile stays SIMD.
      if (ep.bias != nullptr) {
        if (ep.bias_axis == Epilogue::BiasAxis::Column) {
          const float* bj = ep.bias + col0;
          CANDLE_SIMD
          for (int j = 0; j < kNR; ++j) vals[j] += bj[j];
        } else {
          const float bv = ep.bias[row0 + i];
          CANDLE_SIMD
          for (int j = 0; j < kNR; ++j) vals[j] += bv;
        }
      }
      switch (ep.act) {
        case Epilogue::Act::None:
          break;
        case Epilogue::Act::ReLU:
          CANDLE_SIMD
          for (int j = 0; j < kNR; ++j) {
            vals[j] = vals[j] > 0.0f ? vals[j] : 0.0f;
          }
          break;
        case Epilogue::Act::Sigmoid:
          for (int j = 0; j < kNR; ++j) {
            vals[j] = 1.0f / (1.0f + std::exp(-vals[j]));
          }
          break;
        case Epilogue::Act::Tanh:
          for (int j = 0; j < kNR; ++j) vals[j] = std::tanh(vals[j]);
          break;
      }
    }
    CANDLE_SIMD
    for (int j = 0; j < kNR; ++j) crow[j] = vals[j];
  }
}

// C-write of a partial tile at the m/n edges (same scalar op sequence as the
// full-tile store, so edge elements remain bit-identical to it).
template <int MR>
void micro_store_edge(const float (&acc)[MR][kNR], Index mr, Index nr,
                      float* c, Index ldc, float beta, bool first, bool last,
                      const Epilogue& ep, Index row0, Index col0) {
  const bool fuse = last && !ep.empty();
  for (Index i = 0; i < std::min<Index>(mr, MR); ++i) {
    float* crow = c + i * ldc;
    for (Index j = 0; j < nr; ++j) {
      float v = acc[i][j];
      if (first) {
        if (beta != 0.0f) v += beta * crow[j];
      } else {
        v += crow[j];
      }
      if (fuse) v = epilogue_apply(v, ep, row0 + i, col0 + j);
      crow[j] = v;
    }
  }
}

// ---- blocked driver ---------------------------------------------------------

// Per-(jc, pc) state shared by the strip workers.  parallel_for bodies
// capture a single pointer to this so dispatch stays allocation-free.
struct PanelCtx {
  const MatView* a;
  const float* bpack;
  float* c;
  Index m, ldc;
  Index pc, kc, jc, nc;
  float alpha, beta;
  bool first, last;
  const Epilogue* ep;
};

// One register tile of C, rows [row0, row0 + mr) x columns [col0, col0 + nr),
// computed by the MR-row kernel (mr <= MR).
template <int MR>
void compute_tile(const PanelCtx& ctx, const float* ap, const float* bp,
                  Index mr, Index nr, Index row0, Index col0) {
  float acc[MR][kNR];
  micro_compute<MR>(ctx.kc, ap, bp, acc);
  float* ct = ctx.c + row0 * ctx.ldc + col0;
  if (mr == MR && nr == kNR) {
    micro_store<MR>(acc, ct, ctx.ldc, ctx.beta, ctx.first, ctx.last, *ctx.ep,
                    row0, col0);
  } else {
    micro_store_edge<MR>(acc, mr, nr, ct, ctx.ldc, ctx.beta, ctx.first,
                         ctx.last, *ctx.ep, row0, col0);
  }
}

// Run every strip of a packed A block (C rows [r0, r0 + mc)) over the B
// micro-panels holding panel columns [j0, j1).  Each C tile is computed by
// the same kernel whichever path owns it, so the strip and column splits
// below agree bit for bit.
void compute_block(const PanelCtx& ctx, const float* apack, Index r0,
                   Index mc, Index j0, Index j1) {
  for (Index jr = j0; jr < j1; jr += kNR) {
    const Index nr = std::min<Index>(kNR, j1 - jr);
    const float* bp = ctx.bpack + jr * ctx.kc;
    for (Index ir = 0; ir < mc; ir += kMR) {
      const Index mr = std::min<Index>(kMR, mc - ir);
      const float* ap = apack + ir * ctx.kc;
      const Index row0 = r0 + ir;
      const Index col0 = ctx.jc + jr;
      // A short strip (only C's last one can be short) runs the smallest
      // kernel that covers its live rows.
      if (mr == kMR) {
        compute_tile<kMR>(ctx, ap, bp, mr, nr, row0, col0);
      } else if (mr == 1) {
        compute_tile<1>(ctx, ap, bp, mr, nr, row0, col0);
      } else if (mr == 2) {
        compute_tile<2>(ctx, ap, bp, mr, nr, row0, col0);
      } else if (mr <= 4) {
        compute_tile<4>(ctx, ap, bp, mr, nr, row0, col0);
      } else {
        compute_tile<kMR>(ctx, ap, bp, mr, nr, row0, col0);
      }
    }
  }
}

// Strip split: process micro-panel strips [s0, s1) — pack the corresponding
// A rows into this thread's arena (kMC rows at a time, preserving L2
// blocking even when a chunk is larger) and run them across the whole
// packed B panel.
template <typename Round>
void compute_strips(const PanelCtx& ctx, Round rnd, Index s0, Index s1) {
  WorkspaceArena& arena = WorkspaceArena::local();
  WorkspaceArena::Scope scope(arena);
  float* apack =
      arena.alloc<float>(static_cast<std::size_t>(kMC * ctx.kc));
  const Index strips_per_mc = kMC / kMR;
  for (Index sb = s0; sb < s1; sb += strips_per_mc) {
    const Index sb_end = std::min(s1, sb + strips_per_mc);
    const Index r0 = sb * kMR;
    const Index mc = std::min(sb_end * kMR, ctx.m) - r0;
    pack_a(*ctx.a, r0, mc, ctx.pc, ctx.kc, ctx.alpha, rnd, apack);
    compute_block(ctx, apack, r0, mc, 0, ctx.nc);
  }
}

// Column split (m <= kMC, B packed per call): this lane owns B micro-panels
// [q0, q1) of the (jc, pc) panel.  It packs that slice of B into its part of
// the shared panel buffer `bpack` (lanes write disjoint slices and read only
// their own), packs its own copy of the single A block, and runs every
// strip over the slice.
template <typename SrcB, typename Round>
void compute_cols(const PanelCtx& ctx, const SrcB& bsrc, float* bpack,
                  Round rnd, Index q0, Index q1) {
  const Index j0 = q0 * kNR;
  const Index j1 = std::min(q1 * kNR, ctx.nc);
  pack_b(bsrc, ctx.pc, ctx.kc, ctx.jc + j0, j1 - j0, rnd, bpack + j0 * ctx.kc);
  WorkspaceArena& arena = WorkspaceArena::local();
  WorkspaceArena::Scope scope(arena);
  float* apack = arena.alloc<float>(
      static_cast<std::size_t>(round_up(ctx.m, kMR) * ctx.kc));
  pack_a(*ctx.a, 0, ctx.m, ctx.pc, ctx.kc, ctx.alpha, rnd, apack);
  compute_block(ctx, apack, 0, ctx.m, j0, j1);
}

// beta-scale + epilogue over all of C: the k == 0 / alpha == 0 degenerate
// path (the epilogue still runs — C = act(beta*C + bias)).
void scale_epilogue_c(Index m, Index n, float beta, float* c, Index ldc,
                      const Epilogue& ep) {
  for (Index i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    for (Index j = 0; j < n; ++j) {
      float v = beta == 0.0f ? 0.0f : beta * crow[j];
      v = epilogue_apply(v, ep, i, j);
      crow[j] = v;
    }
  }
}

// Offset of the (jc, pc) panel inside a PackedMatrix of op(B) (k x n).
// Column blocks before jc are full kNC-wide (a multiple of kNR), so they
// hold jc * k floats; within a block, kc x round_up(nc, kNR) panels stack
// along k.
Index packed_panel_offset(Index k, Index n, Index jc, Index pc) {
  return jc * k + pc * round_up(std::min(kNC, n - jc), kNR);
}

// B source whose panels were packed ahead of time (PackedMatrix): each
// (jc, pc) panel is read in place instead of packed.
struct PrepackedSrcB {
  const PackedMatrix* b;
};

// The BLIS-style engine, per (jc, pc) panel of B.  Pre-packed B is read in
// place; otherwise B is packed per call.  The threaded tier then splits the
// panel one of two ways:
//  * columns, when A is one packed block (m <= kMC) and B is packed here:
//    each lane packs its own slice of B's micro-panels and its own copy of
//    the A block, so the pack runs on every lane and no lane streams the
//    whole B panel (the batch-sized GEMMs of a training step);
//  * strips otherwise: B is packed on the calling thread and the pool
//    shares out A's micro-panel strips.  The grain is flop-derived so cheap
//    strips coalesce instead of degenerating to one strip per steal.
// The serial tier runs the strip path inline.
template <typename SrcB, typename Round>
void gemm_packed(const MatView& a, const SrcB& bsrc, Index m, Index n,
                 Index k, float alpha, float beta, float* c, Index ldc,
                 const Epilogue& ep, Round rnd, bool threads) {
  constexpr bool prepacked = std::is_same_v<SrcB, PrepackedSrcB>;
  static_assert(!prepacked || std::is_same_v<Round, RoundNone>,
                "pre-packed B panels are fp32");
  WorkspaceArena& arena = WorkspaceArena::local();
  WorkspaceArena::Scope scope(arena);
  const Index nstrips = (m + kMR - 1) / kMR;
  const bool split_cols = threads && m <= kMC;  // B packed per call only
  float* bpack = nullptr;
  if constexpr (!prepacked) {
    const Index nc_max = std::min<Index>(kNC, round_up(n, kNR));
    const Index kc_max = std::min<Index>(kKC, k);
    bpack = arena.alloc<float>(static_cast<std::size_t>(kc_max * nc_max));
  }
  for (Index jc = 0; jc < n; jc += kNC) {
    const Index nc = std::min<Index>(kNC, n - jc);
    for (Index pc = 0; pc < k; pc += kKC) {
      const Index kc = std::min<Index>(kKC, k - pc);
      const float* bp = bpack;
      if constexpr (prepacked) bp = bsrc.b->panel(jc, pc);
      PanelCtx ctx{&a,    bp, c,  m,       ldc,  pc,
                   kc,    jc, nc, alpha,   beta, pc == 0,
                   pc + kc >= k, &ep};
      if constexpr (!prepacked) {
        if (split_cols) {
          // One chunk per lane unless the panel is too small to pay for
          // the dispatch; a lane that takes a second chunk packs A again.
          const Index panels = (nc + kNR - 1) / kNR;
          const auto lanes = static_cast<Index>(parallel_lanes());
          const double flops_per_panel = 2.0 * static_cast<double>(m) *
                                         static_cast<double>(kc) *
                                         static_cast<double>(kNR);
          const Index grain =
              std::max<Index>((panels + lanes - 1) / lanes,
                              grain_for_flops(panels, flops_per_panel));
          const auto cols = [&](Index q0, Index q1) {
            compute_cols(ctx, bsrc, bpack, Round{}, q0, q1);
          };
          parallel_for(0, panels, grain,
                       [&cols](Index q0, Index q1) { cols(q0, q1); });
          continue;
        }
        pack_b(bsrc, pc, kc, jc, nc, rnd, bpack);
      }
      if (threads) {
        const double flops_per_strip =
            2.0 * static_cast<double>(kMR) * static_cast<double>(kc) *
            static_cast<double>(nc);
        parallel_for(0, nstrips, grain_for_flops(nstrips, flops_per_strip),
                     [&ctx](Index s0, Index s1) {
                       compute_strips(ctx, Round{}, s0, s1);
                     });
      } else {
        compute_strips(ctx, rnd, 0, nstrips);
      }
    }
  }
}

// Dispatch helper shared by the fp32 and emulated entry points.
template <typename SrcB>
void gemm_packed_rounded(Precision prec, const MatView& a, const SrcB& bsrc,
                         Index m, Index n, Index k, float alpha, float beta,
                         float* c, Index ldc, const Epilogue& ep,
                         bool threads) {
  switch (prec) {
    case Precision::FP16:
      gemm_packed(a, bsrc, m, n, k, alpha, beta, c, ldc, ep, RoundFp16{},
                  threads);
      break;
    case Precision::BF16:
      gemm_packed(a, bsrc, m, n, k, alpha, beta, c, ldc, ep, RoundBf16{},
                  threads);
      break;
    default:
      gemm_packed(a, bsrc, m, n, k, alpha, beta, c, ldc, ep, RoundNone{},
                  threads);
      break;
  }
}

// ---- int8 engine ------------------------------------------------------------

// Quantize the logical (rows x cols) view of op(X) into contiguous
// row-major int8 in `dst` (same scale rule as formats.hpp quantize_int8).
float quantize_view(const MatView& v, Index rows, Index cols,
                    std::int8_t* dst) {
  float amax = 0.0f;
  for (Index r = 0; r < rows; ++r) {
    for (Index j = 0; j < cols; ++j) {
      amax = std::max(amax, std::abs(v.at(r, j)));
    }
  }
  const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
  const float inv = 1.0f / scale;
  for (Index r = 0; r < rows; ++r) {
    std::int8_t* drow = dst + r * cols;
    if (!v.trans) {
      const float* src = v.p + r * v.ld;
      for (Index j = 0; j < cols; ++j) {
        drow[j] = static_cast<std::int8_t>(
            std::lrintf(std::clamp(src[j] * inv, -127.0f, 127.0f)));
      }
    } else {
      for (Index j = 0; j < cols; ++j) {
        drow[j] = static_cast<std::int8_t>(
            std::lrintf(std::clamp(v.p[j * v.ld + r] * inv, -127.0f,
                                   127.0f)));
      }
    }
  }
  return scale;
}

struct Int8Ctx {
  const std::int8_t* qa;  // m x k
  const std::int8_t* qb;  // k x n
  float* c;
  Index n, k, ldc;
  float alpha_scale;  // alpha * scaleA * scaleB, folded into the dequant
  float beta;
  const Epilogue* ep;
};

// int32-accumulating row-panel kernel; alpha/beta and the epilogue are
// folded into the single dequantizing C-write (no float product temporary).
void gemm_int8_panel(const Int8Ctx& ctx, Index i0, Index i1) {
  WorkspaceArena& arena = WorkspaceArena::local();
  WorkspaceArena::Scope scope(arena);
  std::int32_t* acc =
      arena.alloc<std::int32_t>(static_cast<std::size_t>(ctx.n));
  for (Index i = i0; i < i1; ++i) {
    std::fill(acc, acc + ctx.n, 0);
    const std::int8_t* arow = ctx.qa + i * ctx.k;
    for (Index p = 0; p < ctx.k; ++p) {
      const std::int32_t av = arow[p];
      if (av == 0) continue;
      const std::int8_t* brow = ctx.qb + p * ctx.n;
      CANDLE_SIMD
      for (Index j = 0; j < ctx.n; ++j) acc[j] += av * brow[j];
    }
    float* crow = ctx.c + i * ctx.ldc;
    for (Index j = 0; j < ctx.n; ++j) {
      float v = ctx.alpha_scale * static_cast<float>(acc[j]);
      if (ctx.beta != 0.0f) v += ctx.beta * crow[j];
      v = epilogue_apply(v, *ctx.ep, i, j);
      crow[j] = v;
    }
  }
}

void gemm_int8_quantized(Index m, Index n, Index k, float alpha_scale,
                         const std::int8_t* qa, const std::int8_t* qb,
                         float beta, float* c, Index ldc,
                         const Epilogue& ep) {
  Int8Ctx ctx{qa, qb, c, n, k, ldc, alpha_scale, beta, &ep};
  parallel_for(0, m, grain_for_flops(m, 2.0 * static_cast<double>(n) * k),
               [&ctx](Index i0, Index i1) { gemm_int8_panel(ctx, i0, i1); });
}

void gemm_emulated_int8(Op op_a, Op op_b, Index m, Index n, Index k,
                        float alpha, const float* a, Index lda,
                        const float* b, Index ldb, float beta, float* c,
                        Index ldc, const Epilogue& ep) {
  WorkspaceArena& arena = WorkspaceArena::local();
  WorkspaceArena::Scope scope(arena);
  std::int8_t* qa = arena.alloc<std::int8_t>(static_cast<std::size_t>(m * k));
  std::int8_t* qb = arena.alloc<std::int8_t>(static_cast<std::size_t>(k * n));
  const float sa =
      quantize_view({a, lda, op_a == Op::Transpose}, m, k, qa);
  const float sb =
      quantize_view({b, ldb, op_b == Op::Transpose}, k, n, qb);
  gemm_int8_quantized(m, n, k, alpha * sa * sb, qa, qb, beta, c, ldc, ep);
}

void check_gemm_dims(Index m, Index n, Index k) {
  CANDLE_CHECK(m >= 0 && n >= 0 && k >= 0, "negative gemm dimension");
}

}  // namespace

// ---- public GEMM tiers ------------------------------------------------------

void gemm_naive(Op op_a, Op op_b, Index m, Index n, Index k, float alpha,
                const float* a, Index lda, const float* b, Index ldb,
                float beta, float* c, Index ldc) {
  check_gemm_dims(m, n, k);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (Index p = 0; p < k; ++p) {
        const float av = op_a == Op::None ? a[i * lda + p] : a[p * lda + i];
        const float bv = op_b == Op::None ? b[p * ldb + j] : b[j * ldb + p];
        acc += av * bv;
      }
      c[i * ldc + j] = alpha * acc + beta * c[i * ldc + j];
    }
  }
}

void gemm_fused(Op op_a, Op op_b, Index m, Index n, Index k, float alpha,
                const float* a, Index lda, const float* b, Index ldb,
                float beta, float* c, Index ldc, const Epilogue& ep) {
  check_gemm_dims(m, n, k);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    scale_epilogue_c(m, n, beta, c, ldc, ep);
    return;
  }
  const MatView av{a, lda, op_a == Op::Transpose};
  const MatSrcB bv{{b, ldb, op_b == Op::Transpose}};
  gemm_packed(av, bv, m, n, k, alpha, beta, c, ldc, ep, RoundNone{},
              /*threads=*/true);
}

PackedMatrix::PackedMatrix(Op op_b, Index k, Index n, const float* b,
                           Index ldb)
    : k_(k), n_(n) {
  check_gemm_dims(0, n, k);
  data_.resize(static_cast<std::size_t>(k * round_up(n, kNR)));
  const MatSrcB src{{b, ldb, op_b == Op::Transpose}};
  for (Index jc = 0; jc < n; jc += kNC) {
    const Index nc = std::min<Index>(kNC, n - jc);
    for (Index pc = 0; pc < k; pc += kKC) {
      const Index kc = std::min<Index>(kKC, k - pc);
      pack_b(src, pc, kc, jc, nc, RoundNone{},
             data_.data() + packed_panel_offset(k, n, jc, pc));
    }
  }
}

const float* PackedMatrix::panel(Index jc, Index pc) const {
  return data_.data() + packed_panel_offset(k_, n_, jc, pc);
}

void gemm_prepacked(Op op_a, Index m, float alpha, const float* a, Index lda,
                    const PackedMatrix& b, float beta, float* c, Index ldc,
                    const Epilogue& ep) {
  const Index n = b.cols();
  const Index k = b.rows();
  check_gemm_dims(m, n, k);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    scale_epilogue_c(m, n, beta, c, ldc, ep);
    return;
  }
  const MatView av{a, lda, op_a == Op::Transpose};
  gemm_packed(av, PrepackedSrcB{&b}, m, n, k, alpha, beta, c, ldc, ep,
              RoundNone{}, /*threads=*/true);
}

void gemm(Op op_a, Op op_b, Index m, Index n, Index k, float alpha,
          const float* a, Index lda, const float* b, Index ldb, float beta,
          float* c, Index ldc) {
  gemm_fused(op_a, op_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, {});
}

void gemm_serial(Op op_a, Op op_b, Index m, Index n, Index k, float alpha,
                 const float* a, Index lda, const float* b, Index ldb,
                 float beta, float* c, Index ldc) {
  check_gemm_dims(m, n, k);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    scale_epilogue_c(m, n, beta, c, ldc, {});
    return;
  }
  const MatView av{a, lda, op_a == Op::Transpose};
  const MatSrcB bv{{b, ldb, op_b == Op::Transpose}};
  const Epilogue ep;
  gemm_packed(av, bv, m, n, k, alpha, beta, c, ldc, ep, RoundNone{},
              /*threads=*/false);
}

// ---- GEMV -------------------------------------------------------------------

namespace {

struct GemvCtx {
  const float* a;
  const float* x;
  float* y;
  Index n, lda;
  float alpha, beta;
};

void gemv_rows(const GemvCtx& ctx, Index i0, Index i1) {
  for (Index i = i0; i < i1; ++i) {
    const float* arow = ctx.a + i * ctx.lda;
    float acc = 0.0f;
    for (Index j = 0; j < ctx.n; ++j) acc += arow[j] * ctx.x[j];
    // beta == 0 is an explicit overwrite (NaN/Inf in y must not survive).
    ctx.y[i] = ctx.beta == 0.0f ? ctx.alpha * acc
                                : ctx.alpha * acc + ctx.beta * ctx.y[i];
  }
}

void gemv_cols(const GemvCtx& ctx, Index i0, Index i1) {
  // A stored n x m; this chunk owns output slots [i0, i1) and streams the
  // corresponding segment of every stored row.
  for (Index i = i0; i < i1; ++i) {
    ctx.y[i] = ctx.beta == 0.0f ? 0.0f : ctx.beta * ctx.y[i];
  }
  const Index w = i1 - i0;
  for (Index j = 0; j < ctx.n; ++j) {
    const float xv = ctx.alpha * ctx.x[j];
    const float* arow = ctx.a + j * ctx.lda + i0;
    float* yseg = ctx.y + i0;
    CANDLE_SIMD
    for (Index t = 0; t < w; ++t) yseg[t] += xv * arow[t];
  }
}

}  // namespace

void gemv(Op op_a, Index m, Index n, float alpha, const float* a, Index lda,
          const float* x, float beta, float* y) {
  CANDLE_CHECK(m >= 0 && n >= 0, "negative gemv dimension");
  if (m == 0) return;
  GemvCtx ctx{a, x, y, n, lda, alpha, beta};
  const std::int64_t grain = grain_for_flops(m, 2.0 * static_cast<double>(n));
  if (op_a == Op::None) {
    parallel_for(0, m, grain,
                 [&ctx](Index i0, Index i1) { gemv_rows(ctx, i0, i1); });
  } else {
    parallel_for(0, m, grain,
                 [&ctx](Index i0, Index i1) { gemv_cols(ctx, i0, i1); });
  }
}

// ---- int8 + emulated entry points -------------------------------------------

void gemm_int8(Index m, Index n, Index k, const float* a, const float* b,
               float* c) {
  check_gemm_dims(m, n, k);
  if (m == 0 || n == 0) return;
  gemm_emulated_int8(Op::None, Op::None, m, n, k, 1.0f, a, k, b, n, 0.0f, c,
                     n, {});
}

void gemm_emulated(Precision prec, Op op_a, Op op_b, Index m, Index n,
                   Index k, float alpha, const float* a, Index lda,
                   const float* b, Index ldb, float beta, float* c,
                   Index ldc, const Epilogue& ep) {
  if (prec == Precision::FP32 || prec == Precision::FP64) {
    gemm_fused(op_a, op_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, ep);
    return;
  }
  check_gemm_dims(m, n, k);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    scale_epilogue_c(m, n, beta, c, ldc, ep);
    return;
  }
  if (prec == Precision::INT8) {
    gemm_emulated_int8(op_a, op_b, m, n, k, alpha, a, lda, b, ldb, beta, c,
                       ldc, ep);
    return;
  }
  const MatView av{a, lda, op_a == Op::Transpose};
  const MatSrcB bv{{b, ldb, op_b == Op::Transpose}};
  gemm_packed_rounded(prec, av, bv, m, n, k, alpha, beta, c, ldc, ep,
                      /*threads=*/true);
}

// ---- tensor-level wrappers --------------------------------------------------

void matmul_into(Tensor& c, const Tensor& a, Op op_a, const Tensor& b,
                 Op op_b, float alpha, float beta, Precision prec,
                 const Epilogue& ep) {
  CANDLE_CHECK(a.ndim() == 2 && b.ndim() == 2 && c.ndim() == 2,
               "matmul_into requires rank-2 tensors");
  const Index m = op_a == Op::None ? a.dim(0) : a.dim(1);
  const Index k = op_a == Op::None ? a.dim(1) : a.dim(0);
  const Index kb = op_b == Op::None ? b.dim(0) : b.dim(1);
  const Index n = op_b == Op::None ? b.dim(1) : b.dim(0);
  CANDLE_CHECK(k == kb, "matmul inner dimension mismatch: " +
                            shape_to_string(a.shape()) + " x " +
                            shape_to_string(b.shape()));
  CANDLE_CHECK(c.dim(0) == m && c.dim(1) == n,
               "matmul output shape mismatch");
  gemm_emulated(prec, op_a, op_b, m, n, k, alpha, a.data(), a.dim(1),
                b.data(), b.dim(1), beta, c.data(), n, ep);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  CANDLE_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul requires rank-2");
  Tensor c({a.dim(0), b.dim(1)});
  matmul_into(c, a, Op::None, b, Op::None);
  return c;
}

// ---- convolution ------------------------------------------------------------

void conv1d_forward_gemm(Precision prec, const float* x, Index channels,
                         Index length, Index kernel, Index stride,
                         const float* w, Index filters, const float* bias,
                         float* y) {
  const Index lout = conv_out_length(length, kernel, stride);
  const Index fan_in = channels * kernel;
  const Epilogue ep{bias, Epilogue::BiasAxis::Row, Epilogue::Act::None};
  if (prec == Precision::INT8) {
    // int8 quantizes whole operands up front; stage the unfold in the arena.
    WorkspaceArena& arena = WorkspaceArena::local();
    WorkspaceArena::Scope scope(arena);
    float* cols =
        arena.alloc<float>(static_cast<std::size_t>(fan_in * lout));
    im2col_1d(x, channels, length, kernel, stride, cols);
    gemm_emulated(prec, Op::None, Op::None, filters, lout, fan_in, 1.0f, w,
                  fan_in, cols, lout, 0.0f, y, lout, ep);
    return;
  }
  const MatView av{w, fan_in, false};
  const Im2col1dSrcB bv{x, length, kernel, stride};
  gemm_packed_rounded(prec, av, bv, filters, lout, fan_in, 1.0f, 0.0f, y,
                      lout, ep, /*threads=*/true);
}

void conv2d_forward_gemm(Precision prec, const float* x, Index channels,
                         Index height, Index width, Index kernel,
                         Index stride, const float* w, Index filters,
                         const float* bias, float* y) {
  const Index hout = conv_out_length(height, kernel, stride);
  const Index wout = conv_out_length(width, kernel, stride);
  const Index ncols = hout * wout;
  const Index fan_in = channels * kernel * kernel;
  const Epilogue ep{bias, Epilogue::BiasAxis::Row, Epilogue::Act::None};
  if (prec == Precision::INT8) {
    WorkspaceArena& arena = WorkspaceArena::local();
    WorkspaceArena::Scope scope(arena);
    float* cols =
        arena.alloc<float>(static_cast<std::size_t>(fan_in * ncols));
    im2col_2d(x, channels, height, width, kernel, stride, cols);
    gemm_emulated(prec, Op::None, Op::None, filters, ncols, fan_in, 1.0f, w,
                  fan_in, cols, ncols, 0.0f, y, ncols, ep);
    return;
  }
  const MatView av{w, fan_in, false};
  const Im2col2dSrcB bv{x, height, width, kernel, stride, wout};
  gemm_packed_rounded(prec, av, bv, filters, ncols, fan_in, 1.0f, 0.0f, y,
                      ncols, ep, /*threads=*/true);
}

void im2col_1d(const float* x, Index channels, Index length, Index kernel,
               Index stride, float* out) {
  const Index lout = conv_out_length(length, kernel, stride);
  // out is (channels*kernel) x lout, row (c*kernel + t), column j.
  for (Index ch = 0; ch < channels; ++ch) {
    const float* xc = x + ch * length;
    for (Index t = 0; t < kernel; ++t) {
      float* orow = out + (ch * kernel + t) * lout;
      for (Index j = 0; j < lout; ++j) orow[j] = xc[j * stride + t];
    }
  }
}

void col2im_1d(const float* cols, Index channels, Index length, Index kernel,
               Index stride, float* dx) {
  const Index lout = conv_out_length(length, kernel, stride);
  for (Index ch = 0; ch < channels; ++ch) {
    float* xc = dx + ch * length;
    for (Index t = 0; t < kernel; ++t) {
      const float* crow = cols + (ch * kernel + t) * lout;
      for (Index j = 0; j < lout; ++j) xc[j * stride + t] += crow[j];
    }
  }
}

void im2col_2d(const float* x, Index channels, Index height, Index width,
               Index kernel, Index stride, float* out) {
  const Index hout = conv_out_length(height, kernel, stride);
  const Index wout = conv_out_length(width, kernel, stride);
  const Index cols = hout * wout;
  for (Index ch = 0; ch < channels; ++ch) {
    const float* xc = x + ch * height * width;
    for (Index ky = 0; ky < kernel; ++ky) {
      for (Index kx = 0; kx < kernel; ++kx) {
        float* orow = out + ((ch * kernel + ky) * kernel + kx) * cols;
        for (Index oy = 0; oy < hout; ++oy) {
          const float* src = xc + (oy * stride + ky) * width + kx;
          float* dst = orow + oy * wout;
          for (Index ox = 0; ox < wout; ++ox) dst[ox] = src[ox * stride];
        }
      }
    }
  }
}

void col2im_2d(const float* cols, Index channels, Index height, Index width,
               Index kernel, Index stride, float* dx) {
  const Index hout = conv_out_length(height, kernel, stride);
  const Index wout = conv_out_length(width, kernel, stride);
  const Index ncols = hout * wout;
  for (Index ch = 0; ch < channels; ++ch) {
    float* xc = dx + ch * height * width;
    for (Index ky = 0; ky < kernel; ++ky) {
      for (Index kx = 0; kx < kernel; ++kx) {
        const float* crow = cols + ((ch * kernel + ky) * kernel + kx) * ncols;
        for (Index oy = 0; oy < hout; ++oy) {
          float* dst = xc + (oy * stride + ky) * width + kx;
          const float* src = crow + oy * wout;
          for (Index ox = 0; ox < wout; ++ox) dst[ox * stride] += src[ox];
        }
      }
    }
  }
}

}  // namespace candle

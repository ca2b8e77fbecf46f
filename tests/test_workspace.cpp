// Workspace-arena semantics and the zero-allocation guarantee of the packed
// GEMM path: after a warm-up call, repeated GEMMs of the same shape must not
// grow any arena (grow_count flat across the whole process).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/kernels.hpp"
#include "core/tensor.hpp"
#include "runtime/rng.hpp"
#include "runtime/workspace.hpp"

namespace candle {
namespace {

bool aligned64(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kWorkspaceAlign == 0;
}

TEST(WorkspaceArena, AllocationsAreCacheLineAligned) {
  WorkspaceArena arena;
  WorkspaceArena::Scope scope(arena);
  for (std::size_t bytes : {1u, 7u, 64u, 100u, 4096u}) {
    EXPECT_TRUE(aligned64(arena.alloc_bytes(bytes))) << bytes;
  }
  // Odd-sized requests must not misalign the next one.
  (void)arena.alloc_bytes(3);
  EXPECT_TRUE(aligned64(arena.alloc_bytes(8)));
}

TEST(WorkspaceArena, ScopeRollbackReusesMemory) {
  WorkspaceArena arena;
  void* first = nullptr;
  {
    WorkspaceArena::Scope scope(arena);
    first = arena.alloc_bytes(512);
  }
  const std::uint64_t grows = arena.grow_count();
  {
    WorkspaceArena::Scope scope(arena);
    // Same request after rollback lands on the same storage, no growth.
    EXPECT_EQ(arena.alloc_bytes(512), first);
  }
  EXPECT_EQ(arena.grow_count(), grows);
}

TEST(WorkspaceArena, NestedScopesRollBackToTheirOwnMark) {
  WorkspaceArena arena;
  WorkspaceArena::Scope outer(arena);
  float* a = arena.alloc<float>(16);
  a[0] = 42.0f;
  void* inner_ptr = nullptr;
  {
    WorkspaceArena::Scope inner(arena);
    inner_ptr = arena.alloc_bytes(64);
    EXPECT_NE(inner_ptr, static_cast<void*>(a));
  }
  // Inner rollback must not disturb the outer allocation...
  EXPECT_EQ(a[0], 42.0f);
  // ...and the inner slot is reusable again.
  EXPECT_EQ(arena.alloc_bytes(64), inner_ptr);
}

TEST(WorkspaceArena, GrowsOnlyWhenCapacityIsExceeded) {
  WorkspaceArena arena;
  WorkspaceArena::Scope scope(arena);
  (void)arena.alloc_bytes(1024);
  const std::uint64_t grows = arena.grow_count();
  const std::uint64_t reserved = arena.bytes_reserved();
  // Anything that still fits must not allocate.
  (void)arena.alloc_bytes(64);
  EXPECT_EQ(arena.grow_count(), grows);
  // Exceeding total capacity must.
  (void)arena.alloc_bytes(static_cast<std::size_t>(reserved) + 1);
  EXPECT_GT(arena.grow_count(), grows);
}

TEST(WorkspaceArena, PointersSurviveLaterGrowth) {
  // Grow-only blocks: an early allocation stays valid (and intact) even when
  // a later over-capacity request adds a new block mid-scope.
  WorkspaceArena arena;
  WorkspaceArena::Scope scope(arena);
  float* early = arena.alloc<float>(256);
  for (int i = 0; i < 256; ++i) early[i] = static_cast<float>(i);
  (void)arena.alloc_bytes(static_cast<std::size_t>(arena.bytes_reserved()) +
                          1024);
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(early[i], static_cast<float>(i));
  }
}

TEST(WorkspaceArena, ReserveIsAHint) {
  WorkspaceArena arena;
  arena.reserve(1 << 16);
  const std::uint64_t grows = arena.grow_count();
  WorkspaceArena::Scope scope(arena);
  (void)arena.alloc_bytes(1 << 16);
  EXPECT_EQ(arena.grow_count(), grows);  // pre-reserved, no new block
}

TEST(WorkspaceArena, LocalIsPerThreadAndStable) {
  WorkspaceArena& a = WorkspaceArena::local();
  WorkspaceArena& b = WorkspaceArena::local();
  EXPECT_EQ(&a, &b);
}

TEST(TensorStorage, DataIsCacheLineAligned) {
  Tensor t({33, 17});
  EXPECT_TRUE(aligned64(t.data()));
}

// ---- the zero-allocation guarantee ------------------------------------------

TEST(WorkspaceSteadyState, RepeatedGemmDoesNotGrowArenas) {
  Pcg32 rng(99);
  const Index m = 150, n = 140, k = 130;  // non-multiples of every block size
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n});

  // Warm-up: arenas reach their high-water mark for this shape.
  for (int i = 0; i < 3; ++i) {
    matmul_into(c, a, Op::None, b, Op::None);
  }
  const std::uint64_t grows_before = workspace_stats().grow_count;
  const std::uint64_t allocs_before = workspace_stats().alloc_count;
  for (int i = 0; i < 10; ++i) {
    matmul_into(c, a, Op::None, b, Op::None);
  }
  const WorkspaceStats after = workspace_stats();
  // The arenas were exercised (the packed path really allocates from them)...
  EXPECT_GT(after.alloc_count, allocs_before);
  // ...but steady state performs zero heap growth.
  EXPECT_EQ(after.grow_count, grows_before);
}

TEST(WorkspaceSteadyState, ColumnSplitGemmDoesNotGrowArenas) {
  // A training shard's GEMMs (m = 64: x W, and dy W^T for dx) split B's
  // columns over the lanes.  Each lane packs its slice of B into the
  // caller's panel buffer and its own copy of the A block into its arena,
  // inside the reserve every pool worker holds; the caller's panel and A
  // block fit its first block.
  Pcg32 rng(101);
  const Index m = 64, n = 500, k = 300;
  Tensor x = Tensor::randn({m, k}, rng);
  Tensor w = Tensor::randn({k, n}, rng);
  Tensor dy = Tensor::randn({m, n}, rng);
  Tensor y({m, n});
  Tensor dx({m, k});
  const auto step = [&] {
    matmul_into(y, x, Op::None, w, Op::None);
    matmul_into(dx, dy, Op::None, w, Op::Transpose);
  };
  for (int i = 0; i < 3; ++i) step();
  const std::uint64_t grows_before = workspace_stats().grow_count;
  const std::uint64_t allocs_before = workspace_stats().alloc_count;
  for (int i = 0; i < 10; ++i) step();
  const WorkspaceStats after = workspace_stats();
  EXPECT_GT(after.alloc_count, allocs_before);
  EXPECT_EQ(after.grow_count, grows_before);
}

TEST(WorkspaceSteadyState, EmulatedPrecisionsAreAllocationFreeToo) {
  Pcg32 rng(100);
  const Index m = 96, n = 80, k = 64;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n});
  for (Precision p : {Precision::BF16, Precision::FP16, Precision::INT8}) {
    for (int i = 0; i < 3; ++i) {
      matmul_into(c, a, Op::None, b, Op::None, 1.0f, 0.0f, p);
    }
    const std::uint64_t grows = workspace_stats().grow_count;
    for (int i = 0; i < 5; ++i) {
      matmul_into(c, a, Op::None, b, Op::None, 1.0f, 0.0f, p);
    }
    EXPECT_EQ(workspace_stats().grow_count, grows) << precision_name(p);
  }
}

}  // namespace
}  // namespace candle

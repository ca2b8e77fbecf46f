// Workspace arenas: aligned, grow-only, thread-local scratch memory for the
// compute kernels.
//
// The kernel path (core/kernels) packs GEMM operands into cache-friendly
// panels on every call.  Allocating those panels from the heap would put a
// malloc/free pair on the hottest path in the library; instead every thread
// owns a WorkspaceArena — a bump allocator over a small list of 64-byte
// aligned blocks that only ever grows.  Steady-state training reaches its
// high-water mark within the first few steps and performs *zero* heap
// allocations afterwards (asserted by tests/test_workspace.cpp via the
// grow-count instrumentation below).
//
// Lifetime rules:
//  * WorkspaceArena::Scope marks the bump pointer on entry and rolls it back
//    on exit.  Pointers from alloc() are valid until their enclosing Scope
//    dies; nothing is ever freed to the OS mid-scope, so pointers never move.
//  * Arenas are thread-local (WorkspaceArena::local()).  A kernel running
//    under parallel_for allocs from the *worker's* arena inside the loop
//    body; the dispatching thread packs shared panels from its own arena,
//    which workers may read (the scope outlives the parallel region).
//  * Blocks are retained across scopes ("grow-only"): capacity is monotone,
//    so warm kernels never touch the heap again.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "runtime/error.hpp"

namespace candle {

/// Alignment of every workspace allocation and of Tensor storage: one cache
/// line, which is also sufficient for 512-bit SIMD loads.
inline constexpr std::size_t kWorkspaceAlign = 64;

/// Arena capacity every thread-pool worker reserves when it starts: room for
/// the largest block a kernel lane packs (core/kernels.cpp asserts the GEMM
/// A block fits), so a lane's first chunk after warm-up does not grow its
/// arena.
inline constexpr std::size_t kLaneWorkspaceBytes = 256 * 1024;

/// Minimal std::allocator replacement handing out `Align`-aligned storage.
/// Used by Tensor so kernel operands start on cache-line boundaries.
template <typename T, std::size_t Align = kWorkspaceAlign>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// Cache-line-aligned float vector: the storage type behind Tensor.
using AlignedVector = std::vector<float, AlignedAllocator<float>>;

/// Aggregate view over every live (and retired) arena in the process.
struct WorkspaceStats {
  std::uint64_t grow_count = 0;   ///< heap block allocations, ever
  std::uint64_t alloc_count = 0;  ///< arena alloc() calls, ever
  std::uint64_t bytes_reserved = 0;  ///< current total block capacity
};

/// Grow-only bump allocator over 64-byte aligned heap blocks.
class WorkspaceArena {
 public:
  /// RAII mark/rollback of the bump pointer.  Scopes nest.
  class Scope {
   public:
    explicit Scope(WorkspaceArena& arena)
        : arena_(arena), block_(arena.cur_block_), used_(arena.cur_used_) {
      ++arena_.scope_depth_;
    }
    ~Scope() {
      --arena_.scope_depth_;
      arena_.rollback(block_, used_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    WorkspaceArena& arena_;
    std::size_t block_;
    std::size_t used_;
  };

  WorkspaceArena();
  ~WorkspaceArena();
  WorkspaceArena(const WorkspaceArena&) = delete;
  WorkspaceArena& operator=(const WorkspaceArena&) = delete;

  /// Bump-allocate `bytes` (64-byte aligned).  Valid until the enclosing
  /// Scope exits.  Grows the arena (one heap allocation) only when the
  /// request does not fit in the retained blocks.
  void* alloc_bytes(std::size_t bytes);

  /// Typed convenience wrapper: `count` elements of T.
  template <typename T>
  T* alloc(std::size_t count) {
    return static_cast<T*>(alloc_bytes(count * sizeof(T)));
  }

  /// Ensure at least `bytes` of contiguous capacity without allocating it
  /// piecemeal later (optional warm-up hook).
  void reserve(std::size_t bytes);

  /// Number of heap block allocations this arena ever made.  Flat across
  /// calls == the kernel path is allocation-free.
  std::uint64_t grow_count() const {
    return grow_count_.load(std::memory_order_relaxed);
  }
  /// Number of alloc() calls this arena ever served.
  std::uint64_t alloc_count() const {
    return alloc_count_.load(std::memory_order_relaxed);
  }
  /// Total capacity currently held (bytes).
  std::uint64_t bytes_reserved() const {
    return bytes_reserved_.load(std::memory_order_relaxed);
  }
  int scope_depth() const { return scope_depth_; }

  /// The calling thread's arena (created on first use, lives until thread
  /// exit; pool workers persist for the process lifetime).
  static WorkspaceArena& local();

 private:
  struct AlignedDelete {
    void operator()(std::byte* p) const noexcept {
      ::operator delete(p, std::align_val_t(kWorkspaceAlign));
    }
  };
  struct Block {
    std::unique_ptr<std::byte, AlignedDelete> data;
    std::size_t capacity = 0;  // bytes
    std::size_t used = 0;      // bytes bumped in this block
  };

  void rollback(std::size_t block, std::size_t used);
  Block make_block(std::size_t bytes);

  std::vector<Block> blocks_;
  std::size_t cur_block_ = 0;  // blocks_[cur_block_] receives the next bump
  std::size_t cur_used_ = 0;   // mirror of blocks_[cur_block_].used

  // Stats are relaxed atomics so workspace_stats() may read them from other
  // threads without racing the owning thread's bumps.
  std::atomic<std::uint64_t> grow_count_{0};
  std::atomic<std::uint64_t> alloc_count_{0};
  std::atomic<std::uint64_t> bytes_reserved_{0};
  int scope_depth_ = 0;
};

/// Sum of the counters of every arena in the process (live arenas plus
/// totals captured from destroyed ones).  The zero-allocation test snapshots
/// grow_count before/after a batch of kernel calls.
WorkspaceStats workspace_stats();

}  // namespace candle

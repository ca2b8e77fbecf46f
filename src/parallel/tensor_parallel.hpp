// Executable intra-layer (tensor) model parallelism: a Dense layer's
// output dimension is split across shards; each shard holds a weight slice
// and computes its activation slice; an all-gather reassembles the full
// activation.  This is the Megatron-style column partitioning, executed
// for real shard by shard — the concrete mechanism behind claim C6's
// "network model parallelism".
//
// Numerics are exactly those of the unsharded layer (verified by tests);
// the wire traffic per step (activations fwd, gradient slices bwd) is
// what the fabric model prices.
#pragma once

#include <memory>
#include <vector>

#include "nn/model.hpp"

namespace candle::parallel {

/// A Dense layer split column-wise over `shards` slices.
///   forward : each shard computes y_s = x W_s + b_s (its output slice),
///             then slices are all-gathered into the full y.
///   backward: each shard computes its dW_s, db_s from the dy slice and a
///             partial dx; partial dx's are sum-reduced across shards.
class ShardedDense {
 public:
  /// Split a built Dense layer's parameters into `shards` column slices.
  /// The source layer is only read; the sharded copy owns its slices.
  ShardedDense(const Dense& source, Index shards);

  Index shards() const { return static_cast<Index>(slices_.size()); }
  Index in_features() const { return in_; }
  Index out_features() const { return out_; }

  /// Forward a batch through all shards (serially over the slices —
  /// the wall-clock story belongs to the fabric model, the numerics here).
  /// Returns the full (batch, out) activation, identical to the source
  /// layer's forward.
  Tensor forward(const Tensor& x);

  /// Backward: given dLoss/dy (batch, out), fills per-shard weight grads
  /// and returns the full dLoss/dx (sum of shard partials).
  Tensor backward(const Tensor& dy);

  /// Bytes all-gathered per forward for a given batch (activations) and
  /// bytes reduced per backward (dx partials) — the claim-C6 wire traffic.
  double forward_wire_bytes(Index batch) const;
  double backward_wire_bytes(Index batch) const;

  /// Per-shard weight gradient (for optimizer steps / test inspection).
  const Tensor& weight_grad(Index shard) const;
  const Tensor& bias_grad(Index shard) const;

 private:
  struct Slice {
    Tensor w;   // (in, out_slice)
    Tensor b;   // (out_slice)
    Tensor dw;
    Tensor db;
    Index out_begin = 0;
    Index out_end = 0;
  };

  Index in_ = 0, out_ = 0;
  std::vector<Slice> slices_;
  Tensor x_cache_;
};

}  // namespace candle::parallel

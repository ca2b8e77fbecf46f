// Sequential model graph: an ordered list of layers trained by backprop.
// This mirrors the Keras-1 Sequential API that the 2017 CANDLE benchmarks
// were written against.
//
// The flat-gradient accessors (grad_size / copy_grads_to / set_grads_from /
// copy_weights_to / set_weights_from) exist for the distributed runtime:
// data-parallel replicas all-reduce one contiguous gradient vector, exactly
// as an MPI_Allreduce over a fused gradient buffer would.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace candle {

class Model {
 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Append a layer.  Must be called before build().
  Model& add(std::unique_ptr<Layer> layer);

  /// Allocate all parameters for a per-sample input shape; deterministic in
  /// `seed` (two models built with the same layers + seed are identical).
  void build(Shape input_shape, std::uint64_t seed);
  bool built() const { return built_; }

  Index num_layers() const { return static_cast<Index>(layers_.size()); }
  Layer& layer(Index i) { return *layers_.at(static_cast<std::size_t>(i)); }
  const Layer& layer(Index i) const {
    return *layers_.at(static_cast<std::size_t>(i));
  }
  const Shape& input_shape() const { return input_shape_; }
  const Shape& output_shape() const { return output_shape_; }

  /// Forward pass over a batch (first dim = batch size).
  Tensor forward(const Tensor& x, bool training = false);

  /// Const inference-mode forward pass: bit-identical to
  /// forward(x, /*training=*/false) but mutates no layer state, so any
  /// number of threads may call infer() on the *same* model concurrently.
  /// The serving engine (src/serve) runs its worker replicas through this
  /// path — they share one immutable weight set instead of copying it.
  Tensor infer(const Tensor& x) const;

  /// Backward pass: dLoss/dOutput in; fills layer grads.  The first layer
  /// computes its parameter grads only (Layer::backward_params), since
  /// nothing reads dLoss/dInput.
  void backward(const Tensor& dy);

  /// Invoked during the hooked backward as each layer's parameter gradients
  /// become final.  Layers are reported in reverse order (deepest first),
  /// including parameter-less ones — this is the stream a DDP-style bucketed
  /// all-reduce consumes to overlap communication with the remaining
  /// backward compute.
  using GradReadyHook = std::function<void(Index layer)>;

  /// Backward pass that reports per-layer gradient readiness.  Numerically
  /// identical to the monolithic backward(); the hook only observes.
  void backward(const Tensor& dy, const GradReadyHook& on_grad_ready);

  /// One optimizer step on a batch; returns the batch loss.  `loss_scale`
  /// multiplies the loss gradient before backprop and divides the parameter
  /// gradients before the update (mixed-precision loss scaling).
  float train_batch(const Tensor& x, const Tensor& y, const Loss& loss,
                    Optimizer& opt, float loss_scale = 1.0f);

  /// Mean loss over a dataset, evaluated in inference mode.
  float evaluate(const Tensor& x, const Tensor& y, const Loss& loss,
                 Index batch_size = 256);

  /// Inference-mode predictions for a batch tensor.  Slices the dataset
  /// through a reusable BatchAssembler (full batches and the ragged tail
  /// cycle through one buffer — no per-slice heap allocation) and runs the
  /// const infer() path; results are bit-identical for every batch_size.
  Tensor predict(const Tensor& x, Index batch_size = 256) const;

  // ---- parameters ------------------------------------------------------------

  std::vector<Tensor*> params();
  std::vector<Tensor*> grads();
  Index num_params() const;

  /// Total elements across all gradient tensors.
  Index grad_size() const { return num_params(); }

  /// Extent of one layer's gradients inside the flat gradient vector
  /// (forward-layer order, matching copy_grads_to): layer i's grads occupy
  /// [offset, offset + numel).  Parameter-less layers have numel == 0.
  struct GradExtent {
    Index offset = 0;
    Index numel = 0;
  };

  /// Per-layer flat-gradient extents, one entry per layer.
  std::vector<GradExtent> grad_extents() const;

  /// Serialize one layer's gradients into `out` (size must equal the
  /// layer's extent numel).  Used by the bucketed all-reduce to stream
  /// gradients out as backward produces them.
  void copy_layer_grads_to(Index layer, std::span<float> out) const;

  /// Serialize gradients into `out` (size must equal grad_size()).
  void copy_grads_to(std::span<float> out) const;
  /// Overwrite gradients from a flat buffer.
  void set_grads_from(std::span<const float> in);
  /// Scale all gradients in place.
  void scale_grads(float factor);
  /// Serialize / overwrite weights (for replica synchronization).
  void copy_weights_to(std::span<float> out) const;
  void set_weights_from(std::span<const float> in);

  // ---- architecture metadata (consumed by hpcsim) ------------------------------

  /// Forward multiply-accumulate FLOPs per sample, summed over layers.
  double flops_per_sample() const;

  /// Set the numeric format for every layer's heavy math.
  void set_compute_precision(Precision p);
  Precision compute_precision() const { return precision_; }

  /// One-line per-layer summary ("dense(64) -> relu -> dense(1)").
  std::string summary() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  Shape input_shape_, output_shape_;
  bool built_ = false;
  Precision precision_ = Precision::FP32;
};

}  // namespace candle

// Neural-network layers (Keras-1-era feature set, matching the dense +
// convolutional networks the paper says dominate current DNN workloads).
//
// Contract: a layer is built once for a fixed per-sample input shape, then
// alternates forward/backward.  `forward` consumes a batch tensor whose
// first dimension is the batch; `backward` consumes dLoss/dOutput for the
// same batch and returns dLoss/dInput, accumulating parameter gradients
// into the tensors exposed by `grads()` (overwritten each backward).
//
// Reduced-precision training (claim C1) threads through `set_precision`:
// Dense/Conv layers run their GEMMs through gemm_emulated at that format.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/formats.hpp"
#include "core/kernels.hpp"
#include "core/tensor.hpp"
#include "runtime/rng.hpp"

namespace candle {

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Human-readable layer type, e.g. "dense(64)".
  virtual std::string name() const = 0;

  /// Allocate parameters for the given per-sample input shape (no batch
  /// dimension) and return the per-sample output shape.  Called exactly once.
  virtual Shape build(const Shape& input, Pcg32& rng) = 0;

  /// Compute the batch output.  `training` enables dropout etc.
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  /// Const inference pass: bit-identical to `forward(x, /*training=*/false)`
  /// but touches no mutable state — no activation caches, no RNG draws — so
  /// any number of threads may run infer() on the *same* layer concurrently.
  /// This is the path the serving engine (src/serve) drives: worker threads
  /// share one immutable model instead of copying weights per replica.
  /// backward() still requires a prior forward(), never an infer().
  virtual Tensor infer(const Tensor& x) const = 0;

  /// Back-propagate: given dLoss/dOutput, fill parameter grads and return
  /// dLoss/dInput.  Must be called after a forward on the same batch.
  virtual Tensor backward(const Tensor& dy) = 0;

  /// backward() for a layer whose dLoss/dInput nobody reads (a model's
  /// first layer): fills the same parameter grads.  Layers that can skip
  /// the input-gradient math override it.
  virtual void backward_params(const Tensor& dy) { (void)backward(dy); }

  /// Trainable parameter tensors (empty for stateless layers).
  virtual std::vector<Tensor*> params() { return {}; }

  /// Gradient tensors, parallel to params().
  virtual std::vector<Tensor*> grads() { return {}; }

  /// Multiply-accumulate count per sample for one forward pass; the machine
  /// model prices a training step at ~3x this (fwd + two backward GEMMs).
  virtual double flops_per_sample() const { return 0.0; }

  /// Set the numeric format used for this layer's heavy math.  Container
  /// layers (e.g. Residual) override to propagate to their children.
  virtual void set_precision(Precision p) { precision_ = p; }
  Precision precision() const { return precision_; }

 protected:
  Precision precision_ = Precision::FP32;
};

/// Fully connected layer: y = x W + b with W of shape (in, out).
class Dense : public Layer {
 public:
  explicit Dense(Index units) : units_(units) {
    CANDLE_CHECK(units >= 1, "Dense needs at least one unit");
  }

  std::string name() const override {
    return "dense(" + std::to_string(units_) + ")";
  }
  Shape build(const Shape& input, Pcg32& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor infer(const Tensor& x) const override;
  Tensor backward(const Tensor& dy) override;
  /// dW and db only: skips the dx = dy W^T GEMM.
  void backward_params(const Tensor& dy) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  double flops_per_sample() const override {
    return 2.0 * static_cast<double>(in_) * static_cast<double>(units_);
  }

  const Tensor& weights() const { return w_; }
  const Tensor& bias() const { return b_; }

 private:
  Index units_;
  Index in_ = 0;
  Tensor w_, b_, dw_, db_;
  Tensor x_cache_;
};

/// Elementwise activations.
enum class Activation { ReLU, Sigmoid, Tanh, Identity, LeakyReLU, Elu, Softplus };

std::string activation_name(Activation a);

/// Activation layer; caches its output (all three functions have
/// output-expressible derivatives).
class ActivationLayer : public Layer {
 public:
  explicit ActivationLayer(Activation fn) : fn_(fn) {}

  std::string name() const override { return activation_name(fn_); }
  Activation fn() const { return fn_; }
  Shape build(const Shape& input, Pcg32& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor infer(const Tensor& x) const override;
  Tensor backward(const Tensor& dy) override;

 private:
  Activation fn_;
  Tensor y_cache_;
};

/// Inverted dropout: at training time zero each element with probability
/// `rate` and scale survivors by 1/(1-rate); identity at inference.
class Dropout : public Layer {
 public:
  explicit Dropout(float rate) : rate_(rate) {
    CANDLE_CHECK(rate >= 0.0f && rate < 1.0f, "dropout rate must be in [0,1)");
  }

  std::string name() const override { return "dropout"; }
  Shape build(const Shape& input, Pcg32& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor infer(const Tensor& x) const override;
  Tensor backward(const Tensor& dy) override;

 private:
  float rate_;
  Pcg32 rng_{0};
  Tensor mask_;
};

/// Collapse all non-batch dimensions: (B, d1, ..., dk) -> (B, d1*...*dk).
class Flatten : public Layer {
 public:
  std::string name() const override { return "flatten"; }
  Shape build(const Shape& input, Pcg32& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor infer(const Tensor& x) const override;
  Tensor backward(const Tensor& dy) override;

 private:
  Shape in_shape_;
};

/// 1-D convolution over (B, C, L) inputs, valid padding.
class Conv1D : public Layer {
 public:
  Conv1D(Index filters, Index kernel, Index stride = 1)
      : filters_(filters), kernel_(kernel), stride_(stride) {
    CANDLE_CHECK(filters >= 1 && kernel >= 1 && stride >= 1,
                 "invalid Conv1D geometry");
  }

  std::string name() const override {
    return "conv1d(" + std::to_string(filters_) + "x" +
           std::to_string(kernel_) + ")";
  }
  Shape build(const Shape& input, Pcg32& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor infer(const Tensor& x) const override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  double flops_per_sample() const override;

 private:
  Index filters_, kernel_, stride_;
  Index channels_ = 0, length_ = 0, lout_ = 0;
  Tensor w_, b_, dw_, db_;  // w: (filters, channels*kernel)
  Tensor x_cache_;
};

/// 2-D convolution over (B, C, H, W) inputs with a square kernel, valid
/// padding; implemented as im2col + GEMM.
class Conv2D : public Layer {
 public:
  Conv2D(Index filters, Index kernel, Index stride = 1)
      : filters_(filters), kernel_(kernel), stride_(stride) {
    CANDLE_CHECK(filters >= 1 && kernel >= 1 && stride >= 1,
                 "invalid Conv2D geometry");
  }

  std::string name() const override {
    return "conv2d(" + std::to_string(filters_) + "x" +
           std::to_string(kernel_) + "x" + std::to_string(kernel_) + ")";
  }
  Shape build(const Shape& input, Pcg32& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor infer(const Tensor& x) const override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  double flops_per_sample() const override;

 private:
  Index filters_, kernel_, stride_;
  Index channels_ = 0, height_ = 0, width_ = 0, hout_ = 0, wout_ = 0;
  Tensor w_, b_, dw_, db_;  // w: (filters, channels*kernel*kernel)
  Tensor x_cache_;
};

/// 1-D max pooling over (B, C, L) with window == stride (non-overlapping).
class MaxPool1D : public Layer {
 public:
  explicit MaxPool1D(Index window) : window_(window) {
    CANDLE_CHECK(window >= 1, "invalid pool window");
  }

  std::string name() const override {
    return "maxpool1d(" + std::to_string(window_) + ")";
  }
  Shape build(const Shape& input, Pcg32& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor infer(const Tensor& x) const override;
  Tensor backward(const Tensor& dy) override;

 private:
  Index window_;
  Index channels_ = 0, length_ = 0, lout_ = 0;
  std::vector<Index> argmax_;
  Index batch_ = 0;
};

// ---- convenience factories ---------------------------------------------------

std::unique_ptr<Layer> make_dense(Index units);
std::unique_ptr<Layer> make_activation(Activation fn);
std::unique_ptr<Layer> make_relu();
std::unique_ptr<Layer> make_sigmoid();
std::unique_ptr<Layer> make_tanh();
std::unique_ptr<Layer> make_leaky_relu();
std::unique_ptr<Layer> make_elu();
std::unique_ptr<Layer> make_softplus();
std::unique_ptr<Layer> make_dropout(float rate);
std::unique_ptr<Layer> make_flatten();
std::unique_ptr<Layer> make_conv1d(Index filters, Index kernel,
                                   Index stride = 1);
std::unique_ptr<Layer> make_conv2d(Index filters, Index kernel,
                                   Index stride = 1);
std::unique_ptr<Layer> make_maxpool1d(Index window);

}  // namespace candle

#include "nn/layer.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/workspace.hpp"

namespace candle {

namespace {

/// Glorot/Xavier uniform initialization: U[-s, s], s = sqrt(6/(fan_in+fan_out)).
Tensor glorot_uniform(Shape shape, Index fan_in, Index fan_out, Pcg32& rng) {
  const float s = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Tensor::uniform(std::move(shape), rng, -s, s);
}

Index batch_of(const Tensor& x) {
  CANDLE_CHECK(x.ndim() >= 2, "layer inputs need a batch dimension");
  return x.dim(0);
}

}  // namespace

// ---- Dense -------------------------------------------------------------------

Shape Dense::build(const Shape& input, Pcg32& rng) {
  CANDLE_CHECK(input.size() == 1,
               "Dense expects flat input, got " + shape_to_string(input));
  in_ = input[0];
  w_ = glorot_uniform({in_, units_}, in_, units_, rng);
  b_ = Tensor::zeros({units_});
  dw_ = Tensor::zeros({in_, units_});
  db_ = Tensor::zeros({units_});
  return {units_};
}

Tensor Dense::forward(const Tensor& x, bool /*training*/) {
  Tensor y = infer(x);
  x_cache_ = x;
  return y;
}

Tensor Dense::infer(const Tensor& x) const {
  CANDLE_CHECK(x.ndim() == 2 && x.dim(1) == in_,
               "Dense forward shape mismatch: " + shape_to_string(x.shape()));
  const Index batch = x.dim(0);
  Tensor y({batch, units_});
  // Per-unit bias rides the GEMM's C-write as a fused Column epilogue.
  const Epilogue ep{b_.data(), Epilogue::BiasAxis::Column,
                    Epilogue::Act::None};
  matmul_into(y, x, Op::None, w_, Op::None, 1.0f, 0.0f, precision_, ep);
  return y;
}

void Dense::backward_params(const Tensor& dy) {
  const Index batch = batch_of(dy);
  CANDLE_CHECK(dy.dim(1) == units_ && x_cache_.dim(0) == batch,
               "Dense backward shape mismatch");
  // dW = x^T dy ; db = column sums of dy.
  matmul_into(dw_, x_cache_, Op::Transpose, dy, Op::None, 1.0f, 0.0f,
              precision_);
  db_.fill(0.0f);
  for (Index i = 0; i < batch; ++i) {
    const float* dyrow = dy.data() + i * units_;
    for (Index j = 0; j < units_; ++j) db_[j] += dyrow[j];
  }
}

Tensor Dense::backward(const Tensor& dy) {
  backward_params(dy);
  // dx = dy W^T.
  Tensor dx({dy.dim(0), in_});
  matmul_into(dx, dy, Op::None, w_, Op::Transpose, 1.0f, 0.0f, precision_);
  return dx;
}

// ---- Activations ---------------------------------------------------------------

namespace {
constexpr float kLeakySlope = 0.01f;
constexpr float kEluAlpha = 1.0f;
}  // namespace

std::string activation_name(Activation a) {
  switch (a) {
    case Activation::ReLU: return "relu";
    case Activation::Sigmoid: return "sigmoid";
    case Activation::Tanh: return "tanh";
    case Activation::Identity: return "identity";
    case Activation::LeakyReLU: return "leaky_relu";
    case Activation::Elu: return "elu";
    case Activation::Softplus: return "softplus";
  }
  CANDLE_FAIL("unknown Activation");
}

Shape ActivationLayer::build(const Shape& input, Pcg32& /*rng*/) {
  return input;
}

Tensor ActivationLayer::forward(const Tensor& x, bool /*training*/) {
  Tensor y = infer(x);
  y_cache_ = y;
  return y;
}

Tensor ActivationLayer::infer(const Tensor& x) const {
  Tensor y = x;
  switch (fn_) {
    case Activation::ReLU:
      for (float& v : y.flat()) v = v > 0.0f ? v : 0.0f;
      break;
    case Activation::Sigmoid:
      for (float& v : y.flat()) v = 1.0f / (1.0f + std::exp(-v));
      break;
    case Activation::Tanh:
      for (float& v : y.flat()) v = std::tanh(v);
      break;
    case Activation::Identity:
      break;
    case Activation::LeakyReLU:
      for (float& v : y.flat()) v = v > 0.0f ? v : kLeakySlope * v;
      break;
    case Activation::Elu:
      for (float& v : y.flat()) {
        v = v > 0.0f ? v : kEluAlpha * (std::exp(v) - 1.0f);
      }
      break;
    case Activation::Softplus:
      // log(1 + e^x), overflow-safe form.
      for (float& v : y.flat()) {
        v = std::max(v, 0.0f) + std::log1p(std::exp(-std::abs(v)));
      }
      break;
  }
  return y;
}

Tensor ActivationLayer::backward(const Tensor& dy) {
  CANDLE_CHECK(dy.same_shape(y_cache_), "activation backward shape mismatch");
  Tensor dx = dy;
  const float* y = y_cache_.data();
  float* d = dx.data();
  const Index n = dx.numel();
  switch (fn_) {
    case Activation::ReLU:
      for (Index i = 0; i < n; ++i) d[i] = y[i] > 0.0f ? d[i] : 0.0f;
      break;
    case Activation::Sigmoid:
      for (Index i = 0; i < n; ++i) d[i] *= y[i] * (1.0f - y[i]);
      break;
    case Activation::Tanh:
      for (Index i = 0; i < n; ++i) d[i] *= 1.0f - y[i] * y[i];
      break;
    case Activation::Identity:
      break;
    case Activation::LeakyReLU:
      for (Index i = 0; i < n; ++i) d[i] *= y[i] > 0.0f ? 1.0f : kLeakySlope;
      break;
    case Activation::Elu:
      // d/dx = 1 for x>0; alpha*e^x = y + alpha for x<=0.
      for (Index i = 0; i < n; ++i) {
        d[i] *= y[i] > 0.0f ? 1.0f : y[i] + kEluAlpha;
      }
      break;
    case Activation::Softplus:
      // d/dx = sigmoid(x) = 1 - e^{-y}.
      for (Index i = 0; i < n; ++i) d[i] *= 1.0f - std::exp(-y[i]);
      break;
  }
  return dx;
}

// ---- Dropout -------------------------------------------------------------------

Shape Dropout::build(const Shape& input, Pcg32& rng) {
  rng_ = rng.split(0x9d0u);  // private stream: masks independent of init draws
  return input;
}

Tensor Dropout::forward(const Tensor& x, bool training) {
  if (!training || rate_ == 0.0f) {
    mask_ = Tensor();  // marks inference pass for backward
    return x;
  }
  mask_ = Tensor(x.shape());
  Tensor y = x;
  const float keep = 1.0f - rate_;
  const float inv_keep = 1.0f / keep;
  float* m = mask_.data();
  float* v = y.data();
  for (Index i = 0; i < y.numel(); ++i) {
    const bool kept = rng_.next_float() < keep;
    m[i] = kept ? inv_keep : 0.0f;
    v[i] *= m[i];
  }
  return y;
}

Tensor Dropout::infer(const Tensor& x) const { return x; }

Tensor Dropout::backward(const Tensor& dy) {
  if (mask_.numel() <= 1) return dy;  // inference pass
  CANDLE_CHECK(dy.same_shape(mask_), "dropout backward shape mismatch");
  Tensor dx = dy;
  const float* m = mask_.data();
  float* d = dx.data();
  for (Index i = 0; i < dx.numel(); ++i) d[i] *= m[i];
  return dx;
}

// ---- Flatten -------------------------------------------------------------------

Shape Flatten::build(const Shape& input, Pcg32& /*rng*/) {
  in_shape_ = input;
  return {shape_numel(input)};
}

Tensor Flatten::forward(const Tensor& x, bool /*training*/) {
  return infer(x);
}

Tensor Flatten::infer(const Tensor& x) const {
  Tensor y = x;
  y.reshape({x.dim(0), -1});
  return y;
}

Tensor Flatten::backward(const Tensor& dy) {
  Tensor dx = dy;
  Shape s = in_shape_;
  s.insert(s.begin(), dy.dim(0));
  dx.reshape(std::move(s));
  return dx;
}

// ---- Conv1D -------------------------------------------------------------------

Shape Conv1D::build(const Shape& input, Pcg32& rng) {
  CANDLE_CHECK(input.size() == 2,
               "Conv1D expects (channels, length), got " +
                   shape_to_string(input));
  channels_ = input[0];
  length_ = input[1];
  lout_ = conv_out_length(length_, kernel_, stride_);
  const Index fan_in = channels_ * kernel_;
  w_ = glorot_uniform({filters_, fan_in}, fan_in, filters_, rng);
  b_ = Tensor::zeros({filters_});
  dw_ = Tensor::zeros({filters_, fan_in});
  db_ = Tensor::zeros({filters_});
  return {filters_, lout_};
}

double Conv1D::flops_per_sample() const {
  return 2.0 * static_cast<double>(filters_) *
         static_cast<double>(channels_ * kernel_) *
         static_cast<double>(lout_);
}

Tensor Conv1D::forward(const Tensor& x, bool /*training*/) {
  Tensor y = infer(x);
  x_cache_ = x;
  return y;
}

Tensor Conv1D::infer(const Tensor& x) const {
  CANDLE_CHECK(x.ndim() == 3 && x.dim(1) == channels_ && x.dim(2) == length_,
               "Conv1D forward shape mismatch: " + shape_to_string(x.shape()));
  const Index batch = x.dim(0);
  Tensor y({batch, filters_, lout_});
  // The unfold streams straight into the GEMM's packed-B panels and the
  // per-filter bias is fused into the C-write — no im2col matrix, no
  // separate bias sweep.
  for (Index s = 0; s < batch; ++s) {
    conv1d_forward_gemm(precision_, x.data() + s * channels_ * length_,
                        channels_, length_, kernel_, stride_, w_.data(),
                        filters_, b_.data(), y.data() + s * filters_ * lout_);
  }
  return y;
}

Tensor Conv1D::backward(const Tensor& dy) {
  const Index batch = batch_of(dy);
  CANDLE_CHECK(dy.ndim() == 3 && dy.dim(1) == filters_ && dy.dim(2) == lout_,
               "Conv1D backward shape mismatch");
  const Index fan_in = channels_ * kernel_;
  dw_.fill(0.0f);
  db_.fill(0.0f);
  Tensor dx({batch, channels_, length_});
  WorkspaceArena& arena = WorkspaceArena::local();
  WorkspaceArena::Scope scope(arena);
  float* cols = arena.alloc<float>(static_cast<std::size_t>(fan_in * lout_));
  float* dcols = arena.alloc<float>(static_cast<std::size_t>(fan_in * lout_));
  for (Index s = 0; s < batch; ++s) {
    const float* dys = dy.data() + s * filters_ * lout_;
    // db
    for (Index f = 0; f < filters_; ++f) {
      for (Index j = 0; j < lout_; ++j) db_[f] += dys[f * lout_ + j];
    }
    // dW += dy_s @ cols^T
    im2col_1d(x_cache_.data() + s * channels_ * length_, channels_, length_,
              kernel_, stride_, cols);
    gemm_emulated(precision_, Op::None, Op::Transpose, filters_, fan_in,
                  lout_, 1.0f, dys, lout_, cols, lout_, 1.0f,
                  dw_.data(), fan_in);
    // dcols = W^T @ dy_s ; then scatter back.
    gemm_emulated(precision_, Op::Transpose, Op::None, fan_in, lout_,
                  filters_, 1.0f, w_.data(), fan_in, dys, lout_, 0.0f,
                  dcols, lout_);
    col2im_1d(dcols, channels_, length_, kernel_, stride_,
              dx.data() + s * channels_ * length_);
  }
  return dx;
}

// ---- Conv2D -------------------------------------------------------------------

Shape Conv2D::build(const Shape& input, Pcg32& rng) {
  CANDLE_CHECK(input.size() == 3,
               "Conv2D expects (channels, height, width), got " +
                   shape_to_string(input));
  channels_ = input[0];
  height_ = input[1];
  width_ = input[2];
  hout_ = conv_out_length(height_, kernel_, stride_);
  wout_ = conv_out_length(width_, kernel_, stride_);
  const Index fan_in = channels_ * kernel_ * kernel_;
  w_ = glorot_uniform({filters_, fan_in}, fan_in, filters_, rng);
  b_ = Tensor::zeros({filters_});
  dw_ = Tensor::zeros({filters_, fan_in});
  db_ = Tensor::zeros({filters_});
  return {filters_, hout_, wout_};
}

double Conv2D::flops_per_sample() const {
  return 2.0 * static_cast<double>(filters_) *
         static_cast<double>(channels_ * kernel_ * kernel_) *
         static_cast<double>(hout_ * wout_);
}

Tensor Conv2D::forward(const Tensor& x, bool /*training*/) {
  Tensor y = infer(x);
  x_cache_ = x;
  return y;
}

Tensor Conv2D::infer(const Tensor& x) const {
  CANDLE_CHECK(x.ndim() == 4 && x.dim(1) == channels_ &&
                   x.dim(2) == height_ && x.dim(3) == width_,
               "Conv2D forward shape mismatch: " + shape_to_string(x.shape()));
  const Index batch = x.dim(0);
  const Index ncols = hout_ * wout_;
  Tensor y({batch, filters_, hout_, wout_});
  // Fused unfold-into-pack + per-filter bias epilogue (see Conv1D::forward).
  for (Index s = 0; s < batch; ++s) {
    conv2d_forward_gemm(precision_, x.data() + s * channels_ * height_ * width_,
                        channels_, height_, width_, kernel_, stride_,
                        w_.data(), filters_, b_.data(),
                        y.data() + s * filters_ * ncols);
  }
  return y;
}

Tensor Conv2D::backward(const Tensor& dy) {
  const Index batch = batch_of(dy);
  CANDLE_CHECK(dy.ndim() == 4 && dy.dim(1) == filters_ &&
                   dy.dim(2) == hout_ && dy.dim(3) == wout_,
               "Conv2D backward shape mismatch");
  const Index fan_in = channels_ * kernel_ * kernel_;
  const Index ncols = hout_ * wout_;
  dw_.fill(0.0f);
  db_.fill(0.0f);
  Tensor dx({batch, channels_, height_, width_});
  WorkspaceArena& arena = WorkspaceArena::local();
  WorkspaceArena::Scope scope(arena);
  float* cols = arena.alloc<float>(static_cast<std::size_t>(fan_in * ncols));
  float* dcols = arena.alloc<float>(static_cast<std::size_t>(fan_in * ncols));
  for (Index s = 0; s < batch; ++s) {
    const float* dys = dy.data() + s * filters_ * ncols;
    for (Index f = 0; f < filters_; ++f) {
      for (Index j = 0; j < ncols; ++j) db_[f] += dys[f * ncols + j];
    }
    im2col_2d(x_cache_.data() + s * channels_ * height_ * width_, channels_,
              height_, width_, kernel_, stride_, cols);
    gemm_emulated(precision_, Op::None, Op::Transpose, filters_, fan_in,
                  ncols, 1.0f, dys, ncols, cols, ncols, 1.0f,
                  dw_.data(), fan_in);
    gemm_emulated(precision_, Op::Transpose, Op::None, fan_in, ncols,
                  filters_, 1.0f, w_.data(), fan_in, dys, ncols, 0.0f,
                  dcols, ncols);
    col2im_2d(dcols, channels_, height_, width_, kernel_, stride_,
              dx.data() + s * channels_ * height_ * width_);
  }
  return dx;
}

// ---- MaxPool1D -----------------------------------------------------------------

Shape MaxPool1D::build(const Shape& input, Pcg32& /*rng*/) {
  CANDLE_CHECK(input.size() == 2,
               "MaxPool1D expects (channels, length), got " +
                   shape_to_string(input));
  channels_ = input[0];
  length_ = input[1];
  CANDLE_CHECK(length_ >= window_, "pool window exceeds input length");
  lout_ = length_ / window_;
  return {channels_, lout_};
}

Tensor MaxPool1D::forward(const Tensor& x, bool /*training*/) {
  CANDLE_CHECK(x.ndim() == 3 && x.dim(1) == channels_ && x.dim(2) == length_,
               "MaxPool1D forward shape mismatch");
  batch_ = x.dim(0);
  Tensor y({batch_, channels_, lout_});
  argmax_.assign(static_cast<std::size_t>(batch_ * channels_ * lout_), 0);
  for (Index s = 0; s < batch_; ++s) {
    for (Index c = 0; c < channels_; ++c) {
      const float* xc = x.data() + (s * channels_ + c) * length_;
      float* yc = y.data() + (s * channels_ + c) * lout_;
      Index* am = argmax_.data() + (s * channels_ + c) * lout_;
      for (Index j = 0; j < lout_; ++j) {
        const Index base = j * window_;
        Index best = base;
        float bv = xc[base];
        for (Index t = 1; t < window_; ++t) {
          if (xc[base + t] > bv) {
            bv = xc[base + t];
            best = base + t;
          }
        }
        yc[j] = bv;
        am[j] = best;
      }
    }
  }
  return y;
}

Tensor MaxPool1D::infer(const Tensor& x) const {
  CANDLE_CHECK(x.ndim() == 3 && x.dim(1) == channels_ && x.dim(2) == length_,
               "MaxPool1D forward shape mismatch");
  const Index batch = x.dim(0);
  Tensor y({batch, channels_, lout_});
  for (Index s = 0; s < batch; ++s) {
    for (Index c = 0; c < channels_; ++c) {
      const float* xc = x.data() + (s * channels_ + c) * length_;
      float* yc = y.data() + (s * channels_ + c) * lout_;
      for (Index j = 0; j < lout_; ++j) {
        const Index base = j * window_;
        float bv = xc[base];
        for (Index t = 1; t < window_; ++t) bv = std::max(bv, xc[base + t]);
        yc[j] = bv;
      }
    }
  }
  return y;
}

Tensor MaxPool1D::backward(const Tensor& dy) {
  CANDLE_CHECK(dy.ndim() == 3 && dy.dim(0) == batch_ &&
                   dy.dim(1) == channels_ && dy.dim(2) == lout_,
               "MaxPool1D backward shape mismatch");
  Tensor dx({batch_, channels_, length_});
  for (Index s = 0; s < batch_; ++s) {
    for (Index c = 0; c < channels_; ++c) {
      const float* dyc = dy.data() + (s * channels_ + c) * lout_;
      float* dxc = dx.data() + (s * channels_ + c) * length_;
      const Index* am = argmax_.data() + (s * channels_ + c) * lout_;
      for (Index j = 0; j < lout_; ++j) dxc[am[j]] += dyc[j];
    }
  }
  return dx;
}

// ---- factories -----------------------------------------------------------------

std::unique_ptr<Layer> make_dense(Index units) {
  return std::make_unique<Dense>(units);
}
std::unique_ptr<Layer> make_activation(Activation fn) {
  return std::make_unique<ActivationLayer>(fn);
}
std::unique_ptr<Layer> make_relu() {
  return std::make_unique<ActivationLayer>(Activation::ReLU);
}
std::unique_ptr<Layer> make_sigmoid() {
  return std::make_unique<ActivationLayer>(Activation::Sigmoid);
}
std::unique_ptr<Layer> make_tanh() {
  return std::make_unique<ActivationLayer>(Activation::Tanh);
}
std::unique_ptr<Layer> make_leaky_relu() {
  return std::make_unique<ActivationLayer>(Activation::LeakyReLU);
}
std::unique_ptr<Layer> make_elu() {
  return std::make_unique<ActivationLayer>(Activation::Elu);
}
std::unique_ptr<Layer> make_softplus() {
  return std::make_unique<ActivationLayer>(Activation::Softplus);
}
std::unique_ptr<Layer> make_dropout(float rate) {
  return std::make_unique<Dropout>(rate);
}
std::unique_ptr<Layer> make_flatten() { return std::make_unique<Flatten>(); }
std::unique_ptr<Layer> make_conv1d(Index filters, Index kernel, Index stride) {
  return std::make_unique<Conv1D>(filters, kernel, stride);
}
std::unique_ptr<Layer> make_conv2d(Index filters, Index kernel, Index stride) {
  return std::make_unique<Conv2D>(filters, kernel, stride);
}
std::unique_ptr<Layer> make_maxpool1d(Index window) {
  return std::make_unique<MaxPool1D>(window);
}

}  // namespace candle

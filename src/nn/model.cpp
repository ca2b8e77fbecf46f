#include "nn/model.hpp"

#include <algorithm>

#include "nn/batching.hpp"

namespace candle {

Model& Model::add(std::unique_ptr<Layer> layer) {
  CANDLE_CHECK(!built_, "cannot add layers after build()");
  CANDLE_CHECK(layer != nullptr, "null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

void Model::build(Shape input_shape, std::uint64_t seed) {
  CANDLE_CHECK(!built_, "model already built");
  CANDLE_CHECK(!layers_.empty(), "model has no layers");
  input_shape_ = input_shape;
  Pcg32 rng(seed, 0xb111d);
  Shape shape = std::move(input_shape);
  std::uint64_t salt = 0;
  for (auto& layer : layers_) {
    // Each layer draws from its own split stream so inserting a layer does
    // not perturb the initialization of the layers after it.
    Pcg32 layer_rng = rng.split(salt++);
    shape = layer->build(shape, layer_rng);
  }
  output_shape_ = std::move(shape);
  built_ = true;
}

Tensor Model::forward(const Tensor& x, bool training) {
  CANDLE_CHECK(built_, "call build() before forward()");
  Tensor h = x;
  for (auto& layer : layers_) h = layer->forward(h, training);
  return h;
}

Tensor Model::infer(const Tensor& x) const {
  CANDLE_CHECK(built_, "call build() before infer()");
  Tensor h = x;
  for (const auto& layer : layers_) h = layer->infer(h);
  return h;
}

void Model::backward(const Tensor& dy) { backward(dy, nullptr); }

void Model::backward(const Tensor& dy, const GradReadyHook& on_grad_ready) {
  CANDLE_CHECK(built_, "call build() before backward()");
  Tensor d = dy;
  for (Index i = num_layers() - 1; i >= 0; --i) {
    Layer& layer = *layers_[static_cast<std::size_t>(i)];
    if (i > 0) {
      d = layer.backward(d);
    } else {
      layer.backward_params(d);
    }
    if (on_grad_ready) on_grad_ready(i);
  }
}

float Model::train_batch(const Tensor& x, const Tensor& y, const Loss& loss,
                         Optimizer& opt, float loss_scale) {
  CANDLE_CHECK(loss_scale > 0.0f, "loss scale must be positive");
  const Tensor pred = forward(x, /*training=*/true);
  const float value = loss.value(pred, y);
  Tensor dy = loss.grad(pred, y);
  if (loss_scale != 1.0f) dy.scale(loss_scale);
  backward(dy);
  if (loss_scale != 1.0f) scale_grads(1.0f / loss_scale);
  const auto ps = params();
  const auto gs = grads();
  opt.step(ps, gs);
  return value;
}

float Model::evaluate(const Tensor& x, const Tensor& y, const Loss& loss,
                      Index batch_size) {
  CANDLE_CHECK(batch_size >= 1, "batch size must be positive");
  const Index n = x.dim(0);
  double acc = 0.0;
  // Evaluate in slices so activation memory stays bounded.
  for (Index lo = 0; lo < n; lo += batch_size) {
    const Index hi = std::min(n, lo + batch_size);
    const Index rows = hi - lo;
    Shape xs = x.shape();
    xs[0] = rows;
    const Index xstride = x.numel() / n;
    Tensor xb(xs, std::vector<float>(x.data() + lo * xstride,
                                     x.data() + hi * xstride));
    Shape ys = y.shape();
    ys[0] = rows;
    const Index ystride = y.numel() / n;
    Tensor yb(ys, std::vector<float>(y.data() + lo * ystride,
                                     y.data() + hi * ystride));
    acc += static_cast<double>(loss.value(forward(xb, false), yb)) *
           static_cast<double>(rows);
  }
  return static_cast<float>(acc / static_cast<double>(n));
}

Tensor Model::predict(const Tensor& x, Index batch_size) const {
  CANDLE_CHECK(built_, "call build() before predict()");
  CANDLE_CHECK(batch_size >= 1, "batch size must be positive");
  const Index n = x.dim(0);
  Shape out_shape = output_shape_;
  out_shape.insert(out_shape.begin(), n);
  Tensor out(out_shape);
  if (n == 0) return out;
  const Index ostride = out.numel() / n;
  BatchAssembler assembler(input_shape_, std::min(batch_size, n));
  for (Index lo = 0; lo < n; lo += batch_size) {
    const Index hi = std::min(n, lo + batch_size);
    const Tensor yb = infer(assembler.batch_from(x, lo, hi));
    std::copy(yb.data(), yb.data() + yb.numel(), out.data() + lo * ostride);
  }
  return out;
}

std::vector<Tensor*> Model::params() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Model::grads() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->grads()) out.push_back(g);
  }
  return out;
}

Index Model::num_params() const {
  Index n = 0;
  for (const auto& layer : layers_) {
    for (Tensor* p : const_cast<Layer&>(*layer).params()) n += p->numel();
  }
  return n;
}

std::vector<Model::GradExtent> Model::grad_extents() const {
  std::vector<GradExtent> out;
  out.reserve(layers_.size());
  Index off = 0;
  for (const auto& layer : layers_) {
    GradExtent e;
    e.offset = off;
    for (Tensor* g : const_cast<Layer&>(*layer).grads()) e.numel += g->numel();
    off += e.numel;
    out.push_back(e);
  }
  return out;
}

void Model::copy_layer_grads_to(Index layer, std::span<float> out) const {
  CANDLE_CHECK(layer >= 0 && layer < num_layers(), "layer index out of range");
  Index off = 0;
  for (Tensor* g :
       const_cast<Layer&>(*layers_[static_cast<std::size_t>(layer)]).grads()) {
    CANDLE_CHECK(off + g->numel() <= static_cast<Index>(out.size()),
                 "layer grad buffer too small");
    std::copy(g->data(), g->data() + g->numel(), out.data() + off);
    off += g->numel();
  }
  CANDLE_CHECK(off == static_cast<Index>(out.size()),
               "layer grad buffer size mismatch");
}

void Model::copy_grads_to(std::span<float> out) const {
  Index off = 0;
  for (const auto& layer : layers_) {
    for (Tensor* g : const_cast<Layer&>(*layer).grads()) {
      CANDLE_CHECK(off + g->numel() <= static_cast<Index>(out.size()),
                   "grad buffer too small");
      std::copy(g->data(), g->data() + g->numel(), out.data() + off);
      off += g->numel();
    }
  }
  CANDLE_CHECK(off == static_cast<Index>(out.size()),
               "grad buffer size mismatch");
}

void Model::set_grads_from(std::span<const float> in) {
  Index off = 0;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->grads()) {
      CANDLE_CHECK(off + g->numel() <= static_cast<Index>(in.size()),
                   "grad buffer too small");
      std::copy(in.data() + off, in.data() + off + g->numel(), g->data());
      off += g->numel();
    }
  }
  CANDLE_CHECK(off == static_cast<Index>(in.size()),
               "grad buffer size mismatch");
}

void Model::scale_grads(float factor) {
  for (auto& layer : layers_) {
    for (Tensor* g : layer->grads()) g->scale(factor);
  }
}

void Model::copy_weights_to(std::span<float> out) const {
  Index off = 0;
  for (const auto& layer : layers_) {
    for (Tensor* p : const_cast<Layer&>(*layer).params()) {
      CANDLE_CHECK(off + p->numel() <= static_cast<Index>(out.size()),
                   "weight buffer too small");
      std::copy(p->data(), p->data() + p->numel(), out.data() + off);
      off += p->numel();
    }
  }
  CANDLE_CHECK(off == static_cast<Index>(out.size()),
               "weight buffer size mismatch");
}

void Model::set_weights_from(std::span<const float> in) {
  Index off = 0;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->params()) {
      CANDLE_CHECK(off + p->numel() <= static_cast<Index>(in.size()),
                   "weight buffer too small");
      std::copy(in.data() + off, in.data() + off + p->numel(), p->data());
      off += p->numel();
    }
  }
  CANDLE_CHECK(off == static_cast<Index>(in.size()),
               "weight buffer size mismatch");
}

double Model::flops_per_sample() const {
  double f = 0.0;
  for (const auto& layer : layers_) f += layer->flops_per_sample();
  return f;
}

void Model::set_compute_precision(Precision p) {
  precision_ = p;
  for (auto& layer : layers_) layer->set_precision(p);
}

std::string Model::summary() const {
  std::string s;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) s += " -> ";
    s += layers_[i]->name();
  }
  return s;
}

}  // namespace candle

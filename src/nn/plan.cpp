#include "nn/plan.hpp"

#include <algorithm>
#include <optional>

namespace candle {

namespace {

/// The epilogue form of an activation the GEMM can fuse, if it has one.
/// The epilogue's formulas are ActivationLayer's (core/kernels.hpp), so the
/// fused step is bit-identical to Dense then ActivationLayer.
std::optional<Epilogue::Act> fusable(Activation fn) {
  switch (fn) {
    case Activation::ReLU: return Epilogue::Act::ReLU;
    case Activation::Sigmoid: return Epilogue::Act::Sigmoid;
    case Activation::Tanh: return Epilogue::Act::Tanh;
    default: return std::nullopt;
  }
}

bool runs_fp32_kernel(Precision p) {
  return p == Precision::FP32 || p == Precision::FP64;
}

Shape with_rows(const Shape& sample, Index rows) {
  Shape s = sample;
  s.insert(s.begin(), rows);
  return s;
}

}  // namespace

InferencePlan::InferencePlan(const Model& model, Index max_rows)
    : max_rows_(max_rows), input_shape_(model.input_shape()) {
  CANDLE_CHECK(model.built(), "InferencePlan needs a built model");
  CANDLE_CHECK(max_rows >= 1, "InferencePlan needs max_rows >= 1");
  Shape shape = input_shape_;
  widest_ = shape_numel(shape);
  for (Index i = 0; i < model.num_layers(); ++i) {
    const Layer& layer = model.layer(i);
    Step step;
    step.in_shape = shape;
    step.name = layer.name();
    const auto* dense = dynamic_cast<const Dense*>(&layer);
    if (dense != nullptr && runs_fp32_kernel(layer.precision())) {
      const Tensor& w = dense->weights();
      step.weights = PackedMatrix(Op::None, w.dim(0), w.dim(1), w.data(),
                                  w.dim(1));
      step.bias.assign(dense->bias().data(),
                       dense->bias().data() + dense->bias().numel());
      shape = {w.dim(1)};
      const auto* next = i + 1 < model.num_layers()
                             ? dynamic_cast<const ActivationLayer*>(
                                   &model.layer(i + 1))
                             : nullptr;
      if (next != nullptr) {
        if (const auto act = fusable(next->fn())) {
          step.act = *act;
          step.name += '+';
          step.name += next->name();
          ++i;
        }
      }
    } else {
      // The layer's per-sample output shape, from a one-row probe.
      step.fallback = &layer;
      const Tensor y = layer.infer(Tensor(with_rows(shape, 1)));
      shape.assign(y.shape().begin() + 1, y.shape().end());
    }
    widest_ = std::max(widest_, shape_numel(shape));
    steps_.push_back(std::move(step));
  }
  output_shape_ = shape;
  CANDLE_CHECK(output_shape_ == model.output_shape(),
               "InferencePlan output shape disagrees with the model");
}

std::string InferencePlan::summary() const {
  std::string s;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (i > 0) s += " -> ";
    s += steps_[i].name;
  }
  return s;
}

InferencePlan::Scratch InferencePlan::make_scratch() const {
  Scratch s;
  for (AlignedVector& b : s.buf_) {
    b.resize(static_cast<std::size_t>(max_rows_ * widest_));
  }
  return s;
}

std::span<const float> InferencePlan::run(const Tensor& x,
                                          Scratch& scratch) const {
  CANDLE_CHECK(x.ndim() == static_cast<Index>(input_shape_.size()) + 1 &&
                   std::equal(input_shape_.begin(), input_shape_.end(),
                              x.shape().begin() + 1),
               "InferencePlan input shape mismatch: " +
                   shape_to_string(x.shape()));
  const Index rows = x.dim(0);
  CANDLE_CHECK(rows >= 1 && rows <= max_rows_,
               "InferencePlan batch rows must be in [1, max_rows]");
  const auto need = static_cast<std::size_t>(rows * widest_);
  CANDLE_CHECK(scratch.buf_[0].size() >= need &&
                   scratch.buf_[1].size() >= need,
               "InferencePlan scratch is too small; use make_scratch()");
  const float* in = x.data();
  int next = 0;
  for (const Step& s : steps_) {
    float* out = scratch.buf_[next].data();
    if (s.fallback == nullptr) {
      const Epilogue ep{s.bias.data(), Epilogue::BiasAxis::Column, s.act};
      gemm_prepacked(Op::None, rows, 1.0f, in, s.weights.rows(), s.weights,
                     0.0f, out, s.weights.cols(), ep);
    } else if (in == x.data()) {
      const Tensor y = s.fallback->infer(x);
      std::copy(y.data(), y.data() + y.numel(), out);
    } else {
      const Index n = rows * shape_numel(s.in_shape);
      const Tensor y = s.fallback->infer(Tensor(
          with_rows(s.in_shape, rows), std::vector<float>(in, in + n)));
      std::copy(y.data(), y.data() + y.numel(), out);
    }
    in = out;
    next ^= 1;
  }
  return {in, static_cast<std::size_t>(rows * shape_numel(output_shape_))};
}

}  // namespace candle

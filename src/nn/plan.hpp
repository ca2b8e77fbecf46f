// Frozen inference plan: the serving engine's forward pass.
//
// Model::infer runs layer by layer.  Every Dense call packs its whole K x N
// weight matrix into the GEMM's panel layout again and allocates its
// output, and a following activation sweeps that output once more.  At
// serving batch sizes (a few rows) the pack moves far more bytes than the
// GEMM computes with.  An InferencePlan does that work once, when it is
// built from a const Model:
//
//  * a Dense whose precision runs the fp32 kernel (FP32, FP64) becomes a
//    packed step: weights packed once (PackedMatrix), bias copied;
//  * a ReLU, Sigmoid or Tanh right after such a Dense fuses into that
//    step's GEMM epilogue;
//  * every other layer (dropout, conv, norms, residual, FP16/BF16/INT8
//    Dense, the other activations) is a fallback step running its own
//    infer().
//
// run() moves activations through two caller-owned ping-pong buffers
// (Scratch), so a plan of packed steps allocates nothing per call.  Every
// output element accumulates in the same k order as Model::infer, so run()
// is bit-identical to Model::infer (and to Model::predict) for any number
// of rows.
//
// The plan is a snapshot: packed steps keep the weights as they were at
// construction.  Fallback steps call the model's layers, so the model must
// outlive the plan.  Model::infer stays the reference path that training,
// predict() and the tests use.  A plan is immutable; any number of threads
// may run it at once, each with its own Scratch.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "nn/model.hpp"

namespace candle {

class InferencePlan {
 public:
  /// Activation buffers for run(): two of max_rows x the widest step.  One
  /// per thread running the plan; make it with make_scratch().
  class Scratch {
   private:
    friend class InferencePlan;
    AlignedVector buf_[2];
  };

  /// Build a plan of `model` (built) for batches of 1..max_rows rows.
  InferencePlan(const Model& model, Index max_rows);

  const Shape& input_shape() const { return input_shape_; }
  const Shape& output_shape() const { return output_shape_; }

  /// One entry per step, e.g. "dense(512)+relu -> dropout -> dense(1)".
  std::string summary() const;

  Scratch make_scratch() const;

  /// Run a (rows, input_shape...) batch, 1 <= rows <= max_rows.  Returns
  /// the rows x numel(output_shape()) result, which lives in `scratch` until
  /// its next run.
  std::span<const float> run(const Tensor& x, Scratch& scratch) const;

 private:
  struct Step {
    const Layer* fallback = nullptr;  // runs fallback->infer() when set
    PackedMatrix weights;             // packed Dense: (in, units)
    AlignedVector bias;
    Epilogue::Act act = Epilogue::Act::None;
    Shape in_shape;  // per sample
    std::string name;
  };

  Index max_rows_;
  Shape input_shape_, output_shape_;
  Index widest_ = 0;  // largest per-sample numel of any step's input/output
  std::vector<Step> steps_;
};

}  // namespace candle

// Reusable batch-tensor assembly for the inference paths.
//
// Model::predict and the serving engine's workers (src/serve/supervisor)
// both need the same operation — copy a set of per-sample rows into one
// contiguous (rows, sample...) tensor — and both need it allocation-free at
// steady state: predict slices a dataset into fixed-size batches with one
// ragged tail, and an engine worker assembles whatever rows it acquired
// this iteration (and, after a NaN-poisoned infer, just the poisoned rows).
// BatchAssembler owns a single buffer sized for the largest batch and
// cycles full and short batches through it via Tensor::resize_dim0, so
// after the first batch no heap allocation happens on the assembly path.
// Routing both callers through this one helper is also what makes the
// engine's batches bit-identical to serial predict slices.
#pragma once

#include <span>

#include "core/tensor.hpp"

namespace candle {

class BatchAssembler {
 public:
  /// `sample_shape` is the per-sample shape (no batch dimension); the buffer
  /// is allocated once for `max_rows` rows.
  BatchAssembler(Shape sample_shape, Index max_rows);

  Index max_rows() const { return max_rows_; }
  Index sample_numel() const { return sample_numel_; }

  /// Start a batch of `rows` rows (1 <= rows <= max_rows()) and return the
  /// buffer shaped (rows, sample...).  Row contents are stale until written
  /// through set_row() or batch_from().
  Tensor& begin(Index rows);

  /// Copy one flattened sample into row `row` of the current batch.
  void set_row(Index row, std::span<const float> sample);

  /// Assemble rows [lo, hi) of dataset tensor `x` (leading dim = samples,
  /// trailing dims matching the sample shape) into the buffer and return it.
  const Tensor& batch_from(const Tensor& x, Index lo, Index hi);

  const Tensor& batch() const { return batch_; }

 private:
  Shape sample_shape_;
  Index max_rows_;
  Index sample_numel_;
  Tensor batch_;
};

}  // namespace candle

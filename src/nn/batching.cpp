#include "nn/batching.hpp"

#include <algorithm>

namespace candle {

namespace {

Shape batched_shape(const Shape& sample_shape, Index rows) {
  Shape s = sample_shape;
  s.insert(s.begin(), rows);
  return s;
}

}  // namespace

BatchAssembler::BatchAssembler(Shape sample_shape, Index max_rows)
    : sample_shape_(std::move(sample_shape)),
      max_rows_(max_rows),
      sample_numel_(shape_numel(sample_shape_)),
      batch_(batched_shape(sample_shape_, max_rows)) {
  CANDLE_CHECK(max_rows_ >= 1, "BatchAssembler needs at least one row");
  CANDLE_CHECK(sample_numel_ >= 1, "BatchAssembler sample shape is empty");
}

Tensor& BatchAssembler::begin(Index rows) {
  CANDLE_CHECK(rows >= 1 && rows <= max_rows_,
               "batch rows must be in [1, max_rows]");
  batch_.resize_dim0(rows);
  return batch_;
}

void BatchAssembler::set_row(Index row, std::span<const float> sample) {
  CANDLE_CHECK(row >= 0 && row < batch_.dim(0), "batch row out of range");
  CANDLE_CHECK(static_cast<Index>(sample.size()) == sample_numel_,
               "sample size does not match the assembler's sample shape");
  std::copy(sample.begin(), sample.end(),
            batch_.data() + row * sample_numel_);
}

const Tensor& BatchAssembler::batch_from(const Tensor& x, Index lo, Index hi) {
  CANDLE_CHECK(x.ndim() >= 1 && lo >= 0 && lo < hi && hi <= x.dim(0),
               "batch_from range out of bounds");
  CANDLE_CHECK(x.dim(0) > 0 && x.numel() % x.dim(0) == 0 &&
                   x.numel() / x.dim(0) == sample_numel_,
               "dataset sample shape does not match the assembler");
  begin(hi - lo);
  std::copy(x.data() + lo * sample_numel_, x.data() + hi * sample_numel_,
            batch_.data());
  return batch_;
}

}  // namespace candle

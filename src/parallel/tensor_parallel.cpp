#include "parallel/tensor_parallel.hpp"

#include "core/kernels.hpp"

namespace candle::parallel {

ShardedDense::ShardedDense(const Dense& source, Index shards) {
  const Tensor& w = source.weights();
  const Tensor& b = source.bias();
  CANDLE_CHECK(w.ndim() == 2, "source Dense must be built");
  in_ = w.dim(0);
  out_ = w.dim(1);
  CANDLE_CHECK(shards >= 1 && shards <= out_,
               "shard count must be in [1, out_features]");
  slices_.resize(static_cast<std::size_t>(shards));
  for (Index s = 0; s < shards; ++s) {
    Slice& slice = slices_[static_cast<std::size_t>(s)];
    slice.out_begin = s * out_ / shards;
    slice.out_end = (s + 1) * out_ / shards;
    const Index width = slice.out_end - slice.out_begin;
    CANDLE_CHECK(width >= 1, "empty shard slice");
    slice.w = Tensor({in_, width});
    slice.b = Tensor({width});
    slice.dw = Tensor({in_, width});
    slice.db = Tensor({width});
    for (Index i = 0; i < in_; ++i) {
      for (Index j = 0; j < width; ++j) {
        slice.w.at(i, j) = w.at(i, slice.out_begin + j);
      }
    }
    for (Index j = 0; j < width; ++j) slice.b[j] = b[slice.out_begin + j];
  }
}

Tensor ShardedDense::forward(const Tensor& x) {
  CANDLE_CHECK(x.ndim() == 2 && x.dim(1) == in_,
               "ShardedDense forward shape mismatch");
  x_cache_ = x;
  const Index batch = x.dim(0);
  Tensor y({batch, out_});
  for (const Slice& slice : slices_) {
    const Index width = slice.out_end - slice.out_begin;
    Tensor ys({batch, width});
    matmul_into(ys, x, Op::None, slice.w, Op::None);
    for (Index i = 0; i < batch; ++i) {
      for (Index j = 0; j < width; ++j) {
        y.at(i, slice.out_begin + j) = ys.at(i, j) + slice.b[j];
      }
    }
  }
  return y;
}

Tensor ShardedDense::backward(const Tensor& dy) {
  CANDLE_CHECK(dy.ndim() == 2 && dy.dim(1) == out_,
               "ShardedDense backward shape mismatch");
  const Index batch = dy.dim(0);
  CANDLE_CHECK(x_cache_.dim(0) == batch, "backward before forward");
  Tensor dx({batch, in_});  // zero: shards accumulate into it
  for (Slice& slice : slices_) {
    const Index width = slice.out_end - slice.out_begin;
    // Slice of dy owned by this shard.
    Tensor dys({batch, width});
    for (Index i = 0; i < batch; ++i) {
      for (Index j = 0; j < width; ++j) {
        dys.at(i, j) = dy.at(i, slice.out_begin + j);
      }
    }
    // dW_s = x^T dy_s ; db_s = column sums ; dx += dy_s W_s^T.
    matmul_into(slice.dw, x_cache_, Op::Transpose, dys, Op::None);
    slice.db.fill(0.0f);
    for (Index i = 0; i < batch; ++i) {
      for (Index j = 0; j < width; ++j) slice.db[j] += dys.at(i, j);
    }
    matmul_into(dx, dys, Op::None, slice.w, Op::Transpose, 1.0f, 1.0f);
  }
  return dx;
}

double ShardedDense::forward_wire_bytes(Index batch) const {
  // All-gather: each shard contributes its activation slice once.
  const double total_activation = 4.0 * static_cast<double>(batch) * out_;
  const double own_share = total_activation / static_cast<double>(shards());
  return total_activation - own_share;  // bytes received per shard
}

double ShardedDense::backward_wire_bytes(Index batch) const {
  // Sum-reduce of full dx partials across shards (ring: 2(p-1)/p * n).
  const double n = 4.0 * static_cast<double>(batch) * in_;
  const double p = static_cast<double>(shards());
  return p > 1 ? 2.0 * (p - 1.0) / p * n : 0.0;
}

const Tensor& ShardedDense::weight_grad(Index shard) const {
  CANDLE_CHECK(shard >= 0 && shard < shards(), "shard index out of range");
  return slices_[static_cast<std::size_t>(shard)].dw;
}

const Tensor& ShardedDense::bias_grad(Index shard) const {
  CANDLE_CHECK(shard >= 0 && shard < shards(), "shard index out of range");
  return slices_[static_cast<std::size_t>(shard)].db;
}

}  // namespace candle::parallel

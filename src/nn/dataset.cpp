#include "nn/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace candle {

namespace {

Tensor gather_rows(const Tensor& t, std::span<const Index> idx) {
  CANDLE_CHECK(t.ndim() >= 1, "gather needs at least rank 1");
  const Index n = t.dim(0);
  const Index stride = n > 0 ? t.numel() / n : 0;
  Shape s = t.shape();
  s[0] = static_cast<Index>(idx.size());
  Tensor out(s);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const Index r = idx[i];
    CANDLE_CHECK(r >= 0 && r < n, "gather row index out of range");
    std::copy(t.data() + r * stride, t.data() + (r + 1) * stride,
              out.data() + static_cast<Index>(i) * stride);
  }
  return out;
}

}  // namespace

Dataset slice(const Dataset& d, Index lo, Index hi) {
  CANDLE_CHECK(lo >= 0 && lo <= hi && hi <= d.size(), "bad slice range");
  std::vector<Index> idx(static_cast<std::size_t>(hi - lo));
  std::iota(idx.begin(), idx.end(), lo);
  return gather(d, idx);
}

Dataset gather(const Dataset& d, std::span<const Index> idx) {
  return {gather_rows(d.x, idx), gather_rows(d.y, idx)};
}

std::pair<Dataset, Dataset> split(const Dataset& d, double first_fraction,
                                  std::uint64_t seed) {
  CANDLE_CHECK(first_fraction >= 0.0 && first_fraction <= 1.0,
               "split fraction must be in [0,1]");
  std::vector<Index> order(static_cast<std::size_t>(d.size()));
  std::iota(order.begin(), order.end(), 0);
  Pcg32 rng(seed, 0x5911f);
  std::shuffle(order.begin(), order.end(), rng);
  const auto cut = static_cast<std::size_t>(
      std::llround(first_fraction * static_cast<double>(d.size())));
  const std::span<const Index> first(order.data(), cut);
  const std::span<const Index> second(order.data() + cut,
                                      order.size() - cut);
  return {gather(d, first), gather(d, second)};
}

BatchIterator::BatchIterator(const Dataset& data, Index batch_size,
                             bool shuffle, std::uint64_t seed)
    : data_(&data),
      batch_size_(batch_size),
      shuffle_(shuffle),
      rng_(seed, 0xba7c4) {
  CANDLE_CHECK(batch_size >= 1, "batch size must be positive");
  CANDLE_CHECK(data.size() >= 1, "cannot iterate an empty dataset");
  order_.resize(static_cast<std::size_t>(data.size()));
  std::iota(order_.begin(), order_.end(), 0);
  if (shuffle_) reshuffle();
}

Index BatchIterator::batches_per_epoch() const {
  return (data_->size() + batch_size_ - 1) / batch_size_;
}

void BatchIterator::reshuffle() { std::shuffle(order_.begin(), order_.end(), rng_); }

Dataset BatchIterator::next() {
  if (cursor_ >= data_->size()) {
    cursor_ = 0;
    ++epoch_;
    if (shuffle_) reshuffle();
  }
  const Index hi = std::min<Index>(cursor_ + batch_size_, data_->size());
  const std::span<const Index> idx(order_.data() + cursor_,
                                   static_cast<std::size_t>(hi - cursor_));
  cursor_ = hi;
  return gather(*data_, idx);
}

Standardizer Standardizer::fit(const Tensor& x) {
  CANDLE_CHECK(x.ndim() == 2, "Standardizer expects (samples, features)");
  const Index n = x.dim(0), f = x.dim(1);
  CANDLE_CHECK(n >= 1, "cannot fit on an empty tensor");
  Standardizer s;
  s.mean.assign(static_cast<std::size_t>(f), 0.0f);
  s.stddev.assign(static_cast<std::size_t>(f), 0.0f);
  std::vector<double> mean(static_cast<std::size_t>(f), 0.0);
  std::vector<double> sq(static_cast<std::size_t>(f), 0.0);
  for (Index i = 0; i < n; ++i) {
    const float* row = x.data() + i * f;
    for (Index j = 0; j < f; ++j) {
      mean[static_cast<std::size_t>(j)] += row[j];
      sq[static_cast<std::size_t>(j)] += static_cast<double>(row[j]) * row[j];
    }
  }
  for (Index j = 0; j < f; ++j) {
    const double m = mean[static_cast<std::size_t>(j)] / n;
    const double var = std::max(0.0, sq[static_cast<std::size_t>(j)] / n - m * m);
    s.mean[static_cast<std::size_t>(j)] = static_cast<float>(m);
    // Guard constant features: unit scale leaves them centred at zero.
    s.stddev[static_cast<std::size_t>(j)] =
        var > 1e-12 ? static_cast<float>(std::sqrt(var)) : 1.0f;
  }
  return s;
}

void Standardizer::apply(Tensor& x) const {
  CANDLE_CHECK(x.ndim() == 2, "Standardizer expects (samples, features)");
  const Index n = x.dim(0), f = x.dim(1);
  CANDLE_CHECK(static_cast<std::size_t>(f) == mean.size(),
               "Standardizer feature count mismatch");
  for (Index i = 0; i < n; ++i) {
    float* row = x.data() + i * f;
    for (Index j = 0; j < f; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      row[j] = (row[j] - mean[ju]) / stddev[ju];
    }
  }
}

}  // namespace candle
